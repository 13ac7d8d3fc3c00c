"""Command-line front end for the prime-tuple laboratory.

Subcommands
-----------
sieve       stream the primes up to n_max, report pi, psi, Mertens and squarefree counts
lambda      tabulate the truncated divisor-sum weights lambda_R(n) and LambdaBig_R(n)
singular    evaluate singular-series constants / values as truncated Euler products
correlate   evaluate one correlation sum S_k (or mixed S~_k) against its prediction
moments     window moments of psi_R or psi, mixed moments, first-moment identity
lemma       evaluate one of the five mean-value lemmas on an x-ladder
omega       the coupled two-scale experiment for the third moment's sign

Output contract (determinism)
-----------------------------
* CSV: '#'-prefixed config-echo lines (sorted by key), then a header row and
  data rows with a fixed, documented column order; floats rendered via repr().
* JSON: a single object with "schema_version", "command", "config" and "rows",
  serialized with sorted keys and a trailing newline.
* No timestamps, hostnames, or other run-dependent values are ever emitted.
* --threads is accepted and ignored: no kernel uses threads.  It stays
  because the determinism checks pass it (acceptance criterion 14,
  test_bit_identical_across_threads, test_threads_never_echoed and the CLI
  fuzz menu), and it is *excluded* from the config echo so that output
  bytes are identical for any value.

Exit codes
----------
0  success
1  a hard-asserted identity failed (exact expansion mismatch, identity
   residual above tolerance, first-moment route disagreement)
2  argument-parsing error (argparse default)
3  precondition violation (ValueError raised by the library, a result
   beyond float64 included), or an OSError, such as an --output path in a
   missing directory or naming a directory
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from dataclasses import asdict

# numpy and the library modules are imported by the subcommand that runs
# them, so `--help` and a usage error load neither, and each cell loads only
# the modules of its own subcommand.

SCHEMA_VERSION = 2

# Fixed CSV column orders, one list per (sub)command mode.
SIEVE_FIELDS = ["n_max", "primes", "psi", "mertens", "squarefree"]
LAMBDA_FIELDS = ["n", "lambda_R", "biglambda_R"]
SINGULAR_FIELDS = ["kind", "input", "value", "finite_part", "p_cut", "tail_bound"]
CORRELATE_FIELDS = [
    "N", "R", "pattern", "k", "r", "mixed", "primed", "exact",
    "computed", "predicted_main", "residual", "normalized_residual", "exact_value",
]
MOMENT_FIELDS = [
    "kind", "k", "N", "h", "R", "lambda_param", "centered", "primed", "exact",
    "computed", "via_correlations", "predicted",
    "expansion_residual", "prediction_residual",
]
FIRST_MOMENT_FIELDS = [
    "N", "h", "direct", "three_piece", "psi_form",
    "exact_equal_12", "exact_equal_13", "max_abs_diff",
]
OMEGA_FIELDS = [
    "N", "h", "R", "rho", "C", "A", "m1", "m2", "m3",
    "expansion_m2", "expansion_m3",
    "identity_residual_2", "identity_residual_3", "predicted_m3",
]
LEMMA_FIELDS = ["which", "x", "lhs", "main", "scaled_error"]

# Gate for the hard-asserted omega expansion identities (relative).  A wrong
# rearrangement produces O(1) relative mismatch; correct float evaluation
# stays near 1e-13 even with the heavy cancellation at small N.
OMEGA_IDENTITY_RTOL = 1e-6


# ----------------------------------------------------------------------------
# argument parsing helpers
# ----------------------------------------------------------------------------

def parse_count(text: str) -> int:
    """Parse a positive integer allowing scientific notation ('1e6' -> 1000000)."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value) or value <= 0 or value != int(value):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(value)


def parse_ladder(text: str) -> tuple[int, ...]:
    """Parse a comma-separated increasing ladder of evaluation points."""
    try:
        rungs = tuple(parse_count(part) for part in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad ladder {text!r}: {exc}") from exc
    if not rungs or any(b <= a for a, b in zip(rungs, rungs[1:])):
        raise argparse.ArgumentTypeError(f"ladder must be strictly increasing: {text!r}")
    return rungs


def parse_pattern(text: str):
    """Parse a shift pattern 'h1:a1,h2:a2,...' into a singular.ShiftPattern."""
    from .singular import ShiftPattern
    try:
        return ShiftPattern.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def parse_keyvals(text: str) -> dict[str, str]:
    """Parse 'key=val,key=val' option strings (values may not contain commas)."""
    out: dict[str, str] = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"expected key=value, got {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if not key or not val.strip():
            raise argparse.ArgumentTypeError(f"expected key=value, got {part!r}")
        if key in out:
            raise argparse.ArgumentTypeError(f"duplicate key {key!r}")
        out[key] = val.strip()
    return out


def _resolve_R(args, N: int) -> int:
    """Resolve the truncation level from --r or --r-exp (R = round(N^theta))."""
    if getattr(args, "r", None) is not None:
        return args.r
    if getattr(args, "r_exp", None) is not None:
        try:
            R = int(round(N ** args.r_exp))
        except OverflowError as exc:  # N^theta or its rounding
            raise ValueError(f"R = round(N^{args.r_exp}) overflows") from exc
        if R < 1:
            raise ValueError(f"R = round(N^{args.r_exp}) = {R} must be >= 1")
        return R
    raise ValueError("one of --r / --r-exp is required")


def _resolve_h(args, N: int) -> tuple[int, float | None]:
    """Resolve the window length from --h or --lambda (h = round(lambda*log N))."""
    if getattr(args, "h", None) is not None:
        return args.h, None
    if getattr(args, "lambda_param", None) is not None:
        from .moments import h_from_lambda
        return h_from_lambda(N, args.lambda_param), args.lambda_param
    raise ValueError("one of --h / --lambda is required")


# ----------------------------------------------------------------------------
# deterministic output
# ----------------------------------------------------------------------------

def _numpy_scalar(value) -> bool:
    """Whether value is a numpy scalar; none exists before numpy is loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.generic)


def _fmt(value) -> str:
    """Render one CSV cell deterministically (floats via repr, None empty)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    if _numpy_scalar(value):
        return _fmt(value.item())
    return str(value)


def _json_safe(value):
    """One config or row value as JSON: scalars as they are, numpy scalars
    as Python ones, anything else (a Fraction) as its str."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if _numpy_scalar(value):
        return _json_safe(value.item())
    return str(value)


def _emit(command: str, config: dict, fieldnames: list[str], rows: list[dict],
          fmt: str, output: str | None) -> None:
    buf = io.StringIO()
    if fmt == "csv":
        buf.write(f"# schema = primelab-{command}-csv-v{SCHEMA_VERSION}\n")
        for key in sorted(config):
            buf.write(f"# {key} = {_fmt(config[key])}\n")
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": {k: _json_safe(v) for k, v in config.items()},
            "rows": [{k: _json_safe(row.get(k)) for k in fieldnames} for row in rows],
        }
        json.dump(payload, buf, indent=2, sort_keys=True)
        buf.write("\n")
    text = buf.getvalue()
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail_identity(message: str) -> int:
    print(f"identity failure: {message}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------------
# subcommand handlers (each returns a process exit code)
# ----------------------------------------------------------------------------

def _cmd_sieve(args) -> int:
    from . import tables

    n = args.n_max
    # one pass over the streamed sieve, which keeps no table; psi(n) is the
    # last step of the last block
    primes = 0
    for _lo, _hi, block_primes, _q, steps in tables.psi_blocks(n):
        primes += block_primes.size
    # from mu up to n^(2/3), sieved apart in memory
    mertens, squarefree = tables.mertens_squarefree(n)
    config = {"command": "sieve", "n_max": n}
    rows = [{
        "n_max": n,
        "primes": primes,
        "psi": float(steps[-1]),
        "mertens": mertens,
        "squarefree": squarefree,
    }]
    _emit("sieve", config, SIEVE_FIELDS, rows, args.format, args.output)
    return 0


def _cmd_lambda(args) -> int:
    import numpy as np

    from . import approximants, tables

    R, n = args.r, args.n
    if n > tables.TABLE_MAX:
        raise ValueError(f"n={n} is beyond {tables.TABLE_MAX}")
    # the exact weights first: they refuse a large R before any table is built
    exact = approximants.build_weights(R, exact=True) if args.exact else None
    lam = approximants.lambda_R_range(n, approximants.build_weights(R))
    big = approximants.lambda_R_range(n, approximants.biglambda_weights(R))
    config = {"command": "lambda", "R": R, "n": n, "exact": args.exact}
    if exact is not None:
        # Hard identity: the float evaluation must agree with the exact
        # rational values scaled by the common denominator.
        exact_ints = approximants.lambda_R_range(n, exact)
        D = exact.denominator
        config["denominator"] = D
        exact_floats = np.array([num / D for num in exact_ints])
        if not np.allclose(lam[1:], exact_floats[1:], rtol=1e-10, atol=1e-10):
            return _fail_identity("float lambda_R values disagree with exact rationals")
    rows = [{"n": i, "lambda_R": float(lam[i]), "biglambda_R": float(big[i])}
            for i in range(1, n + 1)]
    _emit("lambda", config, LAMBDA_FIELDS, rows, args.format, args.output)
    return 0


def _cmd_singular(args) -> int:
    from . import singular

    p_cut = args.p_cut if args.p_cut is not None else singular.DEFAULT_P_CUT
    if args.pattern is not None:
        if args.j is not None:
            raise ValueError("--pattern carries its own shifts and reads no --j")
        if any(a != 1 for a in args.pattern.multiplicities):
            raise ValueError(f"singular --pattern reads distinct shifts only, so every "
                             f"multiplicity must be 1, got {args.pattern}")
        sv = singular.singular_vector(args.pattern.shifts, p_cut=p_cut)
        kind, label = "pattern", str(args.pattern)
    elif args.sn is not None and args.j is not None:
        sv = singular.singular_Sn(args.sn, args.j, p_cut=p_cut)
        kind, label = "Sn", f"n={args.sn},j={args.j}"
    else:
        raise ValueError("provide either --pattern or both --sn and --j")
    config = {"command": "singular", "kind": kind, "input": label, "p_cut": p_cut}
    rows = [{
        "kind": kind,
        "input": label,
        "value": sv.value,
        "finite_part": sv.finite_part,
        "p_cut": sv.p_cut,
        "tail_bound": sv.tail_bound,
    }]
    _emit("singular", config, SINGULAR_FIELDS, rows, args.format, args.output)
    return 0


def _cmd_correlate(args) -> int:
    from . import correlations

    N = args.n
    R = _resolve_R(args, N)
    pattern = args.pattern
    p_cut = args.p_cut if args.p_cut is not None else correlations.DEFAULT_P_CUT
    if args.mixed:
        if args.exact:
            raise ValueError("--exact is not available for mixed correlations")
        res = correlations.s_tilde_k(N, pattern, R,
                                     primed_range=args.primed_range,
                                     p_cut=p_cut)
    else:
        res = correlations.s_k(N, pattern, R, exact=args.exact,
                               primed_range=args.primed_range,
                               p_cut=p_cut)
    config = {
        "command": "correlate", "N": N, "R": R,
        "r_exp": args.r_exp, "pattern": str(pattern),
        "mixed": args.mixed, "primed_range": args.primed_range,
        "exact": args.exact, "p_cut": p_cut,
    }
    rows = [{
        "N": N, "R": R, "pattern": str(pattern),
        "k": pattern.k, "r": pattern.r,
        "mixed": res.mixed, "primed": res.primed_range, "exact": args.exact,
        "computed": res.computed,
        "predicted_main": res.predicted_main,
        "residual": res.residual,
        "normalized_residual": res.normalized_residual,
        "exact_value": res.exact_value,
    }]
    _emit("correlate", config, CORRELATE_FIELDS, rows, args.format, args.output)
    return 0


#: the options each moments mode reads besides --n and --h/--lambda
_MOMENT_OPTIONS = {
    "first_moment": (),
    "psi": ("k", "centered", "primed"),
    "mixed": ("k", "r", "r_exp", "primed"),
    "psi_R": ("k", "r", "r_exp", "exact", "expand", "primed"),
}


def _cmd_moments(args) -> int:
    from . import moments

    mode = ("first_moment" if args.first_moment else "psi" if args.psi
            else "mixed" if args.mixed else "psi_R")
    # an unset option is None and an unset flag False; a given 0 is neither
    unread = [f"--{name.replace('_', '-')}"
              for name in ("k", "r", "r_exp", "centered", "exact", "expand", "primed")
              if name not in _MOMENT_OPTIONS[mode]
              and getattr(args, name) is not None and getattr(args, name) is not False]
    if unread:
        raise ValueError(f"moments mode {mode} reads no {', '.join(unread)}")
    N = args.n
    h, lam = _resolve_h(args, N)

    if args.first_moment:
        rep = moments.first_moment_identity(N, h)
        config = {"command": "moments", "mode": "first_moment",
                  "N": N, "h": h, "lambda_param": lam}
        rows = [asdict(rep)]
        _emit("moments", config, FIRST_MOMENT_FIELDS, rows, args.format, args.output)
        if not (rep.exact_equal_12 and rep.exact_equal_13):
            return _fail_identity("first-moment routes disagree at integer level")
        return 0

    k = 1 if args.k is None else args.k
    if args.psi:
        rep = moments.moment_psi(N, h, k, centered=args.centered,
                                 primed=args.primed)
        config = {"command": "moments", "mode": "psi", "N": N, "h": h, "k": k,
                  "lambda_param": lam, "centered": args.centered,
                  "primed": args.primed}
    elif args.mixed:
        R = _resolve_R(args, N)
        rep = moments.mixed_moment(N, h, R, k, primed=args.primed)
        config = {"command": "moments", "mode": "mixed", "N": N, "h": h,
                  "R": R, "r_exp": args.r_exp, "k": k, "lambda_param": lam,
                  "primed": args.primed}
    else:
        R = _resolve_R(args, N)
        rep = moments.moment_psiR(N, h, R, k, exact=args.exact,
                                  primed=args.primed, expand=args.expand)
        config = {"command": "moments", "mode": "psi_R", "N": N, "h": h,
                  "R": R, "r_exp": args.r_exp, "k": k, "lambda_param": lam,
                  "exact": args.exact, "expand": args.expand,
                  "primed": args.primed}

    _emit("moments", config, MOMENT_FIELDS, [asdict(rep)], args.format, args.output)

    if args.exact and args.expand and rep.expansion_residual is not None:
        if rep.expansion_residual != 0:
            return _fail_identity(
                f"exact grouping identity violated: residual "
                f"{rep.expansion_residual}")
    return 0


def _cmd_omega(args) -> int:
    from . import moments

    N = args.n
    h, lam = _resolve_h(args, N)
    R = _resolve_R(args, N)
    if N < 2:  # before the coupled C divides by log N
        raise ValueError(f"need N >= 2, got N={N}")
    rho = args.rho
    if args.c == "couple":
        theta = math.log(R) / math.log(N)
        alpha = math.log(h) / math.log(N)
        C = moments.coupled_C(theta, alpha, rho)
    else:
        try:
            C = float(args.c)
        except ValueError as exc:
            raise ValueError(f"--c must be a float or 'couple': {args.c!r}") from exc
    exp = moments.omega_experiment(N, h, R, rho, C)
    config = {
        "command": "omega", "N": N, "h": h, "R": R,
        "lambda_param": lam, "rho": rho, "C": C,
    }
    rows = [asdict(exp)]
    _emit("omega", config, OMEGA_FIELDS, rows, args.format, args.output)
    for label, res in (("second", exp.identity_residual_2),
                       ("third", exp.identity_residual_3)):
        if not (res <= OMEGA_IDENTITY_RTOL):
            return _fail_identity(
                f"omega {label}-moment expansion residual {res!r} exceeds "
                f"{OMEGA_IDENTITY_RTOL}")
    return 0


def _parse_poly(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad polynomial coefficients {text!r} "
                         "(colon-separated integers, ascending)") from exc


#: the --params keys each lemma reads; lemma 4 with variant=log reads j only
_LEMMA_PARAMS = {
    1: ("k", "pair", "p1", "p2"),
    2: (),
    3: (),
    4: ("j", "k", "variant"),
    5: ("J", "k"),
}


def _cmd_lemma(args) -> int:
    from . import lemmas

    ladder = args.ladder
    params = args.params or {}
    which = args.which
    p_cut = args.p_cut
    kwargs = {} if p_cut is None else {"p_cut": p_cut}
    log = which == 4 and params.get("variant") == "log"
    allowed = ("j", "variant") if log else _LEMMA_PARAMS[which]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        keys = (f"its --params keys are {', '.join(allowed)}" if allowed
                else "it takes no --params")
        raise ValueError(f"lemma {which}{' with variant=log' if log else ''} "
                         f"reads no {', '.join(unknown)}; {keys}")
    if "variant" in params and not log:
        raise ValueError(f"variant must be 'log', got {params['variant']!r}")
    if which == 2 and p_cut is not None:
        raise ValueError("lemma 2 has no Euler product and takes no --p-cut")
    if log and int(params.get("j", 2)) % 2 and p_cut is not None:
        raise ValueError("lemma 4 with variant=log and odd j has no prime sum "
                         "(its limit is S_2(2j) log(2)/2) and takes no --p-cut")

    if which == 1:
        k = int(params.get("k", 1))
        if "p1" in params or "p2" in params:
            if not ("p1" in params and "p2" in params):
                raise ValueError("provide both p1 and p2 coefficient lists")
            if "pair" in params:
                raise ValueError("lemma 1 reads either pair or p1 and p2, not both")
            pair = lemmas.MonicPolyPair(_parse_poly(params["p1"]),
                                        _parse_poly(params["p2"]))
        else:
            presets = {"hildebrand": lemmas.HILDEBRAND_POLY_PAIR,
                       "cubic": lemmas.CUBIC_POLY_PAIR}
            name = params.get("pair", "hildebrand")
            if name not in presets:
                raise ValueError(f"unknown pair preset {name!r}; "
                                 f"choose from {sorted(presets)}")
            pair = presets[name]
        rep = lemmas.lemma1(pair, k, ladder, **kwargs)
    elif which == 2:
        rep = lemmas.lemma2(ladder)
    elif which == 3:
        rep = lemmas.lemma3(ladder, **kwargs)
    elif which == 4:
        j = int(params.get("j", 2))
        if log:
            rep = lemmas.lemma4_log(j, ladder, **kwargs)
        else:
            k = int(params.get("k", 1))
            rep = lemmas.lemma4(j, k, ladder, **kwargs)
    elif which == 5:
        J = int(params.get("J", 6))
        k = int(params.get("k", 1))
        rep = lemmas.lemma5(J, k, ladder, **kwargs)
    else:  # pragma: no cover - argparse choices prevent this
        raise ValueError(f"unknown lemma {which}")

    config = {
        "command": "lemma", "which": which,
        "ladder": ",".join(str(x) for x in ladder),
        "params": ",".join(f"{k}={v}" for k, v in sorted(params.items())),
        "p_cut": p_cut,
    }
    for key, val in rep.params:
        config[f"lemma_{key}"] = val
    for key, val in rep.extras:
        config[f"extra_{key}"] = val
    rows = [
        {"which": rep.which, "x": x, "lhs": lhs, "main": main, "scaled_error": sc}
        for x, lhs, main, sc in zip(rep.x_ladder, rep.lhs, rep.main,
                                    rep.scaled_error)
    ]
    _emit("lemma", config, LEMMA_FIELDS, rows, args.format, args.output)
    return 0


# ----------------------------------------------------------------------------
# parser construction
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primelab",
        description="numerical laboratory for truncated divisor sums, "
                    "singular series, correlations and moments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common() -> argparse.ArgumentParser:
        # A fresh parent per subcommand: argparse shares action objects
        # between parsers built from the same parent, so a per-subcommand
        # set_defaults() would otherwise leak into every other subcommand.
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="output format (default csv)")
        parent.add_argument("--output", default=None, metavar="PATH",
                            help="write to PATH instead of stdout")
        parent.add_argument("--threads", type=parse_count, default=1,
                            help="accepted and ignored: no kernel uses threads")
        return parent

    def r_options(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--r", type=parse_count, default=None,
                           help="truncation level R")
        group.add_argument("--r-exp", type=float, default=None,
                           help="set R = round(N^theta)")

    def h_options(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--h", type=parse_count, default=None, help="window length")
        group.add_argument("--lambda", dest="lambda_param", type=float, default=None,
                           help="set h = round(lambda * log N)")

    p = sub.add_parser("sieve", parents=[common()],
                       help="sieve the primes up to n_max and report summary stats")
    p.add_argument("--n-max", type=parse_count, required=True)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("lambda", parents=[common()],
                       help="tabulate lambda_R(n) and LambdaBig_R(n)")
    p.add_argument("--r", type=parse_count, required=True,
                   help="truncation level R")
    p.add_argument("--n", type=parse_count, required=True,
                   help="tabulate n = 1..n")
    p.add_argument("--exact", action="store_true",
                   help="cross-check floats against exact rationals (exit 1 on mismatch)")
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser("singular", parents=[common()],
                       help="singular-series values via truncated Euler products")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--pattern", type=parse_pattern, default=None,
                      help="shift pattern 'h1:a1,h2:a2,...'")
    kind.add_argument("--sn", type=int, default=None, choices=(2, 3),
                      help="evaluate the n-point series at a single shift --j")
    p.add_argument("--j", type=int, default=None, help="shift for --sn")
    p.add_argument("--p-cut", type=parse_count, default=None,
                   help="Euler-product truncation prime (default 1e6)")
    p.set_defaults(func=_cmd_singular, format="json")

    p = sub.add_parser("correlate", parents=[common()],
                       help="one correlation sum against its predicted main term")
    p.add_argument("--n", type=parse_count, required=True, help="range length N")
    r_options(p)
    p.add_argument("--pattern", type=parse_pattern, required=True,
                   help="shift pattern 'h1:a1,h2:a2,...'")
    p.add_argument("--mixed", action="store_true",
                   help="replace the last lambda factor by LambdaBig (S~_k)")
    p.add_argument("--primed-range", action="store_true",
                   help="sum over N < n <= 2N instead of 1 <= n <= N")
    p.add_argument("--exact", action="store_true",
                   help="also compute the exact rational value")
    p.add_argument("--p-cut", type=parse_count, default=None,
                   help="Euler-product truncation prime for the prediction")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("moments", parents=[common()],
                       help="window moments of psi_R / psi, mixed moments, identities")
    p.add_argument("--n", type=parse_count, required=True, help="range length N")
    p.add_argument("--k", type=int, default=None, help="moment order (default 1)")
    h_options(p)
    r_options(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--psi", action="store_true",
                      help="moment of psi increments instead of psi_R")
    mode.add_argument("--mixed", action="store_true",
                      help="mixed moment psi_R^(k-1) * (psi increment)")
    mode.add_argument("--first-moment", action="store_true",
                      help="verify the three first-moment routes agree exactly")
    p.add_argument("--centered", action="store_true",
                   help="center the psi increments by h")
    p.add_argument("--exact", action="store_true",
                   help="exact rational arithmetic for the psi_R moment")
    p.add_argument("--expand", action="store_true",
                   help="re-derive the psi_R moment through correlation sums")
    p.add_argument("--primed", action="store_true",
                   help="sum over N < n <= 2N instead of 1 <= n <= N")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("lemma", parents=[common()],
                       help="evaluate one mean-value lemma on an x-ladder")
    p.add_argument("--which", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--ladder", type=parse_ladder, required=True,
                   metavar="X1,X2,...", help="increasing evaluation points")
    p.add_argument("--params", type=parse_keyvals, default=None,
                   metavar="k=1,j=2,...",
                   help="lemma-specific parameters: lemma 1 k, pair=hildebrand|cubic "
                        "or p1 and p2 (colon-separated coefficients); lemma 4 j, k, "
                        "or j with variant=log; lemma 5 J, k; lemmas 2 and 3 none")
    p.add_argument("--p-cut", type=parse_count, default=None,
                   help="Euler-product truncation prime (lemma-specific default)")
    p.set_defaults(func=_cmd_lemma, format="json")

    p = sub.add_parser("omega", parents=[common()],
                       help="coupled two-scale experiment for the third moment")
    p.add_argument("--n", type=parse_count, required=True, help="range length N")
    h_options(p)
    r_options(p)
    p.add_argument("--rho", type=float, required=True,
                   help="offset scale for the psi side")
    p.add_argument("--c", default="couple",
                   help="offset scale for the psi_R side, or 'couple' "
                        "to solve for the coupled value (default)")
    p.set_defaults(func=_cmd_omega)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
