"""Tests for the command-line interface: parsing, config echo,
exit codes, output determinism, and the table cache.

Functional paths run in-process through cli.main; the bit-identity
checks spawn real subprocesses so they cover the full stdout pipeline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from primelab import cli

CLI = [sys.executable, "-m", "primelab"]


def run_main(argv, capsys):
    """Invoke cli.main in-process and return (exit_code, stdout)."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_parse_count_scientific(self):
        assert cli.parse_count("1e6") == 1_000_000
        assert cli.parse_count("250") == 250

    def test_parse_count_rejects_garbage(self):
        import argparse
        for bad in ("abc", "-5", "0", "1.5", "inf"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli.parse_count(bad)

    def test_parse_ladder(self):
        assert cli.parse_ladder("1e3,1e5,1e7") == (1000, 100_000, 10_000_000)
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_ladder("1e5,1e3")

    def test_parse_keyvals(self):
        assert cli.parse_keyvals("rho=0.3,C=-0.5") == {"rho": "0.3", "C": "-0.5"}
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_keyvals("rho=0.3,rho=0.4")


class TestExitCodes:
    def test_argparse_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["correlate", "--n", "xyz", "--r", "5", "--pattern", "0:1"])
        assert exc.value.code == 2

    def test_precondition_returns_3(self, capsys):
        # omega with A = sqrt(h log N) >= h
        code, _ = run_main(
            ["omega", "--n", "1e4", "--h", "5", "--r", "16",
             "--rho", "0.3", "--c", "-0.5"], capsys)
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        (["omega", "--n", "1e4", "--h", "40", "--r", "16", "--rho", "0.3", "--c", "inf"],
         "must be finite"),
        (["omega", "--n", "1e4", "--h", "40", "--r", "16", "--rho", "nan"], "must be finite"),
        (["omega", "--n", "1e4", "--h", "40", "--r", "16", "--rho", "0.3", "--c", "1e200"],
         "overflow float64"),
        (["correlate", "--n", "1e4", "--r-exp", "inf", "--pattern", "0:1"], "overflows"),
        (["moments", "--n", "1e4", "--lambda", "inf", "--r", "16"], "not finite"),
    ], ids=["C-inf", "rho-nan", "C-1e200", "r-exp-inf", "lambda-inf"])
    def test_non_finite_inputs_return_3(self, argv, message, capsys):
        """Infinite or overflowing values are precondition failures, not an
        OverflowError or a NaN residual reported as a failed identity."""
        assert cli.main(argv) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["moments", "--psi", "--n", "100", "--h", "3", "--k", "500"],
        ["moments", "--psi", "--centered", "--n", "1e4", "--h", "30", "--k", "401"],
        ["correlate", "--n", "100", "--r", "50", "--pattern", "0:600"],
        ["moments", "--n", "100", "--h", "30", "--r", "50", "--k", "300", "--exact"],
        ["correlate", "--n", "100", "--r", "50", "--pattern", "0:600", "--exact"],
    ], ids=["psi-inf", "psi-centered-nan", "correlate-inf", "psiR-exact", "correlate-exact"])
    def test_result_beyond_float64_returns_3(self, argv, capsys):
        """A sum past the float64 range is refused where its float is
        formed, instead of printing inf or nan with exit 0, or raising
        OverflowError from the float of an exact value (exit 1)."""
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows float64" in captured.err

    @pytest.mark.parametrize("argv", [
        ["moments", "--psi", "--n", "100", "--h", "3", "--k", "500"],
        ["moments", "--psi", "--centered", "--n", "1e4", "--h", "30", "--k", "401"],
        ["correlate", "--n", "100", "--r", "50", "--pattern", "0:600"],
    ], ids=["psi-inf", "psi-centered-nan", "correlate-inf"])
    def test_float_overflow_is_one_stderr_line(self, argv):
        """The float overflow refusals print the one precondition line on
        stderr, with no numpy RuntimeWarning before it (a fresh
        interpreter, so warnings print as a user sees them)."""
        proc = subprocess.run(CLI + argv, capture_output=True, timeout=300)
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert err.startswith("precondition failed: ") and err.count("\n") == 1, err
        assert "overflows float64" in err and proc.stdout == b""

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_output_returns_3(self, where, tmp_path):
        """An --output path in a missing directory, or naming a directory,
        is a one-line precondition failure (a fresh interpreter, so an
        uncaught exception would show its traceback)."""
        path = tmp_path / "missing" / "out.csv" if where == "missing" else tmp_path
        proc = subprocess.run(CLI + ["sieve", "--n-max", "100", "--output", str(path)],
                              capture_output=True, timeout=300)
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert err.startswith("precondition failed: ") and err.count("\n") == 1
        assert proc.stdout == b""

    @pytest.mark.parametrize("argv", [
        ["moments", "--n", "1", "--h", "1", "--r", "2", "--k", "1"],
        ["omega", "--n", "1", "--h", "1", "--r", "2", "--rho", "0.3"],
    ], ids=["moments", "omega"])
    def test_n_below_2_returns_3(self, argv):
        """N = 1 has log N = 0; it is refused before any division by it (a
        fresh interpreter, so an uncaught exception would show its traceback)."""
        proc = subprocess.run(CLI + argv, capture_output=True, timeout=300)
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert "precondition failed" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["singular", "--sn", "2", "--j", "20000000000014"],
        ["lemma", "--which", "4", "--ladder", "1e3", "--params", "j=1000000000039"],
    ], ids=["singular", "lemma"])
    def test_factor_bound_returns_3(self, argv, capsys):
        """Numbers past the tables and the trial-division bound are refused."""
        assert cli.main(argv) == 3
        assert "trial-division bound" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["lambda", "--r", "10", "--n", "3e9"],
        ["moments", "--n", "3e9", "--h", "10", "--r", "10"],
    ], ids=["lambda", "moments"])
    def test_oversize_lambda_range_returns_3(self, argv, monkeypatch, capsys):
        """A lambda_R range beyond tables.TABLE_MAX is refused before it is
        allocated."""
        from primelab import approximants, moments

        def fail(*args, **kwargs):
            pytest.fail("allocated for an oversize range")

        for mod in (approximants, moments):
            monkeypatch.setattr(mod, "build_weights", fail)
            monkeypatch.setattr(mod, "lambda_R_range", fail)
        assert cli.main(argv) == 3
        assert "beyond" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["singular", "--pattern", "0:1,2:1"],
        ["singular", "--sn", "3", "--j", "6"],
        ["lemma", "--which", "4", "--ladder", "1e3", "--params", "j=6,k=35"],
        ["correlate", "--n", "1e4", "--r", "10", "--pattern", "0:1,2:1"],
    ], ids=["pattern", "sn", "lemma", "correlate"])
    def test_oversize_p_cut_returns_3(self, monkeypatch, capsys, argv):
        """A --p-cut beyond tables.TABLE_MAX is refused before anything is
        sieved: no prime stream or segment, no table and no oversize
        array, and for ``correlate`` before the sum."""
        from primelab import approximants, tables
        real = np.ones

        def ones(shape, *args, **kwargs):
            if np.prod(shape) > 10**6:
                pytest.fail("allocated an oversize sieve")
            return real(shape, *args, **kwargs)

        def fail(*args, **kwargs):
            pytest.fail("sieved for an oversize p_cut")

        monkeypatch.setattr(np, "ones", ones)
        for name in ("odd_sieve_segments", "sieve_segments", "tables_for", "build_tables"):
            monkeypatch.setattr(tables, name, fail)
        monkeypatch.setattr(approximants, "tables_for", fail)
        assert cli.main(argv + ["--p-cut", "3e9"]) == 3
        assert "beyond" in capsys.readouterr().err

    def test_oversize_sieve_returns_3(self, monkeypatch, capsys):
        """`sieve` beyond tables.TABLE_MAX is refused before anything is
        allocated: no segment is sieved, no sieving prime is listed and no
        table is built."""
        from primelab import tables

        def fail(*args, **kwargs):
            pytest.fail("allocated for an oversize sieve")

        for name in ("sieve_segments", "odd_sieve_segments", "eratosthenes", "build_tables",
                     "tables_for"):
            monkeypatch.setattr(tables, name, fail)
        assert cli.main(["sieve", "--n-max", str(tables.TABLE_MAX + 1)]) == 3
        assert "beyond" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["moments", "--psi", "--n", "2147483647", "--h", "1"],
        ["moments", "--first-moment", "--n", "2147483647", "--h", "1"],
        ["correlate", "--n", "2147483646", "--r", "10", "--pattern", "0:1,2:1", "--mixed"],
        ["correlate", "--n", "1073741824", "--r", "10", "--pattern=-2:1,0:1", "--mixed",
         "--primed-range"],
    ], ids=["psi", "first-moment", "mixed", "mixed-primed"])
    def test_oversize_psi_and_lambda_ranges_return_3(self, argv, monkeypatch, capsys):
        """psi and Lambda ranges beyond tables.TABLE_MAX are refused before
        anything is sieved: no segment, no sieving prime, no table, no
        weights."""
        from primelab import approximants, tables

        def fail(*args, **kwargs):
            pytest.fail("sieved for an oversize range")

        for name in ("sieve_segments", "odd_sieve_segments", "eratosthenes", "prime_blocks",
                     "build_tables", "tables_for"):
            monkeypatch.setattr(tables, name, fail)
        monkeypatch.setattr(approximants, "build_weights", fail)
        assert cli.main(argv) == 3
        assert "beyond" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern", ["0:3,2:2", "0:2", "0:1,2:2"])
    def test_singular_pattern_multiplicity_returns_3(self, pattern, capsys):
        """The singular series reads distinct shifts only, so a pattern with a
        multiplicity other than 1 is refused instead of being read as its
        shifts."""
        assert cli.main(["singular", "--pattern", pattern]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "multiplicity must be 1" in captured.err

    def test_success_returns_0(self, capsys):
        code, out = run_main(
            ["correlate", "--n", "2000", "--r", "8", "--pattern", "0:1,2:1"],
            capsys)
        assert code == 0
        assert out.startswith("# schema = primelab-correlate-csv-v2\n")


class TestConfigEcho:
    def test_csv_echo_sorted_and_complete(self, capsys):
        code, out = run_main(
            ["correlate", "--n", "2000", "--r-exp", "0.25",
             "--pattern", "0:1,2:1"], capsys)
        assert code == 0
        echo = [l for l in out.splitlines() if l.startswith("# ")]
        keys = [l.split(" = ")[0][2:] for l in echo[1:]]  # after schema line
        assert keys == sorted(keys)
        assert "N" in keys and "R" in keys and "backend" not in keys
        # resolved R = round(2000^0.25) echoed as a concrete integer
        assert any(l.startswith("# R = ") for l in echo)

    def test_threads_never_echoed(self, capsys):
        """--threads must not influence output bytes, so it is excluded."""
        code, out = run_main(
            ["correlate", "--n", "2000", "--r", "8", "--pattern", "0:1",
             "--threads", "4"], capsys)
        assert code == 0
        assert "threads" not in out

    def test_json_schema_version_and_config(self, capsys):
        code, out = run_main(
            ["singular", "--pattern", "0:1,2:1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 2
        assert payload["command"] == "singular"
        assert payload["config"]["p_cut"] == 1_000_000
        assert len(payload["rows"]) == 1

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, out = run_main(
            ["lambda", "--r", "4", "--n", "6", "--output", str(path)], capsys)
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("# schema = primelab-lambda-csv-v2\n")
        assert text.splitlines()[-1].startswith("6,")


class TestSubcommands:
    def test_sieve_stats(self, capsys):
        code, out = run_main(["sieve", "--n-max", "1e4"], capsys)
        assert code == 0
        row = out.splitlines()[-1].split(",")
        assert row[0] == "10000" and row[1] == "1229" and row[3] == "-23"

    def test_lambda_exact_crosscheck(self, capsys):
        code, out = run_main(["lambda", "--r", "10", "--n", "30", "--exact"],
                             capsys)
        assert code == 0
        assert "# denominator = " in out

    def test_moments_first_moment(self, capsys):
        code, out = run_main(
            ["moments", "--n", "5000", "--h", "25", "--first-moment"], capsys)
        assert code == 0
        assert "True,True" in out  # both exact route comparisons

    def test_moments_exact_expand_identity(self, capsys):
        code, out = run_main(
            ["moments", "--n", "1500", "--k", "2", "--h", "6", "--r", "12",
             "--exact", "--expand"], capsys)
        assert code == 0
        assert "# mode = psi_R" in out

    def test_omega_explicit_C(self, capsys):
        """--c takes a float as well as 'couple', and echoes it as C."""
        code, out = run_main(
            ["omega", "--n", "1e4", "--h", "40", "--r-exp", "0.3",
             "--rho", "0.3", "--c", "-0.5"], capsys)
        assert code == 0
        assert "# command = omega" in out
        assert "# C = -0.5" in out.splitlines()

    def test_omega_coupled_C(self, capsys):
        code, out = run_main(
            ["omega", "--n", "1e4", "--h", "40", "--r-exp", "0.3",
             "--rho", "0.3", "--c", "couple"], capsys)
        assert code == 0
        echoed_C = [l for l in out.splitlines() if l.startswith("# C = ")]
        assert echoed_C and "couple" not in echoed_C[0]
        float(echoed_C[0].split(" = ")[1])  # a concrete solved float

    def test_lemma_json_report(self, capsys):
        code, out = run_main(
            ["lemma", "--which", "2", "--ladder", "1e3,1e4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["which"] == 2
        assert len(payload["rows"]) == 2
        assert {"which", "x", "lhs", "main", "scaled_error"} == set(payload["rows"][0])

    def test_lemma_params_routing(self, capsys):
        code, out = run_main(
            ["lemma", "--which", "4", "--ladder", "1e3",
             "--params", "j=2,variant=log"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["params"] == "j=2,variant=log"

    @pytest.mark.parametrize("argv, message", [
        (["--which", "4", "--params", "jj=7"],
         "lemma 4 reads no jj; its --params keys are j, k, variant"),
        (["--which", "2", "--params", "j=5"], "lemma 2 reads no j; it takes no --params"),
        (["--which", "4", "--params", "j=2,k=3,variant=log"],
         "lemma 4 with variant=log reads no k; its --params keys are j, variant"),
        (["--which", "1", "--params", "J=6"],
         "lemma 1 reads no J; its --params keys are k, pair, p1, p2"),
        (["--which", "5", "--params", "j=2"], "lemma 5 reads no j; its --params keys are J, k"),
        (["--which", "3", "--params", "variant=log"], "lemma 3 reads no variant"),
        (["--which", "4", "--params", "variant=lin"], "variant must be 'log'"),
        (["--which", "2", "--p-cut", "100"], "lemma 2 has no Euler product"),
        (["--which", "4", "--params", "j=3,variant=log", "--p-cut", "3e9"],
         "lemma 4 with variant=log and odd j has no prime sum"),
        (["--which", "1", "--params", "pair=cubic,p1=1,p2=-1:1"],
         "lemma 1 reads either pair or p1 and p2, not both"),
    ], ids=["4-jj", "2-j", "4log-k", "1-J", "5-j", "3-variant", "4-variant", "2-p-cut",
            "4log-odd-j-p-cut", "1-pair-and-p1-p2"])
    def test_lemma_refuses_what_it_does_not_read(self, argv, message, capsys):
        """A --params key (or --p-cut) the chosen lemma does not read is a
        precondition failure naming the keys it does read, not echoed and
        ignored."""
        assert cli.main(["lemma", "--ladder", "1e3"] + argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_lemma4_log_even_j_reads_p_cut(self, capsys):
        """With an even j the log-weighted limit has a prime sum, so --p-cut
        is read and moves the main constant, where an odd j refuses it."""
        argv = ["lemma", "--which", "4", "--ladder", "1e3", "--params", "j=2,variant=log"]
        code, out = run_main(argv + ["--p-cut", "1e5"], capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert config["p_cut"] == 100_000 and config["lemma_p_cut"] == "100000"
        code, default = run_main(argv, capsys)
        assert code == 0
        assert (json.loads(default)["config"]["extra_main_constant"]
                != config["extra_main_constant"])

    @pytest.mark.parametrize("which, params", [
        ("1", "k=6,pair=cubic"), ("4", "j=6,k=5"), ("5", "J=6,k=3"),
    ])
    def test_lemma_reads_its_own_keys(self, which, params, capsys):
        code, out = run_main(
            ["lemma", "--which", which, "--ladder", "1e3", "--params", params], capsys)
        assert code == 0
        assert json.loads(out)["config"]["params"] == params

    def test_lemma_custom_polynomials(self, capsys):
        code, out = run_main(
            ["lemma", "--which", "1", "--ladder", "1e3",
             "--params", "p1=-1:-1:1,p2=-1:3:-3:1,k=1"], capsys)
        assert code == 0

    def test_singular_sn_mode(self, capsys):
        code, out = run_main(["singular", "--sn", "2", "--j", "6"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["finite_part"] == "4"


@pytest.mark.parametrize("argv", [
    ["correlate", "--n", "1e3", "--r", "10", "--r-exp", "0.5", "--pattern", "0:1"],
    ["moments", "--n", "1e4", "--h", "10", "--r", "10", "--r-exp", "0.5", "--k", "1"],
    ["moments", "--n", "1e4", "--h", "10", "--lambda", "1.0", "--r", "10"],
    ["omega", "--n", "1e4", "--h", "40", "--r", "16", "--r-exp", "0.3", "--rho", "0.3"],
    ["omega", "--n", "1e4", "--h", "40", "--lambda", "4", "--r", "16", "--rho", "0.3"],
    ["moments", "--n", "1e4", "--h", "10", "--r", "10", "--psi", "--mixed"],
    ["moments", "--n", "1e4", "--h", "10", "--mixed", "--first-moment"],
    ["singular", "--pattern", "0:1,2:1", "--sn", "2", "--j", "6"],
], ids=["correlate-r", "moments-r", "moments-h", "omega-r", "omega-h",
        "moments-psi-mixed", "moments-mixed-first", "singular-pattern-sn"])
def test_conflicting_options_exit_2(argv):
    """Two options that set the same thing are an argument error (exit 2),
    not silently resolved (a fresh interpreter, so an uncaught exception
    would show its traceback)."""
    proc = subprocess.run(CLI + argv, capture_output=True, timeout=300)
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert proc.stdout == b""
    assert "not allowed with argument" in err and "Traceback" not in err


def test_moments_has_no_omega_option(capsys):
    """The two-scale experiment runs through the omega subcommand only."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["moments", "--n", "1e4", "--h", "40", "--r", "16",
                  "--omega", "rho=0.3,C=-0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --omega" in capsys.readouterr().err


def test_cells_do_not_import_sympy():
    """The Euler-product cells factor without sympy (a fresh interpreter,
    since the test process imports sympy as its oracle)."""
    cells = [
        ["singular", "--pattern", "0:1,2:1"],
        ["correlate", "--n", "1e4", "--r", "10", "--pattern", "0:1,2:1"],
        ["lemma", "--which", "4", "--ladder", "1e3", "--params", "j=2,variant=log"],
    ]
    script = (
        "import json, os, sys\n"
        "from primelab import cli\n"
        f"codes = [cli.main(a + ['--output', os.devnull]) for a in {cells!r}]\n"
        "print(json.dumps([codes, 'sympy' in sys.modules]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PRIMELAB_CACHE_DIR"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [[0, 0, 0], False]


class TestStreamedSieve:
    @pytest.mark.parametrize("block_max", [None, 64])
    def test_row_is_the_whole_array_reference(self, monkeypatch, capsys, block_max):
        """The counts `sieve` streams block by block are those read off
        whole arrays: the primes <= n, psi(n) as one long-double cumsum of
        the dense Lambda, rounded, and the sum and the nonzero count of
        mu[1..n]; at n on, just below and just above the block edges, and
        at every n up to 3 blocks of 64 entries."""
        from primelab import tables
        monkeypatch.delenv(tables.CACHE_DIR_ENV, raising=False)
        if block_max is not None:
            monkeypatch.setattr(tables, "BLOCK_MAX", block_max)
        b = tables.BLOCK_MAX
        top = 3 * b + 7
        tb = tables.build_tables(top)
        primes = np.flatnonzero(tb.spf[2:] == 0) + 2
        lam = np.zeros(top + 1)
        lam[primes] = np.log(primes.astype(np.float64))
        for p in primes[primes * primes <= top].tolist():
            q = p * p
            while q <= top:
                lam[q] = math.log(p)
                q *= p
        psi = np.cumsum(lam.astype(np.longdouble)).astype(np.float64)
        ns = {1, 2, 3, top} | {e + d for e in (b, 2 * b, 3 * b) for d in (-1, 0, 1)}
        if b == 64:
            ns |= set(range(1, top + 1))
        for n in sorted(ns):
            code, out = run_main(["sieve", "--n-max", str(n), "--format", "json"], capsys)
            mu = tb.mu[1 : n + 1]
            assert code == 0
            assert json.loads(out)["rows"] == [{
                "n_max": n,
                "primes": int(np.searchsorted(primes, n, side="right")),
                "psi": float(psi[n]),
                "mertens": int(mu.sum()),
                "squarefree": int(np.count_nonzero(mu)),
            }], n


    def test_sieve_holds_no_table(self, monkeypatch, capsys):
        """`sieve --n-max 4e6` with no cache dir holds one segment of the
        sieve (2 bytes per entry) and less than 1 MiB besides, as traced by
        tracemalloc: not the 8 MB of spf over all n.  A first run loads what
        the command imports lazily, so the traced run holds the command's
        own arrays alone."""
        import tracemalloc

        from primelab import tables
        monkeypatch.delenv(tables.CACHE_DIR_ENV, raising=False)
        argv = ["sieve", "--n-max", "4e6"]
        assert run_main(argv, capsys)[0] == 0
        tracemalloc.start()
        try:
            code, out = run_main(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out.endswith("4000000,283146,3999490.85679657,192,2431736\n")
        assert peak < 2 * tables.SIEVE_SEGMENT + 2**20, peak


class TestCache:
    """The cache dir through a command that still reads tables: `lambda`,
    whose lambda_R and biglambda_R weights take mu and phi up to R from
    ``tables_for``.  No command reads a table above R: `sieve`, `lemma`
    and the psi and Lambda reads of `moments`, `correlate` and `omega`
    stream their primes from the sieve."""

    R = 3000
    CELL = ["lambda", "--r", str(R), "--n", "100"]

    def test_cache_roundtrip(self, tmp_path, capsys, monkeypatch):
        from primelab.tables import CACHE_DIR_ENV
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        code1, out1 = run_main(self.CELL, capsys)
        assert [p.name for p in tmp_path.iterdir()] == [f"primelab_tables_{self.R}.bin"]
        code2, out2 = run_main(self.CELL, capsys)
        assert code1 == code2 == 0
        assert out1 == out2  # the build and the load print the same bytes

    def test_stdout_does_not_depend_on_the_cache_dir(self, tmp_path, capsys, monkeypatch):
        """The cache directory is a run-dependent value, so it is not
        echoed: two cache dirs give the same stdout."""
        from primelab.tables import CACHE_DIR_ENV
        outs = []
        for name in ("a", "cache_dir_b"):
            (tmp_path / name).mkdir()
            monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / name))
            code, out = run_main(self.CELL, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_damaged_cache_file_returns_3(self, tmp_path, capsys, monkeypatch):
        """A truncated cache file is refused with exit 3, not read or traced."""
        from primelab import tables
        path = tmp_path / f"primelab_tables_{self.R}.bin"
        tables.save_tables(tables.build_tables(self.R), path)
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setenv(tables.CACHE_DIR_ENV, str(tmp_path))
        assert cli.main(self.CELL) == 3
        err = capsys.readouterr().err
        assert "precondition failed" in err and "Traceback" not in err

    @pytest.mark.parametrize("stale", ["version-2", "version-3", "version-4", "spf-byte"])
    def test_stale_or_corrupt_cache_file_returns_3(self, tmp_path, capsys, monkeypatch, stale):
        """A format-2 file (int32 spf equal to n at a prime, then mu: 5 bytes
        per entry), a format-3 file (uint16 spf, then int8 mu, then a CRC32
        of each 2**18-entry block of each), a format-4 file (uint16 spf at
        every n, then a CRC32 of each 2**18-entry block) and a format-5 file
        with one spf byte flipped all exit 3, print no row, and stay as they
        were."""
        import zlib

        from primelab import tables
        n = 10**5
        path = tmp_path / f"primelab_tables_{n}.bin"
        tb = tables.build_tables(n)
        if stale == "version-2":
            index = np.arange(n + 1, dtype=np.int32)
            spf = np.where((tb.spf == 0) & (index >= 2), index, tb.spf).astype("<i4")
            raw = b"PRLB" + (2).to_bytes(2, "little") + n.to_bytes(8, "little")
            raw += spf.tobytes() + tb.mu.tobytes()
        elif stale == "version-3":
            arrays = [tb.spf.astype("<u2").tobytes(), tb.mu.astype("<i1").tobytes()]
            raw = b"PRLB" + (3).to_bytes(2, "little") + n.to_bytes(8, "little")
            raw += b"".join(arrays)
            raw += np.array([zlib.crc32(a) for a in arrays], dtype="<u4").tobytes()
        elif stale == "version-4":
            spf = tb.spf.astype("<u2")
            raw = b"PRLB" + (4).to_bytes(2, "little") + n.to_bytes(8, "little")
            raw += spf.tobytes()
            raw += np.array([zlib.crc32(spf[lo : lo + 2**18]) for lo in range(0, n + 1, 2**18)],
                            dtype="<u4").tobytes()
        else:
            tables.save_tables(tb, path)
            raw = bytearray(path.read_bytes())
            raw[14 + 2 * 4321] ^= 1
            raw = bytes(raw)
        path.write_bytes(raw)
        monkeypatch.setenv(tables.CACHE_DIR_ENV, str(tmp_path))
        code, out = run_main(self.CELL, capsys)
        assert code == 3 and out == ""
        assert path.read_bytes() == raw
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_lemma_leaves_the_cache_dir_empty(self, tmp_path, capsys, monkeypatch):
        """`lemma` sieves its own values and reads no table, so it writes
        no cache file."""
        from primelab import tables
        monkeypatch.setenv(tables.CACHE_DIR_ENV, str(tmp_path))
        code, _out = run_main(["lemma", "--which", "2", "--ladder", "1e3,1e5"], capsys)
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_sieve_leaves_the_cache_dir_empty(self, tmp_path, capsys, monkeypatch):
        """`sieve` streams its primes and reads no table, so it writes no
        cache file."""
        from primelab import tables
        monkeypatch.setenv(tables.CACHE_DIR_ENV, str(tmp_path))
        code, _out = run_main(["sieve", "--n-max", "1e5"], capsys)
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    PSI_CELLS = {
        "psi": ["moments", "--psi", "--n", "3000", "--h", "20", "--k", "3"],
        "first-moment": ["moments", "--first-moment", "--n", "3000", "--h", "20"],
    }

    @pytest.mark.parametrize("cell", list(PSI_CELLS))
    def test_psi_moments_leave_the_cache_dir_empty(self, tmp_path, capsys, monkeypatch,
                                                   cell):
        """The psi moments and the first moment stream psi and Lambda from
        the sieve and read no table, so they write no cache file."""
        from primelab import tables
        monkeypatch.setenv(tables.CACHE_DIR_ENV, str(tmp_path))
        code, _out = run_main(self.PSI_CELLS[cell], capsys)
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cell", list(PSI_CELLS))
    def test_psi_moments_read_no_cache_dir(self, tmp_path, capsys, monkeypatch, cell):
        """The psi moments print the same row, with exit 0, when the cache
        dir names a regular file: they never look there."""
        from primelab import tables
        argv = self.PSI_CELLS[cell]
        monkeypatch.delenv(tables.CACHE_DIR_ENV, raising=False)
        want = run_main(argv, capsys)
        path = tmp_path / "not_a_dir"
        path.write_text("")
        monkeypatch.setenv(tables.CACHE_DIR_ENV, str(path))
        assert want[0] == 0
        assert run_main(argv, capsys) == want

    def test_lambda_readers_write_only_the_weights_file(self, tmp_path, monkeypatch):
        """psi_tuple writes no cache file, and the mixed correlation and
        moment and `omega` write only the R-sized file of their weights."""
        from primelab import approximants, correlations, moments, tables
        monkeypatch.setattr(approximants, "_weights_cache", {})
        monkeypatch.setenv(tables.CACHE_DIR_ENV, str(tmp_path))
        correlations.psi_tuple(3000, (0, 2))
        assert list(tmp_path.iterdir()) == []
        pattern = correlations.ShiftPattern((0, 2), (1, 1))
        correlations.s_tilde_k(3000, pattern, 8, primed_range=True, p_cut=100)
        moments.mixed_moment(3000, 10, 8, 3, primed=True)
        moments.omega_experiment(3000, 35, 8, 0.3, -0.5)
        assert [p.name for p in tmp_path.iterdir()] == ["primelab_tables_8.bin"]

    @pytest.mark.parametrize("cache", ["damaged-file", "regular-file"])
    def test_sieve_reads_no_cache_dir(self, tmp_path, capsys, monkeypatch, cache):
        """`sieve` prints the same row, with exit 0, whether the cache dir
        holds a damaged table file that would serve it or names a regular
        file: it never looks there."""
        from primelab import tables
        argv = ["sieve", "--n-max", "3000"]
        monkeypatch.delenv(tables.CACHE_DIR_ENV, raising=False)
        want = run_main(argv, capsys)
        if cache == "damaged-file":
            path = tmp_path / "primelab_tables_3000.bin"
            tables.save_tables(tables.build_tables(3000), path)
            path.write_bytes(path.read_bytes()[:-8])
            monkeypatch.setenv(tables.CACHE_DIR_ENV, str(tmp_path))
        else:
            path = tmp_path / "not_a_dir"
            path.write_text("")
            monkeypatch.setenv(tables.CACHE_DIR_ENV, str(path))
        assert want[0] == 0
        assert run_main(argv, capsys) == want

    def test_missing_cache_dir_returns_3(self, tmp_path):
        """A cache dir that does not exist is a precondition failure (a
        fresh interpreter, so an uncaught exception would show its traceback)."""
        from primelab.tables import CACHE_DIR_ENV
        env = dict(os.environ, **{CACHE_DIR_ENV: str(tmp_path / "missing")})
        proc = subprocess.run(CLI + self.CELL, capture_output=True, env=env, timeout=300)
        err = proc.stderr.decode()
        assert proc.returncode == 3, err
        assert "precondition failed" in err and "Traceback" not in err


def test_correlate_negative_shifts(capsys):
    """A pattern of negative shifts only runs; the cell reports s_k's value."""
    from primelab import correlations
    code, out = run_main(
        ["correlate", "--n", "100", "--r", "5", "--pattern=-5:1,-3:1",
         "--format", "json"], capsys)
    assert code == 0
    direct = correlations.s_k(100, correlations.ShiftPattern.parse("-5:1,-3:1"), 5)
    assert json.loads(out)["rows"][0]["computed"] == direct.computed


def _table_builds(argv, monkeypatch, capsys) -> list[int]:
    """The n_max of every table build one in-process run makes, with no
    cache dir and no cached weights."""
    from primelab import approximants, tables
    monkeypatch.delenv(tables.CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(approximants, "_weights_cache", {})
    built = []
    real = tables.build_tables
    monkeypatch.setattr(tables, "build_tables", lambda n: built.append(n) or real(n))
    code, _ = run_main(argv, capsys)
    assert code == 0
    return built


def test_correlate_builds_tables_once(monkeypatch, capsys):
    """Pure correlate reads no table at the N scale: without a cache dir it
    builds only the R-sized tables of the weights."""
    argv = ["correlate", "--n", "2000", "--r", "8", "--pattern", "0:1,2:1"]
    assert _table_builds(argv, monkeypatch, capsys) == [8]


def test_mixed_correlate_builds_the_range_then_the_weights(monkeypatch, capsys):
    """Mixed correlate sieves its Lambda range a block at a time and builds
    no table for it: the one table it builds is the R-sized one of its
    weights."""
    argv = ["correlate", "--n", "2000", "--r", "8", "--pattern", "0:1,2:1", "--mixed"]
    assert _table_builds(argv, monkeypatch, capsys) == [8]


class TestPinnedBytes:
    """Exit code and stdout sha256 of the cells that tabulate an approximant
    from its divisor weights: `lambda` in float, exact and json form and with
    n < R, exact `correlate`, exact and float expanded `moments`, the mixed
    moment and `omega`, and an exact R past the limit; and `sieve` and the
    lemma walks at and around the block edges.  The digests were recorded
    before the float and exact range routes were merged, and those of
    `sieve` and `lemma` before `sieve` streamed its counts and the walk
    kept only the values it reads back; those around the 2**18-entry check
    block, before the tables were sieved segment by segment.  The lemma-4
    log cell's digest holds the bits of a one-thread BLAS dot product, the
    only count `import primelab` allows (the conftest imports primelab
    before anything loads numpy).  The cells at N = 2e5, more than three
    blocks of 2**16 values of n, were recorded while `correlate` and
    `moments` still summed whole N-entry arrays: a negative shift on
    lambda_R and on Lambda, the mixed primed range, psi moments centred,
    uncentred and primed, the first moment, float and exact psi_R moments,
    the mixed moment and `omega`, and an exact correlation.  The lemma cells
    at p_cut = 2**18 - 1, 2**18, 2**18 + 1 and 10**6 were recorded while
    the Euler products and prime sums took all primes up to p_cut as one
    array, before they read them a sieve segment at a time.  The cells
    whose Lambda or psi ranges start and end off the 2**16-entry block and
    2**18-entry segment edges (N = 2**18 + 3, 2**18 - 5 and 2**17 + 3) were
    recorded while those commands still read Lambda and psi off a table of
    spf up to their top n, before they read the sieve's segments of their
    own range.  The Lemma 2 and Lemma 4 (j = 6, k = 10) cells at
    x = 3000007, whose factors vanish at 2, were recorded while the walk
    still sieved every n, before it sieved the odd n alone.  They run past
    n ~ 2.56e6, from where -n (p + 1) / 2 mod p, the index of a larger
    prime's first odd multiple, overflows int32 if taken in the primes'
    dtype."""

    CELLS = {
        "lambda --r 1 --n 30":
            (0, "cae4186bf7d3db444ecabffaf7f4b27cf75d045bd11db5448e71f2fd0198ad7f"),
        "lambda --r 7 --n 200":
            (0, "e97bec2f614493b938cd827e41995e3fb35ba32db800785e532bd3fbd748f8c9"),
        "lambda --r 50 --n 2000":
            (0, "5ac35a50be0d74dcc5f285ad1322c0d1fdb2aa9518affa01c38778d9837be028"),
        "lambda --r 1000 --n 500":
            (0, "2e11448a8598c6f3f74ff354fb65b00445828564f18877582784e7d9e9115dcf"),
        "lambda --r 50 --n 300 --exact":
            (0, "3bb3ddfffd61819861e84ce27dbb1a40b1b93c9c93593480c2659cadb4b2c6ba"),
        "lambda --r 1000 --n 2000 --exact":
            (0, "907940774f38e9c3edb0f5918e051c63280e454bfebac84383def754e4567008"),
        "lambda --r 7 --n 100 --format json":
            (0, "4e54a2fdaa123f5e8db761d7b5ebe5e9ada483ccf9788424d9ca93cb2a969ee6"),
        "lambda --r 50 --n 20 --exact --format json":
            (0, "cbbf69199e96cfbd2e4a44ddaec85bb2640fe10f54216c1b42a6d43d7c29728f"),
        "correlate --n 1e4 --r 10 --pattern 0:3 --exact":
            (0, "66a945828005b08891668a775146bb134d6d606b3d94281901c4f8e107ef91d1"),
        "correlate --n 1e4 --r 10 --pattern 0:1,2:2 --exact --primed-range":
            (0, "4db8edf9fdc9272f79cdadc9ae71beb522660b0ae444a513a151ddcf13a43935"),
        "moments --n 2000 --h 5 --r 10 --k 3 --exact --expand":
            (0, "5ea62d2ca5e3eeee6634fc354db24c192f1e600ab127e4bc54a5e59fa3ebcddc"),
        "moments --n 2000 --h 5 --r 10 --k 3 --exact --expand --primed":
            (0, "ab15b5247b1a2bfe93b611dec2b8af6438b906bd3a140e075d0972c80538336d"),
        "moments --n 1e4 --h 8 --r 20 --k 2 --expand":
            (0, "8d1f880d7b3a2aa39aeaa3ff71b1de6ea0b0029cb3b6ce9c0c1aa107a3649362"),
        "moments --n 1e4 --h 8 --r 20 --k 2 --mixed":
            (0, "52afc93a15abeca6c6e62e1b4bcacc502ed0b82f8dc31b49632faaf6b6e4083b"),
        "omega --n 1e4 --h 30 --r 20 --rho 0.5":
            (0, "a1576499d2220c9030bcdb98ee461dc3fe676aa95374974d5e753bdf43b4eff5"),
        "lambda --r 3000 --n 10 --exact":
            (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "sieve --n-max 1":
            (0, "fa7aec7326092c165c914669785313545733c28096c4c7266f79354786a72a65"),
        "sieve --n-max 2":
            (0, "28927729d636bc5c238afd68ba789e8f9b86f7975702fc039409769fdd192f86"),
        "sieve --n-max 3000":
            (0, "7c6007a510e5084bd2dc0cc46efac6f8df95b6b5a768067541a5b50f230075bb"),
        "sieve --n-max 65536":
            (0, "09d5c92ee5d2ad375099902972e454e4eb4b5d088f913f8d2b40d0c4b8473d81"),
        "sieve --n-max 65537":
            (0, "6337e8fb02c822fa30deadd9953b491847fc83c247da3517669cc1f668a054ec"),
        "sieve --n-max 1e6":
            (0, "31ba9629a219dc4329e2c796ea8e9f4daf223a01bee0b1c31508af02fbcd3930"),
        "sieve --n-max 65537 --format json":
            (0, "eaa36f670ba499c2f18e7d87e9e46fa1c256645a8321e1eb7e8c4ddb058477b5"),
        "sieve --n-max 262143":
            (0, "ff7e264ba6a5f1320e9165b19bb21b32b0d126ea99389d32819a02038cecf3b6"),
        "sieve --n-max 262144":
            (0, "ae5aa3ddc3541e8ee1a01d304ce1917277a3dd9f072b5676889facc7097ca9c1"),
        "sieve --n-max 262145":
            (0, "3a560bb75f59f104df39757b931b6431fe06416ec3fc12f72b49a0966902b12c"),
        "sieve --n-max 524289":
            (0, "52dc07358c62305a1c917207561aba8ada7d79371af4ef1df5170b1f3d88bacb"),
        "lemma --which 2 --ladder 100,262145":
            (0, "35b905f05363bf664a888bafec37bac6bc56500eb2308fac7a556b7b7d020b66"),
        "lemma --which 2 --ladder 1,2,3,7,100,65536,65537,131073":
            (0, "b8fd2ae274ba228db15e546385ccfb7c950241327ca1d8f2c9f76ee6f38624ad"),
        "lemma --which 1 --ladder 1,10,1e3,7e4,2e5 --params k=6 --p-cut 1e5":
            (0, "7fd9894ca6e52d5f5af1ee1e4c89583c3be1824c40bd83073d84157f0b9b0bab"),
        "lemma --which 1 --ladder 1e3,1.5e6 --params pair=cubic,k=10 --p-cut 1e5":
            (0, "ab0043fddb2296aa173dbc5ea1d3b4e0ef538a3740c73010e44e2a6a50c8432e"),
        "lemma --which 3 --ladder 2,10,1e3,2e5 --p-cut 1e5":
            (0, "b02f51b7ede8e04e2b9550930b0e4587e3adfe549a7fb40cd4778582259e4c8a"),
        "lemma --which 4 --ladder 1,10,1e3,2e5 --params j=6,k=5 --p-cut 1e5":
            (0, "33636b444a9a9d9d357b1e96e20c5b9553a780717dfcddb2ea452408e5bf7738"),
        "lemma --which 4 --ladder 1,10,1e3,2e5 --params j=4,variant=log --p-cut 1e5":
            (0, "1d796c130969f880f1e96def6234f26bf10eea0a6d6a35863a2c6e01126f6fc6"),
        "lemma --which 5 --ladder 1,10,1e3,2e5 --params J=30,k=3 --p-cut 1e5":
            (0, "4805fdd4c68a3d6bf5ce78c166980372060952f240ce46382158417b1c9ee383"),
        "lemma --which 2 --ladder 1e3,3000007":
            (0, "0884b9a5e488cdc8aed0b6327dc2d3767eed5452e1753cd2cc8b72ee144dd0a1"),
        "lemma --which 4 --ladder 1e3,3000007 --params j=6,k=10":
            (0, "ca5a5252ca88aa2e68cc514305192dbe1fc543f7ea019e2b2cc260ed92acea87"),
        "correlate --n 2e5 --r 30 --pattern 0:1,-3:2":
            (0, "c9993c1ba18daf73571fa670bed33009ed75cfe438fe8c7c0bcc31a7b9d79209"),
        "correlate --n 2e5 --r 30 --pattern 0:1,2:1 --mixed --primed-range":
            (0, "681fe282017b147abe9be2ca35486167629ae411ea5d0577841e80ae67cf3596"),
        "correlate --n 2e5 --r 30 --pattern 0:1,-5:1 --mixed":
            (0, "b329831f059d57c0a5a3ac0fa1beaebf77cb7879f54301d235eceb3def697d05"),
        "moments --psi --centered --n 2e5 --h 15 --k 3":
            (0, "5d13b4252e98fbccdcb8595e072cf3a4badfc9fff5c6f3eb87d1d7b42b160287"),
        "moments --psi --n 2e5 --h 15 --k 2":
            (0, "9909fe23c6e905691267844f4b1787080d7e2f4ef84a690bf2c1c5db62986660"),
        "moments --psi --centered --primed --n 2e5 --h 15 --k 4":
            (0, "05a26ac5baff32f7738862045107e1de10847faaac2b6f700466f4e7ced5bd46"),
        "moments --first-moment --n 2e5 --h 15":
            (0, "c83e0932fc7abd417150d5991ecaec73acf540cce45f1419863b4183cce5e195"),
        "moments --n 2e5 --h 12 --r 30 --k 3":
            (0, "07c1122239c95898fde2fc2dcaf369a044954cafa79fb1a4fa9ec7f9813bd2a5"),
        "moments --n 2e5 --h 12 --r 30 --k 3 --primed":
            (0, "c21d9f6f8bf66d717031418fda939813bd38afb173e3d55ab6a8668f4896ace0"),
        "moments --n 2e5 --h 4 --r 10 --k 2 --exact":
            (0, "0f9ef97984079ecad776d93ccec2c11eccdd3f6d9f43d2a275d0d2c16d15d52a"),
        "moments --n 2e5 --h 8 --r 20 --k 3 --mixed":
            (0, "4f849693589e06c1c890ecfd940bbe6b74a7e166d7547d5ca621f4bbfa563b11"),
        "omega --n 2e5 --h 40 --r 30 --rho 0.5":
            (0, "b38e1c7797457cd622a37533de3ddc5dee5d66138e63bad75d00794115bcfcaf"),
        "correlate --n 2e5 --r 10 --pattern 0:1,-2:2 --exact":
            (0, "31c7cbbd29512560c9b955e22b18043421832aafeba4a22b8b0fd38c9c8c76a1"),
        "lemma --which 1 --ladder 10,1e3 --p-cut 262143":
            (0, "1d0f7ed2023d6d31cbee40a691410d8de17bca41f52ce465abc512047bd4bca9"),
        "lemma --which 1 --ladder 10,1e3 --params pair=cubic --p-cut 262143":
            (0, "fa9f2ea85e5d0101a4410c70a98f41c4082f3425d1f951867739a4f6e4f8377f"),
        "lemma --which 3 --ladder 10,1e3 --p-cut 262143":
            (0, "4afa5a66203a7f317ec10f9a0f62e66cc45ba501d2edd5c45cb96aa40e9bd972"),
        "lemma --which 4 --ladder 10,1e3 --params j=6,k=35 --p-cut 262143":
            (0, "4841716b769e2b06d71797891d90e9142f4db771cdc2a46b11066c4fc42bcd61"),
        "lemma --which 4 --ladder 10,1e3 --params j=6,variant=log --p-cut 262143":
            (0, "8757a27308c08d8cedfea98932501c962c0e4ce10f73177cfad53dc999b528b5"),
        "lemma --which 5 --ladder 10,1e3 --p-cut 262143":
            (0, "1c01c77acbe3cce5266e5045d9ca084ca47521be9116fe8a1c539454b832c1ad"),
        "lemma --which 1 --ladder 10,1e3 --p-cut 262144":
            (0, "2ecd87f3e843597b363cf3b57208250038fe4a70cea90c6f193a88f5a64fe333"),
        "lemma --which 1 --ladder 10,1e3 --params pair=cubic --p-cut 262144":
            (0, "8d49108f52c2ee4ffb373a2f2440b7881417b753e30843b5b3b582e12134942e"),
        "lemma --which 3 --ladder 10,1e3 --p-cut 262144":
            (0, "24a38f04f5fc21ead8cf01e8d05c1909d9f695491563a17d3f0025c70595ae1b"),
        "lemma --which 4 --ladder 10,1e3 --params j=6,k=35 --p-cut 262144":
            (0, "c12116eb23e0ab288b5f100b200cbe2848e2a12a62709d133248be2569960f83"),
        "lemma --which 4 --ladder 10,1e3 --params j=6,variant=log --p-cut 262144":
            (0, "433e333dd3d73693862b5e69071fc918bd6a95516802d6cc6af0abb5a38ca3de"),
        "lemma --which 5 --ladder 10,1e3 --p-cut 262144":
            (0, "421d540583f271644bf0fe65153983b1e7356f735085c2927418253f0cc1ad68"),
        "lemma --which 1 --ladder 10,1e3 --p-cut 262145":
            (0, "357ff5bbcce0533ee5997230f0d9f93087a26302d1a1d1efeaa95171d544597c"),
        "lemma --which 1 --ladder 10,1e3 --params pair=cubic --p-cut 262145":
            (0, "fda55b084ad55e3559781e3cdd1a5b51e3b92b68919b13126f9dcd241e12c2e2"),
        "lemma --which 3 --ladder 10,1e3 --p-cut 262145":
            (0, "0887404e6e0258900a35fef379788cfb358987045aa2b4fa0b95ee8d4f87918e"),
        "lemma --which 4 --ladder 10,1e3 --params j=6,k=35 --p-cut 262145":
            (0, "823dacfdaa10948de6ce1b7e6e68449b17543d3bc657bdbd0503d303c35ddf3b"),
        "lemma --which 4 --ladder 10,1e3 --params j=6,variant=log --p-cut 262145":
            (0, "5dd8f36deb42ba323261b1d111ca1ae26f77d5f093f573bee15988b882f90654"),
        "lemma --which 5 --ladder 10,1e3 --p-cut 262145":
            (0, "8ad8988b327d9fe11bd267f2b861af5b846206071efcf5907cdd52ace84fd4d5"),
        "lemma --which 1 --ladder 10,1e3 --p-cut 1e6":
            (0, "273a24e8155c000014f3a8e998088d1d965faed4842b212fb54bce076ddab38a"),
        "lemma --which 1 --ladder 10,1e3 --params pair=cubic --p-cut 1e6":
            (0, "eda857098714f53a808bc98c866ee5e0bc06a7c8efec468aad49cd8820f24273"),
        "lemma --which 3 --ladder 10,1e3 --p-cut 1e6":
            (0, "3b61ba1d74290bdac272cb03c924135ddd42faeb024c31dcda7313ce504f243b"),
        "lemma --which 4 --ladder 10,1e3 --params j=6,k=35 --p-cut 1e6":
            (0, "54c22f474f78fb22dc1c06843c3ad5badf6c0a68f1974e0b91674f1891390dcf"),
        "lemma --which 4 --ladder 10,1e3 --params j=6,variant=log --p-cut 1e6":
            (0, "720b7a54cb1308a5c24aff9fca37838d2ab940a3f517681155c0cc454eef474a"),
        "lemma --which 5 --ladder 10,1e3 --p-cut 1e6":
            (0, "127fa049d87e5dc9e5813c01898c50e208f3ca70c476016e1e6105105357ab9a"),
        "correlate --n 262147 --r 30 --pattern 0:1,-3:1 --mixed --primed-range":
            (0, "7e8d1c7b813486c534bdb83b93d17c1bbad28ef5e1f110de4321f5e28353aa98"),
        "correlate --n 262147 --r 30 --pattern 5:1,-3:1,-1:1 --mixed --primed-range":
            (0, "97f8db9ca34d7e954bcfed4aa42f8dbbcbce748c74b341719d725dfbf9b4236c"),
        "moments --first-moment --n 262139 --h 24":
            (0, "6df250a625940d4a880042c3ae8ba635e5c0b11c5f86bb3f90051789e138d365"),
        "moments --psi --centered --primed --n 262147 --h 20 --k 3":
            (0, "70cda243774f91dda2b4e29c6da5f47b034b6b9c47c17dab7dda21fb5a7303c7"),
        "moments --psi --primed --n 262147 --h 20 --k 2":
            (0, "928c167e46902038988247e35cd42458987c4287efb107e9607c97aeb975d535"),
        "moments --n 262147 --h 10 --r 30 --k 3 --mixed --primed":
            (0, "d9755ffaa47ac616c449811de6502b6d4efa595501163b99df53e778c767fb9c"),
        "omega --n 131075 --h 40 --r 30 --rho 0.5":
            (0, "e7c90e6fb6280c4ab6cf7d9f39b89b58d83fb164158083b44ef591155494df3b"),
    }

    @pytest.mark.parametrize("cell", list(CELLS))
    def test_stdout_digest(self, cell, capsys):
        code, out = run_main(cell.split(), capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.CELLS[cell]


class TestDeterminism:
    CELLS = [
        ["correlate", "--n", "3000", "--r-exp", "0.25", "--pattern", "0:1,2:1"],
        ["moments", "--n", "3000", "--k", "2", "--h", "10", "--r", "10",
         "--format", "json"],
        ["lemma", "--which", "2", "--ladder", "1e3,3e3"],
        ["singular", "--pattern", "0:1,4:1"],
        ["correlate", "--n", "3000", "--r", "10", "--pattern", "0:2,2:1",
         "--exact"],
        ["moments", "--n", "1500", "--h", "4", "--r", "12", "--k", "2",
         "--exact", "--expand"],
    ]

    @pytest.mark.parametrize(
        "cell", CELLS, ids=[c[0] + ("-exact" if "--exact" in c else "") for c in CELLS])
    def test_bit_identical_across_threads(self, cell):
        """Re-running with a different --threads value must give the same
        bytes on stdout (full subprocess pipeline)."""
        env = dict(os.environ)
        runs = []
        for threads in ("1", "7"):
            proc = subprocess.run(
                CLI + cell + ["--threads", threads],
                capture_output=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr.decode()
            runs.append(proc.stdout)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("cell", [
        "lemma --which 4 --ladder 1e4,1e5 --params j=6,variant=log",
        "omega --n 1e5 --h 50 --r 1e3 --rho 0.3 --c couple",
    ], ids=["lemma-log", "omega"])
    def test_bit_identical_across_blas_threads(self, cell):
        """Exit code and stdout do not depend on an inherited
        OPENBLAS_NUM_THREADS: these cells' np.dot and 1-D @ sums run over
        more than 10**4 entries, which a pool of BLAS threads would split."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        runs = set()
        for threads in (None, "1", "2"):
            run_env = env if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(CLI + cell.split(), capture_output=True,
                                  env=run_env, timeout=300)
            runs.add((proc.returncode, proc.stdout))
        assert len(runs) == 1, [code for code, _ in runs]


def test_import_starts_no_blas_pool():
    """Loading numpy through primelab leaves the process with one thread,
    even with a two-thread BLAS asked for by the environment."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys; from primelab import s_k; "
         "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="2"), check=True)
    assert proc.stdout.split() == ["True", "1"]


_LIBRARY = {"numpy", *(f"primelab.{name}" for name in (
    "approximants", "constants", "correlations", "lemmas", "moments", "singular",
    "tables"))}


def _loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of cli.main(argv) in a fresh interpreter, and which of numpy
    and the library modules it left in sys.modules."""
    code = ("import json, sys\n"
            "from primelab.cli import main\n"
            "try:\n    rc = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n    rc = exc.code\n"
            "print(json.dumps([rc, sorted(sys.modules)]), file=sys.stderr)")
    env = {k: v for k, v in os.environ.items() if k != "PRIMELAB_CACHE_DIR"}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=120, env=env)
    rc, modules = json.loads(proc.stderr.strip().splitlines()[-1])
    return rc, set(modules) & _LIBRARY


class TestImportsPerCommand:
    """Each subcommand imports the modules it runs and no others, so the
    start-up of a CLI process does not grow with the library."""

    @pytest.mark.parametrize("argv, want_rc", [
        (["--help"], 0),
        (["sieve", "--n-max", "abc"], 2),
        (["correlate", "--n", "1e3", "--r", "5"], 2),
    ], ids=["help", "bad-count", "missing-pattern"])
    def test_help_and_usage_errors_load_no_library(self, argv, want_rc):
        assert _loaded_by(argv) == (want_rc, set())

    def test_sieve_loads_tables_only(self):
        assert _loaded_by(["sieve", "--n-max", "1e4"]) == (0, {"numpy", "primelab.tables"})

    def test_lemma_loads_no_correlation_modules(self):
        rc, loaded = _loaded_by(["lemma", "--which", "2", "--ladder", "10,100"])
        assert rc == 0 and "primelab.lemmas" in loaded
        assert not loaded & {"primelab.approximants", "primelab.correlations",
                             "primelab.moments"}

    def test_singular_pattern_loads_no_moments_or_lemmas(self):
        rc, loaded = _loaded_by(["singular", "--pattern", "0:1,2:1"])
        assert rc == 0
        assert loaded == {"numpy", "primelab.constants", "primelab.singular",
                          "primelab.tables"}
