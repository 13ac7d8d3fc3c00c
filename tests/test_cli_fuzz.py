"""Property test of the command line: any argv drawn from small menus of
each subcommand's options, conflicting pairs and bad values included, ends
in exit 0, 2 or 3 and never in an uncaught exception; an argv that gives an
option its mode does not read never exits 0, and one that exits 0 prints
no inf or nan in its rows.

The menus keep N <= 1e4 and R, h small, so that every cell is cheap; the
tables go to a temporary PRIMELAB_CACHE_DIR.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from primelab import cli

COMMON = {"--format": ("csv", "json"), "--threads": ("1", "2")}

# option -> its menu of values; None marks a flag
MENUS = {
    "sieve": {"--n-max": ("1", "2", "100", "1e4", "0", "abc")},
    "lambda": {
        "--r": ("1", "8", "2001"),
        "--n": ("1", "30", "1e3"),
        "--exact": None,
    },
    "singular": {
        "--pattern": ("0:1,2:1", "0:1,2:1,4:1", "0:2", "0:1,0:1", ""),
        "--sn": ("2", "3", "4"),
        "--j": ("0", "6", "-4", "7"),
        "--p-cut": ("3", "1000"),
    },
    "correlate": {
        "--n": ("1", "100", "1e4"),
        "--r": ("1", "8", "16"),
        "--r-exp": ("0.25", "0.5", "-1", "nan", "inf", "50"),
        "--pattern": ("0:1,2:1", "0:3", "-5:1,-3:1", "0:1,2:2", "0:1,200:1", "0:0",
                      "0:600"),
        "--mixed": None,
        "--primed-range": None,
        "--exact": None,
        "--p-cut": ("3", "1000"),
    },
    "moments": {
        "--n": ("1", "100", "1e4"),
        "--k": ("-1", "0", "1", "2", "3"),
        "--h": ("1", "4", "10"),
        "--lambda": ("0.5", "1", "-1", "nan", "inf", "1e308"),
        "--r": ("1", "8", "16"),
        "--r-exp": ("0.25", "nan", "inf", "50"),
        "--psi": None,
        "--mixed": None,
        "--first-moment": None,
        "--centered": None,
        "--exact": None,
        "--expand": None,
        "--primed": None,
    },
    "lemma": {
        "--which": ("1", "2", "3", "4", "5", "6"),
        "--ladder": ("1e3", "1e3,1e4", "1e4,1e3", "1", "2,3"),
        "--params": (
            "j=2,variant=log", "jj=7", "pair=cubic,k=6", "pair=quartic",
            "p1=-1:-1:1,p2=-1:3:-3:1", "p1=1", "p1=1,p2=1", "J=6,k=3",
            "J=5", "j=6,k=5", "k=0", "j=abc", "variant=lin", "j=0", "x",
        ),
        "--p-cut": ("3", "1000"),
    },
    "omega": {
        "--n": ("1", "100", "1e4"),
        "--h": ("5", "40"),
        "--lambda": ("4", "inf"),
        "--r": ("16",),
        "--r-exp": ("0.3", "inf"),
        "--rho": ("0.3", "0", "inf", "nan", "1e200"),
        "--c": ("couple", "-0.5", "abc", "inf", "1e200"),
    },
}


# mode flag (None: no flag given) -> the options that mode does not read
UNREAD = {
    "moments": {
        "--first-moment": {"--k", "--r", "--r-exp", "--centered", "--exact",
                           "--expand", "--primed"},
        "--psi": {"--r", "--r-exp", "--exact", "--expand"},
        "--mixed": {"--centered", "--exact", "--expand"},
        None: {"--centered"},
    },
    "singular": {"--pattern": {"--j"}},
}

# the cases UNREAD names, each drawn from the menus above
REFUSED = [
    ["moments", "--n", "1e4", "--h", "10", "--r", "8", "--centered", "--k", "2"],
    ["moments", "--n", "1e4", "--h", "10", "--psi", "--exact"],
    ["moments", "--n", "1e4", "--h", "10", "--psi", "--expand"],
    ["moments", "--n", "1e4", "--h", "10", "--psi", "--r", "8"],
    ["moments", "--n", "1e4", "--h", "10", "--r", "8", "--mixed", "--exact"],
    ["moments", "--n", "1e4", "--h", "10", "--r", "8", "--mixed", "--expand"],
    ["moments", "--n", "1e4", "--h", "10", "--r", "8", "--mixed", "--centered"],
    ["moments", "--n", "1e4", "--h", "10", "--first-moment", "--r", "8"],
    ["moments", "--n", "1e4", "--h", "10", "--first-moment", "--r-exp", "0.25"],
    ["moments", "--n", "1e4", "--h", "10", "--first-moment", "--k", "1"],
    ["moments", "--n", "1e4", "--h", "10", "--first-moment", "--centered"],
    ["moments", "--n", "1e4", "--h", "10", "--first-moment", "--primed"],
    ["singular", "--pattern", "0:1,2:1", "--j", "6"],
]


def _gives_unread_option(argv: list[str]) -> bool:
    rules = UNREAD.get(argv[0], {})
    modes = [flag for flag in rules if flag in argv] or [None]
    return any(set(argv) & rules.get(mode, set()) for mode in modes)


# the options argparse requires: drawn in about seven runs of eight
REQUIRED = {
    "sieve": {"--n-max"},
    "lambda": {"--r", "--n"},
    "correlate": {"--n", "--pattern"},
    "moments": {"--n"},
    "lemma": {"--which", "--ladder"},
    "omega": {"--n", "--rho"},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(MENUS)))
    argv = [command]
    for option, menu in {**MENUS[command], **COMMON}.items():
        if option in REQUIRED.get(command, ()):
            present = draw(st.integers(0, 7)) > 0
        else:
            present = draw(st.booleans())
        if not present:
            continue
        argv.append(option)
        if menu is not None:
            argv.append(draw(st.sampled_from(menu)))
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code, argparse's SystemExit included, and its stdout;
    any other exception propagates and fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _exit_code(argv: list[str]) -> int:
    return _run(argv)[0]


def _row_values(out: str) -> list:
    """The values of the data rows of a CSV or JSON output."""
    if out.startswith("{"):
        return [v for row in json.loads(out)["rows"] for v in row.values()]
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    return [field for row in list(csv.reader(lines))[1:] for field in row]


def _is_non_finite(value) -> bool:
    try:
        return not math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
def test_every_argv_exits_0_2_or_3(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("PRIMELAB_CACHE_DIR", str(tmp_path))
    allowed = (2, 3) if _gives_unread_option(argv) else (0, 2, 3)
    code, out = _run(argv)
    assert code in allowed, argv
    if code == 0:
        assert not any(map(_is_non_finite, _row_values(out))), argv


def test_unread_options_are_refused(tmp_path, monkeypatch):
    """Each option a mode does not read is refused, where it used to be
    ignored with exit 0; without it the same cell runs."""
    monkeypatch.setenv("PRIMELAB_CACHE_DIR", str(tmp_path))
    for argv in REFUSED:
        assert _gives_unread_option(argv), argv
        assert _exit_code(argv) in (2, 3), argv
    assert _exit_code(["moments", "--n", "1e4", "--h", "10", "--first-moment"]) == 0
    assert _exit_code(["singular", "--pattern", "0:1,2:1", "--p-cut", "1000"]) == 0
