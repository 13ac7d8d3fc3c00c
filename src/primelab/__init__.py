"""primelab: a numerical laboratory for truncated divisor sums and prime moments.

The package evaluates, at desk scale and with exact-arithmetic cross-checks:

* the truncated divisor-sum approximants lambda_R(n) and LambdaBig_R(n),
  both as divisor weights (``build_weights``, ``biglambda_weights``) that
  one block kernel, ``approximants.lambda_R_block``, tabulates in float or
  exact form over any range of n (``lambda_R_range`` from n = 0),
* Hardy-Littlewood singular series and their level constants,
* correlation sums of the approximants over shift patterns,
* window moments of psi_R and of psi over short intervals, their exact
  rearrangement through correlation sums, and mixed moments,
* five mean-value lemmas for multiplicative functions on x-ladders,
* a coupled two-scale experiment probing the sign of the third moment.
"""

from __future__ import annotations

import importlib
import os

# One BLAS thread, set before the first import of numpy loads OpenBLAS, and
# set whatever the environment says.  The pool OpenBLAS starts otherwise
# spins a worker for about 0.12 s of CPU in every process, which is a
# quarter of a short CLI cell's CPU time.  And np.dot / 1-D @ split sums of
# more than 10**4 entries across its threads, so the float bits on stdout
# (lemma 4's log variant, the omega moments) would depend on the CPU count
# or on an inherited OPENBLAS_NUM_THREADS.  A host program that imported
# numpy before primelab keeps the pool it already started.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# The public names by home module.  Each module, and numpy with it, is
# imported on first access to one of its names (PEP 562), so a CLI process
# loads only what its subcommand runs, and `--help` loads none of them.
_EXPORTS = {
    "tables": ("ArithTables", "build_tables", "load_tables", "save_tables", "tables_for"),
    "approximants": (
        "ApproximantWeights",
        "biglambda_weights",
        "build_weights",
        "lambda_R_direct",
        "lambda_R_range",
        "psi_R",
        "script_L",
        "script_L_float",
    ),
    "singular": (
        "ShiftPattern",
        "SingularValue",
        "constant_C",
        "gallagher_sum",
        "singular_S2_range",
        "singular_Sn",
        "singular_vector",
    ),
    "correlations": (
        "CorrelationResult",
        "psi_tuple",
        "s2_reduced",
        "s_k",
        "s_tilde_k",
    ),
    "moments": (
        "FirstMomentReport",
        "MomentReport",
        "OmegaExperiment",
        "coupled_C",
        "first_moment_identity",
        "h_from_lambda",
        "mixed_moment",
        "moment_psi",
        "moment_psiR",
        "omega_experiment",
    ),
    "lemmas": (
        "LemmaReport",
        "MonicPolyPair",
        "lemma1",
        "lemma2",
        "lemma3",
        "lemma4",
        "lemma4_log",
        "lemma5",
        "multiplicative_values",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(["__version__", *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule by its name, as `primelab.tables`
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
