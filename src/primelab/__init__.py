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

from .tables import ArithTables, build_tables, load_tables, save_tables, tables_for
from .approximants import (
    ApproximantWeights,
    biglambda_weights,
    build_weights,
    lambda_R_direct,
    lambda_R_range,
    psi_R,
    script_L,
    script_L_float,
)
from .singular import (
    SingularValue,
    constant_C,
    gallagher_sum,
    singular_S2_range,
    singular_Sn,
    singular_vector,
)
from .correlations import (
    CorrelationResult,
    ShiftPattern,
    psi_tuple,
    s2_reduced,
    s_k,
    s_tilde_k,
)
from .moments import (
    FirstMomentReport,
    MomentReport,
    OmegaExperiment,
    coupled_C,
    first_moment_identity,
    h_from_lambda,
    mixed_moment,
    moment_psi,
    moment_psiR,
    omega_experiment,
)
from .lemmas import (
    LemmaReport,
    MonicPolyPair,
    lemma1,
    lemma2,
    lemma3,
    lemma4,
    lemma4_log,
    lemma5,
    multiplicative_values,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximantWeights",
    "ArithTables",
    "CorrelationResult",
    "FirstMomentReport",
    "LemmaReport",
    "MomentReport",
    "MonicPolyPair",
    "OmegaExperiment",
    "ShiftPattern",
    "SingularValue",
    "__version__",
    "biglambda_weights",
    "build_tables",
    "build_weights",
    "constant_C",
    "coupled_C",
    "first_moment_identity",
    "gallagher_sum",
    "h_from_lambda",
    "lambda_R_direct",
    "lambda_R_range",
    "lemma1",
    "lemma2",
    "lemma3",
    "lemma4",
    "lemma4_log",
    "lemma5",
    "load_tables",
    "mixed_moment",
    "moment_psi",
    "moment_psiR",
    "multiplicative_values",
    "omega_experiment",
    "psi_R",
    "psi_tuple",
    "s2_reduced",
    "s_k",
    "s_tilde_k",
    "save_tables",
    "script_L",
    "script_L_float",
    "singular_S2_range",
    "singular_Sn",
    "singular_vector",
    "tables_for",
]
