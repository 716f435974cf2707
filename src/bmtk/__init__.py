"""bmtk: exact-arithmetic toolkit for Boros-Moll coefficient sequences.

Generates the coefficient rows {d_i(m)} of the Boros-Moll polynomials by
independent exact methods, checks order/log-behavior properties of positive
sequences (log-concavity, spiral, ratio monotonicity and their iterated
variants), verifies the associated inequality and polynomial-identity suites
at concrete parameters, cross-checks the quartic integral numerically, and
scans ranges of m with a resumable ledger.
"""

from .bmcoeff import (
    CoeffRow,
    Method,
    closed_form_row,
    double_sum_eval,
    eval_poly,
    hypergeometric_eval,
    recu1_row,
    recu2_row,
    recu3_row,
    recu4_residual,
    rows,
)
from .exactnum import Dyadic, decimal_string
from .seqprops import (
    PropertyVerdict,
    Witness,
    is_log_concave,
    is_ratio_monotone,
    is_spiral,
    is_unimodal_midpeak,
    k_property,
    l_operator,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffRow",
    "Dyadic",
    "Method",
    "PropertyVerdict",
    "Witness",
    "closed_form_row",
    "decimal_string",
    "double_sum_eval",
    "eval_poly",
    "hypergeometric_eval",
    "is_log_concave",
    "is_ratio_monotone",
    "is_spiral",
    "is_unimodal_midpeak",
    "k_property",
    "l_operator",
    "recu1_row",
    "recu2_row",
    "recu3_row",
    "recu4_residual",
    "rows",
    "__version__",
]
