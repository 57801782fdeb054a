"""Exact weight sets of vanishing sums of roots of unity in finite fields.

The package computes, for a prime p and a modulus m, the set of weights n
for which some n m-th roots of unity sum to zero in characteristic p; it
turns those weights into explicit all-nonzero solutions of diagonal
equations x_1^d + ... + x_n^d = 0, and it audits every closed-form tail
bound it knows against the exact sets.
"""

from .bounds import (
    BoundReport,
    CaseClass,
    TailPrediction,
    classify,
    closed_form_weight_set,
    predicted_tails,
    semigroup_tail,
)
from .cyclotomic import (
    CyclotomicCoset,
    FactorizationReport,
    cyclotomic_cosets,
    factor_xm_minus_1,
    min_extension_degree,
    phi_m_irreducible_mod_p,
    strip_p_part,
)
from .diagonal import (
    DiagonalInstance,
    GoodSolution,
    NoSolution,
    diagonal_instance,
    reduce_exponent,
    solve_good,
    witt_quadratic_check,
)
from .audit import AuditReport, cauchy_davenport_check, sweep, verify_constructive_window
from .gf import (
    DEFAULT_SIZE_CAP,
    FieldElement,
    FieldTable,
    PrimePoly,
    build_field,
    clear_fields,
    is_irreducible,
    lex_least_irreducible,
)
from .ntheory import multiplicative_order
from .traces import (
    QStar,
    TraceProfile,
    half_order_tail,
    predict_trace_count,
    q_star,
    trace_profile,
)
from .weights import (
    Certificate,
    WeightSet,
    certificate,
    compute_weight_set,
    field_weight_set,
    membership,
    minimal_vanishing_sums,
)

__version__ = "0.1.0"
