"""rrlab: exact Ratliff-Rush closure laboratory.

Symbolic engine for Ratliff-Rush closures, integral closures, associated
primes, reduction numbers and related probes over polynomial, quotient and
semigroup rings, with a CLI and a machine-checked claims corpus.
"""

from .core import (Field, Monomial, MonomialOrder, Polynomial, QQ,
                   RingDescriptor)
from .monomial import (MonomialIdeal, PowerLadder, associated_primes_monomial,
                       colon_monomial, integral_closure_monomial,
                       intersect_monomial, is_borel_fixed, member_of_power,
                       socle_candidates)
from .groebner import GroebnerBasis, IdealHandle
from .ratliff_rush import (BoundReached, ClosureConfig, ClosureResult,
                           DEFAULT_CONFIG, FailsAt, Holds, Member,
                           NotMemberUpTo, RRDefect, StabilizedWindow,
                           depth_zero_witness_search, gr_nzd_probe,
                           is_rr_closed, rr_closure, rr_closure_via_reduction,
                           rr_defect, rr_membership_probe,
                           rr_membership_probe_via_reduction, rr_power,
                           superficial_probe)
from .reductions import (EquivalenceReport, ReductionReport, is_reduction,
                         prop41_equivalence_check, reduction_number,
                         reduction_report, rr_reduction_number, s_invariant)
from .semigroup import (AffineIdeal, AffineSemigroup2D, NumericalSemigroup,
                        SemigroupIdeal)
from .parser import (InputProgram, format_program, parse_polynomial,
                     parse_program)
from .corpus import list_cases, run_corpus
from .errors import (ArityError, InputError, LexicalError, PreconditionError,
                     RRLabError, ResourceLimitError, RingMismatchError,
                     SyntacticError, UnknownIdentifierError,
                     UnsupportedOperationError, ZeroIdealError)

__all__ = [
    "Field", "Monomial", "MonomialOrder", "Polynomial", "QQ",
    "RingDescriptor",
    "MonomialIdeal", "PowerLadder", "associated_primes_monomial",
    "colon_monomial", "integral_closure_monomial", "intersect_monomial",
    "is_borel_fixed", "member_of_power", "socle_candidates",
    "GroebnerBasis", "IdealHandle",
    "BoundReached", "ClosureConfig", "ClosureResult", "DEFAULT_CONFIG",
    "FailsAt", "Holds", "Member", "NotMemberUpTo", "RRDefect",
    "StabilizedWindow", "depth_zero_witness_search", "gr_nzd_probe",
    "is_rr_closed", "rr_closure", "rr_closure_via_reduction", "rr_defect",
    "rr_membership_probe", "rr_membership_probe_via_reduction", "rr_power",
    "superficial_probe",
    "EquivalenceReport", "ReductionReport", "is_reduction",
    "prop41_equivalence_check", "reduction_number", "reduction_report",
    "rr_reduction_number", "s_invariant",
    "AffineIdeal", "AffineSemigroup2D", "NumericalSemigroup",
    "SemigroupIdeal",
    "InputProgram", "format_program", "parse_polynomial", "parse_program",
    "list_cases", "run_corpus",
    "ArityError", "InputError", "LexicalError", "PreconditionError",
    "RRLabError", "ResourceLimitError", "RingMismatchError",
    "SyntacticError", "UnknownIdentifierError", "UnsupportedOperationError",
    "ZeroIdealError",
]
