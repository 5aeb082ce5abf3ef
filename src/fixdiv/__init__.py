"""Exact lattice toolkit for mobile+fixed decompositions of big divisor
classes on hyperkaehler manifolds: rule-based classification of candidate
fixed parts and independent certification by bounded exhaustive search."""

from .lattice import (
    DivisorClass,
    GramLattice,
    LatticeError,
    MarkmanViolation,
    Signature,
    bk_shadow_member,
    divisibility_multiplier,
    lorentzian_embeddable,
    pairing,
    signature,
    square,
)
from .rr import (
    InconsistentInputError,
    PreconditionError,
    RRPolynomial,
    h0_big_bk,
    lagrangian_h0,
    preset,
    validate,
)
from .deduction import (
    Chain,
    ClassificationResult,
    Configuration,
    ConfigurationError,
    Contradiction,
    PrimeFixed,
    SetupError,
    chain_configuration,
    chain_gram,
    check_2A_mobility,
    classify,
    hk4_negative_square_step,
    rule_ample,
    rule_key,
    rule_lemma1,
    rule_lemma2,
    rule_notprimitive,
    rule_technical,
)
from .search import (
    BudgetExceededError,
    SearchBounds,
    SurvivorRecord,
    enumerate_survivors,
    verify_classification,
)

__version__ = "0.1.0"
