"""lineact: a computational laboratory for group actions on the real line.

Exact and tracked-precision homeomorphism arithmetic, group words and normal
forms, action galleries with relation verification, orbit and transitivity
search, wandering-interval certificates, and finite-depth nested-interval
constructions.
"""

from .reals import (
    Interval,
    PrecisionContext,
    PrecisionExhausted,
    Real,
    current_precision,
    precision,
)
from .homeo import (
    Affine,
    BoundedConjugate,
    Compose,
    ExtensionCell,
    FixReport,
    HomeoExpr,
    HorizonExceeded,
    Identity,
    Inverse,
    OddPower,
    UnitPowerLadder,
    compose,
    eval_interval,
    evaluate,
    fixed_points,
    inverse,
    power,
    simplify,
    to_text,
)
from .words import (
    GroupElement,
    Presentation,
    ball,
    free_reduced_words,
    multiply,
    normal_form_key,
    parse_word,
    reduce_letters,
)
from .actions import (
    Action,
    ExtensionSpec,
    RelationReport,
    check_relations,
    conjugate_into_unit,
    direct_product_extension,
    extend_action,
    gallery,
    gallery_entries,
    homomorphism_residual,
    realize,
    sample_points,
)
from .dynamics import (
    CantorLadder,
    ConstructionFailed,
    LadderParams,
    OrbitClosureClass,
    OrbitPoint,
    WanderingCertificate,
    cantor_ladder,
    check_ladder,
    classify_orbit_closure,
    coverage_gap,
    find_wandering_interval,
    orbit,
    transitivity_search,
    wandering_certificate,
)

__version__ = "0.1.0"
