"""regsim: exact regularity, calibration, and supersimulator toolkit.

Everything operates on explicit finite domains: distributions are
probability vectors, simulators and distinguishers are [0, 1]-valued
vectors, and every guarantee of every construction is audited from scratch
with explicit tolerances rather than trusted.
"""

from .boosting import (
    AuditReport,
    BoostParams,
    BoostTrace,
    audit,
    calibrated_multiaccuracy,
    calibration_error,
    multiaccuracy_boost,
    multicalibrate,
    multicalibration_check,
    recalibrate,
    updates_bound,
)
from .domain import (
    BoundedFn,
    Distribution,
    FiniteDomain,
    Inequality,
    correlation,
    expectation,
    potential,
    round_to_grid,
    tv_distance,
)
from .errors import (
    CapExceededError,
    DomainMismatchError,
    EmptyFamilyError,
    InternalContractError,
    LadderExhaustedError,
    RegsimError,
    ValidationError,
)
from .families import (
    BestResponse,
    Combinator,
    ComplexityLabel,
    ErrorSchedule,
    Family,
    FamilyDistance,
    GradedLadder,
    GrowthMap,
    STANDARD_COMBINATORS,
    apply_growth,
    best_response,
    build_coordinate_family,
    build_rectangle_family,
    build_threshold_family,
    compose_level,
    explicit_family,
    family_distance,
)
from .kfold import (
    TypeClassTable,
    kfold_expectation,
    kfold_tv,
    kfold_type_classes,
    type_count,
)
from .products import (
    CharacterizationReport,
    MixtureInstance,
    ProductTest,
    ProxyPair,
    build_mixture,
    build_proxies,
    characterize,
    characterize_super,
    verify_single_proxy,
    verify_two_proxy,
)
from .supersim import (
    PairResult,
    RecurrenceBound,
    SupersimResult,
    recurrence_bound,
    supersimulator_expanding,
    supersimulator_shrinking,
)

__version__ = "0.1.0"
