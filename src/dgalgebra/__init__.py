"""Exact computation with finitely presented minimal differential
graded-commutative algebras over the rationals: cohomology with witnesses,
cylinder-based homotopies, obstruction-theoretic deciders, morphism
enumeration and homotopy classification."""

from .algebra import (
    AlgebraPresentation,
    Element,
    Generator,
    Monomial,
    Morphism,
    compose,
    extend_derivation,
    normalize_monomial,
    validate_presentation,
)
from .classify import (
    ClassificationResult,
    ConstraintSystem,
    SelfEquivalenceGroup,
    SolutionFamily,
    UnknownMorphism,
    classify_homotopy_set,
    constraint_system,
    generic_ansatz,
    self_equivalence_group,
    solve_structured,
)
from .cohomology import (
    CohomologyClass,
    cohomology_at_degree,
    induced_map,
    induced_map_is_isomorphism,
    is_coboundary,
    nilpotency_witness,
    weight_split_cohomology,
)
from .cylinder import CylinderAlgebra, Homotopy, build_cylinder
from .errors import (
    ClassificationIncomplete,
    DegreeMismatch,
    DgaError,
    DimensionMismatch,
    HomotopyEndpointMismatch,
    InvalidDecomposition,
    InvalidFiltration,
    LemmaViolation,
    NonRationalRoot,
    NotACocycle,
    Obstructed,
    PreconditionViolated,
    PresentationMismatch,
    UnknownGenerator,
    UnsolvableSystem,
    UnsupportedShape,
    WeightsMissing,
    ZeroLambda,
)
from .linalg import (
    MultiplicativeSystem,
    RationalMatrix,
    rref_solve,
    smith_form,
    solve_multiplicative_system,
)
from .obstruction import (
    Filtration,
    HomotopyDecision,
    NullhomotopyResult,
    ObstructionDecomposition,
    ObstructionValue,
    compute_obstruction,
    decide_homotopic,
    decide_homotopic_zero_restriction,
    decide_nullhomotopic,
    extend_to_homotopy,
    make_decomposition,
)
from .parser import (
    Diagnostic,
    parse_morphism,
    parse_presentation,
    print_morphism,
    print_presentation,
)
from .weights import (
    WeightAssignment,
    find_weight_assignment,
    phi_lambda,
    validate_weights,
    verify_infinite_family,
)

__version__ = "0.1.0"
