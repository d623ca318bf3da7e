"""speccert: controllability certification for control-affine quantum systems.

Locates conical eigenvalue intersections in control space, verifies conical
connectedness, checks non-resonance and coupling-graph connectivity, computes
bracket-generated Lie closures, and synthesizes and simulates adiabatic
passages that realize population transfers between eigenstates.
"""

from .adiabatic import (
    ClimbResult,
    ControlPath,
    StateTrajectory,
    branch_populations,
    climb,
    load_path,
    plan_passage,
    propagate,
)
from .certify import (
    CertifyConfig,
    ControllabilityCertificate,
    EnsembleSummary,
    certify,
    ensemble_genericity,
)
from .conical import (
    ConicalCertificate,
    ConicalityResult,
    ConnectednessReport,
    certify_connectedness,
    degeneracy_tol,
    locate_intersection,
    spectral_diameter_estimate,
    test_conicality,
)
from .coupling import CouplingGraph, build_graph, is_connected
from .errors import (
    BudgetError,
    GeometryError,
    NumericalError,
    PreconditionError,
    RefinementNeededError,
    SpeccertError,
    StructuralError,
)
from .lie_closure import (
    LieClosureResult,
    TransitivityVerdict,
    classify_transitive,
    closure,
    generators_from,
)
from .operators import (
    ControlHamiltonian,
    HermitianOperator,
    ValidityReport,
    evaluate,
    load_hamiltonian,
    validate,
)
from .resonance import (
    NonresonantSample,
    ResonanceReport,
    check_nonresonant,
    sample_nonresonant,
)
from .spectrum import (
    GapTable,
    SpectralPoint,
    TrackedSpectrum,
    decompose,
    decompose_many,
    gap,
    save_track_csv,
    track,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CertifyConfig",
    "ClimbResult",
    "ConicalCertificate",
    "ConicalityResult",
    "ConnectednessReport",
    "ControlHamiltonian",
    "ControlPath",
    "ControllabilityCertificate",
    "CouplingGraph",
    "EnsembleSummary",
    "GapTable",
    "GeometryError",
    "HermitianOperator",
    "LieClosureResult",
    "NonresonantSample",
    "NumericalError",
    "PreconditionError",
    "RefinementNeededError",
    "ResonanceReport",
    "SpeccertError",
    "SpectralPoint",
    "StateTrajectory",
    "StructuralError",
    "TrackedSpectrum",
    "TransitivityVerdict",
    "ValidityReport",
    "branch_populations",
    "build_graph",
    "certify",
    "certify_connectedness",
    "check_nonresonant",
    "classify_transitive",
    "climb",
    "closure",
    "decompose",
    "decompose_many",
    "degeneracy_tol",
    "ensemble_genericity",
    "evaluate",
    "gap",
    "generators_from",
    "is_connected",
    "load_hamiltonian",
    "load_path",
    "locate_intersection",
    "plan_passage",
    "propagate",
    "sample_nonresonant",
    "save_track_csv",
    "spectral_diameter_estimate",
    "test_conicality",
    "track",
    "validate",
]
