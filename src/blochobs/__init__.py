"""Exact sl(2,C)-representation algebra on harmonic polynomials, Bloch
ensemble simulation with an integrated scalar output, and moment-based
reconstruction of the unknown density and initial profile."""

from .polynomials import CRational, Poly, X1, X2, X3, monomial_basis
from .representation import (
    CasimirCertificate,
    CasimirEigenError,
    KappaSignature,
    OperatorExpr,
    WeightLadder,
    apply_field,
    apply_word,
    cartan_h,
    casimir,
    check_ladder,
    commutator_check,
    e_minus,
    e_plus,
    harmonic_decompose,
    kappa_of_word,
    verify_casimir_eigen,
    weight_ladder,
    word_basis_search,
    WordBasisSearchError,
    xi,
    zeta,
)
from .identities import (
    HarmonicBasis,
    QuadraticIdentity,
    addition_theorem_residual,
    assoc_legendre,
    casimir_normalizer,
    constant_quadratic_form,
    example_basis,
    real_harmonic_basis,
    s2_closure_check,
    spherical_harmonic,
    verify_quadratic_identity,
)
from .ensemble import (
    ControlSchedule,
    Density,
    EquivalenceVerdict,
    OutputTrace,
    ParameterBox,
    ParameterGrid,
    Profile,
    angles_profile,
    constant_profile,
    evolve_profile,
    gaussian_density,
    make_grid,
    output,
    output_equiv_test,
    simulate,
    uniform_density,
)
from .reconstruction import (
    InconsistentValuesError,
    OutputSimulator,
    PointInverter,
    ReconstructionConfig,
    ReconstructionResult,
    fit_psi,
    oracle_moments,
    reconstruct,
    recover_density,
    recover_harmonic_values,
    stitch_signs,
    StageError,
    WordTooLongError,
)

__version__ = "0.1.0"
