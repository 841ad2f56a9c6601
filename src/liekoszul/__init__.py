"""Exact rational engine for Koszul-type complexes of Lie algebroids,
their spectral sequences, and two-chart Cech models on the projective line."""

from .exactla import (
    ExactMatrix,
    LinearAlgebraError,
    NotFiltrationCompatibleError,
    OutsideCyclesError,
    Subquotient,
    Subspace,
    image_basis,
    induced_map,
    kernel_basis,
)
from .complexes import (
    ChainMap,
    CochainComplex,
    ComplexError,
    DoubleComplex,
    FilteredComplex,
    betti,
    cohomology,
    column_filtration,
    is_quasi_isomorphism,
    row_filtration,
    total,
)
from .specseq import (
    Pairing,
    SpectralSequencePage,
    check_convergence,
    compute_page,
    run,
)
from .lierinehart import (
    LieRinehartPresentation,
    SectionV,
    WeightedPolyRing,
    ce_d,
    contraction,
    lie_derivative,
    omega_slice_complex,
    tangent_algebroid,
    validate,
)
from .koszul import (
    ZeroLocusModel,
    formality_check,
    is_zero_dimensional,
    lie_koszul,
    vanishing_check,
)
from .hochserre import (
    GModule,
    LieAlgebra,
    LieIdeal,
    ce_complex,
    expected_e2,
    hs_filtered,
    verify,
)
from .cechp1 import (
    AlgebroidOnP1,
    EquivariantSection,
    SheafOnP1,
    assumption_check,
    atiyah_algebroid,
    cech_cohomology,
    cech_koszul,
    corollary_check,
    equivariant_H,
    first_page,
    line_bundle,
    second_page_degeneration,
    window_checked,
)

__version__ = "0.1.0"
