"""Random block Jacobi operators: spectra, transfer matrices, Lyapunov
exponents, Zariski closure diagnostics, localization statistics, and exact
many-body cross-checks for the anisotropic spin chain."""

from .errors import ConfigError, NumericalFailure
from .model import (
    BlockJacobiMatrix,
    DisorderRealization,
    HatBlockMatrix,
    ModelParams,
    SingleSiteDistribution,
    TrivialDisorderWarning,
    anisotropy_block,
    assemble_block_jacobi,
    assemble_hat_form,
    interleave_permutation,
    params_from_config,
    random_instance,
    realization_rng,
    sample_disorder,
    write_dense_csv,
)
from .spectral import (
    DOSHistogram,
    IntervalUnion,
    SpectralData,
    almost_sure_spectrum_approx,
    check_gap,
    dos_histogram,
    eigensolve,
    ensemble_spectra,
    floquet_symbol,
    periodic_spectrum,
    window_eigensolve,
)
from .transfer import (
    CharpolyReport,
    GreenEvaluator,
    charpoly_identity_check,
    fundamental_solutions,
    transfer_matrix,
    wronskian,
)
from .lyapunov import (
    AlphaScanResult,
    BlockEnsemble,
    ExponentEstimate,
    LyapunovSpectrum,
    ThoulessReport,
    ZeroEnergyPrediction,
    anderson_lyapunov_2x2,
    critical_alpha_scan,
    lyapunov_index,
    lyapunov_spectrum,
    thouless_check,
    two_step_lyapunov,
    zero_energy_aux_exponent,
    zero_energy_closed_form,
    zero_energy_shift,
)
from .furstenberg import (
    CertificateReport,
    ClosureResult,
    build_A0,
    lie_closure_dimension,
    zero_energy_reducibility_certificate,
)
from .localization import (
    CorrelatorField,
    DecayFit,
    WegnerRecord,
    eigenfunction_correlator,
    ensemble_correlator,
    fit_decay,
    wegner_probe,
)
from .xy_oracle import (
    FermionSet,
    HeisenbergReport,
    LRStat,
    ManyBodyOperator,
    QuadraticFormReport,
    build_hamiltonian,
    build_jordan_wigner,
    free_fermion_spectrum,
    lr_commutator_stats,
    site_operator,
    verify_free_fermion_spectrum,
    verify_heisenberg_identity,
    verify_quadratic_form,
)

__version__ = "0.1.0"
