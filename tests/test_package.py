import types

import randblock

# the public surface of the package; a change of exports shows in this list
PUBLIC_NAMES = [
    "AlphaScanResult", "BlockEnsemble", "BlockJacobiMatrix", "CertificateReport", "CharpolyReport",
    "ClosureResult", "ConfigError", "CorrelatorField", "DOSHistogram", "DecayFit", "DisorderRealization",
    "ExponentEstimate", "FermionSet", "GreenEvaluator", "HatBlockMatrix", "HeisenbergReport", "IntervalUnion",
    "LRStat", "LyapunovSpectrum", "ManyBodyOperator", "ModelParams", "NumericalFailure", "QuadraticFormReport",
    "SingleSiteDistribution", "SpectralData", "ThoulessReport", "TrivialDisorderWarning", "WegnerRecord",
    "ZeroEnergyPrediction", "almost_sure_spectrum_approx", "anderson_lyapunov_2x2", "anisotropy_block",
    "assemble_block_jacobi", "assemble_hat_form", "build_A0", "build_hamiltonian", "build_jordan_wigner",
    "charpoly_identity_check", "check_gap", "critical_alpha_scan", "dos_histogram", "eigenfunction_correlator",
    "eigensolve", "ensemble_correlator", "ensemble_spectra", "fit_decay", "floquet_symbol",
    "free_fermion_spectrum", "fundamental_solutions", "interleave_permutation", "lie_closure_dimension",
    "lr_commutator_stats", "lyapunov_index", "lyapunov_spectrum", "params_from_config", "periodic_spectrum",
    "random_instance", "realization_rng", "sample_disorder", "site_operator", "thouless_check",
    "transfer_matrix", "two_step_lyapunov", "verify_free_fermion_spectrum", "verify_heisenberg_identity",
    "verify_quadratic_form", "wegner_probe", "window_eigensolve", "write_dense_csv", "wronskian",
    "zero_energy_aux_exponent", "zero_energy_closed_form", "zero_energy_reducibility_certificate",
    "zero_energy_shift",
]


def test_public_names_are_pinned():
    names = sorted(n for n, v in vars(randblock).items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
