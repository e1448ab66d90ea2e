"""Skew-normal diffusions: densities, drift families, simulation, validation."""

from .dists import (ExtendedSkewNormalParams, esn_moments, esn_pdf,
                    half_normal_pdf, mills, sn_moments, std_normal_cdf)
from .errors import (HorizonError, PdeInstabilityError, SchemaError,
                     SimulationError, SkewDiffError)
from .families import (DriftSpec, OuSkewSpec, SkewFamily, amplitude_from_family,
                       constant_correlation_family, constant_skew_family,
                       drift_value, family_from_amplitude,
                       family_from_descriptor, horizon_family, ode_residual,
                       ou_htransform_drift)
from .sde import (PathEnsemble, SimConfig, TimeGrid, mixture_probability,
                  simulate, simulate_bivariate_censoring, simulate_mixture)
from .densities import (DensityGrid, Law, cdf_from_pdf, censored_posterior,
                        chapman_kolmogorov_residual, constant_skew_tpd,
                        density_grid, family_tpd, family_tpd_unshifted,
                        horizon_tpd, horizon_tpd_two_time, ou_htransform_tpd,
                        ou_htransform_tpd_raw, ou_skew_driven_marginal,
                        restart_tpd)
from .fokker_planck import (FpConfig, brownian_h_residual, forward_residual,
                            ou_h_residual, solve_kfe)
from .censoring import (posterior_from_censored_sim, truncated_normal_mean,
                        verify_ou_selection, verify_selection_representation)
from .ou_skew import (ou_h, ou_h_log, ou_identity_residual, ou_mixture_probability,
                      repulsive_ou_tpd, simulate_ou_skew_noise, stationary_ou_tpd)
from .validation import (CheckResult, ValidationReport, girsanov_energy,
                         girsanov_kl_gap, ks_statistic, ks_threshold,
                         martingale_mean, normalization_audit, path_kl_telescoped)

__version__ = "0.1.0"
