"""Latent-subgroup image-on-scalar regression.

A library for fitting mixture-of-regressions models to volumetric image
outcomes: individuals belong to latent subgroups with group-specific
spatially varying exposure effects, shared site/control effects, and
multinomial-logit group membership driven by the controls. Spatial maps are
expanded in an orthonormal basis built from kernel eigenfunctions, fitting
runs by stochastic EM, the group count is chosen by BIC, and voxelwise
effects are tested with Wald statistics under FDR control.
"""

from .basis import (BasisSystem, KernelParams, basis_size, build_basis,
                    eigen_system_1d, kernel_eval, select_h, tensor_degrees,
                    variance_contribution)
from .baselines import kmeans, kmlr_fit, svcm_fit
from .inference import (CoefCovariance, InferenceMap, coef_covariance, fdr_bh,
                        infer_maps, svc_variance, wald_map)
from .lattice import (Dataset, GroundTruth, VolumePayload, VoxelLattice, build_lattice,
                      lattice_from_volume, load_dataset, load_volume_map,
                      save_dataset, save_volume_map)
from .linmodel import (DiagGaussianFit, GatingFit, augment, gating_probs, mnlogit_fit,
                       mvls_fit)
from .metrics import (ValidationResult, match_groups, mse_svc, nmi, power_type1,
                      validate_projection)
from .projection import backproject, project
from .selection import BicRecord, param_count, select_k
from .sem import (DegenerateGroupError, FitResult, ModelParams, Problem, SemConfig,
                  e_step, fit_sem, m_step, prepare, q_value, s_step)
from .simulate import (SimConfig, draw_labels, field_scale, make_group_svcs,
                       sample_gp, simulate_cube, smoothed_center_cube, trig_map)

__version__ = "0.1.0"
