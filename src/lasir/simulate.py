"""Synthetic data generation on a cube (or any masked) lattice.

The default three-group design draws an independent random-field intercept
per group and pairs it with per-group slope maps: a random-field shape
(group 1), a trigonometric shape (group 2), and a smoothed compact bump at
the lattice center (group 3). Random fields are calibrated so their average
pointwise variance matches the kernel's diagonal; at that amplitude the
intercept patterns separate the groups for likelihood-based methods while
staying well below the noise-ball diameter that distance-based clustering
needs. Setting ``shared_intercept=True`` collapses the intercepts to a
single common field, leaving the slopes as the only group signal. Group
membership follows the multinomial-logit gating model `GATING` on the
control covariate, site and control effects are independent normals per
voxel, and the noise is independent across voxels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas
from .basis import BasisSystem, KernelParams, basis_size, build_basis
from .inference import ndtr
from .lattice import Dataset, GroundTruth, VoxelLattice, build_lattice
from .linmodel import augment, gating_probs
from .sem import s_step

KERNEL = KernelParams(0.01, 2.0)  # random-field kernel of the intercepts and group-1 slope
SITE_SD = 0.2     # sd of the per-voxel site effects
CONTROL_SD = 0.2  # sd of the per-voxel control effects
CUBE_HALF_WIDTH = 0.4  # half width of the group-3 slope's cube, normalized units
CUBE_TAPER_SD = 0.1    # sd of the Gaussian that smooths the cube's edges

# multinomial-logit gating weights on (1, z) per group count; last row zero
GATING = {
    1: np.array([[0.0, 0.0]]),
    2: np.array([[-0.6, 1.0], [0.0, 0.0]]),
    3: np.array([[-0.6, 1.0], [0.5, 1.0], [0.0, 0.0]]),
}


@dataclass
class SimConfig:
    """Cube-simulation settings.

    dims / mask : lattice geometry (mask "full" or an explicit boolean volume).
    n, n_groups, sigma : sample size, group count K in {1,2,3}, noise sd;
        labels follow the gating weights `GATING[K]`.
    basis_degree : truncation degree of the expansion of the random-field
        kernel `KERNEL`; defaults to min(12, smallest axis - 1) so the
        expansion stays full rank on the grid.
    n_sites : site count; the site and control effects have sds `SITE_SD`
        and `CONTROL_SD`. The dataset holds a site column only for each site
        drawn, as a saved and reloaded one does (`load_dataset`).
    null_exposure : zero out every slope map (for calibration studies).
    """

    dims: tuple = (15, 15, 15)
    n: int = 500
    n_groups: int = 3
    sigma: float = 1.0
    basis_degree: int = None
    n_sites: int = 21
    seed: int = 0
    null_exposure: bool = False
    shared_intercept: bool = False
    mask: object = "full"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.n_groups not in (1, 2, 3):
            raise ValueError(f"the cube design supports 1-3 groups, got {self.n_groups}")
        if self.basis_degree is None:
            self.basis_degree = min(12, min(self.dims) - 1)


def gp_from_coeffs(basis: BasisSystem, xi: np.ndarray) -> np.ndarray:
    """Field sum_l sqrt(e_l) xi_l psi_l for given expansion coefficients,
    formed from the row blocks of `BasisSystem.psi_blocks`, so that a
    factored basis never materialises psi; the field equals psi @ coefs bit
    for bit."""
    coefs = np.sqrt(basis.eigvals) * xi
    field = np.empty(basis.d)
    for rows, block in basis.psi_blocks():
        field[rows] = block @ coefs
    return field


def sample_gp(lattice: VoxelLattice, basis: BasisSystem,
              rng: np.random.Generator) -> np.ndarray:
    """Draw a truncated Karhunen-Loeve sample of the kernel's random field.

    Independent standard normal coefficients are scaled by the square roots
    of the analytic eigenvalues and combined over the basis columns, so the
    field's pointwise variance is ``sum_l e_l psi_l(v)^2``.
    """
    basis.check_lattice(lattice)
    return gp_from_coeffs(basis, rng.standard_normal(basis.L))


def smoothed_center_cube(lattice: VoxelLattice) -> np.ndarray:
    """Indicator of the centered cube {max|v_axis| <= `CUBE_HALF_WIDTH`}
    convolved with an isotropic Gaussian (sd `CUBE_TAPER_SD` in normalized
    units), truncated to exactly zero beyond three taper widths from the
    cube."""
    per_axis = [ndtr((CUBE_HALF_WIDTH - lattice.coords[:, ax]) / CUBE_TAPER_SD)
                - ndtr((-CUBE_HALF_WIDTH - lattice.coords[:, ax]) / CUBE_TAPER_SD)
                for ax in range(3)]
    out = per_axis[0] * per_axis[1] * per_axis[2]
    out[np.abs(lattice.coords).max(axis=1) > CUBE_HALF_WIDTH + 3.0 * CUBE_TAPER_SD] = 0.0
    return out


def trig_map(lattice: VoxelLattice) -> np.ndarray:
    """sin(4 v_x) + cos(4 v_y) - sin(4 v_z) on the normalized coordinates."""
    v = lattice.coords
    return np.sin(4.0 * v[:, 0]) + np.cos(4.0 * v[:, 1]) - np.sin(4.0 * v[:, 2])


def make_group_svcs(lattice: VoxelLattice, rng: np.random.Generator,
                    basis: BasisSystem) -> np.ndarray:
    """The three cube-design slope maps, shape (3, d).

    Group 1 is a random-field draw on `basis`, group 2 the trigonometric
    map, group 3 the smoothed center cube.
    """
    return np.stack([sample_gp(lattice, basis, rng),
                     trig_map(lattice),
                     smoothed_center_cube(lattice)])


def draw_labels(gating: np.ndarray, controls: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Draw group labels (1..K) from the gating model given controls (n, q)."""
    probs = gating_probs(gating, augment(controls))
    return s_step(probs, rng)


def field_scale(lattice: VoxelLattice, basis: BasisSystem) -> float:
    """Amplitude making the truncated expansion's average pointwise variance
    match the diagonal ``exp(-2a|v|^2)`` on the lattice of the kernel the
    basis was built with (rate a = ``basis.params.a``)."""
    kernel_diag = np.exp(-2.0 * basis.params.a * (lattice.coords ** 2).sum(axis=1)).mean()
    return float(np.sqrt(kernel_diag * lattice.d / basis.eigvals.sum()))


@_blas.single_thread
def simulate_cube(config: SimConfig):
    """Generate one synthetic dataset plus its ground truth.

    Draw order is fixed, so a seed reproduces the dataset bit-exactly:
    group-1 slope field, group intercept fields, site effects, control
    effects, exposures, controls, sites, labels, noise. BLAS runs on one
    thread, as in `build_basis`, so the random fields (products with psi)
    and hence the images do not depend on OPENBLAS_NUM_THREADS either.

    Returns
    -------
    (dataset, truth, lattice, basis) : the basis is the expansion used for
        the random fields (same kernel the fit typically uses).
    """
    lattice = build_lattice(config.dims, config.mask)
    if basis_size(config.basis_degree) > lattice.d:
        raise ValueError("basis exceeds lattice rank; lower basis_degree")
    basis = build_basis(lattice, KERNEL, config.basis_degree)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    K, n, d = config.n_groups, config.n, lattice.d
    amp = field_scale(lattice, basis)

    maps = make_group_svcs(lattice, rng, basis)
    if K == 1:
        slopes = maps[1][None, :]  # single-group datasets use the trig slope
    else:
        slopes = maps[:K].copy()
        slopes[0] *= amp
    if config.null_exposure:
        slopes = np.zeros_like(slopes)
    if config.shared_intercept:
        intercepts = np.repeat(amp * sample_gp(lattice, basis, rng)[None, :], K, axis=0)
    else:
        intercepts = np.stack([amp * sample_gp(lattice, basis, rng) for _ in range(K)])
    alpha = np.stack([np.vstack([intercepts[k], slopes[k]]) for k in range(K)])

    gamma = rng.normal(0.0, SITE_SD, size=(config.n_sites, d))
    eta = rng.normal(0.0, CONTROL_SD, size=(1, d))

    x = rng.standard_normal(n)
    z = rng.normal(0.0, 2.0, size=(n, 1))
    site_idx = rng.integers(config.n_sites, size=n)
    sites = np.zeros((n, config.n_sites))
    sites[np.arange(n), site_idx] = 1.0
    labels = draw_labels(GATING[K], z, rng)

    mu = (intercepts[labels - 1] + x[:, None] * slopes[labels - 1]
          + sites @ gamma + z @ eta)
    images = (mu + rng.normal(0.0, config.sigma, size=(n, d))).astype(np.float32)

    exposures = np.column_stack([np.ones(n), x])
    drawn = np.flatnonzero(sites.any(axis=0))
    dataset = Dataset(images=images, exposures=exposures, controls=z, sites=sites[:, drawn],
                      site_codes=drawn + 1)
    truth = GroundTruth(labels=labels, alpha=alpha, gamma=gamma, eta=eta,
                        gating=GATING[K].copy())
    return dataset, truth, lattice, basis
