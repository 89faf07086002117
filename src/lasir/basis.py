"""Orthonormal spatial basis from a modified squared-exponential kernel.

The kernel on R^3 is

    kappa(v1, v2) = exp{-a(|v1|^2 + |v2|^2) - b|v1 - v2|^2},   a > 0, b > 0,

where `a` controls the variance decay away from the origin and `b` the
roughness (larger b = rougher). Its eigen-system factorizes over axes. In
one dimension, with

    c = sqrt(a^2 + 2ab),   A = a + b + c,   B = b / A,

the eigenvalue of degree k is ``sqrt(2a/A) * B**k`` and the eigenfunction is
``exp(-(c - a) x^2) * H_k(sqrt(2c) x)`` up to a normalization constant,
with H_k the k-th physicists' Hermite polynomial. Normalization constants
are dropped deliberately: the basis is re-orthonormalized on the discrete
lattice, so only the span and the eigenvalue ratios matter.

Three-dimensional basis terms are tensor products with total Hermite degree
k1 + k2 + k3 <= h, ordered by ascending total degree and lexicographically
within a degree; there are C(h+3, 3) of them. The 3-D eigenvalue of a term
is the product of its 1-D eigenvalues, so every term of total degree n has
a strictly larger eigenvalue than any term of degree n+1.

The basis is kept in factored form, psi = (Phi_x (x) Phi_y (x) Phi_z) T at
the masked voxels: three per-axis factors of h+1 columns and one L x L
upper-triangular T, found from the masked L x L Gram matrix of the tensor
products by CholeskyQR2 (Fukaya et al. 2014). The Gram, projections,
back-projections and variance fields are contracted one axis at a time
(Saatci 2012), so no d x L matrix is formed unless `BasisSystem.psi` is read.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _blas
from .lattice import VoxelLattice, axis_coords
from .linmodel import RANK_TOL, solve_upper

REFINE_TOL = 1e-11  # first-pass correction above which the second Gram is summed from rows
# Basis entries per row block of `BasisSystem.psi_blocks`: 2^18 (2 MB a
# block) keeps a read of `psi` a few MB above psi itself. It stops there:
# blocks of 2^16 change psi's bits on a 315k-voxel mask at h=8, the short
# blocks taking other BLAS paths.
PSI_BLOCK = 1 << 18


@dataclass
class KernelParams:
    """Kernel hyperparameters: decay rate `a` and smoothness `b`, both > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"kernel parameters must be positive, got a={self.a}, b={self.b}")

    @property
    def derived(self):
        """(c, A, B) of the 1-D eigen-system."""
        c = math.sqrt(self.a ** 2 + 2.0 * self.a * self.b)
        A = self.a + self.b + c
        return c, A, self.b / A


class Layout(NamedTuple):
    """Where a factored basis's voxels and columns sit in its contractions.

    factors : the three per-axis factors restricted to the grid planes the
        mask meets, each (m_axis, h+1).
    inside : bool over the (m_z, m_y, m_x) plane grid, x fastest: the cells
        the mask holds. Voxel order is increasing cell order, so a boolean
        assignment or index through it scatters or gathers the d voxels, and
        its nonzero indices are each voxel's rows in the restricted factors.
    slots : each column's index ``(c*(h+1) + b)*(h+1) + a`` in the cube of
        per-axis degrees (a, b, c).
    slabs : the plane grid cut along z into `Slab` boxes, each of at most
        half the part budget (`_slabs`), that `project` and `backproject`
        contract over x and y one at a time, one product per axis and box.
    """

    factors: tuple
    inside: np.ndarray
    slots: np.ndarray
    slabs: tuple


class Slab(NamedTuple):
    """A run of consecutive z-planes of the plane grid, cropped to the y and
    x extent of its mask cells.

    z, y, x : slices of the plane grid, the slab's box.
    inside : bool over the box (z, y, x), x fastest: its mask cells.
    voxels : the slab's voxels, one contiguous range of voxel order (voxels
        are z-slowest), in the order of the box's cells.
    """

    z: slice
    y: slice
    x: slice
    inside: np.ndarray
    voxels: slice

    @property
    def shape(self) -> tuple:
        return tuple(s.stop - s.start for s in (self.z, self.y, self.x))


def _planes(mask: np.ndarray) -> list:
    """Per axis, the bool vector of the grid planes the mask meets."""
    return [mask.any(axis=tuple(o for o in range(3) if o != ax)) for ax in range(3)]


def _layout(factors, mask: np.ndarray, h: int, budget: int) -> Layout:
    present = _planes(mask)
    H = h + 1
    a, b, c = tensor_degrees(h).T
    # (z, y, x) in C order, so that the mask of a slab whose box is one
    # contiguous run of the grid, a full grid's slabs for one, is a view of `inside`
    cells = np.ascontiguousarray(mask[np.ix_(*present)].T)
    return Layout(factors=tuple(f[p] for f, p in zip(factors, present)),
                  inside=cells.ravel(), slots=(c * H + b) * H + a,
                  slabs=_slabs(cells, budget))


def _slabs(cells: np.ndarray, budget: int) -> tuple:
    """The plane grid `cells` (z, y, x) cut into slabs of as many whole
    z-planes as `budget` cells hold, one plane at least, each cropped to the
    y and x extent of its mask cells. One rule cuts every grid, full or
    masked: a grid of at most `budget` cells is one slab (its planes being
    those the mask meets, no crop shrinks it), and the slabs of a grid the
    mask fills are uncropped."""
    mz, my, mx = cells.shape
    per = max(1, budget // (my * mx))
    slabs, a = [], 0
    for z0 in range(0, mz, per):
        run = cells[z0:z0 + per]
        y, x = (np.flatnonzero(run.any(axis=axes)) for axes in ((0, 2), (0, 1)))
        y, x = slice(int(y[0]), int(y[-1]) + 1), slice(int(x[0]), int(x[-1]) + 1)
        inside = run[:, y, x].ravel()
        b = a + int(np.count_nonzero(inside))
        slabs.append(Slab(slice(z0, z0 + run.shape[0]), y, x, inside, slice(a, b)))
        a = b
    return tuple(slabs)


class BasisSystem:
    """An orthonormal spatial basis psi (d, L) on a lattice.

    A basis from `build_basis` (or a version-2 bundle) is factored: column j
    of psi at the masked voxel (x, y, z) is

        sum_{i <= j} T[i, j] * phi_x[x, a_i] * phi_y[y, b_i] * phi_z[z, c_i],

    with (a_i, b_i, c_i) = ``tensor_degrees(h)[i]``. `project`, `backproject`
    and the variance field of `infer_maps` contract the factors axis by axis.
    Reading `psi` materialises the d x L matrix, in row blocks, on every read.
    A basis may instead be given as an explicit `psi` (version-1 bundles,
    tests); it is then used as a dense matrix.

    Attributes
    ----------
    eigvals : ndarray, shape (L,)
        Analytic 3-D eigenvalues in tensor-degree order (ascending total
        degree, lexicographic within degree); non-increasing, because the
        decay is geometric in total degree. For a factored basis, column j
        of psi has leading tensor degree j, so eigvals[j] belongs to it on
        every lattice.
    h : int
        Maximum total Hermite degree.
    params : KernelParams
    factors : tuple of 3 ndarrays (n_axis, h+1), or None
        Per-axis factors, orthonormal on the grid planes the mask meets and
        zero on the others.
    mask : ndarray of bool, shape (nx, ny, nz), or None
        The lattice mask the basis was built on.
    T : ndarray (L, L), or None
        Upper triangular with a positive diagonal; on a grid that is full on
        the planes it meets, diagonal with entries +-1 (the column signs).
    """

    def __init__(self, eigvals, h, params, psi=None, factors=None, mask=None, T=None):
        if (psi is None) == (factors is None):
            raise ValueError("a basis takes either psi or factors, mask and T")
        self.eigvals = np.asarray(eigvals, dtype=float)
        self.h = h
        self.params = params
        self._psi = psi
        self.factors = None if factors is None else tuple(factors)
        self.mask = mask
        self.T = T

    @property
    def L(self) -> int:
        return self.eigvals.shape[0]

    @cached_property
    def d(self) -> int:
        """Voxel count, computed once per basis object, like `key`: a factored
        basis sums its mask."""
        return self._psi.shape[0] if self._psi is not None else int(self.mask.sum())

    def identity(self) -> dict:
        """The record that ties a fit to this basis: the kernel parameters
        `a` and `b`, `h`, `L`, `d` and `sha256`, the basis's `key`; all
        values are text, as a fit bundle stores them."""
        return {"a": repr(float(self.params.a)), "b": repr(float(self.params.b)),
                "h": str(self.h), "L": str(self.L), "d": str(self.d), "sha256": self.key}

    @cached_property
    def key(self) -> str:
        """SHA-256 (hex) of the basis matrices (factors, T and eigvals, or an
        explicit psi and eigvals) and of the mask, computed once per basis
        object, like `layout`: a basis is not changed after it is built. A
        dataset's projection records (`projection.projected`) are keyed by it."""
        digest = hashlib.sha256()
        arrays = ((self._psi, self.eigvals) if self.factors is None
                  else (*self.factors, self.T, self.eigvals, self.mask))
        for array in arrays:
            array = np.ascontiguousarray(array)
            digest.update(f"{array.dtype.str} {array.shape}".encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

    @cached_property
    def layout(self) -> Layout:
        """Contraction layout of a factored basis, its slabs cut to half the
        part budget `projection.CHUNK` in force at the first read
        (`build_basis` reads it). Half, 2^16 cells: on the masked benchmark's
        lattice that is slabs of at most 8 planes, whose largest x product
        (776 x 81 x 9) stays in OpenBLAS's small-matrix kernel, where 16
        planes (about 1.1e6 M N K) measured 12-19% slower per row, serially;
        a quarter was no faster serially and slower on two threads."""
        from . import projection  # which imports this module
        return _layout(self.factors, self.mask, self.h, projection.CHUNK // 2)

    @cached_property
    def signs(self):
        """T's diagonal when T is diagonal (a full grid), else None. The test
        counts nonzeros, so it forms no L x L array."""
        diag = np.diag(self.T)
        return diag if np.count_nonzero(self.T) == np.count_nonzero(diag) else None

    def from_tensor(self, raw: np.ndarray, out=None) -> np.ndarray:
        """raw @ T for rows of tensor-product values or coefficients."""
        if self.signs is not None:
            return np.multiply(raw, self.signs, out=out)
        return np.matmul(raw, self.T, out=out)

    @property
    def psi(self) -> np.ndarray:
        """The d x L matrix; a factored basis materialises it, column-major,
        from `psi_blocks` on every read, with BLAS on the caller's pool."""
        if self._psi is not None:
            return self._psi
        out = np.empty((self.d, self.L), order="F")
        for rows, block in self.psi_blocks():
            out[rows] = block
        return out

    def _row_blocks(self):
        """Row slices of about `PSI_BLOCK` entries, whole multiples of 64 rows."""
        step = max(64, PSI_BLOCK // self.L // 64 * 64)
        return (slice(start, start + step) for start in range(0, self.d, step))

    def psi_blocks(self):
        """Iterator of (rows, psi[rows]) over `_row_blocks`: a factored basis
        builds each block column-major from `tensor_blocks`, so that products
        with it round as with the whole column-major psi; an explicit psi is
        sliced."""
        if self._psi is not None:
            return ((rows, self._psi[rows]) for rows in self._row_blocks())
        return ((rows, self.from_tensor(raw, out=np.empty(raw.shape, order="F")))
                for rows, raw in self.tensor_blocks())

    def tensor_blocks(self):
        """Yield (rows, tensor products at those voxels) of a factored basis
        over `_row_blocks`. Each voxel's rows in the restricted factors come
        from one `np.nonzero` of `Layout.inside`, formed when the first block
        is asked for and dropped with the iterator."""
        fx, fy, fz = self.layout.factors
        vz, vy, vx = np.nonzero(self.layout.inside.reshape(fz.shape[0], fy.shape[0], -1))
        a, b, c = tensor_degrees(self.h).T
        for rows in self._row_blocks():
            yield rows, fx[np.ix_(vx[rows], a)] * fy[np.ix_(vy[rows], b)] * fz[np.ix_(vz[rows], c)]

    def check_lattice(self, lattice: VoxelLattice) -> None:
        """Raise ValueError naming the mismatch unless the basis fits `lattice`:
        the same grid and mask, or, for an explicit psi, the same voxel count."""
        if self.mask is None:
            if self.d != lattice.d:
                raise ValueError(f"basis voxel count {self.d} does not match "
                                 f"lattice d={lattice.d}")
        elif self.mask.shape != tuple(lattice.dims):
            raise ValueError(f"basis grid {self.mask.shape} does not match "
                             f"lattice grid {tuple(lattice.dims)}")
        elif not np.array_equal(self.mask, lattice.mask):
            differ = int(np.count_nonzero(self.mask != lattice.mask))
            raise ValueError(f"basis mask does not match the lattice mask "
                             f"({differ} grid cells differ)")


def kernel_eval(v1, v2, params: KernelParams) -> float:
    """Evaluate the modified squared-exponential kernel at a pair of points."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    return float(np.exp(-params.a * (v1 @ v1 + v2 @ v2) - params.b * ((v1 - v2) @ (v1 - v2))))


def basis_size(h: int) -> int:
    """Number of 3-D tensor-product terms with total degree <= h: C(h+3, 3)."""
    if h < 0:
        raise ValueError(f"degree must be non-negative, got {h}")
    return math.comb(h + 3, 3)


def tensor_degrees(h: int) -> np.ndarray:
    """All (k1, k2, k3) with k1+k2+k3 <= h, ascending total degree then lexicographic."""
    out = [(k1, k2, n - k1 - k2)
           for n in range(h + 1)
           for k1 in range(n + 1)
           for k2 in range(n - k1 + 1)]
    return np.array(out, dtype=int)


def eigen_system_1d(params: KernelParams, max_degree: int):
    """1-D eigenvalues and an eigenfunction evaluator for the kernel.

    Returns
    -------
    eigvals : ndarray, shape (max_degree+1,)
        ``sqrt(2a/A) * B**k`` for k = 0..max_degree (geometric decay).
    evaluate : callable
        ``evaluate(x)`` maps points (m,) to an (m, max_degree+1) matrix of
        unnormalized eigenfunction values
        ``exp(-(c-a) x^2) * H_k(sqrt(2c) x)``, with H_k the physicists'
        Hermite polynomials, by the recurrence H_k(t) = 2t H_{k-1}(t) -
        2(k-1) H_{k-2}(t) in the order of operations of numpy's
        `hermvander`, which it replaces: importing `numpy.polynomial` costs
        a process about 0.8 MB.
    """
    c, A, B = params.derived
    eigvals = math.sqrt(2.0 * params.a / A) * B ** np.arange(max_degree + 1)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        env = np.exp(-(c - params.a) * x ** 2)
        t2 = math.sqrt(2.0 * c) * x * 2
        vander = np.empty((max_degree + 1, x.shape[0]))  # (degree, point)
        vander[0] = 1.0
        if max_degree > 0:
            vander[1] = t2
        for k in range(2, max_degree + 1):
            vander[k] = vander[k - 1] * t2 - vander[k - 2] * (2 * (k - 1))
        return vander.T * env[:, None]

    return eigvals, evaluate


def variance_contribution(params: KernelParams, h: int, h_ref: int) -> float:
    """Fraction of the reference basis eigenvalue mass captured by degree <= h.

    Equals ``sum_{n<=h} C(n+2,2) B**n / sum_{n<=h_ref} C(n+2,2) B**n``; the
    common factor (2a/A)^{3/2} of the 3-D eigenvalues cancels.
    """
    if h > h_ref:
        raise ValueError(f"h={h} must not exceed h_ref={h_ref}")
    _, _, B = params.derived
    n = np.arange(h_ref + 1)
    terms = (n + 1) * (n + 2) / 2.0 * B ** n
    return float(terms[: h + 1].sum() / terms.sum())


def select_h(params: KernelParams, h_ref: int, r0: float) -> int:
    """Smallest degree h with variance_contribution(params, h, h_ref) >= r0."""
    if not (0.0 < r0 <= 1.0):
        raise ValueError(f"r0 must lie in (0, 1], got {r0}")
    for h in range(h_ref + 1):
        if variance_contribution(params, h, h_ref) >= r0:
            return h
    return h_ref


@_blas.single_thread
def build_basis(lattice: VoxelLattice, params: KernelParams, h: int) -> BasisSystem:
    """Evaluate the tensor eigenfunctions on the lattice and orthonormalize.

    The 1-D factors are orthonormalized on each axis's grid planes first, by
    a QR decomposition -- a triangular change of basis that absorbs the
    dropped normalization constants and preserves the nested total-degree
    span. On a grid that is full on the planes it meets, their tensor
    products are orthonormal already: T is diagonal and only fixes column
    signs, so that the largest-magnitude entry of each column is
    non-negative. On any other mask, the L x L Gram matrix G of the tensor
    products is contracted from the mask one axis at a time, and T = R^-1
    from CholeskyQR2 in tensor-degree order: G = R1'R1, then the Gram of the
    once-corrected columns, T1'G T1 = R2'R2, and T = T1 R2^-1 (Gram-Schmidt on
    the tensor products, so column j has leading tensor degree j and T has a
    positive diagonal). On an ill-conditioned mask the second Gram is summed
    from the corrected rows in blocks, which keeps psi'psi = I to about 1e-12
    where G alone would lose cond(G) times machine precision. Runs with BLAS
    pinned to one thread.

    Raises
    ------
    ValueError
        "basis exceeds lattice rank" when C(h+3,3) > d; "degenerate basis"
        when a per-axis degree exceeds the axis's distinct grid planes or the
        tensor products are numerically rank-deficient (Cholesky of G fails,
        or a diagonal entry of R1 falls below 1e-10 of the largest).
    """
    L = basis_size(h)
    if L > lattice.d:
        raise ValueError(f"basis exceeds lattice rank: L={L} > d={lattice.d}")
    eig1, evaluate = eigen_system_1d(params, h)

    # A per-axis degree that the grid cannot resolve shows up as a collapsed
    # QR diagonal. On a full grid, the QR factors make the tensor products
    # exactly orthonormal, since the grid inner product factorizes.
    factors = []
    for m, present in zip(lattice.dims, _planes(lattice.mask)):
        values = axis_coords(m)[present]
        if values.size < h + 1:
            raise ValueError("degenerate basis")
        Q, R = np.linalg.qr(evaluate(values))
        diag = np.abs(np.diag(R))
        if diag.min() <= RANK_TOL * diag.max():
            raise ValueError("degenerate basis")
        factor = np.zeros((m, h + 1))
        factor[present] = Q
        factors.append(factor)

    degrees = tensor_degrees(h)
    eigvals = eig1[degrees[:, 0]] * eig1[degrees[:, 1]] * eig1[degrees[:, 2]]
    basis = BasisSystem(eigvals=eigvals, h=h, params=params, factors=factors,
                        mask=lattice.mask.copy())
    layout = basis.layout
    if lattice.d == math.prod(f.shape[0] for f in layout.factors):
        basis.T = np.diag(_peak_signs(layout.factors, degrees))
    else:
        basis.T = _cholesky_qr2(_masked_gram(layout, h), basis.tensor_blocks)
    return basis


def _peak_signs(factors, degrees) -> np.ndarray:
    """Signs making each tensor product's largest-magnitude entry (the first
    one in voxel order on ties) non-negative, on a grid full on its planes.

    Only entries within 1e-12 of their axis maximum can hold a product's
    rounded maximum, so the products are formed, rounded as in the column,
    for those few candidates only.
    """
    near = [[np.flatnonzero(np.abs(f[:, k]) >= (1.0 - 1e-12) * np.abs(f[:, k]).max())
             for k in range(f.shape[1])] for f in factors]
    fx, fy, fz = factors
    signs = np.ones(len(degrees))
    for j, (a, b, c) in enumerate(degrees):
        peak = 0.0
        for z in near[2][c]:
            for y in near[1][b]:
                for x in near[0][a]:
                    value = fx[x, a] * fy[y, b] * fz[z, c]
                    if abs(value) > peak:
                        peak, signs[j] = abs(value), (-1.0 if value < 0 else 1.0)
    return signs


def pair_products(f: np.ndarray) -> np.ndarray:
    """Products of a factor's columns in pairs, row by row:
    P[x, a*k + a'] = f[x, a] * f[x, a'] for a factor f (m, k)."""
    return (f[:, :, None] * f[:, None, :]).reshape(f.shape[0], -1)


def _masked_gram(layout: Layout, h: int) -> np.ndarray:
    """G[i, j] = sum over masked voxels of the tensor products i and j,
    contracted over x, then y, then z."""
    H = h + 1
    fx, fy, fz = layout.factors
    mx, my, mz = (f.shape[0] for f in layout.factors)
    weight = layout.inside.astype(float)
    g = weight.reshape(mz * my, mx) @ pair_products(fx)           # (z y, a a')
    g = pair_products(fy).T @ g.reshape(mz, my, H * H)             # (z, b b', a a')
    g = pair_products(fz).T @ g.reshape(mz, H ** 4)                # (c c', b b' a a')
    g = g.reshape((H,) * 6)
    a, b, c = tensor_degrees(h).T
    return g[c[:, None], c, b[:, None], b, a[:, None], a]


def _cholesky_qr2(gram: np.ndarray, tensor_blocks) -> np.ndarray:
    """Upper-triangular T with T' G T = I: two Cholesky passes.

    The second pass factors the Gram of the once-corrected columns,
    T1'G T1. Formed from G, it carries G's rounding amplified by cond(G),
    about as much as the first pass corrected; so when that correction
    exceeds `REFINE_TOL`, the second Gram is summed from the corrected rows
    instead, block by block from `tensor_blocks()`, as in dense CholeskyQR2.
    """
    eye = np.eye(gram.shape[0])
    try:
        r1 = np.linalg.cholesky(gram).T
        diag = np.diag(r1)
        if diag.min() <= RANK_TOL * diag.max():
            raise ValueError("degenerate basis")
        t1 = solve_upper(r1, eye)
        gram2 = t1.T @ gram @ t1
        if np.abs(gram2 - eye).max() > REFINE_TOL:
            gram2 = np.zeros_like(gram)
            for _, raw in tensor_blocks():
                q = raw @ t1
                gram2 += q.T @ q
        r2 = np.linalg.cholesky(gram2).T
    except np.linalg.LinAlgError:
        raise ValueError("degenerate basis") from None
    return np.triu(t1 @ solve_upper(r2, eye))
