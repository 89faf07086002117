"""Voxelwise inference on the group-specific exposure effects.

Within group k, the fitted basis coefficients of the exposure design have
covariance ``Lambda (x) (X_k^T X_k)^{-1}`` (Kronecker), so the spatially
varying coefficient for exposure j at voxel v has variance

    Var(alpha_kj(v)) = [(X_k^T X_k)^{-1}]_{jj} * sum_l lam_l psi_l(v)^2,

the diagonal of the composed covariance. The Wald statistic |effect| / se
refers to a standard normal, giving two-sided p-values per voxel, and the
p-value image is corrected by Benjamini-Hochberg.

The covariance treats the fit's labels as known, so the p-values are
conditional on the estimated labels. Their null calibration is checked only
at K=1 (acceptance criterion 6). With K=2 and labels estimated from the
same images, null simulations on a 10^3 grid gave uncorrected rates of
0.11-0.14 at the 0.05 level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas
from .basis import BasisSystem, pair_products, tensor_degrees
from .lattice import Dataset
from .linmodel import check_design
from .projection import backproject
from .sem import FitResult, check_basis, check_fit

# Cephes's rational approximations (Moshier 1989, after Cody 1969) for
# erf(x) = x T(x^2) / U(x^2) below |x| = 1 and erfc(x) = exp(-x^2) P(x) / Q(x)
# below 8, R(x) / S(x) from 8 on. Each pair is padded to one length for a
# stacked Horner rule: a monic denominator's leading 1 and a shorter
# numerator's leading 0 leave every sum as Cephes forms it, since 1 * x + c
# and 0 * x + c are exact.
def _horner_pair(num, den):
    size = max(len(num), len(den) + 1)
    return np.array([[0.0] * (size - len(num)) + num,
                     [0.0] * (size - len(den) - 1) + [1.0] + den]).T


_ERF = _horner_pair(
    [9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
     7.00332514112805075473E3, 5.55923013010394962768E4],
    [3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
     2.26290000613890934246E4, 4.92673942608635921086E4])
_ERFC_BELOW_8 = _horner_pair(
    [2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2],
    [1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2])
_ERFC_FROM_8 = _horner_pair(
    [5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
     6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0],
    [2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
     1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0])
_MAXLOG = 7.09782712893383996843E2  # log(2^1024): erfc is 0 once x^2 exceeds it
# z * z <= _MAXLOG exactly when z <= _SQRT_MAXLOG: the rounded square is
# monotone in z, and the root's square rounds to at most _MAXLOG while its
# successor's does not
_SQRT_MAXLOG = math.sqrt(_MAXLOG)
# Values per pass of `ndtr`: each buffer row and index array holds at most
# this many (0.5 MB).
# On a 2-core x86-64 machine, the four Wald maps of the masked benchmark
# (315,481 voxels each, in place; medians of 15 interleaved runs) took 36-37
# ms in passes of 2^15-2^16, 41 ms in passes of 2^14, 43 ms in passes of
# 2^17, 49 ms in passes of 2^13 and 63-67 ms in passes of 2^18-2^19 (scipy's
# ndtr: 27-31 ms).
NDTR_CHUNK = 1 << 16


def ndtr(a, out=None) -> np.ndarray:
    """The standard normal distribution function, bit for bit as Cephes's
    `ndtr` (Moshier 1989), which `scipy.special.ndtr` runs.

    With x = a / sqrt(2): 0.5 + 0.5 erf(x) for |x| < 1, else 0.5 erfc(|x|),
    subtracted from 1 for x > 0, where erfc is 0 once x^2 exceeds `_MAXLOG`;
    NaN stays NaN. (Cephes takes the erfc side from |x| = 1/sqrt(2), whose
    erfc is 1 - erf there; both sides give the same bits.) The exponential
    is libm's (`_libm_exp_neg_square`). The values are taken `NDTR_CHUNK` at
    a time, through buffers allocated once per call, and each branch is
    evaluated on its own members only.

    `out`, when given, must be a C-contiguous float64 array of a's shape; it
    may be `a` itself. The values are written there and it is returned.
    """
    a = np.asarray(a, dtype=float)
    if out is None:
        out = np.empty(a.shape)
    elif out.shape != a.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {a.shape}")
    flat, flat_out = a.reshape(-1), out.reshape(-1)
    size = min(NDTR_CHUNK, flat.size)
    work, scratch = np.empty((3, size)), np.empty(size + 2)
    acc, masks = np.empty((2, size)), np.empty((2, size), dtype=bool)
    with np.errstate(over="ignore", under="ignore"):  # as Cephes's C arithmetic
        for start in range(0, flat.size, NDTR_CHUNK):
            stop = start + NDTR_CHUNK
            _ndtr_chunk(flat[start:stop], flat_out[start:stop], work, scratch, acc, masks)
    return out


def _ndtr_chunk(a, out, work, scratch, acc, masks):
    """`ndtr` of one pass: a into out, through the buffers of `ndtr`. a is
    read whole before out is written, so the two may share memory."""
    n = a.size
    x, z, gathered = work[:, :n]
    low, high = masks[:, :n]
    np.multiply(a, 0.70710678118654752440, out=x)  # Cephes's M_SQRT1_2
    np.abs(x, out=z)
    np.less(z, 1.0, out=low)
    near = np.flatnonzero(low)
    np.less(z, 8.0, out=high)
    low ^= high
    mid = np.flatnonzero(low)  # 1 <= |x| < 8
    np.less_equal(z, _SQRT_MAXLOG, out=low)
    low ^= high
    tail = np.flatnonzero(low)  # 8 <= |x| where erfc does not underflow
    if near.size + mid.size + tail.size < n:
        np.minimum(z, 0.0, out=out)  # 0 where erfc underflows, NaN for NaN
    if near.size:  # mode="clip": the default mode buffers a take with out
        xn = np.take(x, near, out=gathered[:near.size], mode="clip")
        t, u = _horner(np.multiply(xn, xn, out=scratch[:near.size]), _ERF,
                       acc[:, :near.size])
        xn *= t
        xn /= u
        xn *= 0.5
        xn += 0.5
        out[near] = xn
    k, far = mid.size, mid.size + tail.size
    if far:
        zf = gathered[:far]
        np.take(z, mid, out=zf[:k], mode="clip")
        np.take(z, tail, out=zf[k:], mode="clip")
        y = _libm_exp_neg_square(zf, scratch)
        p, q = acc[:, :far]
        _horner(zf[:k], _ERFC_BELOW_8, acc[:, :k])
        _horner(zf[k:], _ERFC_FROM_8, acc[:, k:far])
        y *= p
        y /= q
        y *= 0.5
        out[mid] = y[:k]
        out[tail] = y[k:]
    np.greater_equal(x, 1.0, out=low)
    flip = np.flatnonzero(low)
    if flip.size:
        out[flip] = 1.0 - out[flip]


def _horner(x, coefs, acc):
    """The numerator and denominator of a `_horner_pair` at x, into acc."""
    np.multiply(coefs[0][:, None], x, out=acc)
    acc += coefs[1][:, None]
    for c in coefs[2:]:
        acc *= x
        acc += c[:, None]
    return acc


def _libm_exp_neg_square(z, scratch):
    """exp(-z * z) in scratch, with libm's exponential.

    numpy's float64 exp runs a SIMD kernel where the CPU has one, and on an
    AVX-512 machine its results differed from libm's in 14,722 of 315,481
    values. When the output overlaps the input one element back, numpy runs
    its scalar loop instead, which calls libm; one trailing element is added
    so that even a single value overlaps. That fallback is how numpy's loop
    dispatch works, not a documented contract: it was verified with numpy
    2.4.6 (glibc's libm) on an x86-64 Intel Xeon with AVX-512F, and
    `tests/test_inference.py::TestNdtr::test_is_scipys_to_the_bit` is the
    check to run after a numpy upgrade or on another CPU.
    """
    m = z.size
    e = scratch[1:m + 2]
    np.multiply(z, z, out=e[:m])
    e[m] = 0.0
    np.negative(e, out=e)
    np.exp(e, out=scratch[:m + 1])
    return scratch[:m]


@dataclass
class CoefCovariance:
    """Per-group inverse exposure Gram matrices plus the shared variances."""

    gram_inv: np.ndarray  # (K, p+1, p+1)
    lam: np.ndarray       # (L,)


@dataclass
class InferenceMap:
    """Voxelwise inference for one (group, exposure) pair.

    `reject` is filled once an FDR level has been applied; it is None for a
    bare Wald map.
    """

    group: int
    exposure: int
    effect: np.ndarray
    se: np.ndarray
    wald: np.ndarray
    pval: np.ndarray
    reject: np.ndarray = None


def coef_covariance(fit: FitResult, dataset: Dataset) -> CoefCovariance:
    """Sampling covariance data of the group-specific coefficients.

    Raises ValueError naming both counts when the fit's labels do not number
    the dataset's individuals (`sem.check_fit`), and naming the group when its
    exposure rows fail `linmodel.check_design`, the rank test of stage 2:
    fewer rows than exposure columns (an empty group, say) or a
    rank-deficient design.
    """
    check_fit(fit, dataset)
    K = fit.params.n_groups
    p1 = dataset.exposures.shape[1]
    gram_inv = np.empty((K, p1, p1))
    for k in range(1, K + 1):
        X = dataset.exposures[fit.labels == k]
        try:
            check_design(X)
        except ValueError as exc:
            raise ValueError(f"group {k}: {exc}") from exc
        gram_inv[k - 1] = np.linalg.inv(X.T @ X)
    return CoefCovariance(gram_inv=gram_inv, lam=fit.params.lam.copy())


def _variance_field(basis: BasisSystem, lam: np.ndarray) -> np.ndarray:
    """sum_l lam_l psi_l(v)^2 for every voxel (d,).

    For a factored basis this is the diagonal of Phi S Phi' with
    S = T diag(lam) T', contracted over x, then y, then z on the grid of
    planes the mask meets. An explicit psi is squared in the row blocks of
    `BasisSystem.psi_blocks`, so that no d x L temporary is allocated; blocks
    are whole multiples of 64 rows, so a one-thread BLAS groups the rows as
    in the unblocked product and the field matches it bit for bit.
    """
    if basis.factors is None:
        field = np.empty(basis.d)
        for rows, block in basis.psi_blocks():
            field[rows] = (block * block) @ lam
        return field
    layout = basis.layout
    fx, fy, fz = layout.factors
    mx, my = fx.shape[0], fy.shape[0]
    H = basis.h + 1
    a, b, c = tensor_degrees(basis.h).T
    cb, pair = np.unique(c * H + b, return_inverse=True)  # (c, b) of each column
    n = cb.size
    s = np.zeros((n, n, H, H))
    s[pair[:, None], pair, a[:, None], a] = basis.T * lam @ basis.T.T
    t = (s.reshape(n * n, H * H) @ pair_products(fx).T).reshape(n, n, mx)  # (c b, c' b', x)
    cube = np.zeros((H, H, H, H, mx))
    cube[cb[:, None] // H, cb // H, cb[:, None] % H, cb % H] = t           # (c, c', b, b', x)
    t = pair_products(fy) @ cube.reshape(H * H, H * H, mx)                 # (c c', y, x)
    t = pair_products(fz) @ t.reshape(H * H, my * mx)                      # (z, y x)
    return t.ravel()[layout.inside]


def svc_variance(cov: CoefCovariance, basis: BasisSystem, group: int,
                 exposure: int) -> np.ndarray:
    """Voxelwise variance of the (group, exposure) coefficient map (d,).

    Invariant to basis column sign flips since only psi^2 enters. Raises
    ValueError naming the valid ranges unless 1 <= group <= K and
    0 <= exposure <= p.
    """
    K, p1 = cov.gram_inv.shape[:2]
    if not (1 <= group <= K and 0 <= exposure < p1):
        raise ValueError(f"group must be in 1..{K} and exposure in 0..{p1 - 1}, "
                         f"got group {group}, exposure {exposure}")
    return cov.gram_inv[group - 1, exposure, exposure] * _variance_field(basis, cov.lam)


def wald_map(fit: FitResult, dataset: Dataset, basis: BasisSystem,
             group: int, exposure: int) -> InferenceMap:
    """Effect, standard error, Wald statistic, and two-sided p-value maps of
    one (group, exposure) pair, with the covariance from `coef_covariance`.

    The p-values are conditional on the fit's labels: calibrated under the
    null at K=1, anti-conservative when the labels were estimated from the
    same images (see the module docstring). Raises ValueError when the fit
    does not belong to `basis` (`sem.check_basis`: its coefficient count, and
    its recorded basis when it has one), checked first, and when the group
    or exposure is out of range (`svc_variance`)."""
    check_basis(fit, basis)
    cov = coef_covariance(fit, dataset)
    return _wald(fit, basis, group, exposure, svc_variance(cov, basis, group, exposure))


def _wald(fit, basis, group, exposure, variance) -> InferenceMap:
    """The InferenceMap of one (group, exposure) pair from its voxel variance.

    The two-sided p-value is 2 * ndtr(-|wald|), the standard normal tail,
    with `ndtr` the port of Cephes's that `scipy.special.ndtr` runs, so the
    p-values are scipy's to the bit. Each map is computed in place in the
    array it is returned in: the same operations in the same order, without
    a fresh map-sized temporary for every step. `variance` becomes the se
    map, so callers pass an array of their own.
    """
    effect = backproject(fit.params.theta_alpha[group - 1, exposure], basis)[0]
    se = np.sqrt(variance, out=variance)
    wald = np.abs(effect)
    wald /= se
    pval = np.negative(wald)
    ndtr(pval, out=pval)
    pval *= 2.0
    return InferenceMap(group=group, exposure=exposure, effect=effect,
                        se=se, wald=wald, pval=pval)


def _check_alpha(alpha) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


# Ranks per block of `fdr_bh`'s downward search for its cutoff. On the four
# Wald maps of the masked benchmark (315,481 voxels each), the cutoff lay
# 150-1,722 ranks below the count of p-values <= 0.05, so the first block
# holds it and the bounds of the other 266,000-300,000 ranks are never formed.
BH_BLOCK = 1 << 13


def fdr_bh(pvals: np.ndarray, alpha: float) -> np.ndarray:
    """Benjamini-Hochberg step-up decisions.

    Sort the m p-values ascending (NaN last), find the largest k with
    ``p_(k) <= k * alpha / m`` and reject every p-value <= p_(k), ties
    included; nothing is rejected when no such k exists, and NaN never is.
    Since k * alpha / m <= alpha, the search starts at the rank c of the
    last p-value <= alpha and goes down `BH_BLOCK` ranks at a time, and
    stops in the first block that holds a passing rank.
    """
    pvals = np.asarray(pvals, dtype=float)
    if pvals.ndim != 1:
        raise ValueError("pvals must be a vector")
    _check_alpha(alpha)
    m = pvals.size
    ranked = np.sort(pvals)
    count = np.searchsorted(ranked, alpha, side="right")
    for stop in range(count, 0, -BH_BLOCK):
        start = max(stop - BH_BLOCK, 0)
        bound = np.arange(start + 1.0, stop + 1.0)
        bound *= alpha
        bound /= m
        passing = ranked[start:stop] <= bound
        if passing.any():
            k = stop - np.argmax(passing[::-1])  # the largest passing rank
            return pvals <= ranked[k - 1]
    return np.zeros(m, dtype=bool)


@_blas.single_thread
def infer_maps(fit: FitResult, dataset: Dataset, basis: BasisSystem,
               alpha: float = 0.05):
    """All (group, exposure) inference maps with BH decisions at `alpha`.

    Each (group, exposure) p-value image is corrected on its own. The voxel
    variance field sum_l lam_l psi_l^2 is computed once and scaled by each
    pair's [(X_k^T X_k)^-1]_jj. Returns a list of InferenceMap ordered by
    group then exposure.

    As in `wald_map`, the p-values and hence the decisions are conditional
    on the fit's labels; only at K=1 is their null calibration checked.
    `alpha` must lie in (0, 1), and the fit must belong to `basis`
    (`sem.check_basis`), checked before anything is computed, else
    ValueError.
    """
    _check_alpha(alpha)
    check_basis(fit, basis)
    cov = coef_covariance(fit, dataset)
    field = _variance_field(basis, cov.lam)
    maps = []
    for k in range(1, fit.params.n_groups + 1):
        for j in range(dataset.exposures.shape[1]):
            m = _wald(fit, basis, k, j, cov.gram_inv[k - 1, j, j] * field)
            m.reject = fdr_bh(m.pval, alpha)
            maps.append(m)
    return maps
