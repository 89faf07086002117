import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr as scipy_ndtr

from lasir import (Dataset, KernelParams, SemConfig, SimConfig, build_basis, build_lattice,
                   coef_covariance, fdr_bh, fit_sem, infer_maps, simulate_cube, svc_variance,
                   wald_map)
from lasir import _blas
from lasir import inference as inference_module
from lasir.basis import BasisSystem, pair_products, tensor_degrees
from lasir.inference import CoefCovariance, _variance_field, ndtr
from lasir.linmodel import check_design
from lasir.sem import FitResult, ModelParams


def _fit_with(labels, exposures, lam, theta_alpha=None, L=None):
    n = len(labels)
    K = int(labels.max())
    L = L if L is not None else lam.size
    p1 = exposures.shape[1]
    if theta_alpha is None:
        theta_alpha = np.zeros((K, p1, L))
    params = ModelParams(theta_alpha=theta_alpha,
                         theta_eta=np.zeros((0, L)),
                         theta_gamma=np.zeros((1, L)),
                         lam=lam, w=np.zeros((K, 1)))
    dataset = Dataset(images=np.zeros((n, L), dtype=np.float32),
                      exposures=exposures, controls=np.zeros((n, 0)),
                      sites=np.ones((n, 1)))
    resp = np.zeros((n, K))
    resp[np.arange(n), labels - 1] = 1.0
    fit = FitResult(params=params, responsibilities=resp, labels=labels,
                    q_trace=np.array([0.0]), converged=True, seed=0, iterations=1)
    return fit, dataset


class TestCoefCovariance:
    def test_intercept_only_group(self):
        labels = np.array([1] * 8 + [2] * 4)
        fit, dataset = _fit_with(labels, np.ones((12, 1)), np.ones(3))
        cov = coef_covariance(fit, dataset)
        assert cov.gram_inv[0, 0, 0] == pytest.approx(1.0 / 8.0, rel=1e-12)
        assert cov.gram_inv[1, 0, 0] == pytest.approx(1.0 / 4.0, rel=1e-12)

    def test_duplicating_rows_halves_inverse_gram(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(6), rng.standard_normal(6)])
        fit1, ds1 = _fit_with(np.ones(6, dtype=int), x, np.ones(2))
        fit2, ds2 = _fit_with(np.ones(12, dtype=int), np.vstack([x, x]), np.ones(2))
        cov1 = coef_covariance(fit1, ds1)
        cov2 = coef_covariance(fit2, ds2)
        assert np.allclose(cov2.gram_inv[0], cov1.gram_inv[0] / 2.0, rtol=1e-10)

    def test_orthonormal_exposures_give_diagonal(self):
        x = np.column_stack([np.ones(4), [1.0, -1.0, 1.0, -1.0]])
        fit, ds = _fit_with(np.ones(4, dtype=int), x, np.ones(2))
        cov = coef_covariance(fit, ds)
        off = cov.gram_inv[0] - np.diag(np.diag(cov.gram_inv[0]))
        assert np.abs(off).max() < 1e-12

    def test_singular_gram_names_group(self):
        x = np.column_stack([np.ones(6), np.ones(6)])
        fit, ds = _fit_with(np.ones(6, dtype=int), x, np.ones(2))
        with pytest.raises(ValueError, match="group 1"):
            coef_covariance(fit, ds)

    def test_a_gram_singular_in_floating_point_names_its_group(self):
        # x = 1 +- 2^-30 passes the rank test, but the Gram rounds to [[6, 6], [6, 6]]
        x = np.column_stack([np.ones(6), 1.0 + np.tile([1.0, -1.0], 3) * 2.0 ** -30])
        assert (x.T @ x).tolist() == [[6.0, 6.0], [6.0, 6.0]]
        check_design(x)
        fit, ds = _fit_with(np.ones(6, dtype=int), x, np.ones(2))
        basis = BasisSystem(psi=np.eye(2), eigvals=np.ones(2), h=0,
                            params=KernelParams(0.01, 2.0))
        for call in (lambda: coef_covariance(fit, ds), lambda: infer_maps(fit, ds, basis)):
            with pytest.raises(ValueError, match="group 1: Singular matrix"):
                call()

    def test_accepts_every_design_stage_2_accepts(self):
        # relative smallest singular value about 1e-8: stage 2's rank test
        # passes it, though its Gram's singular values span 1e-16
        rng = np.random.default_rng(4)
        x = np.column_stack([np.ones(20), 1e-8 * rng.standard_normal(20)])
        s = np.linalg.svd(x, compute_uv=False)
        assert 1e-9 < s[-1] / s[0] < 1e-7
        check_design(x)
        fit, ds = _fit_with(np.ones(20, dtype=int), x, np.ones(3))
        cov = coef_covariance(fit, ds)
        assert np.allclose(cov.gram_inv[0] @ (x.T @ x), np.eye(2), atol=1e-6)
        basis = BasisSystem(psi=np.eye(3), eigvals=np.ones(3), h=0,
                            params=KernelParams(0.01, 2.0))
        maps = infer_maps(fit, ds, basis)
        assert all(np.all(np.isfinite(m.se)) for m in maps)


    @pytest.mark.parametrize("n_fit, n_data", [(12, 10), (10, 12)])
    def test_fit_of_another_dataset_names_both_counts(self, n_fit, n_data):
        labels = np.arange(n_fit) % 2 + 1
        fit, _ = _fit_with(labels, np.ones((n_fit, 1)), np.ones(3))
        _, other = _fit_with(np.arange(n_data) % 2 + 1, np.ones((n_data, 1)), np.ones(3))
        basis = BasisSystem(psi=np.eye(3), eigvals=np.ones(3), h=0,
                            params=KernelParams(0.01, 2.0))
        named = f"the fit has labels for {n_fit} individuals, the dataset has {n_data}"
        for call in (lambda: coef_covariance(fit, other), lambda: infer_maps(fit, other, basis),
                     lambda: wald_map(fit, other, basis, 1, 0)):
            with pytest.raises(ValueError, match=named):
                call()


class TestSvcVariance:
    def test_square_orthonormal_basis_constant_variance(self):
        d = 6
        basis = BasisSystem(psi=np.eye(d), eigvals=np.ones(d), h=0,
                            params=KernelParams(0.01, 2.0))
        cov = CoefCovariance(gram_inv=np.array([[[0.25]]]), lam=np.full(d, 1.3))
        var = svc_variance(cov, basis, 1, 0)
        assert np.allclose(var, 1.3 * 0.25, rtol=1e-12)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        basis = BasisSystem(psi=Q, eigvals=np.ones(4), h=1,
                            params=KernelParams(0.01, 2.0))
        flipped = BasisSystem(psi=Q * np.array([1, -1, 1, -1]), eigvals=np.ones(4),
                              h=1, params=KernelParams(0.01, 2.0))
        cov = CoefCovariance(gram_inv=np.array([[[0.5]]]),
                             lam=np.abs(rng.standard_normal(4)) + 0.1)
        assert np.allclose(svc_variance(cov, basis, 1, 0),
                           svc_variance(cov, flipped, 1, 0), rtol=1e-12)

    def test_floored_lambda_stays_positive(self):
        basis = BasisSystem(psi=np.eye(3), eigvals=np.ones(3), h=0,
                            params=KernelParams(0.01, 2.0))
        cov = CoefCovariance(gram_inv=np.array([[[1.0]]]), lam=np.full(3, 1e-10))
        assert np.all(svc_variance(cov, basis, 1, 0) > 0)


def _dense_variance_field(basis, lam):
    """The variance field of a factored basis with the spread covariance s
    and the x-contracted cube formed whole, each contracted by one product:
    the reference for `_variance_field`'s blocked passes."""
    layout = basis.layout
    fx, fy, fz = layout.factors
    mx, my = fx.shape[0], fy.shape[0]
    H = basis.h + 1
    a, b, c = tensor_degrees(basis.h).T
    cb, pair = np.unique(c * H + b, return_inverse=True)
    n = cb.size
    s = np.zeros((n, n, H, H))
    s[pair[:, None], pair, a[:, None], a] = basis.T * lam @ basis.T.T
    t = (s.reshape(n * n, H * H) @ pair_products(fx).T).reshape(n, n, mx)
    cube = np.zeros((H, H, H, H, mx))
    cube[cb[:, None] // H, cb // H, cb[:, None] % H, cb % H] = t
    t = pair_products(fy) @ cube.reshape(H * H, H * H, mx)
    t = pair_products(fz) @ t.reshape(H * H, my * mx)
    return t.ravel()[layout.inside]


def _ellipsoid(dims):
    grids = np.meshgrid(*(np.linspace(-1.0, 1.0, m) for m in dims), indexing="ij")
    return build_lattice(dims, sum((g / r) ** 2 for g, r in zip(grids, (0.9, 0.9, 0.85))) <= 1)


@pytest.mark.parametrize("lattice, h", [(build_lattice((10, 10, 10)), 9),
                                        (build_lattice((12, 12, 12)), 10),
                                        (build_lattice((15, 15, 15)), 12),
                                        (_ellipsoid((14, 13, 12)), 6)],
                         ids=["10^3-h9", "12^3-h10", "15^3-h12", "ellipsoid-h6"])
def test_blocked_variance_field_keeps_the_dense_bits(lattice, h):
    # On OpenBLAS 0.3.31 (SkylakeX), blocks of one (c, b) row (FIELD_CHUNK = 1)
    # change the last bits of 231 of 1000, 380 of 1728 and 610 of 612 voxels
    # of the 10^3, 12^3 and ellipsoid fields
    basis = build_basis(lattice, KernelParams(0.01, 2.0), h)
    lam = np.random.default_rng(h).random(basis.L) + 0.1
    with _blas.single_thread:
        got, want = _variance_field(basis, lam), _dense_variance_field(basis, lam)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestWaldMap:
    def test_zero_effect_gives_unit_pvalue(self):
        labels = np.ones(10, dtype=int)
        fit, ds = _fit_with(labels, np.column_stack([np.ones(10), np.arange(10.0)]),
                            np.ones(4), theta_alpha=np.zeros((1, 2, 4)), L=4)
        basis = BasisSystem(psi=np.eye(4), eigvals=np.ones(4), h=0,
                            params=KernelParams(0.01, 2.0))
        m = wald_map(fit, ds, basis, 1, 1)
        assert np.all(m.wald == 0.0)
        assert np.all(m.pval == 1.0)

    def test_standard_normal_quantile(self):
        # |W| = 1.959964 corresponds to a two-sided p of 0.05
        labels = np.ones(16, dtype=int)
        theta = np.zeros((1, 1, 1))
        theta[0, 0, 0] = 1.959964 / 4.0  # se = sqrt(lam/m) = 1/4 with m=16
        fit, ds = _fit_with(labels, np.ones((16, 1)), np.ones(1), theta_alpha=theta)
        basis = BasisSystem(psi=np.eye(1), eigvals=np.ones(1), h=0,
                            params=KernelParams(0.01, 2.0))
        m = wald_map(fit, ds, basis, 1, 0)
        assert m.wald[0] == pytest.approx(1.959964, rel=1e-10)
        assert m.pval[0] == pytest.approx(0.05, abs=1e-6)

    def test_outcome_scaling_invariance(self):
        cfg = SimConfig(dims=(5, 5, 5), n=80, n_groups=1, sigma=1.0, seed=9, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit1 = fit_sem(dataset, basis, 1, SemConfig(seed=0))
        scaled = Dataset(images=(dataset.images * 3.0).astype(np.float32),
                         exposures=dataset.exposures, controls=dataset.controls,
                         sites=dataset.sites)
        fit2 = fit_sem(scaled, basis, 1, SemConfig(seed=0))
        m1 = wald_map(fit1, dataset, basis, 1, 1)
        m2 = wald_map(fit2, scaled, basis, 1, 1)
        assert np.allclose(m2.effect, 3.0 * m1.effect, rtol=1e-4)
        assert np.allclose(m2.wald, m1.wald, rtol=1e-4)
        assert np.allclose(m2.pval, m1.pval, atol=1e-8)


def _bh_by_counting(pvals, alpha):
    """Step-up without sorting the p-values: p_(k) <= b_k = k alpha / m holds
    exactly when at least k p-values are <= b_k. Each p-value gets the index
    of the first bound it meets (m for none and for NaN); a running count of
    these indices gives #{p <= b_k} for every k, hence the largest passing
    k*, and the rejections are the p-values that meet b_k*."""
    m = pvals.size
    bound = alpha * np.arange(1, m + 1) / m
    first = np.searchsorted(bound, pvals, side="left")
    met = np.cumsum(np.bincount(first, minlength=m + 1)[:m])
    passing = np.flatnonzero(met >= np.arange(1, m + 1))
    if passing.size == 0:
        return np.zeros(m, dtype=bool)
    return first <= passing[-1]


@st.composite
def _pvalue_vectors(draw):
    """(pvals, alpha): p-values drawn from a pool of a few values, so that ties
    are common, including the bounds i alpha / m, their float neighbours,
    NaN, values <= 0 and values > 1."""
    m = draw(st.integers(1, 40))
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    bound = alpha * np.arange(1, m + 1) / m
    on_bound = st.sampled_from(bound.tolist())
    pool = draw(st.lists(st.one_of(
        st.floats(0.0, 1.0), on_bound,
        on_bound.map(lambda b: float(np.nextafter(b, np.inf))),
        on_bound.map(lambda b: float(np.nextafter(b, -np.inf))),
        st.just(np.nan), st.floats(-2.0, 0.0), st.floats(1.0, 3.0, exclude_min=True),
        st.sampled_from([0.0, 1.0, -np.inf, np.inf])), min_size=1, max_size=m))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    return np.array(pool)[picks], alpha


def _bh_by_full_sort(pvals, alpha):
    """The step-up rule with every p-value sorted, NaN last."""
    m = pvals.size
    ranked = np.sort(pvals)
    passing = np.flatnonzero(ranked <= alpha * np.arange(1, m + 1) / m)
    if passing.size == 0:
        return np.zeros(m, dtype=bool)
    return pvals <= ranked[passing[-1]]


@st.composite
def _null_vectors(draw):
    """(pvals, alpha): uniform null p-values, rounded so that some tie, with
    NaN mixed in."""
    m = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pvals = np.round(rng.random(m), draw(st.integers(1, 6)))
    pvals[rng.random(m) < draw(st.floats(0.0, 0.5))] = np.nan
    return pvals, draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


# the last bound, fl(fl(27 alpha) / 27), rounds one ulp above alpha, and
# every p-value equals it
_ABOVE_ALPHA = (np.full(27, 0.1502794668948391), 0.15027946689483906)


class TestFdrBH:
    @given(st.one_of(_pvalue_vectors(), _null_vectors()), st.sampled_from([1, 3, 64]))
    @example(_ABOVE_ALPHA, 3)
    def test_matches_the_full_sort(self, case, block):
        # small blocks make the downward search for the cutoff cross blocks
        pvals, alpha = case
        expected = _bh_by_full_sort(pvals, alpha)
        assert np.array_equal(fdr_bh(pvals, alpha), expected)
        saved = inference_module.BH_BLOCK
        try:
            inference_module.BH_BLOCK = block
            assert np.array_equal(fdr_bh(pvals, alpha), expected)
        finally:
            inference_module.BH_BLOCK = saved

    @given(_pvalue_vectors())
    @example(_ABOVE_ALPHA)
    def test_matches_the_counting_oracle(self, case):
        pvals, alpha = case
        reject = fdr_bh(pvals, alpha)
        assert reject.dtype == bool
        assert np.array_equal(reject, _bh_by_counting(pvals, alpha))
        assert not reject[np.isnan(pvals)].any()

    @given(p=st.one_of(st.floats(allow_nan=True), st.just(0.05)),
           alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_one_pvalue(self, p, alpha):
        assert fdr_bh(np.array([p]), alpha).tolist() == [bool(p <= alpha)]

    def test_large_map_matches_the_counting_oracle(self):
        rng = np.random.default_rng(11)
        m = 200_003
        z = rng.standard_normal(m)
        z[: m // 4] += 3.0
        pvals = np.round(2.0 * scipy_ndtr(-np.abs(z)), 6)  # rounding makes ties
        pvals[rng.integers(0, m, 50)] = np.nan
        bound = 0.05 * np.arange(1, m + 1) / m
        on = rng.integers(0, m, 500)
        pvals[on] = bound[on]
        reject = fdr_bh(pvals, 0.05)
        assert 0 < reject.sum() < m
        assert np.array_equal(reject, _bh_by_counting(pvals, 0.05))

    def test_empty_vector(self):
        assert fdr_bh(np.array([]), 0.05).shape == (0,)

    def test_hand_executed_example(self):
        reject = fdr_bh(np.array([0.01, 0.02, 0.04]), 0.05)
        assert reject.tolist() == [True, True, True]

    def test_all_unit_pvalues(self):
        assert not fdr_bh(np.ones(10), 0.05).any()

    def test_single_pvalue(self):
        assert fdr_bh(np.array([0.04]), 0.05).tolist() == [True]

    def test_step_up_partial_rejection(self):
        # p_(3) = 0.03 <= 3*0.05/4 while p_(4) = 0.9 fails
        reject = fdr_bh(np.array([0.001, 0.9, 0.02, 0.03]), 0.05)
        assert reject.tolist() == [True, False, True, True]

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        pvals = rng.random(200) ** 2
        prev = np.zeros(200, dtype=bool)
        for alpha in (0.01, 0.05, 0.1, 0.3, 0.8):
            cur = fdr_bh(pvals, alpha)
            assert np.all(prev <= cur)
            prev = cur

    def test_null_fdr_control(self):
        # mean false-discovery proportion under the global null stays near alpha
        rng = np.random.default_rng(3)
        fdp = []
        for _ in range(200):
            pvals = rng.random(100)
            rej = fdr_bh(pvals, 0.05)
            fdp.append(1.0 if rej.any() else 0.0)
        assert np.mean(fdp) <= 0.05 + 0.02

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            fdr_bh(np.array([0.5]), 1.5)


class TestNdtr:
    def test_is_scipys_to_the_bit(self):
        rng = np.random.default_rng(3)
        # |a| = 1: Cephes's erf/erfc switch; sqrt(2): erf's ratio ends;
        # 8 sqrt(2): erfc's P/Q gives way to R/S; about 37.7: erfc underflows
        edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0),
                          np.sqrt(2.0 * inference_module._MAXLOG)])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        tiny = np.finfo(float).tiny
        special = [np.inf, np.nan, 0.0, 5e-324, tiny, np.nextafter(tiny, 0.0), 1e-300,
                   1e300, np.finfo(float).max]
        a = np.concatenate([np.linspace(-45.0, 45.0, 300_001), 4.0 * rng.standard_normal(100_000),
                            rng.uniform(-40.0, 40.0, 100_000), edges, special])
        a = np.concatenate([a, -a])
        ours, scipys = ndtr(a), scipy_ndtr(a)
        assert np.array_equal(ours, scipys, equal_nan=True)
        assert np.array_equal(np.signbit(ours), np.signbit(scipys))

    def test_short_vectors_and_shapes(self):
        # one value alone takes another path through numpy's exp
        a = np.random.default_rng(4).uniform(-12.0, 12.0, 600)
        singles = np.array([ndtr(a[i:i + 1])[0] for i in range(a.size)])
        assert np.array_equal(singles, scipy_ndtr(a))
        assert np.array_equal(ndtr(a.reshape(20, 30)), scipy_ndtr(a).reshape(20, 30))
        assert ndtr(np.array([])).shape == (0,)

    def test_in_place_and_out(self):
        # more values than one pass takes, so that later passes read input
        # that earlier passes have not overwritten
        a = np.random.default_rng(5).uniform(-30.0, 30.0, inference_module.NDTR_CHUNK + 777)
        expected = scipy_ndtr(a)
        out = np.empty_like(a)
        assert ndtr(a, out=out) is out
        assert np.array_equal(out, expected)
        assert ndtr(a, out=a) is a
        assert np.array_equal(a, expected)
        for bad in (np.empty(5), np.empty(a.size, dtype=np.float32), np.empty((a.size, 2))[:, 0]):
            with pytest.raises(ValueError, match="out must be"):
                ndtr(a, out=bad)


def test_infer_maps_reject_consistent_with_cutoff():
    cfg = SimConfig(dims=(5, 5, 5), n=80, n_groups=2, sigma=1.0, seed=4, n_sites=3)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 2, SemConfig(restarts=2, seed=1))
    maps = infer_maps(fit, dataset, basis, alpha=0.05)
    assert len(maps) == 2 * 2
    for m in maps:
        assert np.all(m.se > 0)
        assert np.all((m.pval >= 0) & (m.pval <= 1))
        if m.reject.any():
            assert m.pval[m.reject].max() <= m.pval[~m.reject].min() + 1e-15


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
def test_infer_maps_checks_alpha_before_the_variance_field(alpha, monkeypatch):
    fit, ds = _fit_with(np.arange(10) % 2 + 1, np.ones((10, 1)), np.ones(3))
    basis = BasisSystem(psi=np.eye(3), eigvals=np.ones(3), h=0, params=KernelParams(0.01, 2.0))

    def unreachable(*args):
        raise AssertionError("built the variance field before checking alpha")

    monkeypatch.setattr(inference_module, "_variance_field", unreachable)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got"):
        infer_maps(fit, ds, basis, alpha=alpha)


@pytest.mark.parametrize("group, exposure", [(0, 0), (3, 0), (-1, 0), (1, -1), (1, 2)])
def test_wald_map_rejects_a_group_or_exposure_out_of_range(group, exposure):
    # K=2, p=1: groups 1..2, exposures 0..1; negative indices must not wrap
    rng = np.random.default_rng(0)
    exposures = np.column_stack([np.ones(12), rng.standard_normal(12)])
    fit, ds = _fit_with(np.arange(12) % 2 + 1, exposures, np.ones(3))
    basis = BasisSystem(psi=np.eye(3), eigvals=np.ones(3), h=0, params=KernelParams(0.01, 2.0))
    named = f"group must be in 1..2 and exposure in 0..1, got group {group}, exposure {exposure}"
    with pytest.raises(ValueError, match=named):
        wald_map(fit, ds, basis, group, exposure)
    with pytest.raises(ValueError, match=named):
        svc_variance(coef_covariance(fit, ds), basis, group, exposure)


def test_fit_on_another_basis_names_both_counts_before_the_covariance(monkeypatch):
    fit, ds = _fit_with(np.arange(10) % 2 + 1, np.ones((10, 1)), np.ones(5))
    basis = BasisSystem(psi=np.eye(3), eigvals=np.ones(3), h=0, params=KernelParams(0.01, 2.0))

    def unreachable(*args):
        raise AssertionError("computed the covariance before checking the basis")

    monkeypatch.setattr(inference_module, "coef_covariance", unreachable)
    for call in (lambda: infer_maps(fit, ds, basis), lambda: wald_map(fit, ds, basis, 1, 0)):
        with pytest.raises(ValueError, match="the fit has 5 basis coefficients, the basis has 3"):
            call()


def test_wald_map_is_the_infer_maps_map_under_a_two_thread_pool():
    # a two-thread pool rounds the variance field's products differently at
    # this size (d = 7,064, h = 12), so only maps that pin the pool agree
    pool = _blas.pool()
    if pool is None:
        pytest.skip("numpy's OpenBLAS pool was not found")
    basis = build_basis(_ellipsoid((30, 28, 26)), KernelParams(0.01, 2.0), 12)
    rng = np.random.default_rng(5)
    exposures = np.column_stack([np.ones(150), rng.standard_normal(150)])
    fit, ds = _fit_with(np.repeat([1, 2], 75), exposures, rng.random(basis.L) + 0.1,
                        theta_alpha=rng.standard_normal((2, 2, basis.L)))
    before = pool.get()
    pool.set(2)
    try:
        alone = wald_map(fit, ds, basis, 2, 1)
        maps = infer_maps(fit, ds, basis)
    finally:
        pool.set(before)
    for name in ("effect", "se", "wald", "pval"):
        assert getattr(alone, name).tobytes() == getattr(maps[3], name).tobytes(), name
