import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from lasir import augment, gating_probs, mnlogit_fit, mvls_fit
from lasir.linmodel import LAMBDA_FLOOR, _mnlogit_newton, log_gating, row_cumsum, row_sum


class TestMvls:
    def test_exact_linear_data(self):
        rng = np.random.default_rng(0)
        design = np.column_stack([np.ones(20), rng.standard_normal(20)])
        coef = rng.standard_normal((2, 5))
        fit = mvls_fit(design, design @ coef)
        assert np.allclose(fit.coef, coef, atol=1e-10)
        assert np.all(fit.lam == 1e-10)  # residuals are zero, variances floored

    def test_intercept_only_gives_column_means(self):
        rng = np.random.default_rng(1)
        targets = rng.standard_normal((15, 4))
        fit = mvls_fit(np.ones((15, 1)), targets)
        assert np.allclose(fit.coef[0], targets.mean(axis=0), atol=1e-12)

    def test_three_point_slope(self):
        fit = mvls_fit(np.array([[0.0], [1.0], [2.0]]), np.array([[0.0], [1.0], [2.0]]))
        assert fit.coef[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2)
        design = rng.standard_normal((40, 3))
        targets = rng.standard_normal((40, 6))
        fit = mvls_fit(design, targets)
        resid = targets - design @ fit.coef
        assert np.abs(design.T @ resid).max() < 1e-8

    def test_rank_deficient_names_singular_value(self):
        design = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(ValueError, match="singular value"):
            mvls_fit(design, np.zeros((10, 2)))

    def test_under_determined(self):
        with pytest.raises(ValueError, match="under-determined"):
            mvls_fit(np.ones((2, 3)), np.zeros((2, 1)))

    def test_empty_design_raises(self):
        with pytest.raises(ValueError, match="empty design"):
            mvls_fit(np.zeros((0, 0)), np.zeros((0, 2)))

    def test_variance_is_mean_squared_residual(self):
        rng = np.random.default_rng(3)
        design = np.ones((30, 1))
        targets = rng.standard_normal((30, 2))
        fit = mvls_fit(design, targets)
        resid = targets - targets.mean(axis=0)
        assert np.allclose(fit.lam, np.mean(resid ** 2, axis=0), rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 6), extra=st.integers(0, 30),
           L=st.integers(1, 8), spread=st.sampled_from([0.0, 1.0, 3.0]))
    def test_matches_lstsq(self, seed, c, extra, L, spread):
        rng = np.random.default_rng(seed)
        n = c + extra
        # columns on scales 10^-spread .. 10^spread, as mixed covariate units give
        design = rng.standard_normal((n, c)) * 10.0 ** rng.uniform(-spread, spread, size=c)
        targets = rng.standard_normal((n, L)) * rng.uniform(0.1, 10.0)
        fit = mvls_fit(design, targets)
        coef = np.linalg.lstsq(design, targets, rcond=None)[0]
        resid = targets - design @ coef
        cond = np.linalg.cond(design)
        tol = 1e-13 * cond ** 2
        assert np.abs(fit.coef - coef).max() <= tol * (1.0 + np.abs(coef).max())
        scale = 1.0 + np.abs(targets).max()
        assert np.abs(fit.resid - resid).max() <= tol * scale
        assert np.allclose(fit.lam, np.maximum(np.mean(resid ** 2, axis=0), LAMBDA_FLOOR),
                           rtol=1e-8, atol=tol * scale ** 2)

    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 6), extra=st.integers(0, 30))
    def test_rank_deficient_design_raises(self, seed, c, extra):
        rng = np.random.default_rng(seed)
        n = c + extra
        design = rng.standard_normal((n, c))
        # the last column a combination of the others
        design[:, -1] = design[:, :-1] @ rng.standard_normal(c - 1)
        with pytest.raises(ValueError, match="rank-deficient"):
            mvls_fit(design, rng.standard_normal((n, 3)))


class TestGatingProbs:
    def test_zero_weights_uniform(self):
        w = np.zeros((4, 3))
        probs = gating_probs(w, np.array([1.0, 0.3, -0.2]))
        assert np.allclose(probs, 0.25, atol=1e-14)

    def test_known_logits(self):
        # logits (-0.6, 0.5, 0) at z = 0
        w = np.array([[-0.6, 1.0], [0.5, 1.0], [0.0, 0.0]])
        probs = gating_probs(w, np.array([1.0, 0.0]))
        assert np.allclose(probs, [0.17163596187795446, 0.5156229251611161,
                                   0.31274111296092955], atol=1e-12)

    def test_shift_invariance(self):
        w = np.array([[0.4, -1.2], [-0.3, 0.7], [0.0, 0.0]])
        shifted = w + np.array([[5.0, 0.0]] * 3)  # adds 5 to every logit
        z = augment(np.random.default_rng(4).standard_normal((6, 1)))
        assert np.allclose(gating_probs(w, z), gating_probs(shifted, z), atol=1e-12)

    def test_rows_normalized_and_interior(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 4))
        w[-1] = 0.0
        z = augment(rng.standard_normal((50, 3)))
        probs = gating_probs(w, z)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((probs > 0) & (probs < 1))


class TestLogGating:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), n_classes=st.integers(1, 5),
           q=st.integers(0, 3), spread=st.sampled_from([1.0, 30.0, 1e4]))
    def test_normalized_shift_invariant_and_finite(self, seed, n, n_classes, q, spread):
        rng = np.random.default_rng(seed)
        features = augment(rng.uniform(-1.0, 1.0, (n, q)))
        w = rng.uniform(-spread, spread, (n_classes, q + 1))
        log_p = log_gating(w, features)
        assert np.all(np.isfinite(log_p))
        assert np.abs(logsumexp(log_p, axis=1)).max() <= 1e-12
        assert np.array_equal(gating_probs(w, features), np.exp(log_p))
        if spread < 1e4:  # logits of 1e4 round at about 1e-12 before any shift
            shift = rng.uniform(-spread, spread, q + 1)  # the same vector for every class
            assert np.allclose(log_gating(w + shift, features), log_p, rtol=0.0, atol=1e-12)

    def test_logits_of_1e4_where_an_unshifted_exp_overflows(self):
        w = np.array([[1e4], [-1e4], [0.0]])
        features = np.ones((2, 1))
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(features @ w.T)).any()
        log_p = log_gating(w, features)
        assert np.array_equal(log_p, np.tile([0.0, -2e4, -1e4], (2, 1)))
        assert np.array_equal(gating_probs(w, features), np.tile([1.0, 0.0, 0.0], (2, 1)))


class TestMnlogit:
    def test_single_class_is_zero(self):
        w, log_prior = mnlogit_fit(np.ones((5, 2)), np.ones(5, dtype=int), 1)
        assert np.array_equal(w, np.zeros((1, 2)))
        assert np.array_equal(log_prior, np.zeros((5, 1)))

    def test_degenerate_all_reference_class(self):
        rng = np.random.default_rng(6)
        feats = augment(rng.standard_normal((40, 1)))
        w = mnlogit_fit(feats, np.full(40, 3), 3).w
        assert np.all(np.isfinite(w))
        probs = gating_probs(w, feats)
        assert np.all(probs.argmax(axis=1) == 2)

    def test_balanced_symmetric_two_class(self):
        labels = np.array([1, 2] * 30)
        w = mnlogit_fit(np.ones((60, 1)), labels, 2).w
        assert abs(w[0, 0]) < 1e-6
        probs = gating_probs(w, np.ones((1, 1)))
        assert np.allclose(probs, 0.5, atol=1e-6)

    def test_recovery_and_likelihood_dominance(self):
        # draws from the gating model itself; the fitted weights must be close
        # and cannot have lower likelihood than the truth
        rng = np.random.default_rng(7)
        w_true = np.array([[-0.6, 1.0], [0.5, 1.0], [0.0, 0.0]])
        z = rng.normal(0.0, 2.0, size=(200, 1))
        feats = augment(z)
        probs = gating_probs(w_true, feats)
        u = rng.random(200)
        labels = 1 + (u[:, None] > probs.cumsum(axis=1)).sum(axis=1)
        labels = np.minimum(labels, 3)
        w_hat = mnlogit_fit(feats, labels, 3).w

        def loglik(w):
            return float(np.log(gating_probs(w, feats)[np.arange(200), labels - 1]).sum())

        assert loglik(w_hat) >= loglik(w_true)
        assert np.abs(w_hat - w_true).max() < 0.6

    def test_newton_objective_monotone(self):
        rng = np.random.default_rng(8)
        feats = augment(rng.standard_normal((80, 2)))
        labels = rng.integers(1, 4, size=80)
        onehot = np.zeros((80, 3))
        onehot[np.arange(80), labels - 1] = 1.0
        _, trace, _ = _mnlogit_newton(feats, onehot, 3)
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("n_classes", [1, 2, 4])
    def test_log_prior_is_log_gating_at_the_weights(self, n_classes):
        # the log probabilities the last Newton iteration formed, bit for bit,
        # alone and in a stack whose replicates stop at different iterations
        rng = np.random.default_rng(9)
        feats = augment(rng.standard_normal((50, 2)))
        labels = rng.integers(1, n_classes + 1, size=(3, 50))
        labels[1] = 1 + (feats[:, 1] > 0) * (n_classes - 1)  # nearly separated
        for lab in (labels[0], labels):
            w, log_prior = mnlogit_fit(feats, lab, n_classes)
            assert np.array_equal(log_prior.view(np.uint64),
                                  log_gating(w, feats).view(np.uint64))

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            mnlogit_fit(np.ones((3, 1)), np.array([0, 1, 2]), 2)


def _short_rows(seed, shape):
    """Floats of wide magnitudes, with zeros of both signs, of the given shape."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 17, shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    return x


class TestShortAxisSums:
    @given(seed=st.integers(0, 2**32 - 1), stack=st.integers(1, 3), n=st.integers(1, 40))
    def test_row_sum_has_the_bits_of_numpys_sum(self, seed, stack, n):
        for K in range(1, 13):
            x = _short_rows([seed, K], (stack, n, K))
            assert np.array_equal(row_sum(x).view(np.uint64),
                                  x.sum(axis=-1, keepdims=True).view(np.uint64)), K

    @given(seed=st.integers(0, 2**32 - 1), stack=st.integers(1, 3), n=st.integers(1, 40))
    def test_row_cumsum_has_the_bits_of_cumsum(self, seed, stack, n):
        for K in range(1, 13):
            x = _short_rows([seed, K], (stack, n, K))
            assert np.array_equal(row_cumsum(x).view(np.uint64),
                                  np.cumsum(x, axis=-1).view(np.uint64)), K

    def test_row_sum_keeps_the_signs_of_zero(self):
        for x in ([[-0.0]], [[-0.0, -0.0]], [[0.0, -0.0]], [[-0.0] * 9]):
            x = np.array(x)
            assert np.array_equal(row_sum(x).view(np.uint64),
                                  x.sum(axis=-1, keepdims=True).view(np.uint64))
