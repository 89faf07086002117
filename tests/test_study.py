import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lasir import GroundTruth
from lasir.study import beta_mse


def _per_individual_beta_mse(alpha_est, labels_est, truth):
    """Reference: the mean over the n x (p+1) x d individual coefficient maps."""
    beta_est = alpha_est[np.asarray(labels_est) - 1]
    beta_true = truth.alpha[truth.labels - 1]
    return float(np.mean((beta_est - beta_true) ** 2))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), k_est=st.integers(1, 4), k_true=st.integers(1, 4),
       n=st.integers(1, 60), p1=st.integers(1, 3), d=st.integers(1, 50))
def test_beta_mse_from_label_counts_matches_per_individual_mean(seed, k_est, k_true, n, p1, d):
    rng = np.random.default_rng(seed)
    truth = GroundTruth(labels=rng.integers(1, k_true + 1, size=n),
                        alpha=rng.standard_normal((k_true, p1, d)),
                        gamma=np.zeros((1, d)), eta=np.zeros((0, d)),
                        gating=np.zeros((k_true, 2)))
    alpha_est = rng.standard_normal((k_est, p1, d)) * rng.uniform(0.1, 10.0)
    labels_est = rng.integers(1, k_est + 1, size=n)
    expected = _per_individual_beta_mse(alpha_est, labels_est, truth)
    assert abs(beta_mse(alpha_est, labels_est, truth) - expected) <= 1e-12 * expected
