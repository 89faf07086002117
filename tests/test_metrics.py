import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from lasir import (Dataset, KernelParams, SemConfig, SimConfig, _blas, backproject,
                   build_basis, build_lattice, fit_sem, match_groups, mse_svc, nmi, power_type1,
                   project, simulate_cube, validate_projection)
from lasir import metrics as metrics_module
from lasir import sem as sem_module
from lasir.linmodel import check_design
from lasir.metrics import _assign, _holdout_mse
from lasir.basis import BasisSystem
from lasir.sem import (DegenerateGroupError, FitResult, ModelParams, check_group,
                       predict_from_sums)


class TestNmi:
    def test_identical_labelings(self):
        assert nmi([1, 1, 2, 3, 2], [1, 1, 2, 3, 2]) == 1.0

    def test_relabeled_identical(self):
        assert nmi([1, 1, 2, 3, 2], [7, 7, 5, 2, 5]) == 1.0

    def test_independent_labelings(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_hand_computed_value(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 0]) == pytest.approx(0.3437110184854508,
                                                                rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 4, size=40)
        assert nmi(a, b) == pytest.approx(nmi(b, a), rel=1e-12)

    def test_single_cluster_both_sides(self):
        assert nmi([1, 1, 1], [2, 2, 2]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            nmi([1, 2], [1, 2, 3])

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(0, 4, size=30)
            b = rng.integers(0, 4, size=30)
            assert 0.0 <= nmi(a, b) <= 1.0


class TestMseSvc:
    def test_exact_match(self):
        maps = np.random.default_rng(2).standard_normal((3, 10))
        assert mse_svc(maps, maps) == 0.0

    def test_constant_offset(self):
        truth = np.zeros((2, 5))
        assert mse_svc(truth + 3.0, truth) == pytest.approx(9.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse_svc(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_permutation_matching_restores_score(self):
        rng = np.random.default_rng(3)
        truth_maps = rng.standard_normal((3, 8))
        truth_labels = np.repeat([1, 2, 3], 10)
        perm = np.array([3, 1, 2])
        est_labels = perm[truth_labels - 1]
        est_maps = np.empty_like(truth_maps)
        for k in range(3):
            est_maps[perm[k] - 1] = truth_maps[k]
        matched = match_groups(est_labels, truth_labels, 3)
        aligned = np.empty_like(est_maps)
        for k_est in range(3):
            aligned[matched[k_est] - 1] = est_maps[k_est]
        assert mse_svc(aligned, truth_maps) == 0.0

    def test_fewer_estimated_groups_than_true_ones(self):
        # a K=2 fit that merges true groups 1 and 2 into its group 2: its
        # group 1 is true group 3
        truth_labels = np.repeat([1, 2, 3], 4)
        est_labels = np.repeat([2, 2, 1], 4)
        assert match_groups(est_labels, truth_labels, 2)[0] == 3
        # more estimated groups than true ones: one is matched beyond them
        perm = match_groups(np.repeat([3, 1, 2], 4), np.repeat([1, 1, 2], 4), 3)
        assert perm[1] == 2 and sorted(perm) == [1, 2, 3]


@st.composite
def cost_tables(draw):
    """Tables of no more rows than columns, of the kinds that tie: constant,
    small integers, repeated rows and columns, counts of two labelings (as
    `match_groups` builds them), or continuous values."""
    rows = draw(st.integers(1, 7))
    cols = rows + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["constant", "small", "repeated", "counts", "normal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        return np.full((rows, cols), float(rng.integers(0, 3)))
    if kind == "small":
        return rng.integers(0, 3, (rows, cols)).astype(float)
    if kind == "repeated":
        base = rng.integers(0, 4, (rows, cols)).astype(float)
        return base[rng.integers(0, rows, rows)][:, rng.integers(0, cols, cols)]
    if kind == "counts":
        n = int(rng.integers(1, 60))
        table = np.zeros((rows, cols))
        np.add.at(table, (rng.integers(0, rows, n), rng.integers(0, cols, n)), 1.0)
        return table
    return rng.standard_normal((rows, cols))


class TestAssign:
    @settings(max_examples=300)
    @given(cost_tables())
    @example(np.zeros((1, 1)))
    @example(np.ones((3, 3)))
    @example(np.full((2, 4), 5.0))
    def test_matches_scipy(self, table):
        for cost in (-table, table):
            assert _assign(cost.tolist()) == linear_sum_assignment(cost)[1].tolist()

    @given(seed=st.integers(0, 2**32 - 1), n_groups=st.integers(1, 6),
           n_true=st.integers(1, 8), n=st.integers(1, 80))
    def test_match_groups_is_scipy_on_the_count_table(self, seed, n_groups, n_true, n):
        rng = np.random.default_rng(seed)
        est, true = rng.integers(1, n_groups + 1, n), rng.integers(1, n_true + 1, n)
        table = np.zeros((n_groups, max(n_groups, true.max())))
        np.add.at(table, (est - 1, true - 1), 1.0)
        perm = match_groups(est, true, n_groups)
        assert np.array_equal(perm, linear_sum_assignment(-table)[1] + 1)


class TestPowerType1:
    def test_perfect_detection(self):
        truth = np.array([True, False, True, False])
        power, type1 = power_type1(truth, truth)
        assert power == 1.0 and type1 == 0.0

    def test_reject_everything(self):
        truth = np.array([True, False, False])
        power, type1 = power_type1(np.ones(3, dtype=bool), truth)
        assert power == 1.0 and type1 == 1.0

    def test_undefined_rates_are_none(self):
        power, type1 = power_type1(np.array([True, False]), np.array([True, True]))
        assert type1 is None and power == 0.5
        power, type1 = power_type1(np.array([False, False]), np.array([False, False]))
        assert power is None and type1 == 0.0

    def test_rates_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            reject = rng.random(50) < 0.3
            truth = rng.random(50) < 0.5
            if truth.any() and (~truth).any():
                power, type1 = power_type1(reject, truth)
                assert 0.0 <= power <= 1.0 and 0.0 <= type1 <= 1.0


@pytest.fixture(scope="module")
def fitted():
    cfg = SimConfig(dims=(6, 6, 6), n=120, n_groups=2, sigma=1.0, seed=3, n_sites=4)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 2, SemConfig(restarts=3, seed=8))
    return dataset, basis, fit


class TestValidateProjection:
    def test_single_stratum_within_equals_without(self):
        cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=1, n_sites=3)
        dataset, truth, lattice, basis = simulate_cube(cfg)
        fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
        within = validate_projection(dataset, basis, fit, "within", n_splits=4, seed=9)
        without = validate_projection(dataset, basis, fit, "without", n_splits=4, seed=9)
        assert np.array_equal(within.mse, without.mse)

    def test_deterministic_given_seed(self, fitted):
        dataset, basis, fit = fitted
        a = validate_projection(dataset, basis, fit, "within", n_splits=3, seed=2)
        b = validate_projection(dataset, basis, fit, "within", n_splits=3, seed=2)
        assert np.array_equal(a.mse, b.mse)

    def test_shuffled_is_worst_on_structured_data(self, fitted):
        dataset, basis, fit = fitted
        within = validate_projection(dataset, basis, fit, "within", n_splits=10, seed=4)
        shuffled = validate_projection(dataset, basis, fit, "shuffled", n_splits=10, seed=4)
        assert within.mse.mean() < shuffled.mse.mean()

    @pytest.mark.parametrize("mode", ["within", "shuffled"])
    def test_each_subgroup_is_checked_once_per_split(self, fitted, mode, monkeypatch):
        # every subgroup is fitted, and its rank rules decided, once per split,
        # in stacks; these well-conditioned subgroups pass the eigenvalue
        # screen, so no SVD of check_group or check_design runs
        dataset, basis, fit = fitted
        fitted_items, checked = [], []

        def counted_predict(gram, cross, train, test, n_sites, n_exposures, group=1):
            fitted_items.extend([group] * len(gram))
            return predict_from_sums(gram, cross, train, test, n_sites, n_exposures, group)

        def counted(design, group):
            checked.append(group)
            return check_group(design, group)

        def counted_design(design):
            checked.append("stage 1")
            return check_design(design)

        monkeypatch.setattr(metrics_module, "predict_from_sums", counted_predict)
        monkeypatch.setattr(sem_module, "check_group", counted)
        monkeypatch.setattr(sem_module, "check_design", counted_design)
        res = validate_projection(dataset, basis, fit, mode, n_splits=3, seed=2)
        assert res.unseen_fallbacks == 0
        assert sorted(fitted_items) == sorted(list(np.unique(fit.labels)) * 3)
        assert checked == []

    def test_unknown_mode(self, fitted):
        dataset, basis, fit = fitted
        with pytest.raises(ValueError, match="unknown mode"):
            validate_projection(dataset, basis, fit, "nope")

    @pytest.mark.parametrize("settings, named", [
        ({"n_splits": 0}, "n_splits must be >= 1, got 0"),
        ({"n_splits": -2}, "n_splits must be >= 1, got -2"),
        ({"holdout_frac": 1.5}, r"holdout_frac must be in \(0, 1\), got 1.5"),
        ({"holdout_frac": 1.0}, r"holdout_frac must be in \(0, 1\), got 1.0"),
        ({"holdout_frac": 0.0}, r"holdout_frac must be in \(0, 1\), got 0.0"),
    ])
    def test_split_settings_checked_before_projecting(self, fitted, settings, named,
                                                      monkeypatch):
        dataset, basis, fit = fitted

        def unreachable(*args):
            raise AssertionError("projected before checking the split settings")

        monkeypatch.setattr(metrics_module, "projected", unreachable)
        with pytest.raises(ValueError, match=named):
            validate_projection(dataset, basis, fit, "within", **settings)

    def test_fit_of_another_dataset_checked_before_projecting(self, fitted, monkeypatch):
        dataset, basis, fit = fitted
        fewer = Dataset(images=dataset.images[:40], exposures=dataset.exposures[:40],
                        controls=dataset.controls[:40], sites=dataset.sites[:40])

        def unreachable(*args):
            raise AssertionError("projected before checking the fit")

        monkeypatch.setattr(metrics_module, "projected", unreachable)
        with pytest.raises(ValueError,
                           match="the fit has labels for 120 individuals, the dataset has 40"):
            validate_projection(fewer, basis, fit, "within")


@functools.lru_cache(maxsize=None)
def _basis(masked):
    dims = (8, 7, 6)
    mask = "full"
    if masked:  # an ellipsoid, as brain masks are
        grid = np.stack(np.meshgrid(*[np.linspace(-1.2, 1.2, n) for n in dims], indexing="ij"))
        mask = (grid ** 2).sum(axis=0) <= 1.0
    return build_basis(build_lattice(dims, mask), KernelParams(0.01, 2.0), 3)


class TestParsevalMse:
    @given(seed=st.integers(0, 2**32 - 1), masked=st.booleans(), m=st.integers(1, 12),
           noise=st.sampled_from([0.1, 1.0, 10.0]), miss=st.sampled_from([0.0, 0.3, 3.0]))
    def test_matches_backprojected_mse(self, seed, masked, m, noise, miss):
        basis = _basis(masked)
        rng = np.random.default_rng(seed)
        signal = rng.standard_normal((m, basis.L)) @ basis.psi.T
        images = (signal + noise * rng.standard_normal((m, basis.d))).astype(np.float32)
        ytilde = project(images, basis)
        pred = ytilde + miss * rng.standard_normal(ytilde.shape)
        sq_norms = np.square(images, dtype=np.float64).sum(axis=1)
        direct = np.mean((images.astype(np.float64) - backproject(pred, basis)) ** 2)
        assert _holdout_mse(sq_norms, ytilde, pred, basis.d) == pytest.approx(direct, rel=1e-10)


def test_tiny_subgroups_fall_back_to_the_without_fit():
    cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=2, n_sites=3)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
    # subgroups of 3 and 2: each split holds out one member of each, leaving
    # fewer training members than the p+2 = 3 a subgroup fit needs
    assert dataset.exposures.shape[1] == 2
    fit.labels = np.ones(dataset.n, dtype=int)
    fit.labels[[4, 17, 33]] = 2
    fit.labels[[8, 50]] = 3
    splits = 6
    counts = {mode: validate_projection(dataset, basis, fit, mode, n_splits=splits, seed=5)
              for mode in ("within", "without", "shuffled")}
    assert {mode: res.unseen_fallbacks for mode, res in counts.items()} == {
        "within": 2 * splits, "without": 0, "shuffled": 2 * splits}
    assert all(np.all(np.isfinite(res.mse)) for res in counts.values())


def test_subgroup_with_no_training_rows_falls_back_without_controls():
    # with no control columns, a subgroup whose one member is held out leaves
    # a stage-1 design of no rows and no columns; the subgroup check rejects it
    cfg = SimConfig(dims=(5, 5, 5), n=40, n_groups=1, sigma=1.0, seed=2, n_sites=3)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
    no_controls = Dataset(images=dataset.images, exposures=dataset.exposures,
                          controls=np.empty((dataset.n, 0)), sites=dataset.sites)
    fit.labels = np.ones(dataset.n, dtype=int)
    fit.labels[7] = 2
    splits = 3
    for mode in ("within", "shuffled"):
        res = validate_projection(no_controls, basis, fit, mode, n_splits=splits, seed=1)
        assert res.unseen_fallbacks == splits
        assert np.all(np.isfinite(res.mse))


def test_rank_deficient_subgroup_falls_back_to_the_without_fit():
    cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=2, n_sites=3)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
    # subgroup 2 has 10 members, enough rows, but its exposure is constant, so
    # its training exposure design is rank deficient
    members = np.arange(10)
    dataset.exposures[members, 1] = 0.5
    fit.labels = np.ones(dataset.n, dtype=int)
    fit.labels[members] = 2
    splits = 4
    within = validate_projection(dataset, basis, fit, "within", n_splits=splits, seed=5)
    assert within.unseen_fallbacks == splits  # one holdout member of subgroup 2 per split
    assert np.all(np.isfinite(within.mse))


def test_subgroup_with_rank_deficient_stage1_design_falls_back_to_the_without_fit():
    cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=2, n_sites=3)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
    # subgroup 2 has 10 members at one site and a constant control, so its
    # stage-1 training design [site | controls] has two equal columns
    site = np.flatnonzero(dataset.sites[:, 0])
    members = site[:10]
    assert members.size == 10 and dataset.controls.shape[1] >= 1
    dataset.controls[members, 0] = 1.0
    fit.labels = np.ones(dataset.n, dtype=int)
    fit.labels[members] = 2
    splits = 4
    within = validate_projection(dataset, basis, fit, "within", n_splits=splits, seed=5)
    assert within.unseen_fallbacks == splits  # one holdout member of subgroup 2 per split
    assert np.all(np.isfinite(within.mse))


def test_without_mode_raises_when_its_own_fit_cannot_be_solved():
    cfg = SimConfig(dims=(5, 5, 5), n=40, n_groups=1, sigma=1.0, seed=2, n_sites=3)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
    # a control equal to the sum of the site columns: every stage-1 design is
    # rank deficient, so the fit on all training rows has nothing to fall back to
    dataset.controls[:, 0] = 1.0
    with pytest.raises(ValueError, match="rank-deficient design"):
        validate_projection(dataset, basis, fit, "without", n_splits=2, seed=1)


@pytest.mark.parametrize("n_splits", [2.5, 2.0, "3"])
def test_split_count_must_be_an_integer_checked_before_projecting(fitted, n_splits,
                                                                  monkeypatch):
    dataset, basis, fit = fitted

    def unreachable(*args):
        raise AssertionError("projected before checking the split count")

    monkeypatch.setattr(metrics_module, "projected", unreachable)
    with pytest.raises(ValueError, match=f"n_splits must be an integer, got {n_splits!r}"):
        validate_projection(dataset, basis, fit, "within", n_splits=n_splits)


def _per_split_validation(dataset, basis, fit, mode, n_splits, holdout_frac, seed):
    """The holdout validation one split at a time, each subgroup fitted by
    the 2-D form of `predict_from_sums`: (MSEs, fallback count)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ytilde = project(dataset.images, basis)
    sq_norms = np.square(dataset.images, dtype=np.float64).sum(axis=1)
    z = np.hstack([dataset.sites, dataset.controls, dataset.exposures])
    n_sites, p1 = dataset.sites.shape[1], dataset.exposures.shape[1]

    def sums(rows):
        zr = z[rows]
        return zr.T @ zr, zr.T @ ytilde[rows]

    def predict(gram, cross, train, test, group=1):
        return predict_from_sums(gram, cross, z[train], z[test], n_sites, p1, group)

    def downdated(totals, rows):
        gram, cross = sums(rows)
        return totals[0] - gram, totals[1] - cross

    labels = np.asarray(fit.labels, dtype=int)
    subgroups = np.ones_like(labels) if mode == "without" else labels
    total = sums(slice(None))
    group_totals = {g: sums(subgroups == g) for g in np.unique(subgroups)}
    mses, pred, fallbacks = np.empty(n_splits), np.empty_like(ytilde), 0
    for rep in range(n_splits):
        holdout = np.zeros(dataset.n, dtype=bool)
        for g in np.unique(labels):
            members = np.nonzero(labels == g)[0]
            n_hold = max(1, int(round(holdout_frac * members.size)))
            holdout[rng.permutation(members)[:n_hold]] = True
        train = ~holdout
        fit_labels = subgroups.copy()
        if mode == "shuffled":
            tr_idx = np.nonzero(train)[0]
            fit_labels[tr_idx] = fit_labels[rng.permutation(tr_idx)]
        without = None
        for g in np.unique(subgroups):
            test_g = holdout & (subgroups == g)
            train_g = train & (fit_labels == g)
            g_sums = (sums(train_g) if mode == "shuffled"
                      else downdated(group_totals[g], test_g))
            try:
                pred[test_g] = predict(*g_sums, train_g, test_g, g)
            except (ValueError, DegenerateGroupError):
                if without is None:
                    without = predict(*downdated(total, holdout), train, holdout)
                pred[test_g] = without[test_g[holdout]]
                fallbacks += int(test_g.sum())
        y, theta = ytilde[holdout], pred[holdout]
        sq_err = np.sum(sq_norms[holdout]) - 2.0 * np.sum(y * theta) + np.sum(theta * theta)
        mses[rep] = sq_err / (theta.shape[0] * basis.d)
    return mses, fallbacks


def _validation_case(seed, n, n_sites, q, p, n_groups, tiny, stage1_defect):
    """A dataset on an explicit orthonormal basis and a fit of given labels.

    Site sizes halve from one site to the next, so the last sites hold an
    individual or two and drop out of some splits' training rows. `tiny`
    adds subgroups of 2 and 3 members, too small to fit once one is held
    out; `stage1_defect` (with q >= 1) gives up to 6 members of site 1 a
    subgroup of their own and a constant control, so that subgroup's
    stage-1 design [site | controls] is rank deficient.
    """
    rng = np.random.default_rng(seed)
    d, L = 30, 6
    psi, _ = np.linalg.qr(rng.standard_normal((d, L)))
    basis = BasisSystem(psi=psi, eigvals=np.ones(L), h=0, params=KernelParams(0.01, 2.0))
    weights = 0.5 ** np.arange(n_sites)
    site = np.concatenate([np.arange(n_sites),
                           rng.choice(n_sites, size=n - n_sites, p=weights / weights.sum())])
    sites = np.eye(n_sites)[site]
    controls = rng.standard_normal((n, q))
    exposures = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p))])
    labels = rng.integers(1, n_groups + 1, size=n)
    if tiny:
        picked = rng.choice(n, size=5, replace=False)
        labels[picked[:2]] = n_groups + 1
        labels[picked[2:]] = n_groups + 2
    if stage1_defect and q:
        members = np.flatnonzero(site == 0)[:6]
        labels[members] = labels.max() + 1
        controls[members, 0] = 1.0
    _, labels = np.unique(labels, return_inverse=True)
    dataset = Dataset(images=rng.standard_normal((n, d)).astype(np.float32),
                      exposures=exposures, controls=controls, sites=sites)
    params = ModelParams(theta_alpha=np.zeros((1, p + 1, L)), theta_eta=np.zeros((q, L)),
                         theta_gamma=np.zeros((n_sites, L)), lam=np.ones(L),
                         w=np.zeros((1, q + 1)))
    fit = FitResult(params=params, responsibilities=np.ones((n, 1)), labels=labels + 1,
                    q_trace=np.zeros(1), converged=True, seed=0, iterations=1)
    return dataset, basis, fit


def _outcome(run):
    try:
        return run()
    except (ValueError, DegenerateGroupError) as exc:
        return type(exc), str(exc)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(24, 70), n_sites=st.integers(1, 7),
       q=st.integers(0, 2), p=st.integers(0, 2), n_groups=st.integers(1, 3),
       tiny=st.booleans(), stage1_defect=st.booleans(), n_splits=st.integers(1, 13),
       block=st.integers(1, 30_000), holdout_frac=st.sampled_from([0.05, 0.2]))
def test_stacked_splits_equal_the_per_split_rule(seed, n, n_sites, q, p, n_groups, tiny,
                                                 stage1_defect, n_splits, block, holdout_frac):
    # `block` bytes hold from one split to a few, so the last block is short
    # whenever n_splits is not a multiple of the block's split count
    dataset, basis, fit = _validation_case(seed, n, n_sites, q, p, n_groups, tiny, stage1_defect)
    for mode in ("within", "without", "shuffled"):
        with _blas.single_thread:
            expected = _outcome(lambda: _per_split_validation(dataset, basis, fit, mode, n_splits,
                                                              holdout_frac, seed))
        with mock.patch.object(metrics_module, "BLOCK", block):
            got = _outcome(lambda: validate_projection(dataset, basis, fit, mode, n_splits,
                                                       holdout_frac, seed))
        if isinstance(expected[0], type):
            assert got == expected
        else:
            assert got.mse.tobytes() == expected[0].tobytes()
            assert got.unseen_fallbacks == expected[1]


def test_numerically_singular_subgroup_gram_falls_back_as_a_lone_fit_does():
    # subgroup 2's exposure is constant up to 1e-9: its design passes the
    # SVD rule, but its training Gram can be singular in floating point, and
    # the splits where the solve fails fall back, each on its own
    cfg = SimConfig(dims=(5, 5, 5), n=60, n_groups=1, sigma=1.0, seed=2, n_sites=3)
    dataset, truth, lattice, basis = simulate_cube(cfg)
    fit = fit_sem(dataset, basis, 1, SemConfig(seed=0))
    members = np.arange(10)
    dataset.exposures[members, 1] = 0.5 + 1e-9 * (np.arange(10) < 3) * np.arange(1, 11)
    fit.labels = np.ones(dataset.n, dtype=int)
    fit.labels[members] = 2
    with _blas.single_thread:
        mse, fallbacks = _per_split_validation(dataset, basis, fit, "within", 20, 0.05, 5)
    res = validate_projection(dataset, basis, fit, "within", n_splits=20, seed=5)
    assert 0 < res.unseen_fallbacks < 20  # some splits of subgroup 2 solve, some fall back
    assert res.unseen_fallbacks == fallbacks
    assert res.mse.tobytes() == mse.tobytes()
