from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from glybench.features import FeatureConfig
from glybench.models import (
    GprCore,
    GprPredictor,
    WeightedGprEnsemble,
    rbf_kernel,
    weighted_log_mean,
)
from glybench.models.gpr import KERNEL_BLOCK_ROWS
from glybench.records import MealSlot

from test_models import design, frow, predict_one

import metric_oracle

CFG = FeatureConfig()
NUGGET = 0.25


def _dense_oracle(z, y, q, nugget=NUGGET, prior_mean=None):
    """Posterior mean/sigma via an explicit matrix inverse."""
    z = np.atleast_2d(z)
    m = float(np.mean(y)) if prior_mean is None else prior_mean
    k = rbf_kernel(z, z) + nugget * np.eye(len(y))
    k_inv = np.linalg.inv(k)
    k_star = rbf_kernel(np.atleast_2d(q), z)[0]
    mean = m + float(k_star @ k_inv @ (np.asarray(y) - m))
    var = 1.0 - float(k_star @ k_inv @ k_star)
    return mean, math.sqrt(max(var, 0.0))


def test_single_point_shrinkage_is_point_eight():
    core = GprCore(nugget=NUGGET, prior_mean=0.0)
    core.fit(np.array([[0.0]]), np.array([2.0]))
    (mean,), (sigma,) = core.posterior(np.array([[0.0]]))
    assert mean == pytest.approx(0.8 * 2.0, abs=1e-12)  # 1 / (1 + 0.25)
    assert sigma == pytest.approx(math.sqrt(1.0 - 1.0 / 1.25), abs=1e-12)


def test_far_query_returns_prior():
    core = GprCore(nugget=NUGGET)
    y = np.array([1.0, 2.0, 3.0])
    core.fit(np.array([[0.0], [0.5], [1.0]]), y)
    (mean,), (sigma,) = core.posterior(np.array([[1e3]]))
    assert mean == pytest.approx(float(y.mean()), abs=1e-12)
    assert sigma == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_posterior_matches_dense_inverse_oracle(n):
    rng = np.random.default_rng(100 + n)
    z = rng.normal(size=(n, 3))
    y = rng.normal(loc=2.0, size=n)
    core = GprCore(nugget=NUGGET)
    core.fit(z, y)
    queries = np.vstack([rng.normal(size=(8, 3)), z])  # includes training inputs
    means, sigmas = core.posterior(queries)
    assert means.shape == sigmas.shape == (len(queries),)
    for q, mean, sigma in zip(queries, means, sigmas):
        o_mean, o_sigma = _dense_oracle(z, y, q)
        assert mean == pytest.approx(o_mean, abs=1e-8)
        assert sigma == pytest.approx(o_sigma, abs=1e-8)
    # the means-only path skips the variance solve, not any of the mean's arithmetic
    assert core.mean(queries).tobytes() == means.tobytes()


def test_posterior_variance_is_bounded():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(6, 2))
    core = GprCore(nugget=NUGGET)
    core.fit(z, rng.normal(size=6))
    _, sigmas = core.posterior(np.vstack([z, rng.normal(size=(10, 2))]))
    assert np.all((0.0 <= sigmas**2) & (sigmas**2 <= 1.0 + NUGGET + 1e-12))


def _two_temporary_rbf_kernel(a, b):
    """The kernel as first written, the norm sums and 2 a·b each in a full
    (len(a), len(b)) array: the oracle for rbf_kernel's rounding."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    d2 = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :]
    d2 -= 2.0 * a @ b.T
    np.maximum(d2, 0.0, out=d2)
    d2 *= -0.5
    return np.exp(d2, out=d2)


_EDGE_ROWS = [KERNEL_BLOCK_ROWS + i for i in (-1, 0, 1)] + [
    2 * KERNEL_BLOCK_ROWS + i for i in (-1, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(m=st.one_of(st.sampled_from(_EDGE_ROWS), st.integers(1, 3 * KERNEL_BLOCK_ROWS)),
       n=st.integers(1, 300), d=st.integers(1, 22), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.01, 1.0, 5.0]), symmetric=st.booleans())
def test_rbf_kernel_equals_the_two_temporary_oracle_bitwise(m, n, d, seed, scale, symmetric):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=scale, size=(m, d))
    b = a if symmetric else rng.normal(scale=scale, size=(n, d))
    assert rbf_kernel(a, b).tobytes() == _two_temporary_rbf_kernel(a, b).tobytes()


def test_gpr_predictor_outputs_positive_mmoll():
    rng = np.random.default_rng(9)
    rows = [
        frow(bg=float(rng.uniform(4, 12)), target_bg=float(rng.uniform(2, 18)))
        for _ in range(10)
    ]
    m = GprPredictor(CFG)
    m.fit(design(rows))
    pred = m.predict(design([frow(bg=7.0), frow(bg=30.0, cho_prev=400.0)]))
    assert pred.shape == (2,) and np.all(pred > 0.0)
    _, sigma = m.core.posterior(m.pipeline.transform(design([frow(bg=7.0)]).x))
    assert sigma[0] >= 0.0


# ---------------------------------------------------------------------------
# confidence weighting
# ---------------------------------------------------------------------------

def test_equal_sigmas_average_the_members():
    assert weighted_log_mean(6.0, 1.0, 8.0, 1.0) == pytest.approx(7.0, abs=1e-12)


def test_weighted_example_two_to_one():
    # weights 1 and 0.5: (1*6 + 0.5*8) / 1.5
    assert weighted_log_mean(6.0, 1.0, 8.0, 2.0) == pytest.approx(6.6667, abs=1e-4)


def test_huge_member_sigma_vanishes():
    assert weighted_log_mean(6.0, 1.0, 8.0, 1e6) == pytest.approx(6.0, abs=1e-4)


def test_zero_sigma_member_is_used_exclusively():
    assert weighted_log_mean(6.0, 0.0, 8.0, 2.0) == 6.0
    assert weighted_log_mean(6.0, 1.0, 8.0, 0.0) == 8.0
    assert weighted_log_mean(6.0, 0.0, 8.0, 0.0) == 7.0


def test_combination_is_convex_and_scale_invariant():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        mu_p, mu_m = rng.normal(size=2) * 3.0
        sig_p, sig_m = rng.uniform(1e-3, 5.0, size=2)
        out = weighted_log_mean(mu_p, sig_p, mu_m, sig_m)
        assert min(mu_p, mu_m) - 1e-12 <= out <= max(mu_p, mu_m) + 1e-12
        alpha, beta = 1.0 / sig_p, 1.0 / sig_m
        c = float(rng.uniform(0.1, 100.0))
        rescaled = metric_oracle.convex_combine(mu_p, mu_m, c * alpha, c * beta)
        assert rescaled == pytest.approx(
            metric_oracle.convex_combine(mu_p, mu_m, alpha, beta), abs=1e-12)
        # the same rescaling through the sigmas of the array blend
        assert weighted_log_mean(mu_p, sig_p / c, mu_m, sig_m / c) == pytest.approx(
            out, abs=1e-12)


_MU = st.floats(min_value=-20.0, max_value=20.0)
_SIGMA = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))


@given(st.integers(1, 40).flatmap(lambda n: st.tuples(*(
    hnp.arrays(float, n, elements=e) for e in (_MU, _SIGMA, _MU, _SIGMA)))))
def test_array_blend_equals_the_scalar_oracle_bytewise(members):
    mu_p, sigma_p, mu_m, sigma_m = members
    want = np.array([
        metric_oracle.weighted_log_mean(*row)
        for row in zip(mu_p.tolist(), sigma_p.tolist(), mu_m.tolist(), sigma_m.tolist())
    ])
    # subnormal sigmas overflow their weights to inf, in both versions alike
    with np.errstate(over="ignore", invalid="ignore"):
        got = weighted_log_mean(mu_p, sigma_p, mu_m, sigma_m)
    assert got.tobytes() == want.tobytes()


def _slot_rows(rng, slot, n, level):
    return [
        frow(
            meal=slot,
            bg=float(rng.uniform(4, 12)),
            dt_cho=float(rng.uniform(30, 400)),
            target_bg=level + float(rng.uniform(-0.5, 0.5)),
        )
        for _ in range(n)
    ]


def test_ensemble_prediction_lies_between_members():
    rng = np.random.default_rng(14)
    rows = _slot_rows(rng, MealSlot.BeforeBreakfast, 8, 6.0) + _slot_rows(
        rng, MealSlot.BeforeLunch, 8, 10.0
    )
    ens = WeightedGprEnsemble(CFG)
    ens.fit(design(rows))
    queries = design([frow(meal=MealSlot.BeforeLunch, bg=b) for b in (5.0, 8.0, 11.0)])
    q = ens.pipeline.transform(queries.x)
    mu_p, _ = ens.core.posterior(q)
    mu_m, _ = ens.core_m[MealSlot.BeforeLunch].posterior(q)
    combined = np.log(ens.predict(queries))
    assert np.all(np.minimum(mu_p, mu_m) - 1e-9 <= combined)
    assert np.all(combined <= np.maximum(mu_p, mu_m) + 1e-9)
    assert ens.fallback_count == 0


def test_ensemble_groups_by_the_raw_meal_column_under_pca():
    rng = np.random.default_rng(16)
    rows = _slot_rows(rng, MealSlot.BeforeBreakfast, 8, 6.0) + _slot_rows(
        rng, MealSlot.BeforeBed, 8, 10.0
    )
    ens = WeightedGprEnsemble(FeatureConfig(pca=True))
    ens.fit(design(rows))
    assert ens.pipeline.pca is not None
    assert set(ens.core_m) == {MealSlot.BeforeBreakfast, MealSlot.BeforeBed}
    assert ens.core_m[MealSlot.BeforeBed]._z.shape == (8, 4)
    ens.predict(design(rows))
    assert ens.fallback_count == 0


def test_ensemble_falls_back_without_slot_model():
    rng = np.random.default_rng(15)
    rows = _slot_rows(rng, MealSlot.BeforeBreakfast, 10, 7.0)
    ens = WeightedGprEnsemble(CFG)
    ens.fit(design(rows))
    plain = GprPredictor(CFG)
    plain.fit(design(rows))
    query = frow(meal=MealSlot.DuringNight, bg=6.0)
    assert predict_one(ens, query) == pytest.approx(predict_one(plain, query), abs=1e-12)
    assert ens.fallback_count == 1


def test_gpr_refuses_empty_training_set():
    with pytest.raises(ValueError):
        GprPredictor(CFG).fit(design([]))
    with pytest.raises(ValueError):
        WeightedGprEnsemble(CFG).fit(design([]))


def test_gps_fit_on_one_training_design_share_the_patient_wide_core():
    rng = np.random.default_rng(12)
    train = design(_slot_rows(rng, MealSlot.BeforeBreakfast, 6, 7.0)
                   + _slot_rows(rng, MealSlot.BeforeLunch, 6, 9.0))
    gp, ens = GprPredictor(CFG), WeightedGprEnsemble(CFG)
    gp.fit(train)
    ens.fit(train)
    assert ens.core is gp.core
    other = WeightedGprEnsemble(CFG)
    other.fit(train[np.arange(len(train))])  # a new design shares nothing
    assert other.core is not gp.core
    test = design(_slot_rows(rng, MealSlot.BeforeLunch, 3, 8.0))
    assert other.predict(test).tobytes() == ens.predict(test).tobytes()


# ---------------------------------------------------------------------------
# the in-place training factor and the one-solve variance
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.sampled_from(_EDGE_ROWS), st.integers(1, 2 * KERNEL_BLOCK_ROWS + 2)),
       d=st.integers(1, 22), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.3, 1.0, 3.0]))
def test_fit_factor_equals_the_factor_of_the_full_kernel_bitwise(n, d, seed, scale):
    from scipy.linalg import cho_factor

    rng = np.random.default_rng(seed)
    z = rng.normal(scale=scale, size=(n, d))
    core = GprCore(nugget=NUGGET)
    core.fit(z, rng.normal(size=n))
    want = cho_factor(rbf_kernel(z, z) + NUGGET * np.eye(n))[0]
    upper = np.triu_indices(n)
    assert core._factor[upper].tobytes() == want[upper].tobytes()


@pytest.mark.parametrize("n, m", [(1, 3), (40, 7), (300, 50)])
def test_one_solve_sigmas_match_the_two_solve_form(n, m):
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(n)
    z = rng.normal(size=(n, 5))
    queries = np.vstack([rng.normal(size=(m, 5)), z[: m // 2]])
    core = GprCore(nugget=NUGGET)
    core.fit(z, rng.normal(size=n))
    _, sigmas = core.posterior(queries)
    k_star = rbf_kernel(queries, z)
    factor = cho_factor(rbf_kernel(z, z) + NUGGET * np.eye(n))
    var = 1.0 - np.sum(k_star.T * cho_solve(factor, k_star.T), axis=0)
    assert np.max(np.abs(sigmas - np.sqrt(np.maximum(var, 0.0)))) <= 1e-12


def test_a_fit_holds_one_kernel_sized_array():
    import tracemalloc

    n = 1000
    rng = np.random.default_rng(3)
    z, y = rng.normal(size=(n, 20)), rng.normal(size=n)
    GprCore().fit(z[:10], y[:10])  # loads LAPACK, which is not the fit's memory
    tracemalloc.start()
    try:
        GprCore().fit(z, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8


@pytest.mark.parametrize("where", ["z", "y"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_fit_refuses_non_finite_inputs(where, value):
    rng = np.random.default_rng(5)
    z, y = rng.normal(size=(6, 3)), rng.normal(size=6)
    (z if where == "z" else y)[2] = value
    with pytest.raises(ValueError, match="finite"):
        GprCore().fit(z, y)
