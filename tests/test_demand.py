import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsdeploy.demand import (
    PoissonRates,
    UncertaintySet,
    build_uncertainty_set,
    enumerate_set,
    fit_rates,
    poisson_var,
)
from emsdeploy.errors import ConfigError, DataError, SetTooLargeError
from oracles import box_members, poisson_var_oracle


def free_set(single_caps, global_cap=None, adjacency=None, ball=None, alpha=0.01):
    n = len(single_caps)
    adjacency = np.eye(n, dtype=bool) if adjacency is None else adjacency
    ball = np.eye(n, dtype=bool) if ball is None else ball
    caps = np.array(single_caps, dtype=np.int64)
    loose = np.full(n, 1000, dtype=np.int64)
    return UncertaintySet(
        alpha=alpha,
        single_cap=caps,
        local_cap=loose,
        regional_cap=loose,
        global_cap=int(caps.sum()) if global_cap is None else global_cap,
        adjacency=adjacency,
        coverage_ball=ball,
    )


def test_fit_rates_all_zero():
    counts = np.zeros((4, 3), dtype=np.int64)
    eye = np.eye(3, dtype=bool)
    rates = fit_rates(counts, eye, eye)
    assert np.all(rates.single == 0)
    assert rates.global_rate == 0.0


def test_fit_rates_simple_mean():
    counts = np.array([[1], [2], [3]])
    eye = np.eye(1, dtype=bool)
    rates = fit_rates(counts, eye, eye)
    assert rates.single[0] == pytest.approx(2.0)
    assert rates.local[0] == pytest.approx(2.0)
    assert rates.global_rate == pytest.approx(2.0)


def test_fit_rates_neighborhood_sums_match_second_pass():
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 5, size=(20, 4))
    adjacency = np.array(
        [
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [0, 1, 1, 1],
            [0, 0, 1, 1],
        ],
        dtype=bool,
    )
    ball = np.ones((4, 4), dtype=bool)
    rates = fit_rates(counts, adjacency, ball)
    for j in range(4):
        members = np.nonzero(adjacency[j])[0]
        series = counts[:, members].sum(axis=1)
        assert rates.local[j] == pytest.approx(series.mean())
        assert rates.regional[j] == pytest.approx(counts.sum(axis=1).mean())
    assert np.all(rates.local >= rates.single)
    assert np.all(rates.regional >= rates.local)
    assert rates.global_rate >= rates.single.max()


@st.composite
def count_matrices(draw):
    """Integer counts of up to 40 periods by up to 6 regions, some of them
    large, with random local and regional membership matrices."""
    n_periods, n_regions = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 10**6) | st.integers(0, 3),
                           min_size=n_periods * n_regions, max_size=n_periods * n_regions))
    members = st.lists(st.booleans(), min_size=n_regions * n_regions, max_size=n_regions * n_regions)
    return (np.array(counts, dtype=np.int64).reshape(n_periods, n_regions),
            np.array(draw(members)).reshape(n_regions, n_regions),
            np.array(draw(members)).reshape(n_regions, n_regions))


@settings(max_examples=200, deadline=None)
@given(count_matrices())
def test_fit_rates_is_the_mean_of_the_per_period_products(case):
    # the definition: each period's neighbourhood sums, then their mean over periods
    counts, adjacency, ball = case
    rates = fit_rates(counts, adjacency, ball)
    want = (counts.mean(axis=0), (counts @ adjacency.T.astype(np.int64)).mean(axis=0),
            (counts @ ball.T.astype(np.int64)).mean(axis=0))
    for got, expected in zip((rates.single, rates.local, rates.regional), want):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert rates.global_rate == float(counts.sum(axis=1).mean())


def test_fit_rates_requires_periods():
    eye = np.eye(2, dtype=bool)
    with pytest.raises(DataError):
        fit_rates(np.zeros((0, 2), dtype=np.int64), eye, eye)


def test_poisson_var_zero_rate():
    for alpha in (0.5, 0.01, 0.0001):
        assert poisson_var(0.0, alpha) == 0


def test_poisson_var_matches_highprecision_oracle():
    for rate in (0.1, 1.0, 2.0, 5.0, 20.0):
        for alpha in (0.1, 0.05, 0.01, 0.001, 0.0001):
            assert poisson_var(rate, alpha) == poisson_var_oracle(rate, alpha)


def test_poisson_var_monotone_in_alpha():
    assert poisson_var(5.0, 0.0001) >= poisson_var(5.0, 0.1)


def test_poisson_var_rejects_bad_alpha():
    with pytest.raises(ConfigError):
        poisson_var(1.0, 0.0)
    with pytest.raises(ConfigError):
        poisson_var(1.0, 1.0)
    with pytest.raises(ConfigError):
        poisson_var(-1.0, 0.1)


def test_build_set_zero_rates_only_contains_zero():
    eye = np.eye(2, dtype=bool)
    rates = PoissonRates(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
    uset = build_uncertainty_set(rates, 0.01, eye, eye)
    members = enumerate_set(uset)
    assert members.shape == (1, 2)
    assert np.all(members == 0)


def test_build_set_single_region_matches_enumeration():
    eye = np.eye(1, dtype=bool)
    rates = PoissonRates(np.array([2.0]), np.array([2.0]), np.array([2.0]), 2.0)
    uset = build_uncertainty_set(rates, 0.01, eye, eye)
    cap = poisson_var(2.0, 0.01)
    members = enumerate_set(uset)
    assert members.ravel().tolist() == list(range(cap + 1))
    for d in range(cap + 1):
        assert uset.contains(np.array([d]))
    assert not uset.contains(np.array([cap + 1]))


def test_budget_caps_can_exclude_allcaps_vector():
    uset = free_set([2, 2], global_cap=3)
    assert not uset.contains(np.array([2, 2]))
    assert uset.contains(np.array([2, 1]))


def test_enumerate_hand_case():
    uset = free_set([1, 1], global_cap=1)
    members = enumerate_set(uset)
    assert members.tolist() == [[0, 0], [0, 1], [1, 0]]


def test_enumerate_budget_error():
    uset = free_set([100, 100, 100])
    with pytest.raises(SetTooLargeError):
        enumerate_set(uset, size_budget=1000)


def test_enumerate_matches_membership_filter_with_aggregates():
    rng = np.random.default_rng(9)
    adjacency = np.array(
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
        dtype=bool,
    )
    ball = np.ones((3, 3), dtype=bool)
    uset = UncertaintySet(
        alpha=0.05,
        single_cap=np.array([2, 3, 2]),
        local_cap=np.array([3, 4, 3]),
        regional_cap=np.array([5, 5, 5]),
        global_cap=5,
        adjacency=adjacency,
        coverage_ball=ball,
    )
    members = enumerate_set(uset)
    expected = box_members(uset)
    assert np.array_equal(members, expected)
    # spot-check the membership rule by hand on a few vectors
    assert uset.contains(np.array([2, 1, 0]))
    assert not uset.contains(np.array([2, 2, 0]))  # local cap at region 0 is 3


def test_set_downward_closed():
    rng = np.random.default_rng(13)
    uset = free_set([2, 2, 1], global_cap=4)
    members = enumerate_set(uset)
    member_set = {tuple(m) for m in members}
    for m in members:
        lower = np.maximum(m - 1, 0)
        assert tuple(lower) in member_set


def test_alpha_monotone_caps():
    eye = np.eye(2, dtype=bool)
    rates = PoissonRates(np.array([1.5, 3.0]), np.array([2.0, 3.5]), np.array([4.0, 4.0]), 4.5)
    tight = build_uncertainty_set(rates, 0.1, eye, eye)
    loose = build_uncertainty_set(rates, 0.001, eye, eye)
    assert np.all(loose.single_cap >= tight.single_cap)
    assert np.all(loose.local_cap >= tight.local_cap)
    assert np.all(loose.regional_cap >= tight.regional_cap)
    assert loose.global_cap >= tight.global_cap


def test_enumerate_output_equals_box_filter_large_box():
    # box of 6*6*6*6 = 1296 <= 10^4 points
    uset = free_set([5, 5, 5, 5], global_cap=9)
    members = enumerate_set(uset)
    expected = box_members(uset)
    assert np.array_equal(members, expected)
