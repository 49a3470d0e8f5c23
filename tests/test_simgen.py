import numpy as np
import pytest

from blockgibbs import (
    RngStream,
    Scenario,
    ScenarioSpec,
    gen_extra_wide,
    gen_scenario1,
    gen_scenario2,
    standardize_columns,
)


def test_scenario1_shapes_and_sparsity():
    sim = gen_scenario1(30, 5, RngStream(1))
    assert sim.dataset.p == 25
    assert sim.groups.group_sizes.tolist() == [5] * 5
    assert np.count_nonzero(sim.beta_star) == 5
    assert np.all(sim.beta_star[5:] == 0.0)


def test_scenario1_columns_are_raw_powers():
    sim = gen_scenario1(40, 3, RngStream(2))
    x = sim.dataset.x
    for k in range(3):
        base = x[:, 5 * k]
        expected = base.copy()
        for j in range(1, 6):
            np.testing.assert_array_equal(x[:, 5 * k + j - 1], expected)
            np.testing.assert_allclose(expected, base ** j, rtol=1e-12)
            expected = expected * base


def test_scenario2_column_standardization():
    sim = gen_scenario2(200, 40, RngStream(4))
    x = sim.dataset.x
    assert np.all(np.abs(x.mean(axis=0)) < 1e-12)
    np.testing.assert_allclose((x * x).sum(axis=0), 200.0, rtol=1e-9)


def test_scenario2_nonzero_blocks():
    sim = gen_scenario2(50, 40, RngStream(5))
    b = sim.beta_star
    assert np.count_nonzero(b) == 8
    assert np.all(b[:4] != 0.0)
    assert np.all(b[8:12] != 0.0)
    assert np.all(b[4:8] == 0.0)
    assert np.all(b[12:] == 0.0)
    assert sim.groups is None


def test_scenario2_equicorrelation():
    # sample correlation is invariant to the per-column standardization
    sim = gen_scenario2(2_000, 20, RngStream(6))
    corr = np.corrcoef(sim.dataset.x.T)
    off = corr[np.triu_indices(20, k=1)]
    assert abs(off.mean() - 0.2) < 4 * 0.96 / np.sqrt(2_000)


def test_scenario2_requires_p_multiple_of_ten():
    with pytest.raises(ValueError, match="divisible by 10"):
        gen_scenario2(20, 15, RngStream(0))


def test_scenario2_requires_two_rows_and_a_column():
    # the generators check nothing themselves: ScenarioSpec holds the rules
    with pytest.raises(ValueError, match="n and p must be positive"):
        gen_scenario2(20, 0, RngStream(0))
    with pytest.raises(ValueError, match="needs n >= 2"):
        gen_scenario2(1, 10, RngStream(0))


def test_extra_wide_fixed_signal_size():
    sim = gen_extra_wide(50, 500, RngStream(7))
    assert sim.dataset.p == 500
    assert np.count_nonzero(sim.beta_star) == 5
    assert np.count_nonzero(sim.beta_star) / sim.dataset.p == pytest.approx(0.01)


def test_extra_tall_small_p():
    sim = ScenarioSpec(Scenario.EXTRA_TALL, 500, 25).generate(RngStream(8))
    assert sim.dataset.n == 500
    assert sim.groups.group_sizes.tolist() == [5] * 5
    assert np.count_nonzero(sim.beta_star) == 5


def test_generators_are_reproducible():
    for gen, args in [(gen_scenario1, (20, 3)), (gen_scenario2, (20, 20)),
                      (gen_extra_wide, (10, 25)), (gen_extra_wide, (60, 10))]:
        a = gen(*args, RngStream(99))
        b = gen(*args, RngStream(99))
        np.testing.assert_array_equal(a.dataset.x, b.dataset.x)
        np.testing.assert_array_equal(a.dataset.y, b.dataset.y)
        np.testing.assert_array_equal(a.beta_star, b.beta_star)


def test_standardize_leaves_standardized_columns_alone():
    x = np.array([[1.0], [-1.0]])
    np.testing.assert_allclose(standardize_columns(x), x, atol=1e-15)


def test_standardize_centers_and_rescales():
    x = np.array([[0.0], [2.0]])
    np.testing.assert_allclose(standardize_columns(x), [[-1.0], [1.0]], atol=1e-15)


def test_standardize_idempotent():
    x = np.random.default_rng(10).standard_normal((50, 4))
    once = standardize_columns(x)
    np.testing.assert_allclose(standardize_columns(once), once, atol=1e-12)


def test_standardize_rejects_constant_column():
    x = np.ones((5, 2))
    with pytest.raises(ValueError, match="column 0 is constant"):
        standardize_columns(x)


def test_scenario_spec_validation_and_dispatch():
    with pytest.raises(ValueError, match="divisible by 10"):
        ScenarioSpec(Scenario.ADJACENT_SIMILAR, n=10, p=15)
    with pytest.raises(ValueError, match="divisible by 5"):
        ScenarioSpec(Scenario.GROUPED_POLY, n=10, p=7)
    cell = ScenarioSpec(Scenario.GROUPED_POLY, n=12, p=10, seed=3)
    sim = cell.generate()
    assert sim.dataset.n == 12 and sim.dataset.p == 10
    again = cell.generate()
    np.testing.assert_array_equal(sim.dataset.x, again.dataset.x)


@pytest.mark.parametrize("scenario,p", [("s1", 15), ("s2", 10), ("wide", 20), ("tall", 5)])
def test_scenario_spec_groups_match_generated(scenario, p):
    spec = ScenarioSpec(Scenario(scenario), 12, p, seed=3)
    generated = spec.generate().groups
    if generated is None:
        assert spec.groups is None
    else:
        assert spec.groups.group_sizes.tolist() == generated.group_sizes.tolist()
