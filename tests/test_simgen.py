import numpy as np
import pytest

from blockgibbs import (
    RngStream,
    Scenario,
    ScenarioSpec,
    standardize_columns,
)

S1, S2 = Scenario.GROUPED_POLY, Scenario.ADJACENT_SIMILAR


def test_scenario1_shapes_and_sparsity():
    sim = ScenarioSpec(S1, 30, 25).generate(RngStream(1))
    assert sim.dataset.p == 25
    assert sim.groups.group_sizes.tolist() == [5] * 5
    assert np.count_nonzero(sim.beta_star) == 5
    assert np.all(sim.beta_star[5:] == 0.0)


def test_scenario1_columns_are_raw_powers():
    sim = ScenarioSpec(S1, 40, 15).generate(RngStream(2))
    x = sim.dataset.x
    for k in range(3):
        base = x[:, 5 * k]
        expected = base.copy()
        for j in range(1, 6):
            np.testing.assert_array_equal(x[:, 5 * k + j - 1], expected)
            np.testing.assert_allclose(expected, base ** j, rtol=1e-12)
            expected = expected * base


def test_scenario2_column_standardization():
    sim = ScenarioSpec(S2, 200, 40).generate(RngStream(4))
    x = sim.dataset.x
    assert np.all(np.abs(x.mean(axis=0)) < 1e-12)
    np.testing.assert_allclose((x * x).sum(axis=0), 200.0, rtol=1e-9)


def test_scenario2_nonzero_blocks():
    sim = ScenarioSpec(S2, 50, 40).generate(RngStream(5))
    b = sim.beta_star
    assert np.count_nonzero(b) == 8
    assert np.all(b[:4] != 0.0)
    assert np.all(b[8:12] != 0.0)
    assert np.all(b[4:8] == 0.0)
    assert np.all(b[12:] == 0.0)
    assert sim.groups is None


def test_scenario2_equicorrelation():
    # sample correlation is invariant to the per-column standardization
    sim = ScenarioSpec(S2, 2_000, 20).generate(RngStream(6))
    corr = np.corrcoef(sim.dataset.x.T)
    off = corr[np.triu_indices(20, k=1)]
    assert abs(off.mean() - 0.2) < 4 * 0.96 / np.sqrt(2_000)


def test_scenario2_requires_p_multiple_of_ten():
    with pytest.raises(ValueError, match="divisible by 10"):
        ScenarioSpec(S2, 20, 15)


def test_scenario2_requires_two_rows_and_a_column():
    # the spec is checked when it is made, before any draw
    with pytest.raises(ValueError, match="n and p must be positive"):
        ScenarioSpec(S2, 20, 0)
    with pytest.raises(ValueError, match="needs n >= 2"):
        ScenarioSpec(S2, 1, 10)


def test_extra_wide_fixed_signal_size():
    sim = ScenarioSpec(Scenario.EXTRA_WIDE, 50, 500).generate(RngStream(7))
    assert sim.dataset.p == 500
    assert np.count_nonzero(sim.beta_star) == 5
    assert np.count_nonzero(sim.beta_star) / sim.dataset.p == pytest.approx(0.01)


def test_extra_tall_small_p():
    sim = ScenarioSpec(Scenario.EXTRA_TALL, 500, 25).generate(RngStream(8))
    assert sim.dataset.n == 500
    assert sim.groups.group_sizes.tolist() == [5] * 5
    assert np.count_nonzero(sim.beta_star) == 5


def test_generators_are_reproducible():
    for scenario, n, p in [(S1, 20, 15), (S2, 20, 20), (Scenario.EXTRA_WIDE, 10, 25),
                           (Scenario.EXTRA_TALL, 60, 10)]:
        a = ScenarioSpec(scenario, n, p).generate(RngStream(99))
        b = ScenarioSpec(scenario, n, p).generate(RngStream(99))
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
    cell = ScenarioSpec(Scenario.GROUPED_POLY, n=12, p=10)
    sim = cell.generate(RngStream(3))
    assert sim.dataset.n == 12 and sim.dataset.p == 10
    again = cell.generate(RngStream(3))
    np.testing.assert_array_equal(sim.dataset.x, again.dataset.x)
    # the caller's stream is the only seed: a spec has none of its own
    with pytest.raises(TypeError):
        cell.generate()
    with pytest.raises(TypeError):
        ScenarioSpec(Scenario.GROUPED_POLY, n=12, p=10, seed=3)


def test_scenario_spec_converts_a_string_scenario():
    # a string scenario used to raise AttributeError on `scenario.value`
    with pytest.raises(ValueError, match="divisible by 5"):
        ScenarioSpec("s1", 10, 7)
    assert ScenarioSpec("s1", 10, 5).scenario is S1
    with pytest.raises(ValueError, match="not a valid Scenario"):
        ScenarioSpec("s9", 10, 5)


def test_string_s2_generates_scenario_s2():
    # a string "s2" used to make the grouped wide/tall design, in groups of five
    sim = ScenarioSpec("s2", 10, 20).generate(RngStream(0))
    ref = ScenarioSpec(S2, 10, 20).generate(RngStream(0))
    assert sim.groups is None
    np.testing.assert_array_equal(sim.dataset.x, ref.dataset.x)
    np.testing.assert_array_equal(sim.beta_star, ref.beta_star)


@pytest.mark.parametrize("field,value", [("n", 10.5), ("n", 10.0), ("p", 10.0),
                                         ("p", True), ("n", "10")])
def test_scenario_spec_rejects_non_integral_fields(field, value):
    # a float n or p used to pass the checks and fail inside numpy's draw
    # with a TypeError
    fields = {"n": 10, "p": 10, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ScenarioSpec(Scenario.EXTRA_WIDE, **fields)


def test_generators_reject_non_integral_counts():
    # p = 5K with a float K is a float p
    with pytest.raises(ValueError, match="p must be an integer"):
        ScenarioSpec(S1, 10, 5 * 2.0)
    with pytest.raises(ValueError, match="n must be an integer"):
        ScenarioSpec(Scenario.EXTRA_WIDE, 10.5, 10)
    spec = ScenarioSpec(Scenario.EXTRA_WIDE, np.int64(10), np.int32(10))
    assert spec.generate(RngStream(0)).dataset.n == 10


@pytest.mark.parametrize("scenario,p", [("s1", 15), ("s2", 10), ("wide", 20), ("tall", 5)])
def test_scenario_spec_groups_match_generated(scenario, p):
    spec = ScenarioSpec(Scenario(scenario), 12, p)
    generated = spec.generate(RngStream(3)).groups
    if generated is None:
        assert spec.groups is None
    else:
        assert spec.groups.group_sizes.tolist() == generated.group_sizes.tolist()
