import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockgibbs import Dataset, RngStream, SamplerError, cli, gen_scenario1
from blockgibbs.cli import (
    UsageError,
    main,
    read_dataset_csv,
    write_dataset_csv,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# dataset CSV round trip
# ---------------------------------------------------------------------------

def test_read_simple_csv(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2,3", "4,5,6", "7,8,9"])
    ds, groups = read_dataset_csv(path)
    assert (ds.n, ds.p) == (3, 2)
    np.testing.assert_array_equal(ds.y, [1.0, 4.0, 7.0])
    np.testing.assert_array_equal(ds.x, [[2, 3], [5, 6], [8, 9]])
    assert groups is None


def test_read_csv_with_y_col_override(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2,3", "4,5,6"])
    ds, _ = read_dataset_csv(path, y_col=2)
    np.testing.assert_array_equal(ds.y, [3.0, 6.0])
    np.testing.assert_array_equal(ds.x, [[1, 2], [4, 5]])


def test_read_csv_group_sizes(tmp_path):
    rows = [",".join(["1"] + ["0.5"] * 10)] * 3
    path = write_lines(tmp_path / "d.csv", rows)
    _, groups = read_dataset_csv(path, group_sizes=[5, 5])
    assert groups.n_groups == 2
    with pytest.raises(UsageError, match=r"group sizes sum 9 != p 10"):
        read_dataset_csv(path, group_sizes=[5, 4])


def test_read_csv_sidecar_groups(tmp_path):
    path = write_lines(tmp_path / "d.csv",
                       ["# groups: 1,1", "1,2,3", "4,5,6"])
    _, groups = read_dataset_csv(path)
    assert groups.group_sizes.tolist() == [1, 1]


def test_read_csv_reports_bad_cell_location(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2,3", "4,oops,6"])
    with pytest.raises(UsageError, match=r"row 2, column 2.*oops"):
        read_dataset_csv(path)


def test_read_csv_reports_ragged_row(tmp_path):
    path = write_lines(tmp_path / "d.csv", ["1,2,3", "4,5"])
    with pytest.raises(UsageError, match=r"row 2 has 2 cells, expected 3"):
        read_dataset_csv(path)


def test_read_csv_missing_file(tmp_path):
    with pytest.raises(UsageError, match="cannot read"):
        read_dataset_csv(str(tmp_path / "missing.csv"))


def test_dataset_csv_round_trip(tmp_path):
    sim = gen_scenario1(7, 2, RngStream(3))
    path = tmp_path / "sim.csv"
    write_dataset_csv(sim, str(path))
    ds, groups = read_dataset_csv(str(path))
    np.testing.assert_array_equal(ds.y, sim.dataset.y)
    np.testing.assert_array_equal(ds.x, sim.dataset.x)
    assert groups.group_sizes.tolist() == [5, 5]


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

RUN_REPORT_KEYS = {
    "model", "kernel", "n", "p", "seed", "iters", "burnin", "block_update",
    "rho1", "ess",
    "wall_time_seconds", "ess_per_second", "sigma2_mean", "sigma2_q025",
    "sigma2_q975",
}


def test_run_scenario_writes_report(tmp_path):
    report = tmp_path / "rep.json"
    code = main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "30", "--K", "2", "--lambda", "1",
                 "--iters", "400", "--burnin", "100", "--seed", "7",
                 "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert set(data) == RUN_REPORT_KEYS
    assert data["model"] == "group-lasso"
    assert data["kernel"] == "2bg"
    assert (data["n"], data["p"]) == (30, 10)
    assert data["seed"] == 7 and data["iters"] == 400 and data["burnin"] == 100
    assert data["block_update"] == "dense"
    assert math.isfinite(data["rho1"]) and data["ess"] > 0
    assert data["ess_per_second"] > 0 and data["sigma2_mean"] > 0


def test_run_prints_report_to_stdout(capsys):
    code = main(["run", "--model", "fused-lasso", "--kernel", "3bg",
                 "--scenario", "s2", "--n", "30", "--p", "10",
                 "--lambda1", "1", "--lambda2", "1",
                 "--iters", "300", "--burnin", "50"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == RUN_REPORT_KEYS


def test_run_on_identity_design_csv(tmp_path):
    # CGH-style file: response observed under an identity design
    rng = np.random.default_rng(0)
    y = rng.standard_normal(12)
    sim = Dataset(y=y, x=np.eye(12))
    path = tmp_path / "cgh.csv"
    write_dataset_csv(sim, str(path))
    code = main(["run", "--model", "fused-lasso", "--kernel", "3bg",
                 "--data", str(path), "--lambda1", "0.129", "--lambda2", "0.962",
                 "--iters", "300", "--burnin", "50"])
    assert code == 0


def test_run_requires_lambda_for_group_lasso(capsys):
    code = main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "20", "--K", "2",
                 "--iters", "200", "--burnin", "10"])
    assert code == 2
    assert "--lambda" in capsys.readouterr().err


def test_run_requires_exactly_one_data_source(tmp_path, capsys):
    base = ["run", "--model", "fused-lasso", "--kernel", "2bg",
            "--lambda1", "1", "--lambda2", "1"]
    assert main(base) == 2
    path = write_lines(tmp_path / "d.csv", ["1,2,3"] * 4)
    assert main(base + ["--data", path, "--scenario", "s1", "--n", "4"]) == 2


@pytest.mark.parametrize("chain", [["--iters", "50", "--burnin", "0"],
                                   ["--iters", "1000", "--burnin", "0", "--thin", "20"]])
def test_run_too_few_kept_draws_exits_2(capsys, chain):
    code = main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "20", "--K", "2", "--lambda", "1",
                 *chain])
    assert code == 2
    err = capsys.readouterr().err
    assert "keeps 50 draws" in err and "at least 100" in err
    assert "Traceback" not in err


def test_bench_too_few_kept_draws_exits_2(tmp_path, capsys):
    code = main(["bench", "--model", "group-lasso", "--scenario", "s1",
                 "--n", "20", "--K", "1", "--reps", "1", "--iters", "99",
                 "--burnin", "0", "--out-raw", str(tmp_path / "r.csv"),
                 "--out-agg", str(tmp_path / "a.csv")])
    assert code == 2
    assert "keeps 99 draws" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--lambda", "1", "--xi", "nan"],
    ["--lambda", "inf"],
    ["--lambda", "nan"],
    ["--lambda", "1", "--alpha", "inf"],
])
def test_run_non_finite_hyperparameters_exit_2(capsys, flags):
    code = main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "20", "--K", "2",
                 "--iters", "300", "--burnin", "0", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--lambda", "nan"],
    ["--lambda", "inf"],
    ["--lambda", "0"],
    ["--lambda", "-1"],
    ["--xi", "nan"],
    ["--alpha", "-1"],
    ["--model", "sparse-group-lasso", "--lambda2", "inf"],
    ["--model", "fused-lasso", "--scenario", "s2", "--p", "10", "--lambda1", "nan"],
])
def test_bench_bad_hyperparameters_exit_2_before_any_job(tmp_path, monkeypatch,
                                                         capsys, flags):
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    argv, raw, _ = bench_args(tmp_path, "h")
    code = main(argv + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err and "Traceback" not in err
    assert not raw.exists()


def test_run_single_row_s2_exits_2(capsys):
    code = main(["run", "--model", "fused-lasso", "--kernel", "2bg",
                 "--scenario", "s2", "--n", "1", "--p", "10",
                 "--lambda1", "1", "--lambda2", "1",
                 "--iters", "300", "--burnin", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "n >= 2" in err and "Traceback" not in err


def test_run_negative_seed_exits_2(capsys):
    code = main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "20", "--K", "2", "--lambda", "1",
                 "--iters", "300", "--burnin", "0", "--seed", "-1"])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("model,update", [("group-lasso", "nspace"),
                                          ("sparse-group-lasso", "nspace"),
                                          ("fused-lasso", "dense")])
def test_run_report_names_block_update_for_p_above_n(capsys, model, update):
    code = main(["run", "--model", model, "--kernel", "3bg",
                 "--scenario", "wide", "--n", "8", "--p", "20", "--lambda", "1",
                 "--lambda1", "1", "--lambda2", "1",
                 "--iters", "300", "--burnin", "50"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["block_update"] == update


GOOD_VALUES = st.sampled_from([1e-3, 0.5, 1.0, 4.0])
BAD_VALUES = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=st.sampled_from(["group-lasso", "sparse-group-lasso", "fused-lasso"]),
       kernel=st.sampled_from(["2bg", "3bg"]),
       scenario=st.sampled_from(["s1", "s2", "wide", "tall"]),
       n=st.integers(-1, 12), dim=st.sampled_from([-5, 0, 3, 5, 10, 10, 20, 20]),
       hyper=st.fixed_dictionaries({"lambda": GOOD_VALUES, "lambda1": GOOD_VALUES,
                                    "lambda2": GOOD_VALUES,
                                    "alpha": st.sampled_from([0.0, 1.0]),
                                    "xi": st.sampled_from([0.0, 0.5])}),
       bad=st.sampled_from([None, None, "lambda", "lambda1", "lambda2", "alpha", "xi"]),
       bad_value=BAD_VALUES,
       chain=st.sampled_from([(200, 0, 1), (150, 20, 1), (120, 0, 1), (200, 0, 2),
                              (0, 0, 1), (99, 0, 1), (130, -1, 1), (200, 0, 0)]))
def test_run_exit_code_property(model, kernel, scenario, n, dim, hyper, bad,
                                bad_value, chain):
    # any combination of run arguments ends in 0, 2 or 3, never a traceback;
    # at most one hyperparameter is made invalid, so that most runs get as
    # far as the sampler; scenario s1 reads dim as K (p = 5K) and the others
    # as p, so p > n occurs
    if bad is not None:
        hyper[bad] = bad_value
    iters, burnin, thin = chain
    argv = ["run", "--model", model, "--kernel", kernel, "--scenario", scenario,
            "--n", str(n), "--K" if scenario == "s1" else "--p", str(dim),
            "--iters", str(iters), "--burnin", str(burnin), "--thin", str(thin)]
    argv += [f"--{name}={value}" for name, value in hyper.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["iters"] == iters


def test_run_bad_flag_exits_2():
    assert main(["run", "--model", "no-such-model", "--kernel", "2bg"]) == 2


def test_run_writes_draws(tmp_path):
    draws = tmp_path / "draws.csv"
    code = main(["run", "--model", "sparse-group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "25", "--K", "1",
                 "--lambda1", "1", "--lambda2", "1", "--iters", "250",
                 "--burnin", "50", "--store-beta", "--draws", str(draws),
                 "--report", str(tmp_path / "r.json")])
    assert code == 0
    with open(draws) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma2"] + [f"beta_{j}" for j in range(5)]
    assert len(rows) == 1 + 200


# ---------------------------------------------------------------------------
# bench subcommand
# ---------------------------------------------------------------------------

def bench_args(tmp_path, tag, extra=()):
    raw = tmp_path / f"raw_{tag}.csv"
    agg = tmp_path / f"agg_{tag}.csv"
    argv = ["bench", "--model", "group-lasso", "--scenario", "s1",
            "--n", "20", "--K", "1,2", "--reps", "3",
            "--iters", "300", "--burnin", "50", "--seed", "11",
            "--out-raw", str(raw), "--out-agg", str(agg), *extra]
    return argv, raw, agg


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_bench_row_count_and_aggregate(tmp_path):
    argv, raw, agg = bench_args(tmp_path, "a")
    assert main(argv) == 0
    rows = read_rows(raw)
    assert len(rows) == 12  # 2 cells x 3 reps x 2 kernels
    assert all(r["status"] == "ok" for r in rows)

    agg_rows = read_rows(agg)
    assert len(agg_rows) == 4  # 2 cells x 2 kernels
    # aggregate log10 mean must match a hand average of the raw rows
    for arow in agg_rows:
        sel = [r for r in rows
               if (r["kernel"], r["n"], r["p"]) == (arow["kernel"], arow["n"], arow["p"])]
        hand = np.mean([math.log10(float(r["ess_per_second"])) for r in sel])
        assert float(arow["log10_ess_per_sec_mean"]) == pytest.approx(hand, rel=1e-3)
        assert float(arow["rho1_se"]) > 0.0


def test_bench_se_zero_iff_single_rep(tmp_path):
    argv, raw, agg = bench_args(tmp_path, "b", extra=["--reps", "1"])
    argv[argv.index("--reps") + 1] = "1"
    assert main(argv) == 0
    for arow in read_rows(agg):
        assert float(arow["rho1_se"]) == 0.0
        assert float(arow["log10_ess_per_sec_se"]) == 0.0


def test_bench_deterministic_up_to_timing(tmp_path):
    drop = {"wall_time_seconds", "ess_per_second"}
    argv1, raw1, _ = bench_args(tmp_path, "c1")
    argv2, raw2, _ = bench_args(tmp_path, "c2")
    assert main(argv1) == 0
    assert main(argv2) == 0
    rows1 = [{k: v for k, v in r.items() if k not in drop} for r in read_rows(raw1)]
    rows2 = [{k: v for k, v in r.items() if k not in drop} for r in read_rows(raw2)]
    assert rows1 == rows2


def test_bench_parallel_jobs_match_serial(tmp_path):
    drop = {"wall_time_seconds", "ess_per_second"}
    argv1, raw1, _ = bench_args(tmp_path, "d1")
    argv2, raw2, _ = bench_args(tmp_path, "d2", extra=["--jobs", "2"])
    assert main(argv1) == 0
    assert main(argv2) == 0
    rows1 = [{k: v for k, v in r.items() if k not in drop} for r in read_rows(raw1)]
    rows2 = [{k: v for k, v in r.items() if k not in drop} for r in read_rows(raw2)]
    assert rows1 == rows2


def test_bench_records_failures_and_exit_code(tmp_path, monkeypatch):
    # every chain fails at run time: all rows are recorded as errors -> exit 3
    def failing_chain(*args, **kwargs):
        raise SamplerError(0, "injected failure")

    monkeypatch.setattr(cli, "run_chain", failing_chain)
    argv, raw, _ = bench_args(tmp_path, "e")
    assert main(argv) == 3
    rows = read_rows(raw)
    assert len(rows) == 12
    assert all(r["status"] == "error" and r["error"] for r in rows)
    assert all(r["rho1"] == "" for r in rows)


def test_bench_group_model_rejects_ungrouped_scenario(capsys):
    code = main(["bench", "--model", "group-lasso", "--scenario", "s2",
                 "--n", "20", "--p", "10", "--reps", "1",
                 "--out-raw", "x.csv", "--out-agg", "y.csv"])
    assert code == 2


def test_long_run_flag_sets_defaults():
    from blockgibbs.cli import _resolve_run_config, build_parser
    parser = build_parser()
    args = parser.parse_args(["run", "--model", "group-lasso", "--kernel",
                              "2bg", "--long-run"])
    cfg = _resolve_run_config(args)
    assert (cfg.n_iter, cfg.burn_in) == (100_000, 10_000)
    args = parser.parse_args(["run", "--model", "group-lasso", "--kernel",
                              "2bg", "--long-run", "--iters", "50000"])
    cfg = _resolve_run_config(args)
    assert (cfg.n_iter, cfg.burn_in) == (50_000, 10_000)


def test_run_runtime_failure_exits_3(tmp_path, capsys):
    # an all-zero response with xi = 0 aborts the sampler at iteration 0
    path = write_lines(tmp_path / "zero.csv", ["0,0", "0,0", "0,0"])
    code = main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--data", str(path), "--groups", "1", "--lambda", "1",
                 "--iters", "200", "--burnin", "10"])
    assert code == 3
    assert "iteration" in capsys.readouterr().err
