import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from blockgibbs import (
    DimensionMismatchError,
    GroupStructure,
    ModelKind,
    ModelSpec,
    RngStream,
    SamplerError,
    Scenario,
    ScenarioSpec,
    cli,
)
from blockgibbs.cli import (
    UsageError,
    main,
    read_dataset_csv,
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


def test_groups_line_is_checked_only_for_the_group_models(tmp_path, capsys):
    # the reader leaves coverage to ModelSpec.validate_for, which run_chain
    # calls before it draws anything: a fused model ignores group sizes, so
    # sizes that do not cover p are no reason to refuse it
    rng = np.random.default_rng(4)
    rows = [",".join(map(repr, rng.standard_normal(3).tolist())) for _ in range(8)]
    path = write_lines(tmp_path / "f.csv", ["# groups: 3", *rows])
    chain = ["--kernel", "2bg", "--data", path, "--iters", "150", "--burnin", "20"]
    assert main(["run", "--model", "fused-lasso", "--lambda1", "1", "--lambda2", "1",
                 *chain]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 2
    for groups in ([], ["--groups", "1,1,1"]):
        assert main(["run", "--model", "group-lasso", "--lambda", "1", *chain,
                     *groups]) == 2
        assert capsys.readouterr().err == ("error: group sizes sum vs coefficient "
                                           "count: expected length 2, got 3\n")


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


RUN_DATA = ["run", "--model", "group-lasso", "--kernel", "2bg", "--lambda", "1",
            "--iters", "120", "--burnin", "10"]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_run_data_non_finite_cell_exits_2(tmp_path, capsys, cell):
    path = write_lines(tmp_path / "d.csv", ["# groups: 2", "1,2,3", f"4,5,{cell}"])
    assert main(RUN_DATA + ["--data", path]) == 2
    err = capsys.readouterr().err
    assert f"row 3, column 3: non-finite cell '{cell}'" in err
    assert "Traceback" not in err


def test_run_data_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_bytes(b"# groups: 2\n1,2,3\n4,\xff5,6\n")
    assert main(RUN_DATA + ["--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and "Traceback" not in err


def test_run_data_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start with U+FEFF
    rows = b"1.0,2.0\n2.0,3.0\n1.5,1.0\n"
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + rows)
    (tmp_path / "plain.csv").write_bytes(rows)
    bom, _ = read_dataset_csv(str(tmp_path / "bom.csv"))
    plain, _ = read_dataset_csv(str(tmp_path / "plain.csv"))
    np.testing.assert_array_equal(bom.y, plain.y)
    np.testing.assert_array_equal(bom.x, plain.x)
    argv = RUN_DATA + ["--data", str(tmp_path / "bom.csv"), "--groups", "1"]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_run_data_y_col_out_of_range_exits_2(tmp_path, capsys):
    path = write_lines(tmp_path / "d.csv", ["1,2,3", "4,5,6", "7,8,8"])
    assert main(RUN_DATA + ["--groups", "2", "--data", path, "--y-col", "5"]) == 2
    assert capsys.readouterr().err == "error: --y-col 5 out of range for 3 columns\n"


def test_run_data_with_undiagnosable_draws_exits_3(tmp_path, capsys):
    # a response of 5e-123 on a zero design gives sigma2 draws near 1e-245,
    # whose autocovariances underflow to zero, so ESS is undefined
    path = write_lines(tmp_path / "d.csv", ["5.4200639463156035e-123,0"])
    assert main(RUN_DATA + ["--data", path, "--groups", "1"]) == 3
    err = capsys.readouterr().err
    assert "cannot diagnose the chain: zero variance" in err
    assert "Traceback" not in err


BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "", " ",
                             "abc", "1,5", "0x10", "1e300", "1e-320", "0"])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(0, 7), st.integers(1, 5)),
       values=st.lists(st.floats(-100.0, 100.0), min_size=35, max_size=35),
       bad_cell=st.one_of(st.none(), st.tuples(st.integers(0, 6), st.integers(0, 4),
                                               BAD_CELLS)),
       ragged=st.one_of(st.none(), st.none(), st.integers(0, 6)),
       groups=st.one_of(st.none(), st.just("fit"),
                        st.lists(st.integers(-1, 4), max_size=4)),
       junk=st.one_of(st.none(), st.none(), st.none(),
                      st.tuples(st.integers(0, 200),
                                st.sampled_from([b"\xff", b"\xc3(", b"\x80"]))),
       model=st.sampled_from(["group-lasso", "sparse-group-lasso", "fused-lasso"]))
def test_run_data_exit_code_property(tmp_path, shape, values, bad_cell, ragged,
                                     groups, junk, model):
    # any file content ends in 0, 2 or 3, never a traceback: a numeric table
    # with at most one bad cell (non-finite, empty, non-numeric), possibly a
    # short row, a `# groups:` line, and bytes that are not UTF-8
    n, width = shape
    rows = [[repr(v) for v in values[i * width:(i + 1) * width]] for i in range(n)]
    if bad_cell is not None and bad_cell[0] < n and bad_cell[1] < width:
        rows[bad_cell[0]][bad_cell[1]] = bad_cell[2]
    if ragged is not None and ragged < n:
        rows[ragged].pop()
    lines = [",".join(row) for row in rows]
    if groups == "fit":
        groups = [1] * (width - 1)
    if groups is not None:
        lines.insert(0, "# groups: " + ",".join(map(str, groups)))
    data = ("\n".join(lines) + "\n").encode()
    if junk is not None:
        at, raw = junk
        data = data[:at] + raw + data[at:]
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    argv = ["run", "--model", model, "--kernel", "2bg", "--data", str(path),
            "--lambda", "1", "--lambda1", "1", "--lambda2", "1",
            "--iters", "120", "--burnin", "10"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_dataset_csv_round_trip(tmp_path):
    # 17 significant digits read back exactly, and the `# groups:` line
    # gives the group sizes
    sim = ScenarioSpec(Scenario.GROUPED_POLY, 7, 10).generate(RngStream(3))
    path = tmp_path / "sim.csv"
    np.savetxt(path, np.column_stack((sim.dataset.y, sim.dataset.x)), fmt="%.17g",
               delimiter=",", header="groups: 5,5")
    assert path.read_text().startswith("# groups: 5,5\n")
    ds, groups = read_dataset_csv(str(path))
    np.testing.assert_array_equal(ds.y, sim.dataset.y)
    np.testing.assert_array_equal(ds.x, sim.dataset.x)
    assert groups.group_sizes.tolist() == [5, 5]


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------

RUN_REPORT_KEYS = {
    "model", "kernel", "n", "p", "seed", "iters", "burnin", "thin", "block_update",
    "blas_threads", "blas_libraries", "rho1", "ess",
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
    assert data["thin"] == 1
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
    path = tmp_path / "cgh.csv"
    np.savetxt(path, np.column_stack((y, np.eye(12))), fmt="%.17g", delimiter=",")
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


PENALTY_FLAGS = {"lam": "--lambda", "lam1": "--lambda1", "lam2": "--lambda2"}


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in ModelKind
                                       for name in kind.penalties])
def test_missing_penalty_names_field_and_flag(tmp_path, monkeypatch, capsys,
                                              kind, name):
    # ModelSpec names the field; run (flag omitted) and bench (flag given
    # no value, as bench defaults every penalty to 1) name the flag
    given = [field for field in kind.penalties if field != name]
    groups = GroupStructure([5]) if kind.grouped else None
    with pytest.raises(ValueError, match=f"^{name} must be > 0 and finite, got None"):
        ModelSpec(kind, groups=groups, **{field: 1.0 for field in given})
    flags = [f"{PENALTY_FLAGS[field]}=1" for field in given]
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    assert main(["run", "--model", kind.value, "--kernel", "2bg", "--scenario",
                 "s1", "--n", "20", "--K", "1", *flags]) == 2
    err = capsys.readouterr().err
    assert f"requires {PENALTY_FLAGS[name]}" in err and "Traceback" not in err
    argv, raw, _ = bench_args(tmp_path, "m")
    argv[argv.index("--model") + 1] = kind.value
    assert main(argv + [f"{PENALTY_FLAGS[name]}="]) == 2
    err = capsys.readouterr().err
    assert f"argument {PENALTY_FLAGS[name]}" in err and "Traceback" not in err
    assert not raw.exists()
    # a bad value is named by its flag too, with one message from run and bench
    for value in (0.0, -1.0, math.nan, math.inf):
        flags = [f"{PENALTY_FLAGS[field]}={value if field == name else 1}"
                 for field in kind.penalties]
        assert main(["run", "--model", kind.value, "--kernel", "2bg", "--scenario",
                     "s1", "--n", "20", "--K", "1", *flags]) == 2
        assert main(argv + flags) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {PENALTY_FLAGS[name]} must be > 0 and finite, "
                         f"got {value}"] * 2
        assert not raw.exists()


@pytest.mark.parametrize("kind,name", [(kind, name) for kind in ModelKind
                                       for name in kind.penalties])
def test_penalty_whose_square_underflows_exits_2(tmp_path, monkeypatch, capsys,
                                                 kind, name):
    # 1e-300 squares to 0 and is rejected by its flag before any chain runs;
    # 1e-160 squares to a subnormal > 0 and runs
    def flags(value):
        return [f"{PENALTY_FLAGS[field]}={value if field == name else 1}"
                for field in kind.penalties]

    run = ["run", "--model", kind.value, "--kernel", "2bg", "--scenario", "s1",
           "--n", "20", "--K", "1", "--iters", "200", "--burnin", "50"]
    argv, raw, _ = bench_args(tmp_path, "u")
    argv[argv.index("--model") + 1] = kind.value
    real_chain = cli.run_chain
    monkeypatch.setattr(cli, "run_chain", lambda *args, **kw: pytest.fail("a chain ran"))
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    assert main(run + flags(1e-300)) == 2
    assert main(argv + flags(1e-300)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {PENALTY_FLAGS[name]} squared underflows to 0, "
                     f"got 1e-300"] * 2
    assert not raw.exists()
    monkeypatch.setattr(cli, "run_chain", real_chain)
    assert main(run + flags(1e-160)) == 0


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
    ["--jobs", "0"],
    ["--jobs", "-5"],
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
       ns=st.lists(st.integers(-1, 12), min_size=1, max_size=2),
       dim=st.sampled_from([-5, 0, 3, 5, 10, 10, 20, 20]),
       hyper=st.fixed_dictionaries({"lambda": GOOD_VALUES, "lambda1": GOOD_VALUES,
                                    "lambda2": GOOD_VALUES,
                                    "alpha": st.sampled_from([0.0, 1.0]),
                                    "xi": st.sampled_from([0.0, 0.5])}),
       bad=st.sampled_from([None, None, "lambda", "lambda1", "lambda2", "alpha", "xi"]),
       bad_value=BAD_VALUES,
       chain=st.sampled_from([(200, 0, 1), (150, 20, 1), (120, 0, 1), (200, 0, 2),
                              (0, 0, 1), (99, 0, 1), (130, -1, 1), (200, 0, 0)]),
       groups=st.sampled_from([None, None, "5", "0,2", ",", "x", "1,,x", "1.5"]))
def test_run_exit_code_property(model, kernel, scenario, ns, dim, hyper, bad,
                                bad_value, chain, groups):
    # any combination of run arguments ends in 0, 2 or 3, never a traceback;
    # at most one hyperparameter is made invalid, so that most runs get as
    # far as the sampler; scenario s1 reads dim as K (p = 5K) and the others
    # as p, so p > n occurs; run takes one --n value, and --groups belongs to
    # --data, so with --scenario it exits 2
    if bad is not None:
        hyper[bad] = bad_value
    iters, burnin, thin = chain
    argv = ["run", "--model", model, "--kernel", kernel, "--scenario", scenario,
            "--n=" + ",".join(map(str, ns)), "--K" if scenario == "s1" else "--p",
            str(dim), "--iters", str(iters), "--burnin", str(burnin),
            "--thin", str(thin)]
    argv += [f"--{name}={value}" for name, value in hyper.items()]
    if groups is not None:
        argv.append(f"--groups={groups}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if len(ns) > 1 or groups is not None:
        assert code == 2
    if code == 0:
        report = json.loads(out.getvalue())
        assert (report["iters"], report["thin"]) == (iters, thin)


def test_run_bad_flag_exits_2():
    assert main(["run", "--model", "no-such-model", "--kernel", "2bg"]) == 2


RUN_S1 = ["run", "--model", "group-lasso", "--kernel", "2bg", "--scenario", "s1",
          "--n", "20", "--K", "1", "--lambda", "1", "--iters", "150", "--burnin", "20"]


@pytest.mark.parametrize("source,flags,named", [
    ("scenario", ["--groups", "5"], "--groups"),
    ("scenario", ["--y-col", "0"], "--y-col"),
    ("scenario", ["--groups", "5", "--y-col", "1"], "--groups and --y-col"),
    ("data", ["--n", "3"], "--n"),
    ("data", ["--K", "1"], "--K"),
    ("data", ["--p", "2"], "--p"),
])
def test_run_rejects_flags_of_the_other_data_source(tmp_path, capsys, source, flags,
                                                    named):
    # these flags used to be ignored, and the run exited 0
    if source == "scenario":
        argv = RUN_S1 + flags
    else:
        path = write_lines(tmp_path / "d.csv", ["1,2,3", "4,5,6", "7,8,8"])
        argv = RUN_DATA + ["--groups", "2", "--data", path] + flags
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {named} cannot be used with --{source}\n"


def test_run_y_col_zero_with_data_is_the_default(tmp_path, capsys):
    path = write_lines(tmp_path / "d.csv", ["1,2,3", "4,5,6", "7,8,8", "2,1,0"] * 30)
    argv = RUN_DATA + ["--groups", "2", "--data", path]
    assert main(argv) == 0
    default = json.loads(capsys.readouterr().out)
    assert main(argv + ["--y-col", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["sigma2_mean"] == default["sigma2_mean"]


def test_run_takes_one_cell(capsys):
    # --n, --K and --p are the list flags bench takes, with one value each
    argv = list(RUN_S1)
    argv[argv.index("--n") + 1] = "20,30"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run takes one value each for --n and --K/--p")
    assert "Traceback" not in err


@pytest.mark.parametrize("groups,line", [(["--groups", "0,2"], None),
                                         (["--groups", ","], None),
                                         (["--groups", "1" + "0" * 20], None),
                                         ([], "# groups: 0,x")])
def test_run_bad_group_sizes_exit_2(tmp_path, capsys, groups, line):
    header = [] if line is None else [line]
    path = write_lines(tmp_path / "d.csv", header + ["1,2,3", "4,5,6", "7,8,8"])
    assert main(RUN_DATA + ["--data", path, *groups]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("exc,code", [
    (DimensionMismatchError("beta length", 3, 2), 2),
    (SamplerError(4, "injected"), 3),
])
def test_run_maps_library_errors_to_exit_codes(monkeypatch, capsys, exc, code):
    # a DimensionMismatchError is both a ValueError and a BlockGibbsError;
    # main maps ValueError (a rejected input) to 2 before runtime failures
    def failing_chain(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_chain", failing_chain)
    assert main(RUN_S1) == code
    err = capsys.readouterr().err
    assert str(exc) in err and "Traceback" not in err


def test_run_too_many_iterations_to_store_exits_3(capsys):
    # the draw arrays of 10^18 iterations cannot be allocated: a runtime
    # failure, reported without a traceback
    code = main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "20", "--K", "1", "--lambda", "1",
                 "--iters", "1000000000000000000"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: ") and "Traceback" not in err


def test_run_store_beta_without_draws_exits_2_before_any_chain(monkeypatch, capsys):
    # the report reads only sigma2: stored beta draws would go nowhere
    monkeypatch.setattr(cli, "run_chain", lambda *a, **k: pytest.fail("chain ran"))
    assert main(RUN_S1 + ["--store-beta"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --store-beta needs --draws\n"


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


def test_run_draws_csv_parses_back_to_the_chain_draws(tmp_path, monkeypatch):
    # the 17-digit cells round-trip: each parses back to the very draw
    chains = []

    def recording_chain(*args, **kwargs):
        chains.append(real_chain(*args, **kwargs))
        return chains[-1]

    real_chain = cli.run_chain
    monkeypatch.setattr(cli, "run_chain", recording_chain)
    draws = tmp_path / "draws.csv"
    assert main(["run", "--model", "sparse-group-lasso", "--kernel", "3bg",
                 "--scenario", "wide", "--n", "6", "--p", "10",
                 "--lambda1", "1", "--lambda2", "1", "--iters", "150",
                 "--burnin", "20", "--store-beta", "--draws", str(draws),
                 "--report", str(tmp_path / "r.json")]) == 0
    with open(draws) as fh:
        rows = list(csv.reader(fh))[1:]
    parsed = np.array([[float(cell) for cell in row] for row in rows])
    (out,) = chains
    expected = np.column_stack((out.sigma2_draws, out.beta_draws))
    assert parsed.shape == expected.shape
    assert parsed.tobytes() == expected.tobytes()


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


# blake2b of the raw CSV of one bench grid (s1, n 20, K 2,3, 2 reps, 300
# iterations), wall-time columns dropped; generated at commit de058e0
BENCH_GRID_DIGEST = ("bd015be3f9c4c682c59d1abb3cd408eb7731ee1cd24943b45740dbaf810b95ff"
                     "ebd5e50a62c5398a7cbee81785857e24d9b09c0fc3bf5a8ba160438ed7d5948b")


def test_bench_draw_derived_output_is_pinned(tmp_path):
    # a change to any dataset, seed or draw of the grid fails here
    drop = {"wall_time_seconds", "ess_per_second"}
    argv, raw, _ = bench_args(tmp_path, "pin")
    argv[argv.index("--K") + 1] = "2,3"
    argv[argv.index("--reps") + 1] = "2"
    assert main(argv) == 0
    text = "\n".join(",".join(f"{k}={v}" for k, v in row.items() if k not in drop)
                     for row in read_rows(raw))
    assert hashlib.blake2b(text.encode()).hexdigest() == BENCH_GRID_DIGEST


def test_bench_parallel_jobs_match_serial(tmp_path):
    drop = {"wall_time_seconds", "ess_per_second"}
    argv1, raw1, _ = bench_args(tmp_path, "d1")
    argv2, raw2, _ = bench_args(tmp_path, "d2", extra=["--jobs", "2"])
    assert main(argv1) == 0
    assert main(argv2) == 0
    rows1 = [{k: v for k, v in r.items() if k not in drop} for r in read_rows(raw1)]
    rows2 = [{k: v for k, v in r.items() if k not in drop} for r in read_rows(raw2)]
    assert rows1 == rows2


def test_bench_chain_seed_depends_only_on_the_kernel(tmp_path):
    # each kernel's rows are the same whichever other kernels --kernels lists
    # and in whatever order
    keep = ("model", "kernel", "n", "p", "rep", "seed", "rho1", "ess")
    by_kernel = {}
    for tag, kernels in (("all", None), ("3", "3bg"), ("32", "3bg,2bg")):
        argv, raw, _ = bench_args(tmp_path, tag)
        argv[argv.index("--reps") + 1] = "2"
        if kernels is not None:
            argv += ["--kernels", kernels]
        assert main(argv) == 0
        for row in read_rows(raw):
            by_kernel.setdefault((tag, row["kernel"]), []).append(
                {k: row[k] for k in keep})
    assert by_kernel["3", "3bg"] == by_kernel["all", "3bg"]
    assert by_kernel["32", "3bg"] == by_kernel["all", "3bg"]
    assert by_kernel["32", "2bg"] == by_kernel["all", "2bg"]
    assert by_kernel["all", "2bg"][0]["seed"] != by_kernel["all", "3bg"][0]["seed"]


@pytest.mark.parametrize("case", ["bench", "report-draws", "data-draws"])
def test_output_path_naming_another_files_path_exits_2(tmp_path, monkeypatch,
                                                        capsys, case):
    # two flags naming one file (also through another spelling of its path)
    # exit 2 before any chain runs, and leave every file as it was
    monkeypatch.setattr(cli, "run_chain", lambda *args, **kw: pytest.fail("a chain ran"))
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    (tmp_path / "sub").mkdir()
    target = tmp_path / "f.csv"
    other = str(tmp_path / "sub" / ".." / "f.csv")
    run = ["run", "--model", "group-lasso", "--kernel", "2bg", "--lambda", "1"]
    s1 = ["--scenario", "s1", "--n", "20", "--K", "1"]
    if case == "bench":
        flags = "--out-raw and --out-agg"
        argv = ["bench", "--model", "group-lasso", *s1, "--reps", "1",
                "--out-raw", str(target), "--out-agg", other]
    elif case == "report-draws":
        flags = "--report and --draws"
        argv = run + s1 + ["--report", str(target), "--draws", other]
    else:
        flags = "--data and --draws"
        write_lines(target, ["1,2", "2,1", "3,4"])
        argv = run + ["--data", str(target), "--groups", "1", "--draws", other]
    before = target.read_bytes() if target.exists() else None
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {flags} name the same file: {other}\n"
    assert (target.read_bytes() if target.exists() else None) == before


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


def test_bench_group_model_rejects_ungrouped_scenario(tmp_path, monkeypatch,
                                                      capsys):
    # run and bench give a group model on s2 the same exit and message
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    raw = tmp_path / "r.csv"
    for model in ("group-lasso", "sparse-group-lasso"):
        common = ["--model", model, "--scenario", "s2", "--n", "20", "--p", "10",
                  "--lambda", "1", "--lambda1", "1", "--lambda2", "1"]
        assert main(["run", "--kernel", "2bg", *common]) == 2
        assert main(["bench", "--reps", "1", "--out-raw", str(raw),
                     "--out-agg", str(tmp_path / "a.csv"), *common]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert "requires group sizes" in lines[0] and "s1, wide or tall" in lines[0]
    assert not raw.exists()


def test_fused_model_ignores_the_cell_groups(monkeypatch):
    specs = []

    def recording_chain(kernel, spec, *args, **kwargs):
        specs.append(spec)
        raise SamplerError(0, "recorded")

    monkeypatch.setattr(cli, "run_chain", recording_chain)
    common = ["--model", "fused-lasso", "--scenario", "s1", "--n", "20",
              "--lambda1", "1", "--lambda2", "1"]
    assert main(["run", "--kernel", "2bg", "--K", "2", *common]) == 3
    args = cli.build_parser().parse_args(
        ["bench", "--K", "1,2", "--out-raw", "r", "--out-agg", "a", *common])
    specs += cli._grid_from_args(args).models
    assert len(specs) == 3
    assert all(spec.groups is None for spec in specs)


@pytest.mark.parametrize("lists", [
    ["--n", "20,20", "--K", "1", "--kernels", "2bg"],
    ["--n", "20", "--K", "1,1", "--kernels", "2bg"],
    ["--n", "20", "--K", "1", "--kernels", "2bg, 2bg"],
    ["--n", "20,20", "--K", "1", "--kernels", "2bg,2bg"],
    ["--scenario", "wide", "--n", "20", "--p", "10,5,10"],
])
def test_bench_repeated_list_entry_exits_2_before_any_job(tmp_path, monkeypatch,
                                                          capsys, lists):
    # a repeated entry would pool two cells' replications in one aggregate row
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    raw, agg = tmp_path / "r.csv", tmp_path / "a.csv"
    code = main(["bench", "--model", "group-lasso", "--scenario", "s1",
                 "--reps", "2", *lists, "--out-raw", str(raw), "--out-agg", str(agg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "repeats an entry" in err and "Traceback" not in err
    assert not raw.exists() and not agg.exists()


@pytest.mark.parametrize("kernels,message", [("2bg,4bg", "'4bg' is not a valid"),
                                             (",", "need at least one kernel"),
                                             ("2bg, 2bg", "repeats an entry: 2bg,2bg")])
def test_bench_bad_kernel_list_exits_2_before_any_job(tmp_path, monkeypatch, capsys,
                                                      kernels, message):
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    argv, raw, agg = bench_args(tmp_path, "k", extra=[f"--kernels={kernels}"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err and "Traceback" not in err
    assert not raw.exists() and not agg.exists()


def test_bench_without_scenario_exits_2_before_any_job(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    argv, raw, agg = bench_args(tmp_path, "s")
    del argv[argv.index("--scenario"):argv.index("--scenario") + 2]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bench requires --scenario\n"
    assert not raw.exists() and not agg.exists()


_real_bench_job = cli._run_bench_job


def _bench_job_whose_worker_dies(job):
    if job[2] == 1:  # rep 1: the worker process ends as if killed
        os._exit(9)
    return _real_bench_job(job)


def test_bench_worker_that_dies_exits_3(tmp_path, monkeypatch, capsys):
    # the pool's BrokenProcessPool used to escape main with a traceback
    monkeypatch.setattr(cli, "_run_bench_job", _bench_job_whose_worker_dies)
    argv, _, _ = bench_args(tmp_path, "dead", extra=["--jobs", "2"])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: a bench worker process died")
    assert "Traceback" not in err


def test_bench_empty_n_list_exits_2_before_writing(tmp_path, capsys):
    argv, raw, agg = bench_args(tmp_path, "f")
    argv[argv.index("--n") + 1] = ","
    assert main(argv) == 2
    assert "requires --n" in capsys.readouterr().err
    assert not raw.exists() and not agg.exists()


BENCH_DIMS = {"s1": [1, 2], "s2": [10, 20], "wide": [5, 20], "tall": [5, 10]}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(model=st.sampled_from(["group-lasso", "sparse-group-lasso", "fused-lasso"]),
       scenario=st.sampled_from(["s1", "s2", "wide", "tall"]),
       ns=st.lists(st.sampled_from([2, 5, 8, 12]), min_size=1, max_size=2),
       dims=st.lists(st.integers(0, 1), min_size=1, max_size=2),
       reps=st.integers(1, 2),
       kernels=st.lists(st.sampled_from(["2bg", "3bg", " 3bg", ""]), min_size=1,
                        max_size=3),
       chain=st.sampled_from([(130, 10, 1), (250, 20, 2)]),
       bad=st.sampled_from([None, None, None, "n", "dims", "reps", "kernels",
                            "thin", "repeat"]),
       bad_value=st.sampled_from([[], [0], [-1], [3], None]),
       bad_kernels=st.sampled_from(["", ",", "4bg", "2bg,4bg", " , "]))
def test_bench_exit_code_property(tmp_path, model, scenario, ns, dims, reps,
                                  kernels, chain, bad, bad_value, bad_kernels):
    # any bench arguments end in 0, 2 or 3, never a traceback, and exit 2
    # writes nothing; at most one argument is made invalid (an empty or a
    # non-positive list, a missing --K or --p, no reps, an empty or unknown
    # kernel list, too few kept draws, a repeated list entry), and scenario
    # s2 is invalid for the group models
    iters, burnin, thin = chain
    dims = [BENCH_DIMS[scenario][i] for i in dims]
    kernel_text = ",".join(kernels)
    if bad == "n":
        ns = bad_value or []
    elif bad == "dims":
        dims = bad_value
    elif bad == "reps":
        reps = -1 if bad_value is None else 0
    elif bad == "kernels":
        kernel_text = bad_kernels
    elif bad == "thin":
        thin = 0 if bad_value is None else 3
    elif bad == "repeat":
        ns = ns + ns[:1]
    raw, agg = tmp_path / "raw.csv", tmp_path / "agg.csv"
    for path in (raw, agg):
        path.unlink(missing_ok=True)
    argv = ["bench", "--model", model, "--scenario", scenario,
            "--n=" + (",".join(map(str, ns)) or ","), f"--reps={reps}",
            f"--kernels={kernel_text}", f"--iters={iters}",
            f"--burnin={burnin}", f"--thin={thin}",
            "--out-raw", str(raw), "--out-agg", str(agg)]
    if dims is not None:
        flag = "--K" if scenario == "s1" else "--p"
        argv.append(f"{flag}=" + (",".join(map(str, dims)) or ","))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert raw.exists() == (code != 2)
    if bad == "repeat":
        assert code == 2


def test_chain_length_defaults_come_from_run_config(capsys):
    from blockgibbs import RunConfig
    from blockgibbs.cli import _resolve_run_config, build_parser
    parser = build_parser()
    for argv in (["run", "--model", "group-lasso", "--kernel", "2bg"],
                 ["bench", "--model", "group-lasso", "--out-raw", "r.csv",
                  "--out-agg", "a.csv"]):
        cfg = _resolve_run_config(parser.parse_args(argv))
        assert (cfg.n_iter, cfg.burn_in, cfg.thin) == (
            RunConfig.n_iter, RunConfig.burn_in, RunConfig.thin)
        assert main(argv + ["--long-run"]) == 2
    assert "unrecognized arguments: --long-run" in capsys.readouterr().err


def test_run_runtime_failure_exits_3(tmp_path, capsys):
    # an all-zero response with xi = 0 aborts the sampler at iteration 0
    path = write_lines(tmp_path / "zero.csv", ["0,0", "0,0", "0,0"])
    code = main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--data", str(path), "--groups", "1", "--lambda", "1",
                 "--iters", "200", "--burnin", "10"])
    assert code == 3
    assert "iteration" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# output paths and module entry points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag", ["--report", "--draws"])
def test_run_unopenable_output_exits_3_before_any_chain(tmp_path, monkeypatch, capsys,
                                                        flag):
    monkeypatch.setattr(cli, "run_chain", lambda *args, **kw: pytest.fail("a chain ran"))
    outputs = {"--report": str(tmp_path / "r.json"), "--draws": str(tmp_path / "d.csv")}
    outputs[flag] = str(tmp_path / "missing-dir" / "out")
    argv = RUN_S1 + [arg for pair in outputs.items() for arg in pair]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--out-raw", "--out-agg"])
def test_bench_unopenable_output_exits_3_before_any_job(tmp_path, monkeypatch, capsys,
                                                        flag):
    monkeypatch.setattr(cli, "map_jobs", lambda *args, **kw: pytest.fail("a job ran"))
    argv, _, _ = bench_args(tmp_path, "o")
    argv[argv.index(flag) + 1] = str(tmp_path / "missing-dir" / "out.csv")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o failure: ") and "Traceback" not in err


SRC = str(Path(__file__).resolve().parents[1] / "src")
# numpy imports these lazily; `cli` loads them before its bench workers fork
FORK_PRELOADS = ("numpy.fft", "numpy.ma", "numpy.random")


def run_fresh_python(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_cli_loads_numpy_random_before_bench_workers_fork():
    # each forked bench worker derives its seeds through numpy.random and
    # summarizes through numpy.fft and numpy.ma; the process pool is imported
    # when a grid first runs in parallel; `import blockgibbs` loads none of
    # them, and only `cli`, whose bench workers inherit them, loads the three
    # numpy modules
    unloaded = FORK_PRELOADS + ("multiprocessing", "concurrent.futures.process")
    out = run_fresh_python(
        f"import sys, blockgibbs; print([m for m in {unloaded!r} if m in sys.modules]); "
        f"from blockgibbs import cli; print([m for m in {FORK_PRELOADS!r} "
        f"if m not in sys.modules])")
    assert out.splitlines() == ["[]", "[]"]


def test_map_jobs_workers_start_with_the_preloaded_numpy_modules():
    # in a fresh interpreter only `cli`'s preloads load them, and a worker
    # has them at its start only if it was forked after they were loaded
    out = run_fresh_python(
        "import sys\n"
        "from blockgibbs.cli import map_jobs\n"
        "def unloaded(_):\n"
        f"    return [m for m in {FORK_PRELOADS!r} if m not in sys.modules]\n"
        "print(map_jobs(unloaded, [0, 1], jobs=2))")
    assert out.strip() == "[[], []]"


@pytest.mark.parametrize("module", ["blockgibbs", "blockgibbs.cli"])
def test_module_entry_points_run_the_cli(tmp_path, module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    bad = run("run", "--model", "nonsense", "--kernel", "2bg")
    assert bad.returncode == 2 and "Traceback" not in bad.stderr
    good = run("run", "--model", "group-lasso", "--kernel", "2bg", "--scenario", "s1",
               "--n", "20", "--K", "1", "--lambda", "1", "--iters", "200",
               "--burnin", "50")
    assert good.returncode == 0, good.stderr
    assert json.loads(good.stdout)["iters"] == 200
