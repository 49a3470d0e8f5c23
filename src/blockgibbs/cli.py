"""Command-line front end: single runs, benchmark grids, CSV/JSON output.

Exit codes: 0 success, 2 usage or validation problem, 3 runtime failure.
Raw benchmark CSVs carry 17 significant digits (round-trippable); aggregate
tables carry 4. All seeds are derived from the master seed with fixed spawn
keys, so repeated invocations reproduce every draw-dependent number exactly
(wall-time columns are physical measurements and necessarily vary).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .diagnostics import MIN_ESS_DRAWS, diagnose
from .errors import BlockGibbsError
from .model_core import Dataset, GroupStructure, ModelKind, ModelSpec
from .rng_dist import RngStream
from .samplers import ChainOutput, KernelKind, RunConfig, map_jobs, run_chain
from .simgen import Scenario, ScenarioSpec, SimulatedDataset

__all__ = ["main", "entry", "read_dataset_csv", "write_dataset_csv",
           "run_bench", "BenchGrid", "BenchRow"]


class UsageError(ValueError):
    """Bad flags or inconsistent inputs; `main` maps every ValueError to exit 2."""


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _f4(x: float) -> str:
    return format(float(x), ".4g")


# ---------------------------------------------------------------------------
# dataset CSV
# ---------------------------------------------------------------------------

def _csv_list(convert):
    """An argparse type: a comma-separated list, each entry through `convert`."""
    def parse(text: str) -> list:
        try:
            return [convert(tok.strip()) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad list '{text}': {exc}") from exc
    return parse


def read_dataset_csv(path: str, y_col: int = 0,
                     group_sizes: list[int] | None = None
                     ) -> tuple[Dataset, GroupStructure | None]:
    """Read a numeric CSV: one column is the response, the rest the design.

    A leading comment line of the form ``# groups: 5,5,5`` supplies group
    sizes; an explicit `group_sizes` argument overrides it. Whether the sizes
    cover the predictors is not checked here: `ModelSpec.validate_for` checks
    it for the models that use groups. Errors name the offending row and
    column (1-based).
    """
    rows: list[list[float]] = []
    sidecar: list[int] | None = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read dataset file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text[1:].strip()
            if body.startswith("groups:"):
                sidecar = _csv_list(int)(body[len("groups:"):])
            continue
        values = []
        for j, cell in enumerate(text.split(",")):
            try:
                value = float(cell)
                problem = None if math.isfinite(value) else "non-finite"
            except ValueError:
                problem = "non-numeric"
            if problem:
                raise UsageError(f"{path}: row {line_no}, column {j + 1}: "
                                 f"{problem} cell '{cell.strip()}'")
            values.append(value)
        if rows and len(values) != len(rows[0]):
            raise UsageError(f"{path}: row {line_no} has {len(values)} cells, "
                             f"expected {len(rows[0])}")
        rows.append(values)
    if not rows:
        raise UsageError(f"{path}: no data rows")
    width = len(rows[0])
    if width < 2:
        raise UsageError(f"{path}: need a response column plus at least one "
                         f"predictor, found {width} column(s)")
    if not 0 <= y_col < width:
        raise UsageError(f"--y-col {y_col} out of range for {width} columns")
    arr = np.asarray(rows, dtype=np.float64)
    y = arr[:, y_col]
    x = np.delete(arr, y_col, axis=1)
    dataset = Dataset(y=y, x=x)

    sizes = group_sizes if group_sizes is not None else sidecar
    return dataset, None if sizes is None else GroupStructure(sizes)


def write_dataset_csv(data: Dataset | SimulatedDataset, path: str) -> None:
    """Write a dataset in the CSV schema `read_dataset_csv` accepts."""
    groups = None
    if isinstance(data, SimulatedDataset):
        groups = data.groups
        data = data.dataset
    header = ""
    if groups is not None:
        header = "groups: " + ",".join(str(int(s)) for s in groups.group_sizes)
    np.savetxt(path, np.column_stack((data.y, data.x)), fmt="%.17g",
               delimiter=",", header=header)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockgibbs",
        description="Gibbs samplers for Bayesian shrinkage regression models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True,
                       choices=[k.value for k in ModelKind])
        p.add_argument("--scenario", choices=[s.value for s in Scenario],
                       help="generate data from a built-in scenario")
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--xi", type=float, default=0.0)
        p.add_argument("--lambda", dest="lam", type=float,
                       help="group-lasso penalty")
        p.add_argument("--lambda1", dest="lam1", type=float,
                       help="first penalty (sparse group / fused)")
        p.add_argument("--lambda2", dest="lam2", type=float,
                       help="second penalty (sparse group / fused)")
        p.add_argument("--iters", type=int, default=RunConfig.n_iter,
                       help="chain length (default %(default)s)")
        p.add_argument("--burnin", type=int, default=RunConfig.burn_in,
                       help="discarded initial iterations (default %(default)s)")
        p.add_argument("--thin", type=int, default=RunConfig.thin,
                       help="keep every THIN-th draw (default %(default)s)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n", type=_csv_list(int),
                       help="comma-separated row counts (one for run)")
        p.add_argument("--K", type=_csv_list(int),
                       help="comma-separated group counts for s1, p = 5K (one for run)")
        p.add_argument("--p", type=_csv_list(int),
                       help="comma-separated column counts for s2/wide/tall (one for run)")

    run_p = sub.add_parser("run", help="run one chain and report diagnostics")
    add_common(run_p)
    run_p.add_argument("--kernel", required=True,
                       choices=[k.value for k in KernelKind])
    run_p.add_argument("--data", help="dataset CSV (response column plus design)")
    run_p.add_argument("--y-col", type=int,
                       help="index of the response column in --data (default 0)")
    run_p.add_argument("--groups", type=_csv_list(int),
                       help="comma-separated group sizes for --data")
    run_p.add_argument("--store-beta", action="store_true",
                       help="store coefficient draws as well")
    run_p.add_argument("--report", help="write the JSON report here (default stdout)")
    run_p.add_argument("--draws", help="write stored draws to this CSV")

    bench_p = sub.add_parser("bench", help="replicated benchmark grid")
    add_common(bench_p)
    bench_p.set_defaults(lam=1.0, lam1=1.0, lam2=1.0)
    bench_p.add_argument("--kernels", type=_csv_list(KernelKind), default="2bg,3bg",
                         help="comma-separated kernel list")
    bench_p.add_argument("--reps", type=int, default=100,
                         help="datasets per grid cell")
    bench_p.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes")
    bench_p.add_argument("--out-raw", required=True,
                         help="per-replication CSV output path")
    bench_p.add_argument("--out-agg", required=True,
                         help="aggregate CSV output path")
    return parser


def _resolve_run_config(args, store_beta: bool = False) -> RunConfig:
    """The chain settings of `run` or `bench`, checked before any chain runs."""
    config = RunConfig(n_iter=args.iters, burn_in=args.burnin, seed=args.seed,
                       store_beta=store_beta, thin=args.thin)
    kept = (args.iters - args.burnin) // args.thin
    if kept < MIN_ESS_DRAWS:
        raise UsageError(
            f"--iters {args.iters} with --burnin {args.burnin} and --thin {args.thin} "
            f"keeps {kept} draws; the diagnostics need at least {MIN_ESS_DRAWS}")
    return config


# the flag that sets each penalty field of ModelSpec
_PENALTY_FLAGS = {"lam": "--lambda", "lam1": "--lambda1", "lam2": "--lambda2"}


def _resolve_model(args, groups: GroupStructure | None) -> ModelSpec:
    kind = ModelKind(args.model)
    missing = [_PENALTY_FLAGS[name] for name in kind.penalties
               if getattr(args, name) is None]
    if missing:
        raise UsageError(f"{kind.value} requires {' and '.join(missing)}")
    for name in kind.penalties:
        value = getattr(args, name)
        if not (value > 0 and math.isfinite(value)):
            raise UsageError(f"{_PENALTY_FLAGS[name]} must be > 0 and finite, "
                             f"got {value}")
    if kind.grouped and groups is None:
        raise UsageError(f"{kind.value} requires group sizes: --groups with "
                         f"--data, or a grouped scenario (s1, wide or tall)")
    return ModelSpec(kind, args.alpha, args.xi,
                     groups=groups if kind.grouped else None,
                     **{name: getattr(args, name) for name in kind.penalties})


def _check_distinct(flag: str, values) -> None:
    """Reject a list flag that repeats an entry (its cells would be pooled)."""
    if len(set(values)) < len(values):
        raise UsageError(f"{flag} repeats an entry: {','.join(map(str, values))}")


def _scenario_cells(scenario: str, ns, ks, ps) -> tuple[ScenarioSpec, ...]:
    """The checked cells of `scenario`: each n with each p (p = 5K for s1)."""
    sc = Scenario(scenario)
    flag, values = ("--K", ks) if sc is Scenario.GROUPED_POLY else ("--p", ps)
    for name, given in (("--n", ns), (flag, values)):
        if not given:
            raise UsageError(f"scenario {sc.value} requires {name}")
        _check_distinct(name, given)
    dims = [5 * k for k in values] if sc is Scenario.GROUPED_POLY else values
    return tuple(ScenarioSpec(sc, n, p) for n in ns for p in dims)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _report_dict(output: ChainOutput) -> dict:
    try:
        rep = diagnose(output)
    except ValueError as exc:  # e.g. draws whose variance underflows to zero
        raise BlockGibbsError(f"cannot diagnose the chain: {exc}") from exc
    return {
        "model": output.model.kind.value,
        "kernel": output.kernel.value,
        "n": output.n,
        "p": output.p,
        "seed": output.seed,
        "iters": output.config.n_iter,
        "burnin": output.config.burn_in,
        "block_update": output.block_update,
        "rho1": rep.rho1,
        "ess": rep.ess,
        "wall_time_seconds": output.wall_time_seconds,
        "ess_per_second": rep.ess_per_second,
        "sigma2_mean": rep.sigma2.mean,
        "sigma2_q025": rep.sigma2.q025,
        "sigma2_q975": rep.sigma2.q975,
    }


def _write_draws_csv(output: ChainOutput, path: str) -> None:
    columns, header = [output.sigma2_draws], ["sigma2"]
    if output.beta_draws is not None:
        columns.append(output.beta_draws)
        header += [f"beta_{j}" for j in range(output.p)]
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _cmd_run(args) -> int:
    if (args.data is None) == (args.scenario is None):
        raise UsageError("provide exactly one of --data or --scenario")
    source, foreign = (("--data", ["n", "K", "p"]) if args.data is not None
                       else ("--scenario", ["groups", "y_col"]))
    given = ["--" + name.replace("_", "-") for name in foreign
             if getattr(args, name) is not None]
    if given:
        raise UsageError(f"{' and '.join(given)} cannot be used with {source}")
    config = _resolve_run_config(args, store_beta=args.store_beta)
    if args.data is not None:
        dataset, groups = read_dataset_csv(args.data, args.y_col or 0, args.groups)
    else:
        cells = _scenario_cells(args.scenario, args.n, args.K, args.p)
        if len(cells) != 1:
            raise UsageError(f"run takes one value each for --n and --K/--p, "
                             f"got {len(cells)} cells")
        sim = cells[0].generate(RngStream.from_key(args.seed, 0))
        dataset, groups = sim.dataset, sim.groups

    # run_chain checks the model against the data before it draws anything
    output = run_chain(KernelKind(args.kernel), _resolve_model(args, groups),
                       dataset, config, rng=RngStream.from_key(args.seed, 1))
    text = json.dumps(_report_dict(output), indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.draws:
        _write_draws_csv(output, args.draws)
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchGrid:
    """A checked benchmark grid: cells, the model of each cell, kernels, reps.

    The seed of `config` is the master seed every job derives its seeds from.
    """

    scenario: Scenario
    cells: tuple[ScenarioSpec, ...]
    models: tuple[ModelSpec, ...]
    kernels: tuple[KernelKind, ...]
    reps: int
    config: RunConfig


@dataclass(frozen=True)
class BenchRow:
    """One chain's result inside a grid: one row per replication x kernel."""

    model: str
    kernel: str
    scenario: str
    n: int
    p: int
    rep: int
    seed: int
    rho1: float | None = None
    ess: float | None = None
    wall_time_seconds: float | None = None
    ess_per_second: float | None = None
    status: str = "ok"
    error: str = ""

    def to_csv_dict(self) -> dict:
        def cell(value):
            if value is None:
                return ""
            return _f17(value) if isinstance(value, float) else value

        return {f.name: cell(getattr(self, f.name)) for f in fields(self)}


RAW_COLUMNS = [f.name for f in fields(BenchRow)]
AGG_COLUMNS = ["model", "kernel", "n", "p", "reps_ok", "rho1_mean", "rho1_se",
               "log10_ess_per_sec_mean", "log10_ess_per_sec_se"]


def _derive_seed(*entropy: int) -> int:
    seq = np.random.SeedSequence([int(e) for e in entropy])
    return int(seq.generate_state(1, np.uint64)[0])


def _run_bench_job(job: tuple[BenchGrid, int, int]) -> list[BenchRow]:
    """One replication: generate the dataset once, run every kernel on it."""
    grid, cell_index, rep = job
    cell, model = grid.cells[cell_index], grid.models[cell_index]
    grid_seed = grid.config.seed
    data_seed = _derive_seed(grid_seed, cell_index, rep, 0)
    sim = ScenarioSpec(grid.scenario, cell.n, cell.p, seed=data_seed).generate()
    rows = []
    for k_idx, kernel in enumerate(grid.kernels):
        chain_seed = _derive_seed(grid_seed, cell_index, rep, 1 + k_idx)
        base = dict(model=model.kind.value, kernel=kernel.value,
                    scenario=grid.scenario.value, n=cell.n, p=cell.p, rep=rep,
                    seed=chain_seed)
        try:
            output = run_chain(kernel, model, sim.dataset,
                               replace(grid.config, seed=chain_seed))
            rep_diag = diagnose(output)
            rows.append(BenchRow(**base, rho1=rep_diag.rho1, ess=rep_diag.ess,
                                 wall_time_seconds=output.wall_time_seconds,
                                 ess_per_second=rep_diag.ess_per_second))
        except Exception as exc:  # record the failure, keep the grid going
            rows.append(BenchRow(**base, status="error",
                                 error=str(exc).replace("\n", " ")))
    return rows


def _aggregate(rows: list[BenchRow]) -> list[dict]:
    by_cell: dict[tuple, list[BenchRow]] = {}  # in order of first appearance
    for row in rows:
        by_cell.setdefault((row.model, row.kernel, row.n, row.p), []).append(row)

    def mean_se(v: np.ndarray) -> tuple[float, float]:
        if v.size == 0:
            return math.nan, math.nan
        se = float(np.std(v, ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0
        return float(v.mean()), se

    out = []
    for key, cell_rows in by_cell.items():
        ok = [r for r in cell_rows if r.status == "ok"]
        rho1_mean, rho1_se = mean_se(np.array([r.rho1 for r in ok]))
        leps_mean, leps_se = mean_se(
            np.array([math.log10(r.ess_per_second) for r in ok]))
        out.append({
            "model": key[0], "kernel": key[1], "n": key[2], "p": key[3],
            "reps_ok": len(ok),
            "rho1_mean": _f4(rho1_mean), "rho1_se": _f4(rho1_se),
            "log10_ess_per_sec_mean": _f4(leps_mean),
            "log10_ess_per_sec_se": _f4(leps_se),
        })
    return out


def _grid_from_args(args) -> BenchGrid:
    if args.scenario is None:
        raise UsageError("bench requires --scenario")
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    if not args.kernels:
        raise UsageError("need at least one kernel")
    _check_distinct("--kernels", [k.value for k in args.kernels])
    config = _resolve_run_config(args)
    cells = _scenario_cells(args.scenario, args.n, args.K, args.p)
    # the models are resolved, and so checked, before any job starts
    models = tuple(_resolve_model(args, cell.groups) for cell in cells)
    return BenchGrid(scenario=Scenario(args.scenario), cells=cells, models=models,
                     kernels=tuple(args.kernels), reps=args.reps, config=config)


def run_bench(args) -> tuple[list[BenchRow], list[dict]]:
    """Execute the benchmark grid; returns (raw rows, aggregate rows)."""
    grid = _grid_from_args(args)
    jobs = [(grid, ci, rep)
            for ci in range(len(grid.cells)) for rep in range(grid.reps)]
    nested = map_jobs(_run_bench_job, jobs, jobs=args.jobs)
    rows = [row for group in nested for row in group]
    return rows, _aggregate(rows)


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _cmd_bench(args) -> int:
    rows, agg = run_bench(args)
    _write_csv(args.out_raw, RAW_COLUMNS, [r.to_csv_dict() for r in rows])
    _write_csv(args.out_agg, AGG_COLUMNS, agg)
    n_err = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows ({n_err} failed) to {args.out_raw}; "
          f"aggregates to {args.out_agg}")
    return 0 if n_err < len(rows) else 3


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_bench(args)
    except (ValueError, OverflowError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # a rejected input
        return 2
    except BlockGibbsError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
