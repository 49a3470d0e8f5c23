"""The four benchmark workloads, their inputs and their output checks.

Every input comes from the workload seed: datasets from
`RngStream.from_key(seed, 0, round)`, chain streams from
`RngStream.from_key(seed, 1, round, case, kernel)` and the `bench` master
seed from `SeedSequence([seed, round])`. A run repeats rounds with fresh
inputs until its time is up. A traced run also runs every chain a second time
with tracing on, on the same inputs: in the serial workloads straight after
its untraced twin, so both meet the same machine load; in `grid` as a second
`bench` call after the untraced one.

Chains run one after another in the benchmark's process (a closed loop),
except in `grid`, where `bench --jobs 2` runs them in a process pool.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from blockgibbs import (
    BlockGibbsError,
    Dataset,
    GroupStructure,
    ModelSpec,
    RngStream,
    RunConfig,
    diagnose,
    ess_univariate,
)
from blockgibbs.simgen import Scenario, ScenarioSpec

from .layers import Recorder, chain_runner, layer_patches, patched, run_cli, traced_stream

KERNELS = ("2bg", "3bg")

# Posterior means of the tiny instances, copied from tests/test_acceptance.py,
# where tests/compute_oracles.py computed them by quadrature.
GROUP_ORACLE = {"sigma2": 1.3736014369, "beta": (0.5055942524,)}
SPARSE_ORACLE = {"sigma2": 1.4325940593, "beta": (0.2696237627,)}
FUSED_ORACLE = {"sigma2": 1.1963880048, "beta": (0.9446663039, 1.7686355813)}

# A run makes many mean checks on random draws under seeds it does not
# choose, so each check widens the acceptance rule's multiple of the Monte
# Carlo standard error until all checks of a run together raise a false
# alarm with at most this probability.
FAMILY_ALPHA = 1e-5


def check_multiplier(base: float, n_checks: int) -> float:
    return max(base, statistics.NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * n_checks)))


def mcse(draws: np.ndarray) -> float:
    """Monte Carlo standard error, as in the acceptance suite: sd / sqrt(ESS)."""
    return float(draws.std(ddof=1) / math.sqrt(ess_univariate(draws)))


@dataclass
class Round:
    """One round of a workload: its chains, timings and layer record."""

    index: int
    chains: list[dict]
    wall_s: float
    setup_s: float
    rec: Recorder
    jobs: int = 1
    failures: list[str] = field(default_factory=list)


def tiny_instances(oracles=None):
    """The acceptance suite's tiny instances (n = 6, p <= 2) with their oracles."""
    oracles = oracles or {"group": GROUP_ORACLE, "sparse": SPARSE_ORACLE,
                          "fused": FUSED_ORACLE}
    x = np.zeros((6, 1))
    x[0, 0] = 1.0
    grouped = Dataset(y=np.ones(6), x=x)
    groups = GroupStructure(np.array([1]))
    fused = Dataset(y=np.array([1.0, 2.0, 1.0, 2.0, 1.0, 3.0]),
                    x=np.vstack([np.eye(2)] * 3))
    return [("group", ModelSpec.group_lasso(1.0, groups), grouped, oracles["group"]),
            ("sparse", ModelSpec.sparse_group_lasso(1.0, 1.0, groups), grouped,
             oracles["sparse"]),
            ("fused", ModelSpec.fused_lasso(1.0, 1.0), fused, oracles["fused"])]


class SerialWorkload:
    """Every case run under both kernels, one chain after another."""

    name = ""
    n_iter = 0
    burn_in = 0
    store_beta = False

    def cases(self, rng: RngStream) -> list[tuple]:
        """(label, ModelSpec, Dataset, oracle or None) for one round."""
        raise NotImplementedError

    def run_round(self, seed: int, index: int, modes=(False,)) -> list[Round]:
        """One round per entry of `modes` (False untraced, True traced), on one input."""
        t_gen = time.perf_counter()
        cases = self.cases(RngStream.from_key(seed, 0, index))
        gen_s = time.perf_counter() - t_gen
        recs = [Recorder() for _ in modes]
        for rec in recs:
            rec.span("generate", gen_s)
        walls = [gen_s] * len(modes)
        chains = [[] for _ in modes]
        failures = [[] for _ in modes]
        for ci, (label, spec, dataset, _) in enumerate(cases):
            for ki, kernel in enumerate(KERNELS):
                for m, traced in enumerate(modes):
                    t0 = time.perf_counter()
                    chain = self.run_one(recs[m], traced, kernel, spec, dataset,
                                         RngStream.from_key(seed, 1, index, ci, ki), seed)
                    walls[m] += time.perf_counter() - t0
                    chain.update(label=label, case=ci, kernel=kernel)
                    if "error" in chain:
                        failures[m].append(f"{label}/{kernel}: {chain['error']}")
                    chains[m].append(chain)
        return [Round(index, chains[m], walls[m],
                      gen_s + sum(c["call_s"] - c["loop_s"] for c in chains[m]
                                  if "error" not in c),
                      recs[m], failures=failures[m])
                for m in range(len(modes))]

    def run_one(self, rec, traced, kernel, spec, dataset, rng, seed) -> dict:
        """Run and diagnose one chain; its record, or {"error": ...} if it raised."""
        config = RunConfig(n_iter=self.n_iter, burn_in=self.burn_in,
                           seed=seed, store_beta=self.store_beta)
        run = chain_runner(rec)
        try:
            if traced:
                with patched(layer_patches(rec)):
                    out = run(kernel, spec, dataset, config, rng=traced_stream(rng, rec))
            else:
                out = run(kernel, spec, dataset, config, rng=rng)
        except (BlockGibbsError, ValueError) as exc:
            return {"error": str(exc)}
        t0 = time.perf_counter()
        report = diagnose(out)
        rec.span("diagnose", time.perf_counter() - t0)
        chain = rec.chains[-1]
        chain.update(ess=report.ess, mean=report.sigma2.mean, mcse=mcse(out.sigma2_draws))
        if out.beta_draws is not None:
            chain["beta_mean"] = out.beta_draws.mean(axis=0).tolist()
            chain["beta_mcse"] = [mcse(out.beta_draws[:, j]) for j in range(out.p)]
        return chain

    def check(self, rounds: list[Round]) -> set[tuple]:
        """Keys (round, case, kernel) of chains that fail a workload check."""
        return set()


class Tiny(SerialWorkload):
    # The acceptance instances: each iteration is Python dispatch,
    # ig_transform and RNG; factorization cost is negligible. This is the
    # small-p hot path whose cost decides tier-1 criterion 2. Chains are
    # short (about 0.1 s) so that a run holds dozens per model x kernel and
    # their median is not decided by a few seconds of machine load.
    name = "tiny"
    n_iter = 1_000
    burn_in = 100
    store_beta = True

    def __init__(self, oracles=None):
        self.oracles = oracles

    def cases(self, rng):
        return tiny_instances(self.oracles)

    def check(self, rounds):
        """Pooled sigma2 and beta means of each model x kernel against the oracles."""
        cases = tiny_instances(self.oracles)
        n_checks = len(KERNELS) * sum(1 + len(o["beta"]) for _, _, _, o in cases)
        z = check_multiplier(3.0, n_checks)
        bad = set()
        for ci, (label, _, _, oracle) in enumerate(cases):
            for kernel in KERNELS:
                chains = [(r.index, c) for r in rounds for c in r.chains
                          if c["case"] == ci and c["kernel"] == kernel and "error" not in c]
                if not chains:
                    continue
                targets = [("mean", "mcse", None, oracle["sigma2"])]
                targets += [("beta_mean", "beta_mcse", j, b)
                            for j, b in enumerate(oracle["beta"])]
                for key, se_key, j, target in targets:
                    means = [c[key] if j is None else c[key][j] for _, c in chains]
                    ses = [c[se_key] if j is None else c[se_key][j] for _, c in chains]
                    dev = abs(sum(means) / len(means) - target)
                    tol = z * math.sqrt(sum(s * s for s in ses)) / len(ses)
                    if not dev < tol:
                        bad.update((r, ci, kernel) for r, _ in chains)
        return bad


class Tall(SerialWorkload):
    # The dense p < n path: Cholesky plus posterior assembly and copy take
    # about three quarters of an iteration, and 3bg also pays the O(np)
    # residual. A path only for p > n is bypassed here, so such a change
    # predicts no change on this workload.
    name = "tall"
    n, p = 1000, 250
    n_iter = 400
    burn_in = 100

    def cases(self, rng):
        sim = ScenarioSpec(Scenario.EXTRA_TALL, self.n, self.p).generate(rng)
        return [("group", ModelSpec.group_lasso(1.0, sim.groups), sim.dataset, None),
                ("sparse", ModelSpec.sparse_group_lasso(1.0, 1.0, sim.groups),
                 sim.dataset, None),
                ("fused", ModelSpec.fused_lasso(1.0, 1.0), sim.dataset, None)]

    def check(self, rounds):
        """Pooled 2bg and 3bg sigma2 means of each model agree within 4 combined MCSE."""
        z = check_multiplier(4.0, 3)
        bad = set()
        for ci in range(3):
            diffs, variances, keys = [], [], []
            for r in rounds:
                by_kernel = {c["kernel"]: c for c in r.chains
                             if c["case"] == ci and "error" not in c}
                if len(by_kernel) < 2:
                    continue
                two, three = by_kernel["2bg"], by_kernel["3bg"]
                diffs.append(two["mean"] - three["mean"])
                variances.append(two["mcse"] ** 2 + three["mcse"] ** 2)
                keys += [(r.index, ci, "2bg"), (r.index, ci, "3bg")]
            if diffs and not abs(sum(diffs)) < z * math.sqrt(sum(variances)):
                bad.update(keys)
        return bad


class Wide(SerialWorkload):
    # p > n with a diagonal prior precision (group and sparse-group), the
    # domain of an n-space (Woodbury) update: the dense path factors a p x p
    # matrix of rank-n data every iteration, and the 2bg/3bg mixing gap is
    # large. n = 100, p = 200 rather than n = 50, p = 500: at p = 500 a run
    # holds too few 3bg draws for its sigma2 ESS to repeat between runs, and
    # at n = 50, p = 150 that ESS still spread 29% between seeds.
    name = "wide"
    n, p = 100, 200
    n_iter = 1_000
    burn_in = 100

    def cases(self, rng):
        sim = ScenarioSpec(Scenario.EXTRA_WIDE, self.n, self.p).generate(rng)
        return [("group", ModelSpec.group_lasso(1.0, sim.groups), sim.dataset, None),
                ("sparse", ModelSpec.sparse_group_lasso(1.0, 1.0, sim.groups),
                 sim.dataset, None)]


class Grid:
    # The only workload through `cli`: `bench` grids, map_jobs' process pool,
    # per-replication scenario generation, diagnose and CSV output. Two jobs
    # match the two cores this benchmark was sized on. The cells are p = 25
    # and p = 50 rather than up to p = 250: with two workers each running
    # default BLAS threads on two cores, p = 250 iterations took anywhere from
    # 8 to 47 ms, and even p = 100 spread 20% between runs; BLAS threading is
    # measured by `tall` and `wide` instead.
    name = "grid"
    jobs = 2
    reps = 2
    n_iter = 400
    burn_in = 100
    ks = (5, 10)

    def argv(self, master_seed: int, out_dir: str) -> list[str]:
        return ["bench", "--model", "group-lasso", "--scenario", "s1",
                "--n", "50", "--K", ",".join(map(str, self.ks)),
                "--reps", str(self.reps), "--iters", str(self.n_iter),
                "--burnin", str(self.burn_in), "--seed", str(master_seed),
                "--jobs", str(self.jobs),
                "--out-raw", os.path.join(out_dir, "raw.csv"),
                "--out-agg", os.path.join(out_dir, "agg.csv")]

    def run_round(self, seed: int, index: int, modes=(False,)) -> list[Round]:
        """One `bench` call per entry of `modes` (False untraced, True traced)."""
        return [self.bench_round(seed, index, traced) for traced in modes]

    def bench_round(self, seed: int, index: int, traced: bool) -> Round:
        master_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        rec = Recorder()
        failures = []
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as tmp:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_cli(self.argv(master_seed, tmp), traced, rec)
            wall = time.perf_counter() - t0
            with open(os.path.join(tmp, "raw.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
        expected = len(self.ks) * self.reps * len(KERNELS)
        if code != 0:
            failures.append(f"bench exited with {code}")
        if len(rows) != expected:
            failures.append(f"bench wrote {len(rows)} rows, expected {expected}")
        records = {(c["seed"], c["kernel"]): c for c in rec.chains}
        chains = []
        for i, row in enumerate(rows):
            chain = records.get((int(row["seed"]), row["kernel"]), {})
            chain.update(label=f"p{row['p']}", case=i, kernel=row["kernel"])
            if row["status"] != "ok":
                chain["error"] = row["error"]
                failures.append(f"row {i}: {row['status']} {row['error']}")
            else:
                chain["ess"] = float(row["ess"])
            chains.append(chain)
        loop = sum(c.get("loop_s", 0.0) for c in chains)
        return Round(index, chains, wall, wall - loop / self.jobs, rec,
                     jobs=self.jobs, failures=failures)

    def check(self, rounds):
        return set()


WORKLOADS = {w.name: w for w in (Tiny, Tall, Wide, Grid)}
