"""Benchmark of the blockgibbs samplers, end to end and layer by layer.

    python3 perfbench/run.py --workload tiny --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`.
Workloads (see workloads.py for why each was chosen): `tiny`, `tall`, `wide`
and `grid`. A run repeats rounds of the workload, each on fresh inputs made
from `--seed`, until `--seconds` have passed, checks every output, and prints
one `name value unit` line per metric, an environment line, and as its last
line a JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics:

* `iter_us_2bg`, `iter_us_3bg`: timed-loop wall time
  (`ChainOutput.wall_time_seconds`) per iteration of the kernel's chains:
  summed loop time over summed iterations within each case (model, or
  `bench` cell), averaged over cases. Comment lines give each case's median
  over chains, the sample count and the highest percentile with ten samples
  beyond it.
* `ess_per_s_2bg`, `ess_per_s_3bg`: sigma2 ESS summed over the kernel's
  chains over their summed loop wall time (the paper's efficiency metric).
* `chains_per_s`: chains completed and checked per second of round wall time.
* `setup_s`: median import time of `blockgibbs` (fresh interpreters started
  at intervals through the run, so that they meet the same machine load as
  the rounds) plus the median over rounds of the round's wall time outside
  the sampler loops: data generation and `run_chain` call time minus loop
  time; for `grid`, the `bench` wall time minus summed loop time over the
  job count.
* `peak_rss_mb`: peak resident memory; for `grid` the benchmark process plus
  `jobs` times the largest worker (an upper bound on the workers' sum).

The failure rate (failed over attempted chains) is the `failed` and
`attempted` fields and is printed as `fail_rate`.

`--trace 1` runs every chain twice on the same inputs, untraced and traced,
checks that the traced sigma2 draws equal the untraced ones bit for bit, and
reports the per-layer metrics (spans are taken from this benchmark's own
files; see layers.py). Metrics marked computed are derived from array shapes,
not measured.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_PROBES = 6  # fresh-interpreter imports per run, spread over its length


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tiny", "tall", "wide", "grid"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Wall time of `import blockgibbs` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import blockgibbs; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def git_commit() -> str:
    """HEAD commit read from `.git`, or a note when the checkout has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    import blockgibbs

    def blas_version(config):
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy.show_config(mode="dicts")),
        "scipy_blas": blas_version(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernel_backend": blockgibbs.kernel_backend,
        "git_commit": git_commit(),
    }


def iter_us(chains) -> list[float]:
    return sorted(1e6 * c["loop_s"] / c["iters"] for c in chains)


def case_us(chains) -> float:
    """Mean over cases (models, or `bench` cells) of the case's µs/iteration.

    A case's µs/iteration is its summed loop time over its summed iterations.
    Cases differ in cost several-fold, so each case gets equal weight. Within a
    case the mean is used, not the median: on a shared host the machine's
    speed switches between levels for seconds at a time, and a median of
    chains jumps between the levels from run to run where the mean does not.
    """
    labels = sorted({c["label"] for c in chains})
    return statistics.fmean(
        1e6 * sum(c["loop_s"] for c in chains if c["label"] == label)
        / sum(c["iters"] for c in chains if c["label"] == label)
        for label in labels)


def tail_note(values: list[float]) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    note = f"n={n}"
    if n >= 20:
        note += f", p{100.0 * (n - 10) / n:.0f}={values[n - 11]:.4g}"
    return note


def end_to_end(rounds, imports, lines) -> dict:
    ok = [c for r in rounds for c in r.chains if "error" not in c]
    metrics = {}
    for kernel in ("2bg", "3bg"):
        mine = [c for c in ok if c["kernel"] == kernel]
        metrics[f"iter_us_{kernel}"] = (case_us(mine), "us")
        for label in sorted({c["label"] for c in mine}):
            times = iter_us([c for c in mine if c["label"] == label])
            lines.append(f"# iter_us_{kernel}[{label}]: median {statistics.median(times):.4g} us, "
                         f"{tail_note(times)}")
        metrics[f"ess_per_s_{kernel}"] = (
            sum(c["ess"] for c in mine) / sum(c["loop_s"] for c in mine), "1/s")
    metrics["chains_per_s"] = (len(ok) / sum(r.wall_s for r in rounds), "1/s")
    import_s = statistics.median(imports)
    round_setup = statistics.median(r.setup_s for r in rounds)
    metrics["setup_s"] = (import_s + round_setup, "s")
    lines.append(f"# setup_s: median import {import_s:.4g} s over {len(imports)} "
                 f"interpreters + median round setup {round_setup:.4g} s over "
                 f"{len(rounds)} rounds")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    jobs = rounds[0].jobs
    if jobs > 1:
        peak_kb += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    return metrics


def per_layer(untraced, traced, lines) -> dict:
    from perfbench.layers import LOOP_SPANS, Recorder

    rec = Recorder()
    for r in traced:
        rec.merge(r.rec)
    t_chains = [c for r in traced for c in r.chains if "error" not in c]
    u_chains = [c for r in untraced for c in r.chains if "error" not in c]
    iters = sum(c["iters"] for c in t_chains)
    loop_s = sum(c["loop_s"] for c in t_chains)

    def us_per_iter(*spans):
        return 1e6 * sum(rec.seconds(s) for s in spans) / iters

    def kernel_us(chains, kernel=None):
        return case_us([c for c in chains if kernel is None or c["kernel"] == kernel])

    jobs = untraced[0].jobs
    untraced_loop = sum(c["loop_s"] for c in u_chains)
    diagnose_calls = sum(r.rec.calls("diagnose") for r in untraced)
    generate_calls = sum(r.rec.calls("generate") for r in untraced)
    m = {
        "samplers.self_us_per_iter": (1e6 * loop_s / iters - us_per_iter(*LOOP_SPANS), "us"),
        "samplers.setup_ms_per_chain": (1e3 * statistics.median(
            c["call_s"] - c["loop_s"] for c in u_chains), "ms"),
        "samplers.cost_ratio_2bg_3bg": (kernel_us(u_chains, "2bg")
                                        / kernel_us(u_chains, "3bg"), "ratio"),
        "kernels.ig_transform_us_per_iter": (us_per_iter("ig_transform"), "us"),
        "kernels.ig_transform_calls_per_iter": (rec.calls("ig_transform") / iters, "count"),
        "kernels.prior_ops_us_per_iter": (us_per_iter("prior_ops"), "us"),
        "kernels.prior_ops_calls_per_iter": (rec.calls("prior_ops") / iters, "count"),
        "linalg.cholesky_us_per_iter": (us_per_iter("cholesky"), "us"),
        "linalg.factor_order": (rec.counts["factor_order"] / rec.calls("cholesky"), "rows"),
        "linalg.factorizations_per_iter": (
            sum(c["factorizations"] for c in t_chains) / iters, "count"),
        "linalg.trsv_us_per_iter": (us_per_iter("trsv"), "us"),
        "linalg.cholesky_computed_gflops": (
            rec.counts["factor_flops"] / rec.seconds("cholesky") / 1e9, "GFLOP/s"),
        "model_core.add_prior_precision_us_per_iter": (us_per_iter("add_prior_precision"), "us"),
        "model_core.computed_bytes_copied_per_iter": (
            rec.counts.get("bytes_copied", 0) / iters, "B"),
        "rng_dist.draw_us_per_iter": (us_per_iter("rng"), "us"),
        "rng_dist.calls_per_iter": (rec.calls("rng") / iters, "count"),
        "rng_dist.variates_per_iter": (rec.counts["variates"] / iters, "count"),
        "diagnostics.diagnose_ms_per_chain": (
            1e3 * sum(r.rec.seconds("diagnose") for r in untraced) / diagnose_calls, "ms"),
        "simgen.generate_ms": (
            1e3 * sum(r.rec.seconds("generate") for r in untraced) / generate_calls, "ms"),
        "cli.pool_efficiency": (
            untraced_loop / (jobs * sum(r.wall_s for r in untraced)), "ratio"),
        "cli.worker_iter_us": (kernel_us(u_chains), "us"),
        "trace.overhead_frac": (kernel_us(t_chains) / kernel_us(u_chains) - 1.0, "ratio"),
    }
    for label in sorted({c["label"] for c in u_chains}):
        cell = [c for c in u_chains if c["label"] == label]
        lines.append(f"# cli.worker_iter_us[{label}]: {kernel_us(cell):.4g} us "
                     f"(n={len(cell)})")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockgibbs" / "__init__.py").is_file():
        print(f"error: no blockgibbs sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    env = environment()

    untraced, traced, imports = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        if not args.trace and (len(imports) * args.seconds
                               <= IMPORT_PROBES * (time.perf_counter() - start)):
            imports.append(import_seconds())
        t0 = time.perf_counter()
        plain, *rest = workload.run_round(args.seed, index, (False, True)[:1 + args.trace])
        untraced.append(plain)
        traced += rest
        index += 1
        elapsed = time.perf_counter() - start
        # stop once another round would end more than half a round late
        if elapsed + 0.5 * (time.perf_counter() - t0) >= args.seconds:
            break

    rounds = untraced + traced
    failed = set()
    for r in rounds:
        for c in r.chains:
            key = (r.index, c["case"], c["kernel"])
            if ("error" in c or not c.get("finite")
                    or c.get("factorizations") != c.get("iters")):
                failed.add(key)
    failed |= workload.check(untraced)
    if traced:
        failed |= workload.check(traced)
        digests = {(r.index, c["case"], c["kernel"]): c.get("digest")
                   for r in untraced for c in r.chains}
        failed |= {(r.index, c["case"], c["kernel"]) for r in traced for c in r.chains
                   if c.get("digest") != digests.get((r.index, c["case"], c["kernel"]))}
    round_failures = [f for r in rounds for f in r.failures]
    attempted = len({(r.index, c["case"], c["kernel"]) for r in rounds for c in r.chains})
    attempted = max(attempted, 1)

    lines = [f"# workload {workload.name}: {len(untraced)} rounds, "
             f"{sum(len(r.chains) for r in untraced)} chains, seed {args.seed}"]
    lines += [f"# failure: {f}" for f in round_failures]
    metrics = {}
    try:
        if args.trace:
            metrics = per_layer(untraced, traced, lines)
        else:
            metrics = end_to_end(untraced, imports, lines)
    except (ZeroDivisionError, KeyError, statistics.StatisticsError) as exc:
        lines.append(f"# metrics unavailable: {exc!r}")
    correct = not failed and not round_failures and bool(metrics) and all(
        math.isfinite(v) for v, _ in metrics.values())

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_rate {len(failed) / attempted:.6g} ratio")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
