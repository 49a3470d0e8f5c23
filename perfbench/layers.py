"""Spans and per-chain records taken from outside the blockgibbs modules.

Nothing under src/ is edited. A traced chain swaps the names that `samplers`
looks up at call time (`cholesky_spd`, `solve_lower`, `solve_lower_t`,
`add_prior_precision` and the `_kernels.*` attributes) for timing wrappers,
and draws from a random stream whose generator is a timing proxy. Every
wrapper calls the original with the same arguments, so the draws do not
change; the benchmark checks that bit for bit. Spans never nest, so the
sampler's self time is its loop time minus the sum of all spans.

Spans are kept as per-name totals (seconds, calls) in a `Recorder` in memory
and read when the benchmark ends.
"""
from __future__ import annotations

import contextlib
import hashlib
import time

import numpy as np

from blockgibbs import _kernels, cli, factorization_count, samplers
from blockgibbs.rng_dist import RngStream
from blockgibbs.samplers import run_chain
from blockgibbs.simgen import ScenarioSpec

# _kernels attribute -> span name; the group and fused prior kernels share a
# span because every workload runs a group model but only two run the fused one.
KERNEL_SPANS = {
    "ig_transform": "ig_transform",
    "group_sqnorms": "prior_ops",
    "expand_by_group": "prior_ops",
    "fused_bands": "prior_ops",
    "tridiag_quad_form": "prior_ops",
}
# every span recorded inside the sampler loop
LOOP_SPANS = ("cholesky", "trsv", "add_prior_precision", "ig_transform",
              "prior_ops", "rng")


class Recorder:
    """Span totals, counters and finished-chain records of one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [seconds, calls]
        self.counts: dict[str, float] = {}
        self.chains: list[dict] = []

    def span(self, name: str, seconds: float) -> None:
        total = self.spans.setdefault(name, [0.0, 0])
        total[0] += seconds
        total[1] += 1

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def seconds(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0))[0]

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0.0, 0))[1]

    def merge(self, other: "Recorder") -> None:
        for name, (sec, calls) in other.spans.items():
            total = self.spans.setdefault(name, [0.0, 0])
            total[0] += sec
            total[1] += calls
        for name, amount in other.counts.items():
            self.count(name, amount)
        self.chains.extend(other.chains)


def timed(rec: Recorder, name: str, fn, on_call=None):
    """`fn` recording one `name` span per call; `on_call(args, out)` adds counts."""
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        rec.span(name, clock() - t0)
        if on_call is not None:
            on_call(args, out)
        return out

    return wrapper


def _timed_draw(method: str):
    def draw(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = getattr(self._gen, method)(*args, **kwargs)
        self._rec.span("rng", time.perf_counter() - t0)
        self._rec.count("variates", np.size(out))
        return out

    return draw


class TimedGenerator:
    """Forwards to a numpy Generator, timing the draws the sampler loop makes."""

    standard_normal = _timed_draw("standard_normal")
    random = _timed_draw("random")
    gamma = _timed_draw("gamma")

    def __init__(self, gen: np.random.Generator, rec: Recorder):
        self._gen = gen
        self._rec = rec

    def __getattr__(self, name):
        return getattr(self._gen, name)


def traced_stream(rng: RngStream, rec: Recorder) -> RngStream:
    rng.generator = TimedGenerator(rng.generator, rec)
    return rng


def layer_patches(rec: Recorder) -> list[tuple]:
    """(module, name, wrapper) for each call the sampler loop makes into another layer."""

    def factor_counts(args, out):
        order = args[0].shape[0]
        rec.count("factor_order", order)
        rec.count("factor_flops", order ** 3 / 3.0)  # computed, not measured

    def copy_counts(args, out):
        if not np.may_share_memory(out, args[0]):
            rec.count("bytes_copied", out.nbytes)  # computed from the shape

    pairs = [
        (samplers, "cholesky_spd",
         timed(rec, "cholesky", samplers.cholesky_spd, factor_counts)),
        (samplers, "solve_lower", timed(rec, "trsv", samplers.solve_lower)),
        (samplers, "solve_lower_t", timed(rec, "trsv", samplers.solve_lower_t)),
        (samplers, "add_prior_precision",
         timed(rec, "add_prior_precision", samplers.add_prior_precision, copy_counts)),
    ]
    pairs += [(_kernels, attr, timed(rec, span, getattr(_kernels, attr)))
              for attr, span in KERNEL_SPANS.items()]
    return pairs


@contextlib.contextmanager
def patched(pairs):
    """Set each (object, attribute, value) for the duration, then restore."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in pairs]
    for obj, attr, value in pairs:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def digest(draws: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(draws).tobytes(),
                           digest_size=16).hexdigest()


def chain_runner(rec: Recorder):
    """`run_chain` that appends a record of each chain to `rec.chains`.

    The record holds the loop and call wall times, the factorizations the
    chain made (from the program's own counter), whether every stored draw is
    finite, and a digest of the sigma2 draws.
    """

    def run(kernel, spec, dataset, config, **kwargs):
        before = factorization_count()
        t0 = time.perf_counter()
        out = run_chain(kernel, spec, dataset, config, **kwargs)
        call_s = time.perf_counter() - t0
        finite = bool(np.isfinite(out.sigma2_draws).all()) and (
            out.beta_draws is None or bool(np.isfinite(out.beta_draws).all()))
        rec.chains.append({
            "kernel": out.kernel.value, "model": spec.kind.value, "seed": out.seed,
            "n": out.n, "p": out.p, "iters": config.n_iter,
            "loop_s": out.wall_time_seconds, "call_s": call_s,
            "factorizations": factorization_count() - before,
            "finite": finite, "digest": digest(out.sigma2_draws),
        })
        return out

    return run


def _timed_scenario_spec(rec: Recorder):
    class TimedScenarioSpec(ScenarioSpec):
        def generate(self, rng=None):
            t0 = time.perf_counter()
            out = super().generate(rng)
            rec.span("generate", time.perf_counter() - t0)
            return out

    return TimedScenarioSpec


class JobResult(list):
    """The rows of one bench job, carrying the worker's `Recorder` back."""

    def __init__(self, rows, recorder: Recorder):
        super().__init__(rows)
        self.recorder = recorder


class GridJob:
    """Picklable stand-in for the `bench` worker.

    Runs `cli._run_bench_job` in the worker process with its calls into
    `run_chain`, `diagnose` and the scenario generator recorded, and, when
    tracing, the sampler loop's layer calls as well.
    """

    def __init__(self, trace: bool):
        self.trace = trace

    def __call__(self, item):
        _kernels.warm_up()  # once per worker, before any kernel is wrapped
        rec = Recorder()
        pairs = [(cli, "run_chain", chain_runner(rec)),
                 (cli, "diagnose", timed(rec, "diagnose", cli.diagnose)),
                 (cli, "ScenarioSpec", _timed_scenario_spec(rec))]
        if self.trace:
            pairs += layer_patches(rec)
            pairs.append((samplers, "RngStream",
                          lambda seed: traced_stream(RngStream(seed), rec)))
        with patched(pairs):
            rows = cli._run_bench_job(item)
        return JobResult(rows, rec)


def run_cli(argv: list[str], trace: bool, rec: Recorder) -> int:
    """`cli.main(argv)` with every bench job run through a `GridJob`."""
    real_map_jobs = cli.map_jobs

    def map_jobs(worker, items, jobs=1):
        results = real_map_jobs(GridJob(trace), items, jobs)
        for result in results:
            rec.merge(result.recorder)
        return results

    with patched([(cli, "map_jobs", map_jobs)]):
        return cli.main(argv)
