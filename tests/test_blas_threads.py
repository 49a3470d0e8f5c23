"""One BLAS thread inside every chain: the scope, its restore, and its workers.

Chains run under `_linalg.one_blas_thread()`, which sets every loaded
OpenBLAS copy to one thread and restores the caller's counts on exit. The
tests check that draws no longer depend on the host's thread count, that the
caller's counts come back after normal and failed chains, nested scopes and
concurrent chains, that `map_jobs` workers inherit one thread without
restarting a BLAS thread pool, and that the chain runs as before, recording
"unknown", when no OpenBLAS control is found.
"""
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from blockgibbs import (
    FactorizationError,
    KernelKind,
    ModelSpec,
    RngStream,
    RunConfig,
    SamplerError,
    run_chain,
    samplers,
)
from blockgibbs import _linalg
from blockgibbs._linalg import _OpenBlas, one_blas_thread
from blockgibbs.cli import main, map_jobs
from blockgibbs.simgen import Scenario, ScenarioSpec

SRC = Path(__file__).resolve().parents[1] / "src"
CONTROLS = _linalg._openblas_controls()
needs_openblas = pytest.mark.skipif(not CONTROLS, reason="no OpenBLAS control found")


def counts():
    return [lib.get_threads() for lib in CONTROLS]


@pytest.fixture
def caller_at_two_threads():
    """The caller's OpenBLAS copies at two threads, restored afterwards."""
    before = counts()
    for lib in CONTROLS:
        lib.set_threads(2)
    yield
    for lib, count in zip(CONTROLS, before):
        lib.set_threads(count)


def group_problem(scenario, n, p, seed=3):
    sim = ScenarioSpec(scenario, n, p).generate(RngStream(seed))
    return ModelSpec.group_lasso(1.0, sim.groups), sim.dataset


def run_in_threads(target, args_list) -> list:
    """Run `target(*args)` in one thread per entry; the exceptions raised."""
    errors = []

    def guarded(*args):
        try:
            target(*args)
        except Exception as exc:  # reported to the test's thread
            errors.append(exc)

    workers = [threading.Thread(target=guarded, args=args) for args in args_list]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()
    return errors


class FakeOpenBlas:
    """A stand-in library that records every count it is set to."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def control(self, name):
        def set_threads(count):
            self.sets.append(count)
            self.count = count

        return _OpenBlas(name, lambda: self.count, set_threads, "fake")


# ---------------------------------------------------------------------------
# draws do not depend on the host's thread count
# ---------------------------------------------------------------------------

DIGEST_SCRIPT = """
import hashlib, json
import numpy as np
from blockgibbs import ModelSpec, RngStream, RunConfig, run_chain, sample_mvn_precision
from blockgibbs._linalg import _openblas_controls
from blockgibbs.simgen import Scenario, ScenarioSpec

before = [lib.get_threads() for lib in _openblas_controls()]
digests = {}
for scenario, n, p in ((Scenario.EXTRA_TALL, 1000, 250),
                       (Scenario.EXTRA_WIDE, 100, 200)):
    sim = ScenarioSpec(scenario, n, p).generate(RngStream(3))
    spec = ModelSpec.group_lasso(1.0, sim.groups)
    for kernel in ("2bg", "3bg"):
        out = run_chain(kernel, spec, sim.dataset,
                        RunConfig(n_iter=50, burn_in=0, seed=5, store_beta=True))
        key = f"{scenario.value}/{kernel}/{out.block_update}"
        digests[key] = hashlib.blake2b(out.sigma2_draws.tobytes()
                                       + out.beta_draws.tobytes()).hexdigest()
x = sim.dataset.x
draw = sample_mvn_precision(x.T @ sim.dataset.y, x.T @ x + np.eye(x.shape[1]),
                            1.0, RngStream(6))
digests["sample_mvn_precision"] = hashlib.blake2b(draw.tobytes()).hexdigest()
after = [lib.get_threads() for lib in _openblas_controls()]
print(json.dumps({"digests": digests, "before": before, "after": after}))
"""


def digests_at(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def test_draws_do_not_depend_on_the_blas_thread_count():
    one, two = digests_at(1), digests_at(2)
    assert sorted(one["digests"]) == ["sample_mvn_precision",
                                      "tall/2bg/dense", "tall/3bg/dense",
                                      "wide/2bg/nspace", "wide/3bg/nspace"]
    assert one["digests"] == two["digests"]
    # each process gets its own thread count back after its chains
    assert one["after"] == one["before"]
    assert two["after"] == two["before"]


# ---------------------------------------------------------------------------
# the scope restores the caller's counts
# ---------------------------------------------------------------------------

@needs_openblas
def test_chain_runs_at_one_thread_and_restores(monkeypatch, caller_at_two_threads):
    spec, data = group_problem(Scenario.GROUPED_POLY, 30, 10)
    seen = []
    real = samplers.cholesky_spd

    def watching(a, *args, **kwargs):
        seen.append(counts())
        return real(a, *args, **kwargs)

    monkeypatch.setattr(samplers, "cholesky_spd", watching)
    out = run_chain(KernelKind.TWO_BLOCK, spec, data,
                    RunConfig(n_iter=5, burn_in=0, seed=1))
    assert out.blas_threads == 1
    assert seen == [[1] * len(CONTROLS)] * 5
    assert counts() == [2] * len(CONTROLS)


@needs_openblas
def test_counts_restored_after_a_failed_chain(monkeypatch, caller_at_two_threads):
    spec, data = group_problem(Scenario.GROUPED_POLY, 30, 10)
    calls = []
    real = samplers.cholesky_spd

    def failing_third(a, *args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise FactorizationError("posterior precision", "injected")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(samplers, "cholesky_spd", failing_third)
    with pytest.raises(SamplerError, match="iteration 2"):
        run_chain(KernelKind.TWO_BLOCK, spec, data,
                  RunConfig(n_iter=10, burn_in=0, seed=4))
    assert counts() == [2] * len(CONTROLS)


def test_scope_sets_and_restores_only_what_it_changed(monkeypatch):
    at_three, at_one = FakeOpenBlas(3), FakeOpenBlas(1)
    fakes = (at_three.control("a"), at_one.control("b"))
    monkeypatch.setattr(_linalg, "_openblas_controls", lambda: fakes)
    with one_blas_thread() as threads:
        assert threads == 1
        assert (at_three.count, at_one.count) == (1, 1)
        with one_blas_thread() as inner:  # a nested scope makes no call
            assert inner == 1
        assert at_three.sets == [1]
    assert at_three.sets == [1, 3] and at_one.sets == []
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError("inside")
    assert at_three.sets == [1, 3, 1, 3] and at_three.count == 3


def test_concurrent_scopes_save_and_restore_once(monkeypatch):
    lib = FakeOpenBlas(2)
    fake = (lib.control("a"),)
    monkeypatch.setattr(_linalg, "_openblas_controls", lambda: fake)
    spec, data = group_problem(Scenario.GROUPED_POLY, 30, 10)
    both_inside = threading.Barrier(2, timeout=30)
    outputs = []

    def chain():
        with one_blas_thread():
            both_inside.wait()
            outputs.append(run_chain(KernelKind.TWO_BLOCK, spec, data,
                                     RunConfig(n_iter=50, burn_in=0, seed=2)))

    assert run_in_threads(chain, [(), ()]) == []
    assert lib.sets == [1, 2] and lib.count == 2
    assert [out.blas_threads for out in outputs] == [1, 1]


def test_many_threads_entering_scopes_restore_the_count(monkeypatch):
    lib = FakeOpenBlas(4)
    fake = (lib.control("a"),)
    monkeypatch.setattr(_linalg, "_openblas_controls", lambda: fake)
    seen = []

    def enter_often():
        for _ in range(300):
            with one_blas_thread():
                seen.append(lib.count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        errors = run_in_threads(enter_often, [()] * 8)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(seen) == 8 * 300 and set(seen) == {1}
    # every save was at 4 and every restore back to 4, in pairs
    assert lib.count == 4 and lib.sets == [1, 4] * (len(lib.sets) // 2)


def test_threads_reaching_a_new_reduction_at_once_keep_one_copy(monkeypatch):
    # each of more threads than cores finds no reduction and makes its own;
    # every chain then runs on the one copy stored first, with equal draws
    spec, data = group_problem(Scenario.EXTRA_TALL, 200, 50)
    all_inside = threading.Barrier(4, timeout=30)
    used = []
    real = samplers._dense_data

    def racing(dataset):
        all_inside.wait()
        used.append(real(dataset))
        return used[-1]

    monkeypatch.setattr(samplers, "_dense_data", racing)
    config = RunConfig(n_iter=30, burn_in=0, seed=5, store_beta=True)
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        errors = run_in_threads(
            lambda: outputs.append(run_chain(KernelKind.TWO_BLOCK, spec, data, config)),
            [()] * 4)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(used) == len(outputs) == 4
    assert all(reduction is used[0] for reduction in used)
    assert samplers._DENSE_DATA[data] is used[0]
    assert all(out.beta_draws.tobytes() == outputs[0].beta_draws.tobytes()
               for out in outputs)


@needs_openblas
def test_two_threads_running_chains_leave_the_caller_count(caller_at_two_threads):
    spec, data = group_problem(Scenario.EXTRA_TALL, 400, 150)

    def chain(seed):
        run_chain(KernelKind.TWO_BLOCK, spec, data,
                  RunConfig(n_iter=100, burn_in=0, seed=seed))

    assert run_in_threads(chain, [(1,), (2,)]) == []
    assert counts() == [2] * len(CONTROLS)


# ---------------------------------------------------------------------------
# map_jobs workers inherit one thread and start no BLAS pool
# ---------------------------------------------------------------------------

def _worker_blas_state(seed):
    """Run a chain big enough for threaded BLAS, then report this process."""
    spec, data = group_problem(Scenario.EXTRA_TALL, 300, 150, seed=seed)
    run_chain(KernelKind.TWO_BLOCK, spec, data, RunConfig(n_iter=20, burn_in=0))
    return ([lib.get_threads() for lib in _linalg._openblas_controls()],
            len(os.listdir("/proc/self/task")))


@needs_openblas
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
def test_map_jobs_workers_run_one_thread_and_one_task(caller_at_two_threads):
    states = map_jobs(_worker_blas_state, [1, 2, 3, 4], jobs=2)
    assert states == [([1] * len(CONTROLS), 1)] * 4
    assert counts() == [2] * len(CONTROLS)


# ---------------------------------------------------------------------------
# no OpenBLAS control: the chain runs as before and records "unknown"
# ---------------------------------------------------------------------------

def test_without_controls_draws_are_unchanged_and_unknown(monkeypatch, capsys):
    spec, data = group_problem(Scenario.GROUPED_POLY, 30, 10)
    config = RunConfig(n_iter=200, burn_in=0, seed=9, store_beta=True)
    scoped = run_chain(KernelKind.THREE_BLOCK, spec, data, config)
    monkeypatch.setattr(_linalg, "_openblas_controls", lambda: ())
    bare = run_chain(KernelKind.THREE_BLOCK, spec, data, config)
    assert bare.blas_threads == "unknown"
    np.testing.assert_array_equal(bare.sigma2_draws, scoped.sigma2_draws)
    np.testing.assert_array_equal(bare.beta_draws, scoped.beta_draws)
    assert main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "30", "--K", "2", "--lambda", "1",
                 "--iters", "300", "--burnin", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["blas_threads"] == "unknown" and report["blas_libraries"] == {}


@needs_openblas
def test_run_report_records_threads_and_libraries(capsys):
    assert main(["run", "--model", "group-lasso", "--kernel", "2bg",
                 "--scenario", "s1", "--n", "30", "--K", "2", "--lambda", "1",
                 "--iters", "300", "--burnin", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["blas_threads"] == 1
    assert report["blas_libraries"] == {lib.name: lib.config for lib in CONTROLS}
    assert all(config.startswith("OpenBLAS") for config in report["blas_libraries"].values())


ROUTINES_SCRIPT = """
import json, sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
from blockgibbs import _linalg
if sys.argv[1] == "after":
    import scipy.linalg
from scipy.linalg import blas, lapack
rng = np.random.default_rng(7)
x = rng.standard_normal((9, 6))
a = np.asfortranarray(x.T @ x + np.eye(6))
b = rng.standard_normal(6)
chol = lapack.dpotrf(a, lower=1, clean=0)[0]
r, block = np.asfortranarray(np.triu(rng.standard_normal((6, 6)))), np.asfortranarray(x)
pairs = {
    "potrf": (_linalg._potrf(a, lower=1, clean=0), lapack.dpotrf(a, lower=1, clean=0)),
    "trsv": (_linalg._trsv(chol, b, lower=1, trans=1), blas.dtrsv(chol, b, lower=1, trans=1)),
    "syrk": (_linalg._syrk(1.0, x, trans=1, lower=1), blas.dsyrk(1.0, x, trans=1, lower=1)),
    "tpqrt": (_linalg._tpqrt(0, 6, r, block), lapack.dtpqrt(0, 6, r, block)),
}
def parts(result):
    return [np.asarray(part).tobytes() for part in
            (result if isinstance(result, tuple) else (result,))]
print(json.dumps({name: parts(ours) == parts(theirs)
                  for name, (ours, theirs) in pairs.items()}))
"""


@pytest.mark.parametrize("order", ["before", "after"])
def test_routines_equal_scipy_linalg_imported_before_or_after(order):
    # _linalg loads scipy's _flapack and _fblas without the scipy.linalg
    # package; importing that package before or after changes no result
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", ROUTINES_SCRIPT, order], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout) == {"potrf": True, "trsv": True, "syrk": True,
                                      "tpqrt": True}


LIBRARIES_SCRIPT = """
import json
from blockgibbs import _linalg
before = sorted(_linalg.blas_libraries())
with _linalg.one_blas_thread():
    inside = [lib.get_threads() for lib in _linalg._openblas_controls()]
import scipy.linalg
_linalg._openblas_controls.cache_clear()
print(json.dumps({"before": before, "inside": inside,
                  "after": sorted(_linalg.blas_libraries())}))
"""


@needs_openblas
def test_scipys_openblas_is_controlled_without_scipy_linalg():
    # scipy.linalg maps no OpenBLAS copy that the extension modules have not
    # mapped already, so one_blas_thread() sets scipy's copy too
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="2")
    out = json.loads(subprocess.run(
        [sys.executable, "-c", LIBRARIES_SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=120).stdout)
    assert out["before"] == out["after"] == sorted(lib.name for lib in CONTROLS)
    assert out["inside"] == [1] * len(CONTROLS)


def test_a_missing_extension_module_is_named():
    with pytest.raises(ImportError, match=r"scipy\.linalg\._fnosuch was not found"):
        _linalg._scipy_linalg_extension("_fnosuch")
