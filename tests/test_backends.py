"""Kernel-backend registry and auto-executor policy.

Covers the dispatch layer introduced with :mod:`repro.backends`:

* the NumPy reference backend is *structurally* the pre-registry path —
  ``replay`` runs the workspace's own kernel, and every executor's
  registry-dispatched output is bit-identical to direct kernel calls;
* optional backends gate through verification (exact backends by
  ``tobytes``, accelerated by tolerance) and fall back to NumPy with a
  single per-process warning when absent or failing;
* the compiled ``c`` backend agrees with NumPy within tolerance, rejects
  bad inputs with an exception instead of a crash, and builds safely into
  a cold cache from several processes at once;
* :mod:`repro.parallel.policy` decisions are pinned over a
  (cpu_count, nnz, evidence) grid — serial is the null hypothesis and
  parallel requires measured evidence beating the margin.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.backends import (
    BackendType,
    BackendVerificationError,
    available_backends,
    backend_status,
    get_backend,
    verify_backend,
)
from repro.backends import c_backend
from repro.backends import registry as backend_registry
from repro.backends.numpy_backend import NumpyBackend
from repro.core.kernels import WaveWorkspace, sgd_serial_update, sgd_wave_update
from repro.sched.plan import EpochPlan

HAVE_CC = c_backend.find_compiler() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler found")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def clean_warnings(monkeypatch):
    """Reset the once-per-process warning dedup so each test observes the
    warning behaviour from scratch (instances/verification stay cached —
    they are deterministic)."""
    monkeypatch.setattr(backend_registry, "_warned", set())


@pytest.fixture
def no_compiler(monkeypatch, clean_warnings):
    """A host without a C compiler: the lookup finds nothing and no ``c``
    instance survives from earlier tests."""
    monkeypatch.setattr(c_backend, "find_compiler", lambda: None)
    monkeypatch.setattr(backend_registry, "_instances", {})


def _problem(seed=5, nnz=600, m=60, n=50, k=8):
    """Factors and racy samples, ids in RatingMatrix layout (int32)."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((m, k)).astype(np.float32)
    q = rng.standard_normal((n, k)).astype(np.float32)
    rows = rng.integers(0, m, nnz).astype(np.int32)
    cols = rng.integers(0, n, nnz).astype(np.int32)
    vals = rng.standard_normal(nnz).astype(np.float32)
    return p, q, rows, cols, vals


def _slices(nnz, w=64):
    """A plan whose waves are the samples' consecutive ``w``-slices."""
    return EpochPlan(np.arange(nnz), w, 1)


# ---------------------------------------------------------------------------
# resolution + reference backend
# ---------------------------------------------------------------------------
class TestRegistryResolution:
    def test_none_resolves_to_numpy_reference(self):
        backend = get_backend(None)
        assert isinstance(backend, NumpyBackend)
        assert backend.name is BackendType.NUMPY
        assert backend.exact

    def test_name_type_and_instance_requests_agree(self):
        by_name = get_backend("numpy")
        by_type = get_backend(BackendType.NUMPY)
        assert by_name is by_type  # one instance per process
        inst = NumpyBackend()
        assert get_backend(inst) is inst  # instances pass through, verified

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("tpu")

    def test_available_always_includes_numpy(self):
        assert BackendType.NUMPY in available_backends()
        assert (BackendType.C in available_backends()) == HAVE_CC

    def test_status_map_covers_all_types(self):
        status = backend_status()
        assert set(status) == {b.value for b in BackendType}
        get_backend("numpy")
        assert backend_status()["numpy"] == "verified"

    def test_replay_is_the_workspace_kernel(self):
        """The numpy backend replays a plan through the workspace's own
        wave kernel: one gather and one ``wave_update`` per live wave, and
        no allocation once the workspace has grown — registry dispatch
        adds nothing to the hot loop."""
        p, q, rows, cols, vals = _problem()
        plan = EpochPlan(np.random.default_rng(5).permutation(len(rows)),
                         16, 4)
        ws, backend = WaveWorkspace(), get_backend("numpy")
        args = (p, q, rows, cols, vals, 0.05, 0.02, 0.02)
        assert backend.replay(ws, plan, *args) == len(rows)
        grown = ws.allocations
        assert backend.replay(ws, plan, *args) == len(rows)
        assert (ws.plan_binds, ws.waves) == (2, 2 * plan.n_waves)
        assert ws.allocations == grown


class TestNumpyBitIdentity:
    def test_wave_update_bit_identical_to_reference(self):
        backend = get_backend("numpy")
        p_ref, q_ref, rows, cols, vals = _problem()
        p_got, q_got = p_ref.copy(), q_ref.copy()
        for lo in range(0, len(rows), 64):
            sl = slice(lo, lo + 64)
            sgd_wave_update(p_ref, q_ref, rows[sl], cols[sl], vals[sl],
                            0.05, 0.02, 0.02)
        backend.replay(WaveWorkspace(), _slices(len(rows)), p_got, q_got,
                       rows, cols, vals, 0.05, 0.02, 0.02)
        assert p_ref.tobytes() == p_got.tobytes()
        assert q_ref.tobytes() == q_got.tobytes()

    def test_serial_update_bit_identical_to_reference(self):
        backend = get_backend("numpy")
        p_ref, q_ref, rows, cols, vals = _problem(seed=6)
        p_got, q_got = p_ref.copy(), q_ref.copy()
        sgd_serial_update(p_ref, q_ref, rows, cols, vals, 0.05, 0.02, 0.02,
                          max_wave=32)
        backend.serial_update(p_got, q_got, rows, cols, vals,
                              0.05, 0.02, 0.02, max_wave=32)
        assert p_ref.tobytes() == p_got.tobytes()
        assert q_ref.tobytes() == q_got.tobytes()

    def test_batch_hogwild_dispatch_is_bit_stable(self, tiny_problem):
        """BatchHogwild through the registry (backend='numpy') matches the
        default (backend=None) run bit for bit."""
        from repro.core.hogwild import BatchHogwild
        from repro.core.model import FactorModel

        results = []
        for backend in (None, "numpy"):
            sched = BatchHogwild(workers=32, f=64, seed=9, backend=backend)
            model = FactorModel.initialize(
                tiny_problem.train.n_rows, tiny_problem.train.n_cols, 8,
                seed=9,
            )
            for _ in range(2):
                sched.run_epoch(model, tiny_problem.train, 0.05, 0.02)
            results.append((model.p.tobytes(), model.q.tobytes()))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# verification gate + fallback
# ---------------------------------------------------------------------------
class TestVerificationAndFallback:
    def test_broken_backend_fails_the_gate(self):
        class BrokenBackend(NumpyBackend):
            def replay(self, ws, shard, p, q, rows, cols, vals, lr, lam_p,
                       lam_q, **observers):
                return super().replay(ws, shard, p, q, rows, cols, vals,
                                      lr * 1.5, lam_p, lam_q, **observers)

        with pytest.raises(BackendVerificationError, match="bit identity"):
            verify_backend(BrokenBackend())

    def test_fp16_serial_update_is_gated(self):
        """The serial kernel is gated with fp16 storage too, not only the
        shard replay (out-of-core ``--half`` runs it)."""

        class BrokenHalfSerial(NumpyBackend):
            def serial_update(self, p, q, rows, cols, vals, lr, lam_p, lam_q,
                              max_wave=64, workspace=None):
                if p.dtype == np.float16:
                    lr = lr * 1.5
                super().serial_update(p, q, rows, cols, vals, lr, lam_p,
                                      lam_q, max_wave, workspace)

        with pytest.raises(BackendVerificationError,
                           match=r"serial_update \(float16\)"):
            verify_backend(BrokenHalfSerial())

    def test_gate_reaches_features_past_the_first_eight(self):
        """The gate's k runs a kernel's 8-wide body and its scalar tail, so
        an error confined to features 8 and up is caught."""

        class BrokenTail(NumpyBackend):
            def replay(self, ws, shard, p, q, rows, cols, vals, *args,
                       **observers):
                n = super().replay(ws, shard, p, q, rows, cols, vals, *args,
                                   **observers)
                p[rows, 8:] += 1
                return n

        with pytest.raises(BackendVerificationError, match="replay"):
            verify_backend(BrokenTail())

    def test_missing_c_compiler_falls_back_with_single_warning(
        self, no_compiler
    ):
        with pytest.warns(RuntimeWarning, match="needs a C compiler"):
            backend = get_backend("c")
        assert isinstance(backend, NumpyBackend)
        # second request: same fallback, no second warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert isinstance(get_backend("c"), NumpyBackend)

    def test_auto_skips_absent_backends_silently(self, no_compiler):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert isinstance(get_backend("auto"), NumpyBackend)

    def test_fallbacks_counted_in_ambient_registry(self, no_compiler):
        from repro.obs import TelemetryCollector, activate
        from repro.obs.registry import M

        collector = TelemetryCollector(run_label="backend-fallback")
        with activate(collector), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            get_backend("c")
            get_backend("c")  # warning dedups; the counter must not
        assert collector.registry.value(
            M.BACKEND_FALLBACKS, {"backend": "c"}
        ) == 2


# ---------------------------------------------------------------------------
# the compiled c backend
# ---------------------------------------------------------------------------
@needs_cc
class TestCBackend:
    def test_c_passes_tolerance_gate(self):
        backend = get_backend("c")
        assert backend.name is BackendType.C
        assert not backend.exact
        assert backend_status()["c"] == "verified"
        # racy waves (repeated rows/cols resolve last-writer-wins in lane
        # order, as numpy's scatter does) agree within the gate tolerance
        p_ref, q_ref, rows, cols, vals = _problem(seed=8)
        p_got, q_got = p_ref.copy(), q_ref.copy()
        plan = _slices(len(rows))
        for b, p, q in ((get_backend("numpy"), p_ref, q_ref),
                        (backend, p_got, q_got)):
            b.replay(WaveWorkspace(), plan, p, q, rows, cols, vals,
                     0.05, 0.02, 0.02)
        assert np.allclose(p_ref, p_got, rtol=1e-4, atol=1e-5)
        assert np.allclose(q_ref, q_got, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("k", [8, 13], ids=["k8", "k13"])
    @pytest.mark.parametrize("half", [False, True], ids=["fp32", "fp16"])
    def test_replay_matches_its_own_wave_kernel(self, tiny_problem, half, k):
        """One foreign call per shard, staged from the plan's order, is the
        compiled wave kernel run wave after wave (each wave replayed as a
        one-wave plan of its own lanes, in lane order): the two agree bit
        for bit, through the 8-wide body alone (k = 8) and with a scalar
        tail (k = 13). Inputs: a whole plan and each of its three thread
        shards; a plan whose last group is partial (twelve full lanes and
        one of eight samples); and one of 100 samples, which fills 7 of
        its 32 lanes and leaves the rest empty in every wave."""
        from repro.core.hogwild import BatchHogwild
        from repro.core.model import FactorModel

        backend = get_backend("c")
        if half and not backend.fp16:
            pytest.skip("fp16 storage runs the c kernel only with F16C")
        train = tiny_problem.train
        plan = BatchHogwild(workers=32, f=16, seed=4).compiled_plan(train.nnz)
        order = np.random.default_rng(4).permutation(train.nnz)
        ragged = EpochPlan(order[: 5 * 32 * 16 + 12 * 16 + 8], 32, 16)
        small = EpochPlan(order[:100], 32, 16)
        assert int(small.lengths.max()) == 7
        args = (train.rows, train.cols, train.vals, 0.05, 0.02, 0.02)
        for shard in (plan, *plan.shard(3), ragged, *ragged.shard(3),
                      small, *small.shard(2)):
            models = [FactorModel.initialize(train.n_rows, train.n_cols, k,
                                             seed=4, half_precision=half)
                      for _ in range(2)]
            ws = WaveWorkspace()
            n = backend.replay(ws, shard, models[0].p, models[0].q, *args)
            lo, hi = shard.col_lo, shard.col_hi
            lanes = shard.plan.positions(
                lo, hi, np.empty((shard.n_waves, hi - lo), np.int64))
            m = 0
            for wave, w in zip(lanes, shard.lengths.tolist()):
                if w:
                    m += backend.replay(ws, EpochPlan(wave[:w], w, 1),
                                        models[1].p, models[1].q, *args)
            assert n == m == int(shard.lengths.sum())
            assert models[0].p.tobytes() == models[1].p.tobytes()
            assert models[0].q.tobytes() == models[1].q.tobytes()

    def test_fit_rmse_matches_numpy_per_epoch(self, tiny_problem):
        from repro.core.trainer import CuMFSGD

        curves = {}
        for backend in ("numpy", "c"):
            est = CuMFSGD(k=8, workers=32, f=16, seed=5, backend=backend)
            history = est.fit(tiny_problem.train, epochs=3,
                              test=tiny_problem.test)
            curves[backend] = np.array(history.test_rmse)
        assert len(curves["c"]) == 3
        assert np.all(np.abs(curves["c"] - curves["numpy"]) < 1e-3)

    def test_oversubscribed_threads_apply_every_update(self, tiny_problem):
        """Four GIL-free threads on two or fewer cores, switching often:
        every sample is applied once per epoch and the racing fit still
        converges like the serial one."""
        from repro.core.trainer import CuMFSGD

        train, test = tiny_problem.train, tiny_problem.test
        serial = CuMFSGD(k=8, workers=32, f=16, seed=6, backend="c")
        serial.fit(train, epochs=4, test=test)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            est = CuMFSGD(k=8, n_threads=4, workers=32, f=16, seed=6,
                          backend="c")
            history = est.fit(train, epochs=4, test=test)
        finally:
            sys.setswitchinterval(interval)
        assert sum(est.executor.thread_updates) == train.nnz
        assert abs(history.final_test_rmse
                   - serial.history.final_test_rmse) < 0.02

    def test_fp16_storage_without_f16c_keeps_numpy_kernel(self, tiny_problem):
        from repro.core.hogwild import BatchHogwild
        from repro.core.model import FactorModel

        train = tiny_problem.train
        no_f16c = c_backend.CBackend()
        no_f16c.fp16 = False
        factors = []
        for backend in (NumpyBackend(), no_f16c):
            model = FactorModel.initialize(train.n_rows, train.n_cols, 8,
                                           seed=2, half_precision=True)
            BatchHogwild(workers=32, f=16, seed=2, backend=backend).run_epoch(
                model, train, 0.05, 0.02)
            backend.serial_update(model.p, model.q, train.rows, train.cols,
                                  train.vals, 0.05, 0.02, 0.02, max_wave=16)
            factors.append((model.p.tobytes(), model.q.tobytes()))
        assert factors[0] == factors[1]

    def test_serial_update_matches_numpy_within_the_gate(self, tiny_problem):
        """One foreign call of plain serial SGD agrees with the reference's
        conflict-free segments, with fp32 storage and (F16C) fp16."""
        from repro.core.model import FactorModel

        backend = get_backend("c")
        train = tiny_problem.train
        dtypes = [(False, 1e-4)]
        if backend.fp16:
            dtypes.append((True, backend_registry._RTOL_FP16))
        for half, rtol in dtypes:
            ref, got = (FactorModel.initialize(train.n_rows, train.n_cols, 8,
                                               seed=3, half_precision=half)
                        for _ in range(2))
            args = (train.rows, train.cols, train.vals, 0.05, 0.02, 0.02)
            sgd_serial_update(ref.p, ref.q, *args, max_wave=16)
            backend.serial_update(got.p, got.q, *args, max_wave=16)
            assert got.p.dtype == ref.p.dtype
            for a, b in ((ref.p, got.p), (ref.q, got.q)):
                assert np.allclose(a.astype(np.float32), b.astype(np.float32),
                                   rtol=rtol, atol=1e-5)

    def test_fp16_rounding_matches_numpy_in_body_and_tail(self):
        """With P zero, ``lam = 0`` and ``lr = 1`` each lane's error is its
        rating and each stored p feature is ``fp16(fp32(rating * q))``.
        Ratings and q values put ties to even, overflow to inf, subnormal
        results, a tie down to zero and negatives in features 0-7 (the
        8-wide body) and 8-12 (the scalar tail); every entry must store the
        bits NumPy does."""
        backend = get_backend("c")
        if not backend.fp16:
            pytest.skip("fp16 storage runs the c kernel only with F16C")
        tie = [1, -2.0**-14, 2.0**15, -4]
        cases = [  # (rating, four q values, tiled over k = 13 features)
            (1 + 2.0**-11, tie),  # ties down to even
            (1 + 3 * 2.0**-11, tie),  # ties up to even
            (-(1 + 2.0**-11), tie),
            (2, [65504, -65504, 3, -0.5]),  # overflow to +-inf
            (2.0**-10, [2.0**-14, -(2.0**-14), 3 * 2.0**-14, 2.0**-13]),
            (2.0**-11, [2.0**-14, -(2.0**-14), 3 * 2.0**-14, 5 * 2.0**-14]),
            (-(2.0**-11), [2.0**-14, 3 * 2.0**-14, -(2.0**-14), 1]),
        ]
        w, k = len(cases), 13
        vals = np.array([r for r, _ in cases], np.float32)
        q0 = np.array([np.resize(qs, k) for _, qs in cases], np.float16)
        assert q0.astype(np.float64).tolist() == [np.resize(qs, k).tolist()
                                                  for _, qs in cases]
        ids = np.arange(w, dtype=np.int32)  # RatingMatrix layout
        with np.errstate(over="ignore"):
            want = (vals[:, None] * q0.astype(np.float32)).astype(np.float16)
        assert np.isinf(want).any() and (want == 0).any()
        assert (np.abs(want[want != 0]) < 2.0**-14).any()  # subnormals

        def run(update):
            p, q = np.zeros((w, k), np.float16), q0.copy()
            with np.errstate(over="ignore"):
                update(p, q)
            return p.tobytes(), q.tobytes()

        args = (ids, ids, vals, 1.0, 0.0, 0.0)
        ref = run(lambda p, q: WaveWorkspace().wave_update(p, q, *args))
        assert ref == (want.tobytes(), q0.tobytes())
        plan = EpochPlan(np.arange(w), workers=w, f=1)
        ws = WaveWorkspace()
        assert run(lambda p, q: backend.replay(ws, plan, p, q, *args)) == ref
        assert run(lambda p, q: backend.serial_update(p, q, *args)) == ref

    def test_out_of_range_id_raises_before_any_update(self, tiny_problem):
        from repro.core.hogwild import BatchHogwild
        from repro.core.model import FactorModel

        backend = get_backend("c")
        train = tiny_problem.train
        model = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=1)
        before = model.p.copy()
        plan = BatchHogwild(workers=32, f=16, seed=1).compiled_plan(train.nnz)
        rows = train.rows.copy()
        rows[-1] = train.n_rows  # one past the last row
        with pytest.raises(IndexError, match="row ids"):
            backend.replay(WaveWorkspace(), plan, model.p, model.q, rows,
                           train.cols, train.vals, 0.05, 0.02, 0.02)
        assert model.p.tobytes() == before.tobytes()
        # an order entry outside the data, in the last group or the first:
        # the kernel checks the whole order before its first update
        before_q = model.q.copy()
        for at, entry in ((-1, train.nnz), (0, -1)):
            order = np.arange(train.nnz, dtype=np.int64)
            order[at] = entry
            with pytest.raises(IndexError, match="outside the data"):
                backend.replay(WaveWorkspace(), EpochPlan(order, 32, 16),
                               model.p, model.q, train.rows, train.cols,
                               train.vals, 0.05, 0.02, 0.02)
            assert model.p.tobytes() == before.tobytes()
            assert model.q.tobytes() == before_q.tobytes()
        cols = train.cols.copy()
        cols[0] = -1
        with pytest.raises(IndexError, match="column ids"):
            backend.replay(WaveWorkspace(), plan, model.p, model.q,
                           train.rows, cols, train.vals, 0.05, 0.02, 0.02)
        assert model.p.tobytes() == before.tobytes()
        # the serial kernel checks every id before its first update
        before_q = model.q.copy()
        with pytest.raises(IndexError, match="leave the 300 x 200 model"):
            backend.serial_update(model.p, model.q, rows, train.cols,
                                  train.vals, 0.05, 0.02, 0.02)
        assert model.p.tobytes() == before.tobytes()
        assert model.q.tobytes() == before_q.tobytes()

    def test_fp64_model_and_ratings_rejected(self):
        backend = get_backend("c")
        p, q, rows, cols, vals = _problem(seed=9)
        plan = _slices(8, 8)

        def replay(p, q, vals):
            backend.replay(WaveWorkspace(), plan, p, q, rows, cols, vals,
                           0.05, 0.02, 0.02)

        with pytest.raises(ValueError, match="fp32 or fp16"):
            replay(p.astype(np.float64), q.astype(np.float64), vals)
        with pytest.raises(ValueError, match="fp32 ratings"):
            replay(p, q, vals.astype(np.float64))
        with pytest.raises(ValueError, match="C-contiguous"):
            replay(np.asfortranarray(p), q, vals)

    def test_two_processes_build_into_a_cold_cache(self, tmp_path):
        """Both compile into the same empty cache at once; the atomic
        publish leaves one complete shared object that both load."""
        script = (
            "from repro.backends.c_backend import CBackend\n"
            "b = CBackend()\n"
            "print(b.path)\n"
        )
        env = dict(os.environ, REPRO_C_CACHE=str(tmp_path / "cache"),
                   PYTHONPATH=str(SRC))
        procs = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(2)]
        paths = [proc.communicate(timeout=120)[0].strip() for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert paths[0] == paths[1]
        built = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert built == [Path(paths[0]).name]  # no temp files left behind


# ---------------------------------------------------------------------------
# auto-policy decisions
# ---------------------------------------------------------------------------
class TestExecutorPolicy:
    GOOD_EVIDENCE = {"threads_vs_serial": 1.8, "n_threads": 4}

    def test_one_core_is_always_serial(self):
        from repro.parallel.policy import choose_executor

        for nnz in (1_000, 500_000, 50_000_000):
            choice = choose_executor(nnz, 32, cpu_count=1,
                                     evidence=self.GOOD_EVIDENCE)
            assert choice.executor == "serial"
            assert choice.n_workers == 1
            assert "cpu_count=1" in choice.reason

    def test_small_problems_stay_serial_on_any_host(self):
        from repro.parallel.policy import SMALL_NNZ, choose_executor

        choice = choose_executor(SMALL_NNZ - 1, 32, cpu_count=16,
                                 evidence=self.GOOD_EVIDENCE)
        assert choice.executor == "serial"
        assert "too small" in choice.reason

    def test_no_evidence_means_serial(self):
        from repro.parallel.policy import choose_executor

        choice = choose_executor(5_000_000, 32, cpu_count=8, ledger=None)
        assert choice.executor == "serial"
        assert "no measured evidence" in choice.reason

    def test_evidence_below_margin_stays_serial(self):
        from repro.parallel.policy import choose_executor

        choice = choose_executor(
            5_000_000, 32, cpu_count=8,
            evidence={"threads_vs_serial": 1.02},
        )
        assert choice.executor == "serial"
        assert "below" in choice.reason

    def test_best_measured_executor_wins(self):
        from repro.parallel.policy import choose_executor

        choice = choose_executor(5_000_000, 32, cpu_count=8,
                                 evidence=self.GOOD_EVIDENCE)
        assert choice.executor == "threads"
        assert choice.n_workers == 4
        assert "threads_vs_serial=1.80" in choice.reason

    def test_workers_clamped_to_cores(self):
        from repro.parallel.policy import choose_executor

        evidence = dict(self.GOOD_EVIDENCE, n_threads=16)
        choice = choose_executor(5_000_000, 32, cpu_count=2,
                                 evidence=evidence)
        assert choice.executor == "threads"
        assert choice.n_workers == 2

    def test_backend_choice_is_size_aware(self):
        from repro.parallel.policy import C_MIN_NNZ, choose_backend

        # explicit request passes through untouched
        assert choose_backend(100, 8, "numpy")[0] == "numpy"
        assert choose_backend(100, 8, "c")[0] == "c"
        name, reason = choose_backend(C_MIN_NNZ * 10, 8, "auto")
        if HAVE_CC:
            assert name == "c"
            assert choose_backend(C_MIN_NNZ - 1, 8, "auto")[0] == "numpy"
        else:
            assert name == "numpy"
            assert "no accelerated backend" in reason

    def test_evidence_from_ledger_filters(self, tmp_path):
        from repro.obs.ledger import PerfLedger
        from repro.parallel.policy import evidence_from_ledger

        def entry(cpu_count, threads_ratio, oversubscribed=False):
            return {
                "benchmark": "parallel",
                "schema_version": 3,
                "config": {"n_threads": 4},
                "meta": {"cpu_count": cpu_count},
                "metrics": {
                    "threads_vs_serial": threads_ratio,
                    "oversubscribed": oversubscribed,
                },
            }

        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        ledger.append(entry(8, 1.5))
        ledger.append(entry(4, 2.0))           # wrong cpu_count
        ledger.append(entry(8, 9.9, True))     # oversubscribed: ignored
        ledger.append(entry(8, 1.7))           # newest comparable: wins
        ledger.append({"benchmark": "hot_path", "metrics": {}})
        evidence = evidence_from_ledger(ledger, cpu_count=8)
        assert evidence["threads_vs_serial"] == 1.7
        assert evidence["n_threads"] == 4
        assert "oversubscribed" not in evidence
        assert evidence_from_ledger(ledger, cpu_count=64) is None
        assert evidence_from_ledger(None, cpu_count=8) is None

    def test_evidence_must_match_the_backend(self, tmp_path):
        """A speedup measured on one kernel says nothing about another;
        entries without a recorded backend ran numpy."""
        from repro.obs.ledger import PerfLedger
        from repro.parallel.policy import evidence_from_ledger

        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        for config, ratio in (({}, 1.5), ({"backend": "c"}, 1.2)):
            ledger.append({
                "benchmark": "parallel", "config": config,
                "meta": {"cpu_count": 2},
                "metrics": {"threads_vs_serial": ratio},
            })
        ratio = lambda backend: evidence_from_ledger(  # noqa: E731
            ledger, 2, backend)["threads_vs_serial"]
        assert ratio("numpy") == 1.5
        assert ratio("c") == 1.2
        assert ratio(None) == 1.2  # newest entry, any backend

    def test_publish_choice_emits_policy_metrics(self):
        from repro.obs import TelemetryCollector, activate
        from repro.obs.registry import M
        from repro.parallel.policy import ExecutorChoice, publish_choice

        collector = TelemetryCollector(run_label="policy")
        with activate(collector):
            publish_choice(
                ExecutorChoice("serial", 1, "numpy", "pinned by test")
            )
        assert collector.registry.value(
            M.POLICY_EXECUTOR_SELECTED, {"executor": "serial"}
        ) == 1
        assert collector.registry.value(
            M.BACKEND_SELECTED, {"backend": "numpy", "executor": "serial"}
        ) == 1
        assert collector.registry.value(
            M.BACKEND_AVAILABLE, {"backend": "numpy"}
        ) == 1
