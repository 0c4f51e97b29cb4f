"""Kernel events come from the plan, not from the kernel that replays it.

A batch-Hogwild! epoch's waves are fixed by the shuffled order, the worker
count ``s`` and the chunk size ``f`` (§5.1), so the Eq. 6 sample a kernel
event carries is a property of the schedule.
:func:`repro.obs.hooks.emit_plan_events` reads the events off the plan
after the replay, and an executor's kernel path no longer depends on
whether anyone listens. The reference here is the emitter that used to run
inside the Python wave loop, kept verbatim as ``tests/test_oracle.py``
keeps ``RoundScheduler``: every stream must equal its stream, event for
event, with the same factors and the same sanitizer report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import c_backend, get_backend
from repro.backends.numpy_backend import NumpyBackend
from repro.core.adagrad import AdaGradHogwild
from repro.core.hogwild import BatchHogwild
from repro.core.kernels import UPDATE_ERRSTATE, WaveWorkspace
from repro.core.lr_schedule import AdaGradSchedule
from repro.core.model import FactorModel
from repro.obs.hooks import KernelEvent, RecordingHooks, emit_plan_events
from repro.san import activate_sanitizer
from repro.san.core import Sanitizer
from repro.sched.plan import EpochPlan

needs_cc = pytest.mark.skipif(c_backend.find_compiler() is None,
                              reason="no C compiler found")

LR, LAM = 0.05, 0.05
EPOCHS = 2


def _reference_replay(ws, wave_update, shard, p, q, rows, cols, vals, lr,
                      lam_p, lam_q, *, hooks, name, san=None, wid=0,
                      epoch=0) -> int:
    """The Python wave loop with its in-loop kernel-event emitter, as the
    executors ran it while a hooks consumer listened."""
    rows_w, cols_w, vals_w = ws.bind_plan(shard, rows, cols, vals)
    width = shard.width
    observe = hooks is not None and hooks.active
    stride = max(1, int(getattr(hooks, "kernel_stride", 1))) if observe else 1
    pending_waves = pending_updates = 0
    sentry = san.numeric if san is not None and san.check_numeric else None
    san_stride = sentry.sample_stride if sentry is not None else 1
    updates = 0
    with np.errstate(**UPDATE_ERRSTATE):
        for i, (wr, wc, wv, w) in enumerate(
            zip(rows_w, cols_w, vals_w, shard.lengths.tolist())
        ):
            if w != width:
                if not w:
                    continue
                wr = wr[:w]
                wc = wc[:w]
                wv = wv[:w]
            err = wave_update(p, q, wr, wc, wv, lr, lam_p, lam_q)
            updates += w
            if sentry is not None and not i % san_stride:
                if not i:
                    sentry.check_dtypes(p, q, err, wid, epoch)
                sentry.check_wave(err, wid, epoch, i)
            if observe:
                pending_waves += 1
                pending_updates += w
                if pending_waves == stride:
                    hooks.on_kernel(KernelEvent(
                        name=name, n_updates=pending_updates,
                        rows=wr.copy(), cols=wc.copy(),
                        n_waves=pending_waves,
                    ))
                    pending_waves = pending_updates = 0
    if pending_waves:
        hooks.on_kernel(KernelEvent(name=name, n_updates=pending_updates,
                                    n_waves=pending_waves))
    if san is not None:
        san.epoch_executed(rows_w, cols_w, shard.lengths, wid=wid, epoch=epoch)
    return updates


def _compiled_wave(backend, ws):
    """The backend's kernel one wave at a time: each wave is a one-wave
    plan of its own lanes, replayed from int32 ids (the layout the
    compiled kernel reads in place); returns the wave's residuals, which
    the call leaves in the workspace's error scratch."""
    def wave_update(p, q, rows, cols, vals, lr, lam_p, lam_q):
        w = len(rows)
        backend.replay(ws, EpochPlan(np.arange(w), w, 1), p, q,
                       rows.astype(np.int32), cols.astype(np.int32), vals,
                       lr, lam_p, lam_q)
        return ws.kernel_scratch(w, p.shape[1])[2][:w]

    return wave_update


def _reference_epoch(exe, model, ratings, hooks, san) -> int:
    """One epoch the way a hooked executor ran it: the wave loop above over
    the workspace's wave kernel on numpy, the compiled kernel one wave at
    a time on ``c`` (AdaGrad: its own wave)."""
    plan = exe.compiled_plan(ratings.nnz)
    ws, p, q = exe.workspace, model.p, model.q
    data = (p, q, ratings.rows, ratings.cols, ratings.vals)
    epoch = san.begin_epoch() if san is not None else 0
    if isinstance(exe, AdaGradHogwild):
        exe._ensure_state(model)
        updates = _reference_replay(ws, exe._wave, plan, *data, LR, LAM, LAM,
                                    hooks=hooks, name="adagrad.wave",
                                    san=san, epoch=epoch)
    else:
        ws.reserve(plan.width, p.shape[1], half_precision=p.dtype != np.float32)
        backend = exe.resolved_backend()
        wave_update = (ws.wave_update if isinstance(backend, NumpyBackend)
                       else _compiled_wave(backend, ws))
        updates = _reference_replay(
            ws, wave_update, plan, *data,
            np.float32(LR), np.float32(LAM), np.float32(LAM), hooks=hooks,
            name="hogwild.wave", san=san, epoch=epoch)
    if san is not None:
        san.epoch_end(p, q, epoch=epoch)
    return updates


class _Recorder(RecordingHooks):
    """Every event, under a consumer's ``kernel_stride`` hint."""

    def __init__(self, stride: int) -> None:
        super().__init__()
        self.kernel_stride = stride


def event_key(event: KernelEvent) -> tuple:
    """Everything a kernel event carries, coordinates' dtype included."""
    coords = tuple(None if ids is None else (ids.dtype.str, ids.tobytes())
                   for ids in (event.rows, event.cols))
    return (event.name, event.n_updates, event.n_waves, coords)


def _executor(scheme: str, backend):
    if scheme == "adagrad":
        return AdaGradHogwild(workers=16, f=8, seed=3,
                              schedule=AdaGradSchedule(0.1))
    return BatchHogwild(workers=16, f=8, seed=3, backend=backend)


def _fit(train, scheme, backend, hooks, sanitize, reference=False,
         half=False):
    """``EPOCHS`` epochs; returns (model, executor, sanitizer report)."""
    exe = _executor(scheme, backend)
    model = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=0,
                                   half_precision=half)
    san = Sanitizer("all") if sanitize else None
    for _ in range(EPOCHS):
        if reference:
            n = _reference_epoch(exe, model, train, hooks, san)
        elif san is not None:
            with activate_sanitizer(san):
                n = exe.run_epoch(model, train, LR, LAM, LAM, hooks=hooks)
        else:
            n = exe.run_epoch(model, train, LR, LAM, LAM, hooks=hooks)
        assert n == train.nnz
    report = None if san is None else san.finalize(publish=False).as_dict()
    return model, exe, report


CASES = [("hogwild", "numpy"), ("adagrad", "numpy"),
         pytest.param("hogwild", "c", marks=needs_cc)]


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("stride", [1, 7, 128])
@pytest.mark.parametrize("scheme, backend", CASES)
def test_stream_equals_the_in_loop_emitters(tiny_problem, scheme, backend,
                                            stride, sanitize):
    """Event for event the stream the wave loop emitted, on the same
    factors; a sanitized fit's report is an unhooked sanitized fit's."""
    train = tiny_problem.train
    ref_hooks, hooks = _Recorder(stride), _Recorder(stride)
    ref_model, _, ref_report = _fit(train, scheme, backend, ref_hooks,
                                    sanitize, reference=True)
    model, _, report = _fit(train, scheme, backend, hooks, sanitize)
    assert len(ref_hooks.kernels) > EPOCHS
    assert [event_key(e) for e in hooks.kernels] == (
        [event_key(e) for e in ref_hooks.kernels])
    assert model.p.tobytes() == ref_model.p.tobytes()
    assert model.q.tobytes() == ref_model.q.tobytes()
    if sanitize:
        _, _, unhooked = _fit(train, scheme, backend, None, sanitize)
        assert report["clean"] and report["race"]["samples"] == EPOCHS * train.nnz
        assert report == unhooked == ref_report


@pytest.mark.parametrize("workers, f", [(16, 8), (64, 256), (7, 3), (500, 64)])
@pytest.mark.parametrize("stride", [1, 7, 64, 128])
def test_plan_events_match_on_any_geometry(workers, f, stride):
    """Full groups, a partial tail group and plans of fewer samples than
    one group all give the wave loop's events."""
    nnz = 5_000
    rng = np.random.default_rng(workers * f + stride)
    rows = rng.integers(0, 400, nnz).astype(np.int32)
    cols = rng.integers(0, 300, nnz).astype(np.int32)
    vals = np.zeros(nnz, np.float32)
    plan = EpochPlan(rng.permutation(nnz), workers, f)
    ref_hooks, hooks = _Recorder(stride), _Recorder(stride)
    _reference_replay(WaveWorkspace(), lambda *wave: None, plan, None, None,
                      rows, cols, vals, LR, LAM, LAM, hooks=ref_hooks,
                      name="hogwild.wave")
    emit_plan_events(hooks, plan, rows, cols)
    assert [event_key(e) for e in hooks.kernels] == (
        [event_key(e) for e in ref_hooks.kernels])
    assert sum(e.n_waves for e in hooks.kernels) == plan.n_waves
    assert sum(e.n_updates for e in hooks.kernels) == nnz


class _CountingNumpy(NumpyBackend):
    """The NumPy reference, counting ``replay`` calls."""

    def __init__(self) -> None:
        self.replays = 0

    def replay(self, *args, **observers):
        self.replays += 1
        return super().replay(*args, **observers)


def test_hooked_numpy_epoch_is_one_backend_replay(tiny_problem):
    """A listener does not change the kernel path: each hooked epoch is
    one ``backend.replay`` call."""
    backend = get_backend(_CountingNumpy())
    backend.replays = 0  # the registry's gate replays its own problem
    _fit(tiny_problem.train, "hogwild", backend, _Recorder(1), sanitize=False)
    assert backend.replays == EPOCHS


@needs_cc
@pytest.mark.parametrize("half", [False, True], ids=["fp32", "fp16"])
def test_hooked_c_epoch_runs_the_compiled_replay(tiny_problem, half):
    """On ``c`` a hooked epoch is the one foreign call an unhooked one
    is: no epoch gather (``plan_binds`` stays 0) and the same bytes."""
    if half and not get_backend("c").fp16:
        pytest.skip("fp16 storage runs the c kernel only with F16C")
    train = tiny_problem.train
    hooks = _Recorder(128)
    plain, _, _ = _fit(train, "hogwild", "c", None, False, half=half)
    hooked, exe, _ = _fit(train, "hogwild", "c", hooks, False, half=half)
    assert exe.workspace.plan_binds == 0
    assert exe.workspace.waves == EPOCHS * exe.compiled_plan(train.nnz).n_waves
    assert hooks.kernels
    assert hooked.p.tobytes() == plain.p.tobytes()
    assert hooked.q.tobytes() == plain.q.tobytes()
