"""reprosan core: the Sanitizer, ambient activation, kernel instrumentation.

A :class:`Sanitizer` is activated ambiently (contextvar, mirroring
``repro.obs.context``) so the executors — serial
:class:`~repro.core.hogwild.BatchHogwild`, threaded and process Hogwild,
the :class:`~repro.data.blockstore.BlockPrefetcher` — can pick it up
without plumbing a parameter through every constructor:

    san = sanitizer_from_mode("all")
    with activate_sanitizer(san):
        trainer.fit(model, ratings)
    report = san.finalize()

Three check families, toggled by mode:

``races``
    Every instrumented kernel call appends (worker, epoch, wave,
    row-range) to a shadow :class:`~repro.san.races.AccessLog`; a
    post-fit :func:`~repro.san.races.analyze_log` pass detects
    within-wave write overlaps, cross-shard ownership violations and
    quantifies the benign cross-worker race rate. Also enables the
    shm/mmap lifecycle ledger.

``numeric``
    Sampled NaN/Inf/overflow checks on kernel residuals, an fp64-leak
    probe per (worker, epoch) and a deterministic epoch-end model sweep,
    raising :class:`~repro.san.errors.SanitizerError` immediately.

``all``
    Both.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from repro.san.errors import SanFinding, SanitizerError
from repro.san.lifecycle import LifecycleTracker
from repro.san.numeric import (
    DEFAULT_ERR_LIMIT,
    DEFAULT_SAMPLE_STRIDE,
    NumericSentry,
)
from repro.san.races import KIND_WAVE, AccessLog, analyze_log

__all__ = [
    "MODES",
    "SanFinding",
    "Sanitizer",
    "SanitizerError",
    "activate_sanitizer",
    "active_sanitizer",
    "instrument_kernel",
    "sanitizer_from_mode",
]

#: valid ``--sanitize`` values, in escalation order
MODES = ("off", "races", "numeric", "all")

_current: ContextVar = ContextVar("repro_san", default=None)


def active_sanitizer():
    """The ambient :class:`Sanitizer`, or ``None`` when not sanitizing."""
    return _current.get()


@contextmanager
def activate_sanitizer(san):
    """Make ``san`` the ambient sanitizer for the dynamic extent.

    ``None`` is accepted (and masks any outer sanitizer), so callers can
    write ``with activate_sanitizer(maybe_san):`` unconditionally.
    """
    token = _current.set(san)
    try:
        yield san
    finally:
        _current.reset(token)


def sanitizer_from_mode(mode: str | None):
    """Build a :class:`Sanitizer` for a ``--sanitize`` value.

    Returns ``None`` for ``"off"``/``None`` so call sites can feed the
    result straight into :func:`activate_sanitizer`.
    """
    if mode is None or mode == "off":
        return None
    if mode not in MODES:
        raise ValueError(
            f"unknown sanitize mode {mode!r}; expected one of {MODES}"
        )
    return Sanitizer(mode)


def instrument_kernel(inner, san, wid: int, epoch: int):
    """Wrap a bound wave-update kernel for one worker's epoch.

    Mirrors the kernel calling convention exactly
    (``(p, q, rows, cols, vals, lr, lam_p, lam_q) -> err``) so executors
    can substitute the wrapper for the callable ``backend.bind(ws)``
    returned. Returns a mode-specialized closure — closure-cell loads
    beat attribute lookups and the dead mode's branch disappears
    entirely, which matters at one Python-level call per (wave, lane).

    Race mode does one list append of *views* per call (the index
    buffers are bundled into copies at the next epoch-boundary
    :meth:`~repro.san.races.AccessLog.seal`, one vectorized pass instead
    of two copies per wave); numeric mode runs the fp64-leak probe on
    the first call and a residual check one call in ``sample_stride``.
    Per-worker state (the wave counter) lives in the closure, unshared.
    """
    entries = san.race_log.entries if san.check_races else None
    sentry = san.numeric if san.check_numeric else None
    kind_code = KIND_WAVE
    stride = san.numeric.sample_stride
    wave = 0

    if sentry is None:
        def wrapped(p, q, rows, cols, vals, lr, lam_p, lam_q):
            nonlocal wave
            err = inner(p, q, rows, cols, vals, lr, lam_p, lam_q)
            entries.append((wid, epoch, wave, kind_code, rows, cols))
            wave += 1
            return err
    elif entries is None:
        def wrapped(p, q, rows, cols, vals, lr, lam_p, lam_q):
            nonlocal wave
            err = inner(p, q, rows, cols, vals, lr, lam_p, lam_q)
            if not wave % stride:
                if not wave:
                    sentry.check_dtypes(p, q, err, wid, epoch)
                sentry.check_wave(err, wid, epoch, wave)
            wave += 1
            return err
    else:
        def wrapped(p, q, rows, cols, vals, lr, lam_p, lam_q):
            nonlocal wave
            err = inner(p, q, rows, cols, vals, lr, lam_p, lam_q)
            entries.append((wid, epoch, wave, kind_code, rows, cols))
            if not wave % stride:
                if not wave:
                    sentry.check_dtypes(p, q, err, wid, epoch)
                sentry.check_wave(err, wid, epoch, wave)
            wave += 1
            return err

    wrapped.san = san
    wrapped.wid = wid
    wrapped.epoch = epoch
    return wrapped


class Sanitizer:
    """Runtime race/numeric/lifecycle sanitizer for the Hogwild executors.

    Cheap to carry: executors call :meth:`wave_kernel` to wrap their
    bound kernels, :meth:`epoch_end` after each epoch, and the driver
    calls :meth:`finalize` once after fit to run the post-hoc analyses
    and obtain the :class:`~repro.san.report.SanReport`.
    """

    def __init__(
        self,
        mode: str = "all",
        *,
        err_limit: float = DEFAULT_ERR_LIMIT,
        sample_stride: int = DEFAULT_SAMPLE_STRIDE,
    ) -> None:
        if mode not in MODES or mode == "off":
            raise ValueError(
                f"invalid sanitizer mode {mode!r}; expected one of "
                f"{MODES[1:]}"
            )
        self.mode = mode
        self.check_races = mode in ("races", "all")
        self.check_numeric = mode in ("numeric", "all")
        # lifecycle pairing rides with race checking: both audit the
        # parallel machinery rather than the numerics
        self.check_lifecycle = self.check_races
        self.race_log = AccessLog()
        self.numeric = NumericSentry(
            err_limit=err_limit, sample_stride=sample_stride
        )
        self.lifecycle = LifecycleTracker()
        self.findings: list[SanFinding] = []
        self.report = None
        self._epoch_by_wid: dict[int, int] = {}

    # -- executor hooks --------------------------------------------------
    def wave_kernel(self, inner, wid: int = 0, epoch: int | None = None):
        """Wrap a bound kernel for one worker's epoch
        (:func:`instrument_kernel`).

        When ``epoch`` is omitted it auto-increments per worker, matching
        executors that rebind kernels once per epoch. Seals the access
        log first: kernels append views of the executor's index buffers,
        which the upcoming epoch's re-gather would overwrite.
        """
        if self.check_races:
            self.race_log.seal()
        if epoch is None:
            epoch = self._epoch_by_wid.get(wid, 0) + 1
        self._epoch_by_wid[wid] = epoch
        return instrument_kernel(inner, self, wid, epoch)

    def begin_epoch(self, wid: int = 0) -> int:
        """Seal the log and advance this worker's epoch counter.

        The entry hook for executors that instrument *inline* (sampled
        checks in their own wave loop plus one
        :meth:`~repro.san.races.AccessLog.record_epoch` capture) rather
        than routing kernels through :meth:`wave_kernel`. Call before
        re-binding workspace buffers: the previous epoch's recorded
        views must be bundled before a regather rewrites them.
        """
        if self.check_races:
            self.race_log.seal()
        epoch = self._epoch_by_wid.get(wid, 0) + 1
        self._epoch_by_wid[wid] = epoch
        return epoch

    def epoch_executed(
        self, rows_w, cols_w, lengths, *, wid: int = 0,
        epoch: int | None = None, kind: str = "wave",
    ) -> None:
        """Record a whole epoch's wave-major coverage (race mode).

        O(1) capture for executors whose epoch coverage already exists
        as one ``(n_waves, width)`` gather — the serial hot path's
        zero-per-wave-cost alternative to :meth:`wave_kernel`.
        """
        if self.check_races:
            if epoch is None:
                epoch = self._epoch_by_wid.get(wid, 0)
            self.race_log.record_epoch(
                wid, epoch, rows_w, cols_w, lengths, kind=kind
            )

    def epoch_end(
        self, p, q, *, wid: int = 0, epoch: int | None = None
    ) -> None:
        """Seal the epoch's access log; deterministic model sweep
        (numeric mode)."""
        if self.check_races:
            self.race_log.seal()
        if self.check_numeric:
            if epoch is None:
                epoch = self._epoch_by_wid.get(wid, 0)
            self.numeric.check_model(p, q, wid=wid, epoch=epoch)

    def block_executed(self, wid, epoch, seq, rows, cols) -> None:
        """Record one out-of-core block's update coverage (race mode)."""
        if self.check_races:
            self.race_log.record(wid, epoch, seq, rows, cols, kind="block")

    def note(self, finding: SanFinding) -> None:
        """Attach an externally-detected finding to this run's report."""
        self.findings.append(finding)

    # -- post-fit analysis ----------------------------------------------
    def finalize(self, publish: bool = True):
        """Run the post-hoc analyses and build the run's report.

        Idempotent in effect: each call re-analyzes the current logs, so
        call it once after fit. Publishes ``repro.san.*`` to the ambient
        metric registry unless ``publish=False``.
        """
        from repro.san.races import RaceStats
        from repro.san.report import SanReport

        findings = list(self.findings)
        stats = RaceStats()
        if self.check_races:
            race_findings, stats = analyze_log(self.race_log.flatten())
            findings.extend(race_findings)
        if self.check_lifecycle:
            findings.extend(self.lifecycle.leaks())
        self.report = SanReport(
            self.mode,
            findings,
            stats,
            numeric=self.numeric.as_dict() if self.check_numeric else None,
            lifecycle=(
                self.lifecycle.as_dict() if self.check_lifecycle else None
            ),
        )
        if publish:
            self.report.publish()
        return self.report
