"""reprosan core: the Sanitizer and its ambient activation.

A :class:`Sanitizer` is activated ambiently (contextvar, mirroring
``repro.obs.context``) so the executors — serial
:class:`~repro.core.hogwild.BatchHogwild`, threaded Hogwild,
the :class:`~repro.data.blockstore.BlockPrefetcher` — can pick it up
without plumbing a parameter through every constructor:

    san = sanitizer_from_mode("all")
    with activate_sanitizer(san):
        trainer.fit(model, ratings)
    report = san.finalize()

Three check families, toggled by mode:

``races``
    Every worker-epoch of waves is one record of its ids' wave-major
    ``(n_waves, width)`` views (one ``bind_plan`` gather, on either
    kernel), and every out-of-core block one record of its ids, in a shadow
    :class:`~repro.san.races.AccessLog`; a post-fit
    :func:`~repro.san.races.analyze_log` pass detects within-wave write
    overlaps, cross-shard ownership violations and quantifies the benign
    cross-worker race rate. Also enables the BlockStore mmap lifecycle
    ledger.

``numeric``
    Sampled NaN/Inf/overflow checks on kernel residual peaks, an
    fp64-leak probe per (worker, epoch) and a deterministic epoch-end
    model sweep, raising :class:`~repro.san.errors.SanitizerError`.

``all``
    Both.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.san.errors import SanFinding

__all__ = [
    "MODES",
    "Sanitizer",
    "activate_sanitizer",
    "active_sanitizer",
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


class Sanitizer:
    """Runtime race/numeric/lifecycle sanitizer for the Hogwild executors.

    Cheap to carry: executors call :meth:`begin_epoch` before they bind
    an epoch's waves, hand it to ``backend.replay``, which makes the
    sampled checks and one :meth:`epoch_executed` record per worker,
    call :meth:`epoch_end` after each epoch, and whoever ran the fit
    calls :meth:`finalize` once after it to run the post-hoc analyses and
    obtain the :class:`~repro.san.report.SanReport`. Keyword arguments
    (``err_limit``, ``sample_stride``) configure the
    :class:`~repro.san.numeric.NumericSentry`.

    The check machinery is imported here, not with the module: every
    executor reads :func:`active_sanitizer`, and only a sanitized run
    builds one of these.
    """

    def __init__(self, mode: str = "all", **numeric) -> None:
        from repro.san.lifecycle import LifecycleTracker
        from repro.san.numeric import NumericSentry
        from repro.san.races import AccessLog

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
        self.numeric = NumericSentry(**numeric)
        self.lifecycle = LifecycleTracker()
        self.findings: list[SanFinding] = []
        self.report = None
        self._epoch_by_wid: dict[int, int] = {}

    # -- executor hooks --------------------------------------------------
    def begin_epoch(self, wid: int = 0, epoch: int | None = None) -> int:
        """Seal the log and set this worker's epoch (default: advance it).

        Call before binding an epoch's waves, and only while no worker
        runs: the previous epoch's recorded views must be bundled before
        a regather rewrites them. A threaded executor calls it once, from
        its dispatching thread, with the epoch all its workers share.
        """
        if self.check_races:
            self.race_log.seal()
        if epoch is None:
            epoch = self._epoch_by_wid.get(wid, 0) + 1
        self._epoch_by_wid[wid] = epoch
        return epoch

    def epoch_executed(
        self, rows_w, cols_w, lengths, *, wid: int = 0,
        epoch: int | None = None, kind: str = "wave",
    ) -> None:
        """Record one worker's whole epoch of waves (race mode).

        O(1): the ``(n_waves, width)`` gather the worker's waves ran from
        *is* its write set, so the wave loop pays nothing per wave.
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
        from repro.san.races import RaceStats, analyze_log
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
