"""Typed sanitizer findings and the error reprosan raises.

Leaf module: every other ``repro.san`` module imports from here, nothing
here imports back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["SanFinding", "SanitizerError"]


@dataclass(frozen=True)
class SanFinding:
    """One sanitizer finding, pinned to its wave coordinates.

    ``kind`` is a stable identifier (``race-overlap``, ``race-ownership``,
    ``race-double-execution``,
    ``numeric-nonfinite``, ``numeric-overflow``, ``numeric-fp64-leak``,
    ``lifecycle-shm-leak``, ``lifecycle-mmap-leak``); ``worker`` / ``epoch``
    / ``wave`` locate the offending execution point where one exists
    (lifecycle findings have none).
    """

    kind: str
    message: str
    worker: int | None = None
    epoch: int | None = None
    wave: int | None = None

    def as_dict(self) -> dict:
        return asdict(self)

    def format(self) -> str:
        where = ", ".join(
            f"{k}={v}"
            for k, v in (
                ("worker", self.worker),
                ("epoch", self.epoch),
                ("wave", self.wave),
            )
            if v is not None
        )
        loc = f" [{where}]" if where else ""
        return f"{self.kind}{loc}: {self.message}"


class SanitizerError(RuntimeError):
    """A sanitizer check failed hard (numeric checks raise immediately).

    Carries the same coordinates as :class:`SanFinding` so callers —
    including the :class:`~repro.parallel.procs.ProcessHogwild` parent
    re-raising a worker-side failure — can report exactly which worker /
    epoch / wave tripped the check.
    """

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        worker: int | None = None,
        epoch: int | None = None,
        wave: int | None = None,
    ) -> None:
        self.kind = kind
        self.worker = worker
        self.epoch = epoch
        self.wave = wave
        super().__init__(
            SanFinding(
                kind=kind, message=message,
                worker=worker, epoch=epoch, wave=wave,
            ).format()
        )

    @property
    def finding(self) -> SanFinding:
        # args[0] is the formatted message; reconstruct the plain one
        msg = str(self.args[0]).split(": ", 1)[-1]
        return SanFinding(
            kind=self.kind, message=msg,
            worker=self.worker, epoch=self.epoch, wave=self.wave,
        )

    def as_dict(self) -> dict:
        return self.finding.as_dict()
