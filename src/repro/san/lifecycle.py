"""Lifecycle sanitizer: BlockStore mmaps.

Tracks the open → release cycle of every mmap the
:class:`~repro.data.blockstore.BlockStore` hands out (release observed via
``weakref.finalize`` on the returned memmap). At
:meth:`LifecycleTracker.leaks` time an mmap never released is a finding:
it pins page-cache references past shutdown (``lifecycle-mmap-leak``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.san.errors import SanFinding

__all__ = ["LifecycleTracker"]


@dataclass
class _MmapState:
    opened: int = 0
    released: int = 0


@dataclass
class LifecycleTracker:
    """Open/release ledger for BlockStore mmaps."""

    mmaps: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def note_mmap_open(self, path: str) -> None:
        with self._lock:
            self.mmaps.setdefault(path, _MmapState()).opened += 1

    def note_mmap_release(self, path: str) -> None:
        with self._lock:
            self.mmaps.setdefault(path, _MmapState()).released += 1

    def leaks(self) -> list[SanFinding]:
        with self._lock:
            return [
                SanFinding(
                    kind="lifecycle-mmap-leak",
                    message=f"BlockStore mmap {path!r}: "
                    f"{st.opened} open vs {st.released} release",
                )
                for path, st in sorted(self.mmaps.items())
                if st.opened > st.released
            ]

    def as_dict(self) -> dict:
        with self._lock:
            opened = sum(m.opened for m in self.mmaps.values())
            released = sum(m.released for m in self.mmaps.values())
        return {"mmaps_opened": opened, "mmaps_released": released}
