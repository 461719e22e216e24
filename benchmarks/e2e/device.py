"""The benchmark's own WAL device: real files, real ``fsync``, measured.

A :class:`MeteredLogDevice` is a :class:`~repro.ordbms.FileLogDevice`
that also records how long every ``sync()`` waited for the disk (that
wait is carried over unscaled by the timing rule), exact append/flush
counts, and the WAL length at the last flush — the only bytes a crash is
guaranteed to leave behind.  :func:`crash_copy` builds what a machine
would find after losing power: the files, with everything past the last
flush discarded.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Callable

from repro.ordbms import FileLogDevice


class MeteredLogDevice(FileLogDevice):
    """File-backed WAL device that counts and times what it does."""

    def __init__(
        self, base_path: str, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        super().__init__(base_path)
        self.clock = clock
        self.appends = 0
        self.syncs = 0
        #: Total seconds spent inside :meth:`sync` (flush + ``fsync``).
        self.sync_seconds = 0.0
        #: WAL bytes known to be on the device: its length at the last sync.
        self.synced_length = 0

    def append(self, data: str) -> None:
        super().append(data)
        self.appends += 1

    def sync(self) -> None:
        started = self.clock()
        super().sync()
        self.sync_seconds += self.clock() - started
        self.syncs += 1
        self.synced_length = self.wal_bytes()

    def wal_bytes(self) -> int:
        """Current WAL length (appends flush to the OS, so this is exact)."""
        try:
            return os.path.getsize(self.log_path)
        except FileNotFoundError:
            return 0


def crash_copy(device: MeteredLogDevice, base_path: str) -> MeteredLogDevice:
    """What survives a power cut: ``device``'s files minus unflushed bytes.

    Killing a process leaves the operating system's cache intact, so the
    benchmark itself discards every WAL byte written after the last
    ``sync()``.  The checkpoint slot is written with its own ``fsync`` +
    rename and is copied whole.
    """
    survivor = MeteredLogDevice(base_path, device.clock)
    shutil.copyfile(device.log_path, survivor.log_path)
    with open(survivor.log_path, "r+b") as handle:
        handle.truncate(device.synced_length)
    if os.path.exists(device.checkpoint_path):
        shutil.copyfile(device.checkpoint_path, survivor.checkpoint_path)
    return survivor
