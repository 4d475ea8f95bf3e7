"""A reentrant reader–writer lock.

The paper guards its triple store with Java's ``ReentrantReadWriteLock``:
many concurrent readers, one writer, and a thread holding the write lock
may recursively take either lock.  Python's standard library has no
reader-writer lock, so this module provides one with the same semantics:

* any number of threads may hold the read lock concurrently;
* the write lock is exclusive against both readers and other writers;
* both locks are reentrant per-thread;
* a thread holding the write lock may acquire the read lock (downgrade-
  style access) without deadlocking;
* writers take priority over *new* readers to avoid writer starvation.

:class:`~repro.store.backends.hashdict.HashDictStore` takes it for its
writes and for the reads that iterate a live index container only.  Its
point reads (a membership test, a counter, one leaf-set copy) skip it:
acquiring this pure-Python lock costs some forty times the dict probe
it would guard, and a single C-level dict or set operation is already
atomic (the store's module docstring gives the argument).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["ReentrantReadWriteLock"]


class ReentrantReadWriteLock:
    """Reentrant many-readers / single-writer lock.

    Use the :meth:`read` and :meth:`write` context managers::

        lock = ReentrantReadWriteLock()
        with lock.read():
            ...  # shared access
        with lock.write():
            ...  # exclusive access
    """

    def __init__(self):
        self._condition = threading.Condition()
        self._readers: dict[int, int] = {}  # thread ident -> re-entrance count
        self._writer: int | None = None  # ident of the writing thread
        self._writer_count = 0  # write re-entrance depth
        self._waiting_writers = 0

    # --- read side ---------------------------------------------------------
    def acquire_read(self) -> None:
        ident = threading.get_ident()
        with self._condition:
            while True:
                if self._writer == ident:
                    break  # the writer may always read
                if ident in self._readers:
                    break  # reentrant read
                if self._writer is None and self._waiting_writers == 0:
                    break
                self._condition.wait()
            self._readers[ident] = self._readers.get(ident, 0) + 1

    def release_read(self) -> None:
        ident = threading.get_ident()
        with self._condition:
            count = self._readers.get(ident)
            if count is None:
                raise RuntimeError("release_read() without matching acquire_read()")
            if count == 1:
                del self._readers[ident]
            else:
                self._readers[ident] = count - 1
            if not self._readers:
                self._condition.notify_all()

    # --- write side ----------------------------------------------------------
    def acquire_write(self) -> None:
        ident = threading.get_ident()
        with self._condition:
            if self._writer == ident:
                self._writer_count += 1
                return
            if ident in self._readers:
                # Upgrading read -> write deadlocks by construction; refuse
                # loudly instead of hanging.
                raise RuntimeError("cannot upgrade a read lock to a write lock")
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._condition.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = ident
            self._writer_count = 1

    def release_write(self) -> None:
        ident = threading.get_ident()
        with self._condition:
            if self._writer != ident:
                raise RuntimeError("release_write() by a thread that does not hold the write lock")
            self._writer_count -= 1
            if self._writer_count == 0:
                self._writer = None
                self._condition.notify_all()

    # --- context managers ----------------------------------------------------
    @contextmanager
    def read(self):
        """Context manager for shared (read) access."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """Context manager for exclusive (write) access."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # --- introspection (used by tests) ---------------------------------------
    @property
    def active_readers(self) -> int:
        with self._condition:
            return len(self._readers)

    @property
    def write_held(self) -> bool:
        with self._condition:
            return self._writer is not None
