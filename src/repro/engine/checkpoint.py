"""Crash-safe journals: one append-only log under three typed layers.

:class:`AppendLog` is the one on-disk primitive behind the sweep journal
below, :mod:`repro.serve.journal` and :mod:`repro.shard.journal`: a
JSON-lines file under ``REPRO_JOURNAL_DIR`` (default
``<cache-dir>/journal``) guarded by a :class:`JournalLock` pidfile.
Each record is flushed to the OS as it is appended, so SIGKILL loses at
most the line being written; that torn tail has no newline, is never
read back, and is cut off before the next append.  The first record
fsyncs the file and its directory entry (a crash right after creation
cannot leave a journal that is not listed); any later fsync, which only
matters if the host itself goes down, is the typed layer's call through
:meth:`AppendLog.sync`:

======  ====================  ===========================================
layer   fsyncs                why
======  ====================  ===========================================
sweep   the first record      a lost point is recomputed on resume
serve   the first record      records land every cycle; a lost tail only
                              rewinds the resumed cell to an earlier cycle
city    the first record and  epochs are few and long, so the fsync is
        every epoch           cheap, and the committed prefix a resume
                              verifies against outlives the host
======  ====================  ===========================================
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterator, Optional, Sequence, TextIO


def default_journal_dir() -> str:
    env = os.environ.get("REPRO_JOURNAL_DIR", "").strip()
    if env:
        return env
    from repro.engine.cache import default_cache_dir

    return os.path.join(default_cache_dir(), "journal")


def fsync_directory(path: str) -> None:
    """Flush a directory entry to disk (no-op where unsupported).

    ``fsync`` on the file alone makes the *contents* durable; on most
    filesystems the file's very existence is only durable once its
    parent directory has been synced too.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass  # e.g. directories are not fsync-able on this platform
    finally:
        os.close(fd)


class JournalLockedError(RuntimeError):
    """Another live process holds the journal lock."""


class JournalLock:
    """A pidfile lock guarding one journal against double-resume.

    Two processes resuming the same journal would interleave appends and
    both believe they own the tail; :meth:`acquire` makes the second one
    fail loudly instead.  The lock is a sibling ``<journal>.lock`` file
    created with ``O_CREAT | O_EXCL`` and holding the owner's pid:

    * lock held by a **live** other process -> :class:`JournalLockedError`;
    * lock held by a **dead** pid (e.g. the owner was SIGKILLed) -> the
      stale file is removed and the lock is taken over;
    * lock held by **our own** pid -> re-acquired (an in-process
      supervisor restart re-opens the same journal it already owns).

    The pid is written on the freshly created fd, so the window in which
    another process can observe an empty lock file is a few microseconds;
    an empty/garbled lock file is treated as stale.
    """

    def __init__(self, path: str):
        self.path = path
        self._held = False

    @property
    def held(self) -> bool:
        return self._held

    def _owner_pid(self) -> Optional[int]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return int(handle.read().strip())
        except (OSError, ValueError):
            return None

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            return True  # exists, owned by someone else
        except OSError:
            return True  # be conservative: assume alive
        return True

    def acquire(self) -> None:
        if self._held:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        for _ in range(8):  # retries bound stale-steal races
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pid = self._owner_pid()
                if pid == os.getpid():
                    self._held = True
                    return
                if pid is not None and self._pid_alive(pid):
                    raise JournalLockedError(
                        f"{self.path} is held by live pid {pid}; "
                        f"refusing a concurrent resume")
                # Stale (dead owner or torn write): steal it.
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
                continue
            try:
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.fsync(fd)
            finally:
                os.close(fd)
            self._held = True
            return
        raise JournalLockedError(
            f"could not acquire {self.path} (persistent contention)")

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass


def safe_name(name: str) -> str:
    """``name`` with every character unsafe in a file name as ``-``."""
    return "".join(ch if ch.isalnum() or ch in "-_" else "-"
                   for ch in name)


_NESTED = (dict, list, tuple)


def sorted_keys(value: Any) -> Any:
    """``value`` with every nested dict's keys in sorted order.

    :meth:`AppendLog.append` writes keys in the order it finds them;
    records passed through this first come out byte-identical to
    ``json.dumps(value, sort_keys=True)``.
    """
    if isinstance(value, dict):
        return {key: sorted_keys(item) if isinstance(item, _NESTED)
                else item for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [sorted_keys(item) if isinstance(item, _NESTED) else item
                for item in value]
    return value


class AppendLog:
    """One crash-safe, lock-guarded JSON-lines file (see the module doc)."""

    def __init__(self, path: str):
        self.path = path
        self.lock = JournalLock(path + ".lock")
        self._dir = os.path.dirname(path) or "."
        self._handle: Optional[TextIO] = None

    def acquire(self) -> None:
        """Take the pidfile lock; raises :class:`JournalLockedError`."""
        self.lock.acquire()

    def records(self) -> Iterator[Dict[str, Any]]:
        """Every committed record (a JSON object on a whole line)."""
        try:
            handle = open(self.path, "r", encoding="utf-8")
        except OSError:
            return
        with handle:
            for line in handle:
                if not line.endswith("\n"):
                    return  # torn tail from a mid-write kill
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    yield record

    def append(self, record: Any) -> None:
        """Write one record as a JSON line and flush it to the OS.

        Raises ``TypeError``/``ValueError`` -- before touching the file
        -- when ``record`` is not JSON-serializable.
        """
        line = json.dumps(record) + "\n"
        handle = self._handle
        first = handle is None
        if handle is None:
            handle = self._handle = self._open()
        handle.write(line)
        handle.flush()
        if first:
            self.sync()
            fsync_directory(self._dir)

    def _open(self) -> TextIO:
        """Open for appending, first cutting a torn tail off.

        A record appended after a line torn by a kill would be glued
        onto it, and lost with it on load.
        """
        os.makedirs(self._dir, exist_ok=True)
        try:
            with open(self.path, "rb+") as raw:
                raw.truncate(sum(len(line) for line in raw
                                 if line.endswith(b"\n")))
        except FileNotFoundError:
            pass
        return open(self.path, "a", encoding="utf-8")

    def sync(self) -> None:
        """fsync every record appended so far."""
        if self._handle is not None:
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass

    def _close_handle(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def reset(self) -> None:
        """Delete the file, keeping the lock: the next append restarts it."""
        self._close_handle()
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def close(self) -> None:
        """Close the file (it stays for a resume) and release the lock."""
        self._close_handle()
        self.lock.release()

    def discard(self) -> None:
        """Delete the file, then release the lock."""
        self.reset()
        self.lock.release()


class SweepJournal:
    """Completed-point journal for one spec grid: ``{key, value}`` lines.

    A sweep run with ``resume=True`` (CLI ``--resume`` /
    ``REPRO_RESUME=1``) journals each point the moment it finishes and
    replays matching lines instead of recomputing them.  The file is
    ``<spec>-<grid-digest>.jsonl``; the digest hashes every point key --
    which fingerprint config *and* package source -- so a config, grid
    or code change starts a fresh journal.  It is discarded once its
    sweep finishes with no failures.  Values are written in their own
    key order, like :mod:`repro.engine.cache` values, so a resumed value
    is indistinguishable from a computed one.
    """

    def __init__(self, name: str, keys: Sequence[str],
                 root: Optional[str] = None):
        digest = hashlib.sha256(
            "\n".join(keys).encode("utf-8")).hexdigest()[:16]
        self.log = AppendLog(os.path.join(root or default_journal_dir(),
                                          f"{safe_name(name)}-{digest}.jsonl"))
        self.path = self.log.path
        self.lock = self.log.lock
        self._keys = frozenset(keys)

    def acquire(self) -> None:
        self.log.acquire()

    def load(self) -> Dict[str, Any]:
        """Completed ``key -> value`` entries belonging to this grid."""
        return {record["key"]: record.get("value")
                for record in self.log.records()
                if record.get("key") in self._keys}

    def append(self, key: str, value: Any) -> bool:
        """Journal one completed point (no-op for non-JSON values)."""
        try:
            self.log.append({"key": key, "value": value})
        except (TypeError, ValueError):
            return False  # recomputed on resume instead
        return True

    def close(self) -> None:
        self.log.close()

    def discard(self) -> None:
        """Remove the journal (its sweep finished cleanly)."""
        self.log.discard()
