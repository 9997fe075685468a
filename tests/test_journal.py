"""The journal contract, checked once for every typed journal.

Sweep, serve and city journals are typed record layers over one
append-only log (:class:`repro.engine.checkpoint.AppendLog`).  Each
test here runs against all three: torn tails, the pidfile lock,
``discard()``, the fsync schedule, and records appended after a kill
that tore the last line.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

from repro.engine.checkpoint import JournalLockedError, SweepJournal
from repro.serve.journal import ServiceJournal
from repro.shard.journal import CityJournal

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "repro")


class Sweep:
    """Record i is point ``k<i>``."""

    fsyncs_per_later_record = 0

    @staticmethod
    def open(root):
        return SweepJournal("grid", [f"k{i}" for i in range(8)],
                            root=root)

    @staticmethod
    def write(journal, i):
        assert journal.append(f"k{i}", {"i": i, "a": [i]})

    @staticmethod
    def loaded(journal):
        return sorted(value["i"] for value in journal.load().values())


class Serve:
    """Record 0 is the header, record i a ``resumed`` event."""

    fsyncs_per_later_record = 0

    @staticmethod
    def open(root):
        return ServiceJournal("cell", root=root)

    @staticmethod
    def write(journal, i):
        if i == 0:
            journal.write_header("sha", {"cfg": 1}, {"serve": 2})
        else:
            journal.append_event("resumed", i)

    @staticmethod
    def loaded(journal):
        log = journal.load()
        return [0] * (log.header is not None) + \
            [event["cycle"] for event in log.events]


class City:
    """Record 0 is the header, record i commits epoch i - 1."""

    fsyncs_per_later_record = 1  # every committed epoch

    @staticmethod
    def open(root):
        return CityJournal("d" * 64, root=root)

    @staticmethod
    def write(journal, i):
        if i == 0:
            journal.write_header()
        else:
            journal.append_epoch(i - 1, [{"shard": 0}], f"digest-{i}")

    @staticmethod
    def loaded(journal):
        return [0] + [record["epoch"] + 1 for record in journal.load()]


KINDS = pytest.mark.parametrize("kind", [Sweep, Serve, City],
                                ids=["sweep", "serve", "city"])


def tear(journal):
    """What a SIGKILL mid-append leaves behind: half a line."""
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "event", "key": "k7", "epoch": 9, "va')


@KINDS
def test_torn_tail_is_ignored(kind, tmp_path):
    journal = kind.open(str(tmp_path))
    kind.write(journal, 0)
    kind.write(journal, 1)
    journal.close()
    tear(journal)
    assert kind.loaded(kind.open(str(tmp_path))) == [0, 1]


@KINDS
def test_records_after_a_torn_tail_survive(kind, tmp_path):
    journal = kind.open(str(tmp_path))
    kind.write(journal, 0)
    journal.close()
    tear(journal)
    resumed = kind.open(str(tmp_path))
    kind.write(resumed, 1)
    kind.write(resumed, 2)
    resumed.close()
    assert kind.loaded(kind.open(str(tmp_path))) == [0, 1, 2]


@KINDS
def test_live_lock_is_refused(kind, tmp_path):
    journal = kind.open(str(tmp_path))
    with open(journal.lock.path, "w", encoding="utf-8") as handle:
        handle.write("1\n")  # pid 1 is alive in any container
    with pytest.raises(JournalLockedError):
        journal.acquire()


@KINDS
def test_stale_lock_is_stolen(kind, tmp_path):
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    journal = kind.open(str(tmp_path))
    with open(journal.lock.path, "w", encoding="utf-8") as handle:
        handle.write(f"{dead.pid}\n")
    journal.acquire()
    with open(journal.lock.path, encoding="utf-8") as handle:
        assert int(handle.read()) == os.getpid()
    journal.close()
    assert not os.path.exists(journal.lock.path)


@KINDS
def test_discard_removes_file_and_lock(kind, tmp_path):
    journal = kind.open(str(tmp_path))
    journal.acquire()
    kind.write(journal, 0)
    assert os.path.exists(journal.path)
    journal.discard()
    assert os.listdir(tmp_path) == []


@KINDS
def test_fsync_schedule(kind, tmp_path, monkeypatch):
    journal = kind.open(str(tmp_path))
    journal.acquire()  # the lock's own pid-write fsync is not counted
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: calls.append(fd) or real_fsync(fd))
    kind.write(journal, 0)
    assert len(calls) == 2  # the file and its directory entry
    for i in range(1, 4):
        kind.write(journal, i)
    assert len(calls) == 2 + 3 * kind.fsyncs_per_later_record
    journal.discard()


def test_only_the_primitive_touches_journal_files():
    """fsync, unlink and append-mode opens live in the primitive.

    ``engine/cache.py`` may unlink its own result-cache entries; no
    other module may fsync, unlink or append to a file.
    """
    allowed = {
        ("engine/checkpoint.py", "AppendLog"),
        ("engine/checkpoint.py", "JournalLock"),
        ("engine/checkpoint.py", "fsync_directory"),
        ("engine/cache.py", "ResultCache"),
    }
    offenders = []
    for folder, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, SRC).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for top in tree.body:
                owner = getattr(top, "name", None)
                for node in ast.walk(top):
                    call = _file_call(node)
                    if call and ((rel, owner) not in allowed or (
                            rel == "engine/cache.py"
                            and call != "os.unlink")):
                        offenders.append(f"{rel}:{node.lineno} {call}")
    assert offenders == []


def _file_call(node):
    """The journal-file operation ``node`` performs, if any."""
    if not isinstance(node, ast.Call):
        return None
    func = ast.unparse(node.func)
    if func in ("os.fsync", "os.unlink", "os.remove", "fsync_directory"):
        return func
    modes = node.args[1:2] + [kw.value for kw in node.keywords
                              if kw.arg == "mode"]
    if func == "open" and any(isinstance(mode, ast.Constant)
                              and "a" in str(mode.value)
                              for mode in modes):
        return "open(..., 'a')"
    return None
