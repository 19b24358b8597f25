"""Advisory file-lock tests: reentrancy, contention, multi-process safety."""

import os
import subprocess
import sys

import pytest

from repro.store import ArtifactStore, FileLock, LockTimeoutError, StoreRecord
from repro.store.lock import LOCK_SUFFIX


class TestFileLock:
    def test_sidecar_path_and_context_manager(self, tmp_path):
        target = tmp_path / "store.jsonl"
        lock = FileLock(target)
        assert str(lock.path) == str(target) + LOCK_SUFFIX
        assert not lock.held
        with lock:
            assert lock.held
            assert lock.path.exists()
        assert not lock.held

    def test_reentrant_within_one_object(self, tmp_path):
        lock = FileLock(tmp_path / "s.jsonl")
        with lock:
            with lock:  # depth 2, no deadlock
                assert lock.held
            assert lock.held  # inner exit only dropped one level
        assert not lock.held

    def test_release_of_unheld_lock_is_an_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="unheld"):
            FileLock(tmp_path / "s.jsonl").release()

    def test_contention_times_out_with_a_typed_error(self, tmp_path):
        target = tmp_path / "s.jsonl"
        holder = FileLock(target)
        holder.acquire()
        try:
            contender = FileLock(target, timeout_s=0.05, poll_s=0.005)
            with pytest.raises(LockTimeoutError, match="could not lock"):
                contender.acquire()
            assert not contender.held
        finally:
            holder.release()
        # Once released, the contender gets through immediately.
        with FileLock(target, timeout_s=1.0):
            pass

    def test_two_objects_on_one_file_exclude_each_other(self, tmp_path):
        target = tmp_path / "s.jsonl"
        with FileLock(target):
            with pytest.raises(LockTimeoutError):
                FileLock(target, timeout_s=0.05, poll_s=0.005).acquire()


class TestStoreLocking:
    def test_store_exposes_its_lock(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.jsonl")
        with store.lock() as lock:
            assert isinstance(lock, FileLock)
            # The store's own operations re-acquire reentrantly under us.
            store.open_for_append()
            store.put(StoreRecord(kind="payload", key="k", schema=1,
                                  body={"v": 1}))
        assert not store.lock().held

    def test_in_memory_store_lock_is_a_noop(self):
        with ArtifactStore().lock():
            pass  # _NullLock: no file, no error

    def test_locking_disabled_skips_the_sidecar(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ArtifactStore(path, locking=False).open_for_append()
        store.put(StoreRecord(kind="payload", key="k", schema=1, body={}))
        assert not (tmp_path / ("s.jsonl" + LOCK_SUFFIX)).exists()

    def test_held_lock_blocks_another_processes_append(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ArtifactStore(path).open_for_append()
        script = (
            "import sys\n"
            "from repro.store import ArtifactStore, StoreRecord\n"
            "from repro.store.lock import LockTimeoutError\n"
            "store = ArtifactStore(sys.argv[1])\n"
            "store._lock.timeout_s = 0.2\n"
            "store._lock.poll_s = 0.01\n"
            "try:\n"
            "    store.open_for_append()\n"
            "except LockTimeoutError:\n"
            "    print('timed-out')\n"
        )
        with ArtifactStore(path).lock():
            completed = subprocess.run(
                [sys.executable, "-c", script, str(path)], env=_env(),
                capture_output=True, text=True, timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "timed-out"


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    return env


def test_concurrent_multiprocess_appends_stay_parseable(tmp_path):
    """N processes hammer one store; a strict load then sees every record."""
    path = tmp_path / "shared.jsonl"
    writers, per_writer = 4, 25
    script = (
        "import sys\n"
        "from repro.store import ArtifactStore, StoreRecord\n"
        "path, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])\n"
        "store = ArtifactStore(path).open_for_append(tolerant=True)\n"
        "for i in range(count):\n"
        "    store.put(StoreRecord(kind='payload', key=f'w{writer}-{i}',\n"
        "                          schema=1, body={'writer': writer, 'i': i}))\n"
    )
    procs = [subprocess.Popen(
        [sys.executable, "-c", script, str(path), str(writer),
         str(per_writer)], env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True) for writer in range(writers)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err

    # Strict (non-tolerant) load: one torn or interleaved line would raise.
    store = ArtifactStore.load(path)
    assert store.skipped_lines == 0
    records = list(store.kind("payload"))
    assert len(records) == writers * per_writer
    assert {record.key for record in records} == {
        f"w{writer}-{i}" for writer in range(writers)
        for i in range(per_writer)}
