"""Real-execution Classic Cloud: threads, files and a visibility-timeout queue.

The same architecture as the simulated framework — scheduling queue with
visibility timeouts, idempotent file-in/file-out tasks, delete-after-
completion — but everything is real: worker threads run the actual
executables on actual files.  This is the implementation that proves the
framework logic (fault tolerance through message reappearance, duplicate
execution safety) end to end.

It also demonstrates the paper's remark that the Classic Cloud model can
"use the local machines and clusters side by side with the clouds": the
worker loop is substrate-independent.
"""

from __future__ import annotations

# This module is the *real* threaded runtime: it executes actual
# programs on actual files, so measuring wall-clock time is its job.
# The simulated counterpart (framework.py) reads Environment.now only.
# repro: noqa-file[RPR001]: real execution legitimately reads the wall clock

import itertools
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.apps.executables import Executable
from repro.classiccloud.localstore import LocalBlobStore
from repro.core.attempt import run_timed
from repro.core.task import RunResult, TaskRecord, TaskSpec
from repro.obs.context import current as _current_obs
from repro.sim.engine import monitor, monitor_lock

__all__ = ["LocalClassicCloud", "LocalMessage", "LocalQueue"]


@dataclass
class LocalMessage:
    """A received message with its receipt."""

    message_id: int
    body: object
    receipt: int
    receive_count: int


class LocalQueue:
    """Thread-safe message queue with SQS-style visibility timeouts.

    At-least-once: a received message reappears after
    ``visibility_timeout_s`` unless deleted with a current receipt.
    """

    def __init__(self, visibility_timeout_s: float = 30.0):
        if visibility_timeout_s <= 0:
            raise ValueError("visibility timeout must be positive")
        self.visibility_timeout_s = visibility_timeout_s
        # Under REPRO_SANITIZE=threads these become monitored objects
        # (repro.sim.engine.monitor); in normal runs they are the plain
        # stdlib types, untouched.
        self._lock = monitor_lock("LocalQueue._lock")
        self._ids = itertools.count()
        self._receipts = itertools.count(1)
        self._visible: deque[int] = monitor(deque(), "LocalQueue._visible")
        self._bodies: dict[int, object] = monitor({}, "LocalQueue._bodies")
        self._receive_counts: dict[int, int] = monitor(
            {}, "LocalQueue._receive_counts"
        )
        # message_id -> (reappear deadline, current receipt)
        self._inflight: dict[int, tuple[float, int]] = monitor(
            {}, "LocalQueue._inflight"
        )
        self.reappearances = 0

    def send(self, body: object) -> int:
        with self._lock:
            message_id = next(self._ids)
            self._bodies[message_id] = body
            self._receive_counts[message_id] = 0
            self._visible.append(message_id)
            return message_id

    def _promote_expired(self, now: float) -> None:
        expired = [
            mid for mid, (deadline, _) in self._inflight.items() if deadline <= now
        ]
        for mid in expired:
            del self._inflight[mid]
            self._visible.append(mid)
            self.reappearances += 1

    def receive(
        self, visibility_timeout_s: float | None = None
    ) -> LocalMessage | None:
        timeout = (
            self.visibility_timeout_s
            if visibility_timeout_s is None
            else visibility_timeout_s
        )
        now = time.monotonic()
        with self._lock:
            self._promote_expired(now)
            if not self._visible:
                return None
            message_id = self._visible.popleft()
            receipt = next(self._receipts)
            self._receive_counts[message_id] += 1
            self._inflight[message_id] = (now + timeout, receipt)
            return LocalMessage(
                message_id=message_id,
                body=self._bodies[message_id],
                receipt=receipt,
                receive_count=self._receive_counts[message_id],
            )

    def delete(self, message: LocalMessage) -> bool:
        """Delete if the receipt is current; False if it went stale."""
        with self._lock:
            entry = self._inflight.get(message.message_id)
            if entry is None or entry[1] != message.receipt:
                # Either reappeared (now visible / re-received) or gone.
                if message.message_id in self._bodies and entry is None:
                    # Reappeared but not yet re-received: claim it back.
                    try:
                        self._visible.remove(message.message_id)
                    except ValueError:
                        return False
                    self._forget(message.message_id)
                    return True
                return False
            self._forget(message.message_id)
            return True

    def _forget(self, message_id: int) -> None:
        self._inflight.pop(message_id, None)
        self._bodies.pop(message_id, None)
        self._receive_counts.pop(message_id, None)

    def approximate_size(self) -> int:
        with self._lock:
            return len(self._bodies)


class LocalClassicCloud:
    """Run real executables over real files with Classic Cloud semantics."""

    def __init__(
        self,
        n_workers: int = 4,
        visibility_timeout_s: float = 30.0,
        poll_interval_s: float = 0.005,
        crash_worker_on_receive: dict[int, int] | None = None,
        timeout_s: float = 300.0,
        store: LocalBlobStore | None = None,
    ):
        """``crash_worker_on_receive`` maps worker index -> the receive
        count at which that worker dies (its in-flight message is left
        undeleted, exercising the visibility-timeout recovery path).

        With ``store`` set, task keys address objects in that blob store
        and workers download inputs to scratch / upload outputs — the
        paper's architecture.  Without it, keys are plain file paths.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.visibility_timeout_s = visibility_timeout_s
        self.poll_interval_s = poll_interval_s
        self.crash_plan = dict(crash_worker_on_receive or {})
        self.timeout_s = timeout_s
        self.store = store

    def run(self, executable: Executable, tasks: list[TaskSpec]) -> RunResult:
        """Execute every task; returns the run result with real timings."""
        if not tasks:
            raise ValueError("no tasks to run")
        queue = LocalQueue(self.visibility_timeout_s)
        for task in tasks:
            queue.send(task)
        all_ids = {t.task_id for t in tasks}
        completed: set[str] = monitor(set(), "LocalClassicCloud.completed")
        records: list[TaskRecord] = monitor([], "LocalClassicCloud.records")
        lock = monitor_lock("LocalClassicCloud.run.lock")
        done = threading.Event()
        errors: list[BaseException] = monitor(
            [], "LocalClassicCloud.errors"
        )
        # Captured on the driving thread; worker threads close over it.
        obs = _current_obs()
        tracer = obs.tracer
        start = time.monotonic()

        def worker(index: int) -> None:
            receives = 0
            crash_at = self.crash_plan.get(index)
            wait_start = time.monotonic() - start
            while not done.is_set():
                message = queue.receive()
                if message is None:
                    time.sleep(self.poll_interval_s)
                    continue
                receives += 1
                if crash_at is not None and receives >= crash_at:
                    return  # crash: message left undeleted
                task: TaskSpec = message.body
                track = f"local-{index}"
                try:
                    record = run_timed(
                        tracer, track, task.task_id,
                        lambda: _run_idempotent(executable, task)
                        if self.store is None
                        else _run_via_store(executable, task, self.store, index),
                        start, message.receive_count,
                    )
                except Exception as exc:  # surface worker failures
                    with lock:
                        errors.append(exc)
                    done.set()
                    return
                deleted = queue.delete(message)
                tracer.add(
                    "task.queue_wait", track=track, domain="wall",
                    start=wait_start, end=record.started_at, task_id=task.task_id,
                )
                record.finished_at = wait_start = time.monotonic() - start
                record.was_duplicate = not deleted or message.receive_count > 1
                record.won = deleted
                with lock:
                    completed.add(task.task_id)
                    records.append(record)
                    if completed == all_ids:
                        done.set()

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.n_workers)
        ]
        for thread in threads:
            thread.start()
        finished = done.wait(timeout=self.timeout_s)
        done.set()
        for thread in threads:
            thread.join(timeout=5.0)
        if errors:
            raise errors[0]
        if not finished:
            raise TimeoutError(
                f"workload did not complete within {self.timeout_s}s "
                f"({len(completed)}/{len(all_ids)} tasks done)"
            )
        return RunResult(
            backend="classiccloud-local",
            app_name=executable.name,
            n_tasks=len(tasks),
            makespan_seconds=time.monotonic() - start,
            records=records,
            extras={"reappearances": float(queue.reappearances)},
        )


def _run_via_store(
    executable: Executable,
    task: TaskSpec,
    store: LocalBlobStore,
    worker_index: int,
) -> None:
    """Download → execute → upload, in per-worker scratch space.

    Mirrors the paper's worker: "retrieve the input files from the cloud
    storage ... process them using an executable program before
    uploading the results back to the cloud storage."  Duplicate
    executions are safe because uploads are atomic and deterministic.
    """
    with tempfile.TemporaryDirectory(
        prefix=f"ccworker{worker_index}."
    ) as scratch:
        scratch_path = Path(scratch)
        input_name = Path(task.input_key).name or "input"
        output_name = Path(task.output_key).name or "output"
        local_in = store.get(task.input_key, scratch_path / input_name)
        local_out = scratch_path / output_name
        executable.run(local_in, local_out)
        store.put(task.output_key, local_out)


def _run_idempotent(executable: Executable, task: TaskSpec) -> None:
    """Run the executable writing atomically to the output path.

    Duplicate executions (after a visibility timeout) may race on the
    output file; writing to a temp file and ``os.replace``-ing makes the
    final state a complete output from *some* attempt — and attempts are
    deterministic, so any attempt's output is the right one.
    """
    output_path = Path(task.output_key)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=output_path.parent, prefix=f".{output_path.name}."
    )
    os.close(fd)
    try:
        executable.run(task.input_key, temp_name)
        os.replace(temp_name, output_path)
    finally:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
