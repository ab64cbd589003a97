"""Worker pools: serial and process execution of shard workers.

The sharded trainer talks to its workers through one tiny interface —
:meth:`WorkerPool.run` broadcasts a :class:`~repro.distributed.worker.ShardWorker`
method to every worker and returns the results **in shard order**.  The
pool follows from the worker count (:func:`resolve_backend`):

``serial`` (``W = 1``)
    Workers run one after another in the caller's process — at ``W = 1``
    bitwise the single-process trainer, with no fork.  Tests also ask for
    it at ``W > 1``, as the determinism oracle the process pool is asserted
    against.

``process`` (``W > 1``)
    One forked child process per worker, connected over a pipe.  True
    parallelism regardless of the GIL; the children inherit the gradient
    buckets as shared mappings (:mod:`repro.distributed.comms`), so the
    pipe carries only control messages.  Fork is required: a platform
    without it runs ``backend="serial"``.

Both produce bitwise-identical training trajectories: each worker's compute
is a deterministic function of its shard and the averaged gradients it
receives, and the barrier collects contributions in fixed shard order.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from typing import Any, List, Optional, Sequence, Tuple

from .worker import ShardTask, ShardWorker

__all__ = ["WORKER_BACKENDS", "WorkerPool", "SerialWorkerPool",
           "ProcessWorkerPool", "make_worker_pool", "resolve_backend"]

WORKER_BACKENDS = ("serial", "process")


def resolve_backend(backend: Optional[str], num_workers: int) -> str:
    """The pool a ``num_workers`` run uses: ``serial`` at ``W = 1`` and
    ``process`` above, unless ``backend`` names one explicitly."""
    if backend is None:
        return "serial" if num_workers == 1 else "process"
    if backend not in WORKER_BACKENDS:
        raise ValueError(f"unknown worker backend {backend!r}; "
                         f"choose from {WORKER_BACKENDS}")
    return backend


class WorkerPool:
    """Abstract pool of ``W`` shard workers addressed by shard index."""

    def __init__(self, tasks: Sequence[ShardTask]) -> None:
        if not tasks:
            raise ValueError("worker pool needs at least one shard task")
        self.num_workers = len(tasks)

    def run(self, method: str,
            args_list: Optional[Sequence[Tuple]] = None) -> List[Any]:
        """Invoke ``method(*args)`` on every worker; results in shard order."""
        raise NotImplementedError

    def run_one(self, index: int, method: str, *args) -> Any:
        """Invoke ``method(*args)`` on a single worker."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release pool resources (child processes)."""

    def _resolve_args(self, args_list: Optional[Sequence[Tuple]]) -> List[Tuple]:
        if args_list is None:
            return [()] * self.num_workers
        if len(args_list) != self.num_workers:
            raise ValueError(f"expected {self.num_workers} argument tuples, "
                             f"got {len(args_list)}")
        return [tuple(a) for a in args_list]

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialWorkerPool(WorkerPool):
    """Reference backend: workers executed sequentially in shard order."""

    backend = "serial"

    def __init__(self, tasks: Sequence[ShardTask]) -> None:
        super().__init__(tasks)
        self.workers = [ShardWorker(task) for task in tasks]

    def run(self, method, args_list=None):
        args_list = self._resolve_args(args_list)
        return [getattr(worker, method)(*args)
                for worker, args in zip(self.workers, args_list)]

    def run_one(self, index, method, *args):
        return getattr(self.workers[index], method)(*args)


def _process_worker_main(conn, task: ShardTask) -> None:
    """Child-process loop: build the worker, then serve pipe commands."""
    try:
        worker = ShardWorker(task)
        conn.send(("ok", None))
    except BaseException:
        conn.send(("err", traceback.format_exc()))
        return
    while True:
        message = conn.recv()
        if message is None:
            return
        method, args = message
        try:
            conn.send(("ok", getattr(worker, method)(*args)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))


class ProcessWorkerPool(WorkerPool):
    """One forked child process per shard, connected over a duplex pipe.

    The children inherit their tasks — and with them the gradient buckets'
    shared mappings (:mod:`repro.distributed.comms`) — from the fork, so
    gradients bypass the pipe entirely.
    """

    backend = "process"

    def __init__(self, tasks: Sequence[ShardTask]) -> None:
        super().__init__(tasks)
        if "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "the process worker pool needs the 'fork' start method, "
                "which this platform lacks: its workers inherit the gradient "
                "buffers as shared mappings.  Train with backend=\"serial\" "
                "instead (one process, bitwise the same trajectory).")
        ctx = mp.get_context("fork")
        self.processes = []
        self.conns = []
        try:
            for task in tasks:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_process_worker_main,
                                   args=(child_conn, task), daemon=True)
                proc.start()
                child_conn.close()
                self.processes.append(proc)
                self.conns.append(parent_conn)
            for index in range(self.num_workers):
                self._check(self._recv(index), index)
        except BaseException:
            self.shutdown()
            raise

    def _send(self, index: int, message) -> None:
        """Send one command to child ``index``; a dead child's broken pipe
        becomes the same actionable error :meth:`_recv` raises."""
        try:
            self.conns[index].send(message)
        except (BrokenPipeError, OSError):
            proc = self.processes[index]
            raise RuntimeError(
                f"shard worker {index} died (exit code {proc.exitcode}) — "
                "cannot dispatch commands; check the child's stderr / dmesg "
                "for the cause") from None

    def _recv(self, index: int):
        """Receive one reply from child ``index``, never waiting forever.

        A child that died (OOM-killed, segfaulted native code, ``os._exit``)
        can never reply; a plain ``conn.recv()`` would hang the master — and
        with it ``shutdown`` — indefinitely.  Poll with a short timeout and
        turn a dead child into an actionable error instead.
        """
        conn = self.conns[index]
        proc = self.processes[index]
        while not conn.poll(0.2):
            if not proc.is_alive() and not conn.poll(0):
                raise RuntimeError(
                    f"shard worker {index} died (exit code {proc.exitcode}) "
                    "before replying — killed or crashed outside Python; "
                    "check the child's stderr / dmesg for the cause")
        try:
            return conn.recv()
        except (EOFError, OSError):
            raise RuntimeError(
                f"shard worker {index} died (exit code {proc.exitcode}) "
                "mid-reply") from None

    @staticmethod
    def _check(message, index: int):
        status, value = message
        if status == "err":
            raise RuntimeError(
                f"shard worker process {index} failed:\n{value}")
        return value

    def run(self, method, args_list=None):
        args_list = self._resolve_args(args_list)
        for index, args in enumerate(args_list):
            self._send(index, (method, args))
        return [self._check(self._recv(i), i)
                for i in range(self.num_workers)]

    def run_one(self, index, method, *args):
        self._send(index, (method, args))
        return self._check(self._recv(index), index)

    def shutdown(self) -> None:
        for conn, proc in zip(self.conns, self.processes):
            if proc.is_alive():
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for conn, proc in zip(self.conns, self.processes):
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
            conn.close()


def make_worker_pool(backend: Optional[str],
                     tasks: Sequence[ShardTask]) -> WorkerPool:
    """Build the worker pool :func:`resolve_backend` selects."""
    if resolve_backend(backend, len(tasks)) == "serial":
        return SerialWorkerPool(tasks)
    return ProcessWorkerPool(tasks)
