"""Worker pools: serial, thread and process execution of shard workers.

The sharded trainer talks to its workers through one tiny interface —
:meth:`WorkerPool.run` broadcasts a :class:`~repro.distributed.worker.ShardWorker`
method to every worker and returns the results **in shard order** — so the
execution backend is swappable:

``serial``
    Workers run one after another in the caller's thread.  The reference
    backend: zero concurrency, useful for debugging and as the determinism
    anchor the concurrent backends are asserted against.

``thread``
    One long-lived thread per worker.  Numpy kernels release the GIL, so
    per-shard batch generation (neighbor finding, feature slicing) and the
    dense forward/backward overlap across shards on multi-core hosts.

``process``
    One child process per worker, connected over a pipe.  True parallelism
    regardless of the GIL; arguments/results are pickled, so gradients meet
    in shared-memory buckets instead (:mod:`repro.distributed.comms`) and
    the pipe carries control messages.

All three produce bitwise-identical training trajectories: each worker's
compute is a deterministic function of its shard and the averaged gradients
it receives, and the barrier collects contributions in fixed shard order.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
import traceback
from queue import Queue
from typing import Any, List, Optional, Sequence, Tuple

from .worker import ShardTask, ShardWorker

__all__ = ["WORKER_BACKENDS", "WorkerPool", "SerialWorkerPool",
           "ThreadWorkerPool", "ProcessWorkerPool", "make_worker_pool"]

WORKER_BACKENDS = ("serial", "thread", "process")


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

    def run_timed(self, method: str,
                  args_list: Optional[Sequence[Tuple]] = None
                  ) -> Tuple[List[Any], float]:
        """Like :meth:`run`, plus the master-side marshalling seconds.

        The second element is the time the *master* spends moving arguments
        and results across the pool boundary — for the process pool that is
        argument pickling + pipe writes on dispatch and pipe reads +
        unpickling once a reply is ready, explicitly *excluding* the wait
        for workers to compute (which a wall-clock measure conflates with
        transport whenever workers outnumber cores).  In-process pools pass
        references, so their marshalling cost is 0.
        """
        return self.run(method, args_list), 0.0

    def shutdown(self) -> None:
        """Release pool resources (threads / processes)."""

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

    def shutdown(self) -> None:
        for worker in self.workers:
            worker.shutdown()


class _WorkerThread(threading.Thread):
    """A dedicated thread owning one worker and draining a command queue.

    One *persistent* thread per worker (rather than an executor) pins every
    worker's entire lifetime to a single thread, which keeps any
    thread-local state per-shard.
    """

    def __init__(self, index: int, task: ShardTask) -> None:
        super().__init__(name=f"shard-worker-{index}", daemon=True)
        self.commands: "Queue" = Queue()
        self._task = task
        self._init_error: Optional[BaseException] = None
        self._ready = threading.Event()

    def run(self) -> None:
        try:
            worker = ShardWorker(self._task)
        except BaseException as exc:
            self._init_error = exc
            self._ready.set()
            return
        self._ready.set()
        while True:
            item = self.commands.get()
            if item is None:
                worker.shutdown()
                return
            method, args, reply = item
            try:
                reply.put(("ok", getattr(worker, method)(*args)))
            except BaseException as exc:
                reply.put(("err", exc))

    def wait_ready(self) -> None:
        self._ready.wait()
        if self._init_error is not None:
            raise self._init_error


class ThreadWorkerPool(WorkerPool):
    """One long-lived thread per shard; numpy kernels overlap across shards."""

    backend = "thread"

    def __init__(self, tasks: Sequence[ShardTask]) -> None:
        super().__init__(tasks)
        self.threads = [_WorkerThread(i, task) for i, task in enumerate(tasks)]
        for thread in self.threads:
            thread.start()
        for thread in self.threads:
            thread.wait_ready()

    def _dispatch(self, index: int, method: str, args: Tuple) -> "Queue":
        reply: "Queue" = Queue(maxsize=1)
        self.threads[index].commands.put((method, args, reply))
        return reply

    @staticmethod
    def _collect(reply: "Queue") -> Any:
        status, value = reply.get()
        if status == "err":
            raise value
        return value

    def run(self, method, args_list=None):
        args_list = self._resolve_args(args_list)
        replies = [self._dispatch(i, method, args)
                   for i, args in enumerate(args_list)]
        return [self._collect(reply) for reply in replies]

    def run_one(self, index, method, *args):
        return self._collect(self._dispatch(index, method, args))

    def shutdown(self) -> None:
        for thread in self.threads:
            if thread.is_alive():
                thread.commands.put(None)
        for thread in self.threads:
            thread.join(timeout=10.0)


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
            worker.shutdown()
            return
        method, args = message
        try:
            conn.send(("ok", getattr(worker, method)(*args)))
        except BaseException:
            conn.send(("err", traceback.format_exc()))


class ProcessWorkerPool(WorkerPool):
    """One child process per shard, connected over a duplex pipe.

    The only backend with true parallelism for GIL-bound (non-numpy)
    portions of batch generation; gradients bypass the pipe through
    shared-memory buckets (:mod:`repro.distributed.comms`).
    """

    backend = "process"

    def __init__(self, tasks: Sequence[ShardTask]) -> None:
        super().__init__(tasks)
        # fork (where available) shares the parent's read-only pages with the
        # children; spawn (the only option on some platforms) re-imports and
        # pickles, which works because ShardTask carries only arrays/config.
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        #: how children were started ("fork" where available, else "spawn").
        self.start_method = ctx.get_start_method()
        self.processes = []
        self.conns = []
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

    def _recv_wait(self, index: int) -> None:
        """Block until a reply from child ``index`` is ready, never forever.

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

    def _recv(self, index: int):
        """Receive one reply from child ``index`` (dead-child safe)."""
        self._recv_wait(index)
        try:
            return self.conns[index].recv()
        except (EOFError, OSError):
            proc = self.processes[index]
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

    def run_timed(self, method, args_list=None):
        """Broadcast like :meth:`run`, clocking the master's pipe I/O.

        The I/O clock covers the send loop (argument pickling + pipe
        writes) and each ``recv`` *after* :meth:`_recv_wait` reports a
        reply ready (pipe read + result unpickling).  It reads the
        **thread CPU clock**, not wall time: a ``send`` wakes the child,
        and on a host with fewer cores than workers the scheduler may
        preempt the master for it mid-loop — wall time would charge that
        child's compute to the transport.  Marshalling is pure master CPU
        (pickle, memcpy, pipe syscalls), which is exactly what the CPU
        clock counts and preemption cannot inflate.
        """
        args_list = self._resolve_args(args_list)
        io = 0.0
        start = time.thread_time()
        for index, args in enumerate(args_list):
            self._send(index, (method, args))
        io += time.thread_time() - start
        results = []
        for index in range(self.num_workers):
            self._recv_wait(index)
            start = time.thread_time()
            try:
                message = self.conns[index].recv()
            except (EOFError, OSError):
                proc = self.processes[index]
                raise RuntimeError(
                    f"shard worker {index} died (exit code {proc.exitcode}) "
                    "mid-reply") from None
            io += time.thread_time() - start
            results.append(self._check(message, index))
        return results, io

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


def make_worker_pool(backend: str, tasks: Sequence[ShardTask]) -> WorkerPool:
    """Build the worker pool selected by ``backend``."""
    if backend == "serial":
        return SerialWorkerPool(tasks)
    if backend == "thread":
        return ThreadWorkerPool(tasks)
    if backend == "process":
        return ProcessWorkerPool(tasks)
    raise ValueError(f"unknown worker backend {backend!r}; "
                     f"choose from {WORKER_BACKENDS}")
