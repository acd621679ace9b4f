"""Forked workers that compute a batch of items alongside this process.

A ``Pool`` forks one worker per further CPU this process may run on, and
no more than its items minus one, so one CPU, one item or a platform that
cannot fork forks nothing.  The items of a batch are dealt round robin:
this process computes its share while each worker computes its own on the
pages it shares with this process.  An item a worker could not compute
(computing it raised, or the worker died) comes back ``NOT_COMPUTED``, and
the caller computes it again in order, so that an error is raised where
one process would have raised it, and only if one process would reach it.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

# an item whose computation raised, or whose worker died
NOT_COMPUTED = "not computed"


def process_count() -> int:
    """One per CPU this process may run on, or one where the platform
    cannot fork or name those CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _attempt(compute, item):
    # any error is held back: the caller computes the item again in order
    # and raises it only if one process would have reached the item
    try:
        return compute(item)
    except Exception:
        return NOT_COMPUTED


class Pool:
    """Computes batches with ``compute``, round robin over this process and
    the workers forked when it is made for ``items`` items, which share its
    warmed state and memory pages.  Every worker is killed and reaped on
    leaving the ``with`` block; one that fails is dropped at once, and its
    share of the batch is marked ``NOT_COMPUTED``.  A fork that fails
    leaves fewer workers, and none leaves the work to this process."""

    def __init__(self, compute, items: int):
        self._compute = compute
        self._workers: list[Worker] = []
        try:
            for _ in range(min(process_count(), items) - 1):
                self._workers.append(Worker(compute, self._workers))
        except OSError:  # no process to spare: carry on with those made
            pass
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for worker in self._workers:
            worker.stop()
        self._workers = []

    def compute(self, batch, here=None) -> list:
        """One result per item of ``batch``, or ``NOT_COMPUTED``.  This
        process's share, ``batch[0::n]``, is computed item by item, or by
        ``here(share)``, which returns one result per item of its share."""
        workers = list(self._workers)
        share = 1 + len(workers)
        sent = [worker.send(batch[i::share]) for i, worker in enumerate(workers, 1)]
        results = [NOT_COMPUTED] * len(batch)
        mine = batch[0::share]
        results[0::share] = here(mine) if here else [_attempt(self._compute, k) for k in mine]
        for i, (worker, ok) in enumerate(zip(workers, sent), 1):
            got = worker.receive() if ok else None
            if got is None:
                worker.stop()
                self._workers.remove(worker)
            else:
                results[i::share] = got
        return results


class Worker:
    """A forked process that computes each list of items it is sent and
    sends the results back, pickled, until its pipe closes."""

    def __init__(self, compute, siblings: list[Worker]):
        commands_r, commands_w = os.pipe()
        results_r, results_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (commands_r, commands_w, results_r, results_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                # keep no write end of a sibling's pipe open, so that each
                # worker sees its commands end if this process dies
                for fd in (commands_w, results_r, *(f.fileno() for w in siblings for f in w.pipes)):
                    os.close(fd)
                with os.fdopen(commands_r, "rb") as commands, os.fdopen(results_w, "wb") as results:
                    while True:
                        try:
                            batch = pickle.load(commands)
                        except EOFError:
                            break
                        pickle.dump([_attempt(compute, k) for k in batch], results)
                        results.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(commands_r)
        os.close(results_w)
        self.pipes = (os.fdopen(commands_w, "wb"), os.fdopen(results_r, "rb"))

    def send(self, batch) -> bool:
        try:
            pickle.dump(batch, self.pipes[0])
            self.pipes[0].flush()
            return True
        except OSError:  # the worker has died
            return False

    def receive(self) -> list | None:
        """The results of the last batch sent; None if the worker died."""
        try:
            return pickle.load(self.pipes[1])
        except (EOFError, OSError, pickle.UnpicklingError):
            return None

    def stop(self) -> None:
        for pipe in self.pipes:
            try:
                pipe.close()
            except OSError:  # unsent bytes for a dead worker
                pass
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)
