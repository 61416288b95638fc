"""One in-order walk over a sequence of slots, on two threads.

Each slot's work splits in two.  ``work(slot)`` is a pure function of the
slot and may run on either thread, in any order.  ``finish(slot, result)``
reads what the slot before it left (a training residual, a running score
sum), so it runs one slot at a time, in slot order.

``in_order`` walks the slots on two lanes on a fixed schedule: one worker
thread takes slots 0, 2, 4, ... and the calling thread slots 1, 3, 5, ....
Each lane computes its slot's work while the other lane computes the slot
beside it, then waits until the slot before is finished, finishes its own
slot on its own thread, drops the result and moves two slots on.  The
finishes therefore run in the order of a serial walk, so every result is
bitwise the serial walk's, and at most two work results are alive at once.
The slots of one walk take about equally long, so neither lane waits long
for the other and both cores stay busy.

OpenBLAS gives other bits on another thread count, and two lanes on two
cores leave no core for BLAS's own threads.  So a walk holds numpy's BLAS
at one thread (linalg.one_blas_thread) from before its worker starts until
after it is joined, and then restores the caller's count.

The walk is written by hand, not on a concurrent.futures pool, for its
peak memory.  glibc gives each thread its own malloc arena, which keeps
freed encodings resident, so the calling thread is one of the two lanes and
each lane finishes the slot it computed.  Measured on the 2-vCPU benchmark
host, every output bit unchanged: finishing every slot on the calling
thread behind a ThreadPoolExecutor(2) raised train's peak RSS from 206 to
249 MB (in-process high-water mark 178 to 215 MB; 180 MB with
MALLOC_ARENA_MAX=1), and a two-thread pool that finishes each slot on the
thread that computed it, ordered by a chain of events, still read 8 MB more
on train and on evaluate.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator

from . import linalg


class _Walk:
    """The state two lanes share: the slots, how many are finished, outputs and the first error."""

    def __init__(self, slots: Iterable, work: Callable, finish: Callable):
        self.slots = list(slots)
        self.work = work
        self.finish = finish
        self.turn = threading.Condition()
        self.done = 0  # slots finished; the next one to finish is slot number `done`
        self.stopped = False
        self.failure: BaseException | None = None
        self.ready: list = []  # finish outputs not yet handed out, in slot order

    def step(self, i: int) -> bool:
        """Compute slot i's work, then finish it in its turn, once slot i - 1 is finished.

        False once the walk has stopped.  An error in work or finish is kept
        and stops the walk only in the slot's turn, after every earlier slot
        has finished, so the first error in slot order is the one in_order
        raises.
        """
        error = result = output = None
        try:
            result = self.work(self.slots[i])
        except BaseException as exc:  # re-raised by in_order on the calling thread
            error = exc
        with self.turn:
            self.turn.wait_for(lambda: self.done == i or self.stopped)
            if self.stopped:
                return False
        if error is None:
            try:
                output = self.finish(self.slots[i], result)
            except BaseException as exc:  # re-raised by in_order on the calling thread
                error = exc
        del result  # dropped before this lane computes its next slot
        with self.turn:
            if error is None:
                self.done += 1
                if output is not None:
                    self.ready.append(output)
            else:
                self.failure, self.stopped = error, True
            self.turn.notify_all()
        return error is None

    def run(self) -> None:
        """The worker's lane: slots 0, 2, 4, ... until they run out or the walk has stopped."""
        for i in range(0, len(self.slots), 2):
            if not self.step(i):
                return

    def stop(self) -> None:
        with self.turn:
            self.stopped = True
            self.turn.notify_all()

    def outputs(self) -> list:
        """The finish outputs not yet handed out."""
        with self.turn:
            ready, self.ready = self.ready, []
        return ready


def in_order(slots: Iterable, work: Callable, finish: Callable) -> Iterator:
    """What finish(slot, work(slot)) returns for each slot, in slot order, where not None.

    Two lanes walk the slots: one worker thread takes slots 0, 2, 4, ...
    and this thread, while the generator runs, slots 1, 3, 5, ... (see the
    module docstring).  The slots are read into a list when the generator
    first runs.  The first error in slot order is raised here, after the
    outputs of every earlier slot; no later slot is finished.  The worker is
    joined when the generator finishes, raises or is closed, so no thread
    outlives the walk; a slot still being computed when it is closed is
    dropped.  numpy's BLAS runs on one thread from the first resumption
    until the worker is joined, and the caller's count is restored then.

    While the generator is suspended at a yield, the worker finishes at most
    the slot after this thread's last one and computes the work of its next
    slot, which then waits for the next resumption.
    """
    walk = _Walk(slots, work, finish)
    worker = threading.Thread(target=walk.run, name="elmboost-lane")
    with linalg.one_blas_thread():
        worker.start()
        try:
            for i in range(1, len(walk.slots), 2):
                if not walk.step(i):
                    break
                yield from walk.outputs()
            worker.join()
            yield from walk.outputs()
            if walk.failure is not None:
                raise walk.failure
        finally:
            walk.stop()
            worker.join()
