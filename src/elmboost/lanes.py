"""One in-order walk over a sequence of slots, on two threads.

Each slot's work splits in two.  ``work(slot)`` is a pure function of the
slot and may run on either thread, in any order.  ``finish(slot, result)``
reads what the slot before it left (a training residual, a running score
sum), so it runs one slot at a time, in slot order.

``in_order`` walks the slots on two lanes: the calling thread and one worker
thread.  Each lane takes the lowest slot nobody has taken and computes its
work while the other lane computes another slot's.  It then waits until the
slot before is finished, finishes its own slot on its own thread, drops the
result and takes the next slot.  The finishes therefore run in the order of
a serial walk, so every result is bitwise the serial walk's.  Neither lane
waits for the other at a fixed boundary, so both cores stay busy, and at
most two work results are alive at once.

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

_END = object()  # what next() gives for an exhausted slot source
# Finish outputs that may wait for the consumer before the worker stops taking
# slots.  While the consumer runs, at most one waits when the worker takes one.
_AHEAD = 2


class _Walk:
    """The state two lanes share: the slot source, whose turn it is, outputs and the first error."""

    def __init__(self, slots: Iterable, work: Callable, finish: Callable):
        self.slots = iter(slots)
        self.work = work
        self.finish = finish
        self.turn = threading.Condition()
        self.taken = 0  # slots handed to a lane
        self.done = 0  # slots finished; the next one to finish is slot number `done`
        self.stopped = False
        self.failure: BaseException | None = None
        self.ready: list = []  # finish outputs not yet handed out, in slot order

    def step(self) -> bool:
        """Take the lowest free slot, compute its work, then finish it in its turn.

        False once no slot is left or the walk has stopped.  An error in
        work or finish is kept and stops the walk only in the slot's turn,
        after every earlier slot has finished, so the first error in slot
        order is the one in_order raises.
        """
        with self.turn:
            slot = _END if self.stopped else next(self.slots, _END)
            if slot is _END:
                return False
            mine = self.taken
            self.taken += 1
        error = result = output = None
        try:
            result = self.work(slot)
        except BaseException as exc:  # re-raised by in_order on the calling thread
            error = exc
        with self.turn:
            self.turn.wait_for(lambda: self.done == mine or self.stopped)
            if self.stopped:
                return False
        if error is None:
            try:
                output = self.finish(slot, result)
            except BaseException as exc:  # re-raised by in_order on the calling thread
                error = exc
        del result  # dropped before this lane takes another slot
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
        """The worker's lane: steps until no slot is left or the walk has stopped.

        It takes no slot while _AHEAD outputs wait: a consumer that pauses
        holds the walk there instead of letting it run to its end.
        """
        while True:
            with self.turn:
                self.turn.wait_for(lambda: len(self.ready) < _AHEAD or self.stopped)
            if not self.step():
                return

    def stop(self) -> None:
        with self.turn:
            self.stopped = True
            self.turn.notify_all()

    def outputs(self, until_over: bool = False) -> list:
        """The finish outputs not yet handed out; with until_over, once no slot is in flight.

        until_over is for a lane that has found no slot left to take.
        """
        with self.turn:
            if until_over:
                self.turn.wait_for(lambda: self.stopped or self.done == self.taken)
            ready, self.ready = self.ready, []
            self.turn.notify_all()
        return ready


def in_order(slots: Iterable, work: Callable, finish: Callable) -> Iterator:
    """What finish(slot, work(slot)) returns for each slot, in slot order, where not None.

    Two lanes walk the slots: this thread, while the generator runs, and one
    worker thread (see the module docstring).  Slots are drawn from the
    iterable one at a time, so it may be lazy.  The first error in slot
    order is raised here, after the outputs of every earlier slot; no later
    slot is finished.  The worker is joined when the generator finishes,
    raises or is closed, so no thread outlives the walk; a slot still being
    computed when it is closed is dropped.  numpy's BLAS runs on one thread
    from the first resumption until the worker is joined, and the caller's
    count is restored then.

    The worker keeps walking while the generator is suspended at a yield,
    until two outputs wait, in order, for the next resumption.
    """
    walk = _Walk(slots, work, finish)
    worker = threading.Thread(target=walk.run, name="elmboost-lane")
    with linalg.one_blas_thread():
        worker.start()
        try:
            while walk.step():
                yield from walk.outputs()
            yield from walk.outputs(until_over=True)
            if walk.failure is not None:
                raise walk.failure
        finally:
            walk.stop()
            worker.join()
