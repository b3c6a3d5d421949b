"""Retired datapath mechanisms, kept as oracles for what replaced them.

``EventArrivalQueuePair`` is ``QueuePair`` as it was before a fabric
port's FIFO fixed the target order at launch: every op admitted through
a port schedules its arrival as a heap event, and the arrival charges
the target pipeline at ``sim.now``.  ``test_port_order.py`` requires the
two to agree exactly — the same work completions, the same target
pipeline, the same port counters — with one event fewer per fast op.

``LaunchChargeQueuePair`` is a deliberately wrong variant: it charges
every fast op at launch, even while an op ahead of it through the port
(an atomic, a SEND) is still to arrive.  The property must catch it.
"""

from __future__ import annotations

from heapq import heappush
from unittest import mock

from repro.common.types import OpType
from repro.rdma.qp import QueuePair


class EventArrivalQueuePair(QueuePair):
    """``QueuePair`` with one arrival event per op through a port."""

    def _port_ordered(self, port, wr, posted_at, arrive_at) -> None:
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (arrive_at, sim._seq, self._arrive,
                             (wr, posted_at)))


class LaunchChargeQueuePair(QueuePair):
    """Charges fast ops at launch regardless of the port's FIFO."""

    def _port_ordered(self, port, wr, posted_at, arrive_at) -> None:
        op = wr.opcode
        if ((op is OpType.READ or op is OpType.WRITE)
                and not wr.touch_memory and wr.span is None
                and wr.rkey in self.dst.memory._regions):
            done = self.dst.nic.submit_target(wr, arrive_at)
            self.sim.schedule_at(done + self.prop_delay, self._complete,
                                 wr, posted_at, None)
            return
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (arrive_at, sim._seq, self._arrive,
                             (wr, posted_at)))


def event_arrival_qps():
    """Context manager: fabrics connected inside build two-event QPs."""
    return mock.patch("repro.rdma.fabric.QueuePair", EventArrivalQueuePair)


def launch_charge_qps():
    """Context manager: fabrics connected inside build the wrong variant."""
    return mock.patch("repro.rdma.fabric.QueuePair", LaunchChargeQueuePair)
