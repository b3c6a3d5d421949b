"""What a connection holds after a run: only what something reads.

Every connection is two QPs and two CQs, and a 1 000-client node holds
thousands of them, so an empty container per QP or CQ (an empty deque
is 760 B) or a completion that no handler or poller will ever take is
paid per client for the life of the cluster.  After a run:

- no CQ holds a work completion: the data node posts its SENDs (period
  starts, report requests, RPC responses) unsignaled, because its CQs
  have no reader, and a client its request SENDs, because the response
  ends the op;
- no CQ owns a buffer (a handler-backed CQ never builds one; a polled
  one builds it at its first completion) and no QP a flush backlog
  (it exists only while a closed QP flushes its send queue);
- an engine's backlog is a plain list of runs.
"""

from repro.cluster.experiment import run_experiment
from repro.cluster.scenarios import TEST_SCALE, bare_cluster, qos_cluster
from repro.common.types import AccessMode


def _assert_holds_nothing_unread(cluster):
    qps = [qp for pair in cluster.fabric.connections for qp in pair]
    assert qps
    for qp in qps:
        assert qp._flush_backlog is None
        assert len(qp.cq) == 0, qp.cq.name
        assert qp.cq._queue is None, qp.cq.name
    for engine in cluster.engines():
        assert type(engine._queue) is list


def test_a_qos_run_keeps_no_completion_and_no_idle_container():
    cluster = qos_cluster([100_000] * 4, [200_000] * 4, scale=TEST_SCALE)
    result = run_experiment(cluster, warmup_periods=1, measure_periods=1)
    assert result.monitor_records  # the monitor SENT every period's start
    assert len(cluster.engines()) == 4
    _assert_holds_nothing_unread(cluster)


def test_a_two_sided_run_keeps_no_completion_per_response():
    """Every op is a request SEND answered by a response SEND; the
    response's completion would go to nobody."""
    cluster = bare_cluster(demands=[200_000] * 4, access=AccessMode.TWO_SIDED,
                           scale=TEST_SCALE)
    run_experiment(cluster, warmup_periods=1, measure_periods=1)
    completed = sum(m.completed.total
                    for m in cluster.metrics.clients.values())
    assert completed > 100
    _assert_holds_nothing_unread(cluster)


def test_a_two_sided_request_leaves_no_unclaimed_completion():
    """The client's request SENDs are unsignaled too: the response (or
    the deadline sweep) ends the op, so a successful request builds no
    completion for the client's router to count unclaimed."""
    cluster = bare_cluster(demands=[200_000] * 4, access=AccessMode.TWO_SIDED,
                           scale=TEST_SCALE)
    run_experiment(cluster, warmup_periods=1, measure_periods=1)
    assert sum(m.completed.total
               for m in cluster.metrics.clients.values()) > 100
    assert sum(ctx.kv.router.unclaimed for ctx in cluster.clients) == 0
