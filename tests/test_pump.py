"""The shared event pump: a client may submit its next request from `deliver`."""

import struct

import pytest

from attestnet.protocols.bft import BftCluster
from attestnet.protocols.chain import OP_PUT, ChainCluster, encode_op
from attestnet.protocols.common import QuorumClient, pump
from attestnet.protocols.peerreview import PrScenario
from attestnet.simnet import Network

REQUESTS = 5


class ChainedClient(QuorumClient):
    """Issues its next request the moment the current one is accepted."""

    def __init__(self, cluster, submit, body):
        super().__init__(300, cluster.cluster.keyring, cluster.config.quorum)
        self.submit = submit
        self.body = body
        self.sent: list[bytes] = []

    def send_next(self) -> None:
        req = self.issue(len(self.sent), self.body(len(self.sent)))
        self.sent.append(req)
        self.submit(req)

    def deliver(self, reply) -> None:
        super().deliver(reply)
        if len(self.sent) < REQUESTS and self.sent[-1] in self.accepted:
            self.send_next()


def _bft():
    cluster = BftCluster.build(n=3, f=1, seed=5, clients=0)
    client = ChainedClient(cluster, cluster.replicas[cluster.leader_id].leader_handle,
                           lambda i: b"")
    return cluster, client, lambda i: struct.pack(">Q", i + 1), 11_316


def _cr():
    cluster = ChainCluster.build(n=3, f=1, seed=5, clients=0)
    client = ChainedClient(cluster, cluster.nodes[cluster.order[0]].head_handle,
                           lambda i: encode_op(OP_PUT, b"k%d" % i, b"v%d" % i))
    return cluster, client, lambda i: struct.pack(">Q", i + 1) + b"v%d" % i, 14_426


@pytest.mark.parametrize("build", [_bft, _cr], ids=["bft", "cr"])
def test_client_submitting_from_deliver_finishes_in_one_drain(build):
    cluster, client, expected, sim_ns = build()
    cluster.clients = [client]
    client.send_next()
    cluster.drain()
    assert len(client.sent) == REQUESTS
    assert [client.accepted_value(req) for req in client.sent] == [
        expected(i) for i in range(REQUESTS)]
    assert cluster.all_flags() == []
    # Each request goes out when its quorum is handed over, so the simulated
    # end time pins the pump's pass order (steps before replies).
    assert cluster.cluster.net.clock.now_ns == sim_ns


def test_peerreview_round_drains_in_two_passes():
    """Pass 1 carries the commands, pass 2 the responses; no third pass runs
    just to see that nothing moved."""
    scenario = PrScenario.build(seed=0, n_children=2)
    net = scenario.cluster.net
    nodes = [scenario.root, *scenario.children.values()]
    steps = {node.node_id: 0 for node in nodes}
    passes = 0

    def counted(node, step):
        def wrapper():
            steps[node.node_id] += 1
            return step()
        return wrapper

    def counted_pass(run=net.run_until_quiescent):
        nonlocal passes
        passes += 1
        run()

    for node in nodes:
        node.step = counted(node, node.step)
    net.run_until_quiescent = counted_pass
    scenario.run_rounds([b"cmd"])
    assert passes == 2
    assert steps == {1: 2, 2: 2, 3: 2}
    assert [len(r) for r in scenario.root.responses.values()] == [1, 1]


class _Node:
    def __init__(self):
        self.outbox_replies = []

    def step(self):
        return False


class _Recorder:
    def __init__(self, on_deliver):
        self.got = []
        self.on_deliver = on_deliver

    def deliver(self, reply):
        self.got.append(reply)
        self.on_deliver(reply)


def test_reply_appended_to_an_emptied_outbox_is_still_handed_out():
    """The first node's outbox is emptied before the second's; a reply the
    first node appends while the second's is handed out waits for the next
    pass, even though no node made progress and the network holds nothing."""
    first, second = _Node(), _Node()
    second.outbox_replies.append("second")
    client = _Recorder(lambda reply: reply == "second"
                       and first.outbox_replies.append("late"))
    pump(Network(), [first, second], [client])
    assert client.got == ["second", "late"]
    assert first.outbox_replies == [] and second.outbox_replies == []
