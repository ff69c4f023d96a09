"""The shared event pump: a client may submit its next request from `deliver`."""

import struct

import pytest

from attestnet.protocols.bft import BftCluster
from attestnet.protocols.chain import OP_PUT, ChainCluster, encode_op
from attestnet.protocols.common import QuorumClient

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
