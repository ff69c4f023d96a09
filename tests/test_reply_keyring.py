"""Reply checking: each distinct signed reply is verified once per keyring."""

import dataclasses
import struct

import pytest

from attestnet.protocols.bft import BftCluster
from attestnet.protocols.common import encode_reply_payload


class CountingKey:
    """Wraps a parsed public key and counts real Ed25519 verifications."""

    def __init__(self, key):
        self.key = key
        self.verifies = 0

    def verify(self, signature, data):
        self.verifies += 1
        self.key.verify(signature, data)


def counting(keyring):
    keys = {device: CountingKey(key) for device, key in keyring.pubs.items()}
    keyring.pubs.update(keys)
    return lambda: sum(k.verifies for k in keys.values())


def test_four_clients_check_twelve_replies_and_verify_three():
    cluster = BftCluster.build(n=3, f=1, seed=4, clients=4)
    keyring = cluster.cluster.keyring
    verifies = counting(keyring)
    checks = []
    check = keyring.check
    keyring.check = lambda reply: checks.append(reply) or check(reply)

    req = cluster.run_request(0, 1)

    assert len(checks) == 12
    assert verifies() == 3
    assert cluster.clients[0].accepted_value(req) == struct.pack(">Q", 1)
    for client in cluster.clients:
        assert len(client.replies[req]) == 3
        assert client.observed[req] == struct.pack(">Q", 1)
        # a witness counts each reply past quorum on a foreign request
        assert client.ignored == (0 if client is cluster.clients[0] else 2)


def _corrupt_signature(reply):
    sig = bytes([reply.signature[0] ^ 1]) + reply.signature[1:]
    return dataclasses.replace(reply, signature=sig)


def _other_device(reply):
    return dataclasses.replace(reply, device=3)


def _flip_payload_byte(reply):
    payload = reply.payload[:-1] + bytes([reply.payload[-1] ^ 1])
    return dataclasses.replace(reply, payload=payload)


@pytest.mark.parametrize("forge", [_corrupt_signature, _other_device,
                                   _flip_payload_byte])
def test_forgery_of_remembered_reply_still_rejected(forge):
    cluster = BftCluster.build(n=3, f=1, seed=9)
    client = cluster.clients[0]
    keyring = cluster.cluster.keyring
    verifies = counting(keyring)
    req = client.issue(1)
    good = keyring.sign(2, encode_reply_payload(req, struct.pack(">Q", 1)))
    client.deliver(good)
    assert verifies() == 1 and client.ignored == 0

    bad = forge(good)
    assert bad != good
    client.deliver(bad)
    client.deliver(bad)                     # a failure is never remembered
    assert client.ignored == 2
    assert verifies() == 3
    assert client.replies[req] == {2: struct.pack(">Q", 1)}
    assert client.accepted_value(req) is None

    assert keyring.check(good)              # the valid reply stays remembered
    assert verifies() == 3
