"""Chain replication: commit-index agreement, lie detection position, client quorum."""

import json
import struct

import pytest

from attestnet.errors import ChainValidationFailure
from attestnet.protocols.chain import (
    ChainCluster,
    KvMachine,
    LyingMiddle,
    OP_GET,
    OP_PUT,
    encode_op,
)
from attestnet.scenario import run_scenario


def reexecute_oracle(requests: list[bytes]) -> list[bytes]:
    """Independent replica: run each request body on a fresh machine copy."""
    machine = KvMachine()
    return [machine.apply(body) for body in requests]


def test_honest_put_commit_indexes_agree():
    cluster = ChainCluster.build(n=3, f=1, seed=1)
    client = cluster.clients[0]
    req = cluster.run_put(0, 1, b"k", b"v")
    histories = cluster.commit_histories()
    assert histories == {1: [1], 2: [1], 3: [1]}
    # 3 consistent replies: value committed with quorum
    assert len(client.replies[req]) == 3
    assert client.accepted_value(req) == struct.pack(">Q", 1) + b"v"


def test_multiple_rounds_identical_histories_match_oracle():
    cluster = ChainCluster.build(n=3, f=1, seed=2)
    bodies = []
    for i in range(1, 6):
        key, value = b"k%d" % i, b"v%d" % i
        cluster.run_put(0, i, key, value)
        bodies.append(encode_op(OP_PUT, key, value))
    histories = cluster.commit_histories()
    assert len({tuple(h) for h in histories.values()}) == 1
    expected_outputs = reexecute_oracle(bodies)
    assert [struct.unpack(">Q", o[:8])[0] for o in expected_outputs] == histories[1]


def test_get_traverses_whole_chain():
    cluster = ChainCluster.build(n=3, f=1, seed=3)
    client = cluster.clients[0]
    cluster.run_put(0, 1, b"color", b"teal")
    req = cluster.run_get(0, 2, b"color")
    # every node executed the read: commit indexes advanced everywhere
    assert cluster.commit_histories() == {1: [1, 2], 2: [1, 2], 3: [1, 2]}
    assert client.accepted_value(req) == struct.pack(">Q", 2) + b"teal"


def test_middle_lie_caught_by_first_downstream_node():
    cluster = ChainCluster.build(
        n=3, f=1, seed=4,
        node_cls_at={1: LyingMiddle},
        node_kwargs_at={1: {"lie_at_commit": 1}})
    client = cluster.clients[0]
    req = cluster.run_put(0, 1, b"k", b"v")
    tail_flags = cluster.nodes[3].flags
    assert len(tail_flags) == 1
    assert tail_flags[0].accused_position == 1
    # head reply is correct, middle reply lies, tail refuses: no f+1 quorum
    # for the wrong value, so the client never accepts a lie
    accepted = client.accepted_value(req)
    assert accepted is None or accepted == struct.pack(">Q", 1) + b"v"


def test_lie_detected_via_independent_reexecution():
    # the detection oracle: re-execute the request at the tail's position
    body = encode_op(OP_PUT, b"k", b"v")
    honest_machine = KvMachine()
    expected = honest_machine.peek(body)
    lied = struct.pack(">Q", 42) + b"bogus"
    assert lied != expected


def test_validate_chain_flags_tag_corruption():
    from attestnet.protocols.chain import encode_poe_base
    from attestnet.protocols.common import log_session
    from attestnet.wire import decode_frame, encode_frame

    cluster = ChainCluster.build(n=3, f=1, seed=5)
    head = cluster.nodes[1]
    middle = cluster.nodes[2]
    body = encode_op(OP_PUT, b"k", b"v")
    req = b"\x00" * 12 + body
    out = head.machine.apply(body)
    poe = head.endpoint.local_send(log_session(1), encode_poe_base(req, out))
    frame = bytearray(encode_frame(poe))
    frame[25] ^= 0x01           # corrupt payload inside the wrapper
    with pytest.raises(ChainValidationFailure) as exc_info:
        middle.validate_chain(bytes(frame))
    assert exc_info.value.position == 0


@pytest.mark.parametrize("n, f, position", [(3, 1, 1), (5, 2, 2)])
def test_lying_middle_is_the_only_node_accused(n, f, position):
    # After flagging the liar the next node accepts nothing more from the
    # chain, so later rounds cannot make it accuse the honest head.
    result = run_scenario({"protocol": "cr", "n": n, "f": f, "attack": {
        "kind": "lie", "position": position, "commit": 2}})
    verdict = json.loads(result.dumps().splitlines()[-1])
    assert [flag["position"] for flag in verdict["flags"]] == [position]
    assert verdict["ok"] and result.ok
