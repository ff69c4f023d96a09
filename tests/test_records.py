"""Record formats: each one is pinned to its bytes, every decoder either
raises FrameError or decodes bytes that its encoder gives back exactly, and
every encoder round-trips."""

import pytest
from hypothesis import example, given, settings, strategies as st

from attestnet.device import pack_batch, pack_pair, unpack_batch, unpack_pair
from attestnet.errors import FrameError
from attestnet.kernel import TAG_LEN, AttestedMessage
from attestnet.protocols.bft import counter_state
from attestnet.protocols.chain import OP_GET, OP_PUT, decode_op, encode_op, encode_proof, peel_poe
from attestnet.protocols.common import decode_request, encode_request
from attestnet.protocols.peerreview import decode_exec, encode_exec
from attestnet.wire import decode_frame, encode_frame

REQ = encode_request(0x65, 0, b"req")


def _message(payload: bytes, counter: int) -> AttestedMessage:
    return AttestedMessage(bytes(range(TAG_LEN)), payload, 3, 0x0100_0102, counter)


# The bytes each encoder produced before the codecs shared `pack_pair` (the
# exec entry's since it holds the frame of its command); a format change has
# to show here, since the kernel MACs these bytes.
PINNED = [
    (lambda: pack_pair(REQ, counter_state(7)),
     "0000000f0000006500000000000000007265710000000000000007"),
    (lambda: encode_op(OP_PUT, b"key", b"value"), "50000000036b657976616c7565"),
    (lambda: encode_op(OP_GET, b"k"), "47000000016b"),
    (lambda: encode_exec(b"ack:dmc", encode_frame(_message(b"cmd", 1))),
     "580000000761636b3a646d630100010200000003000000000000000100000003"
     "636d64000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c"
     "1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c"
     "3d3e3f"),
    (lambda: pack_batch([b"", b"ab", b"xyz"]), "00000003000000000000000261620000000378797a"),
    (lambda: encode_request(201, 3, b"body"), "000000c90000000000000003626f6479"),
]


@pytest.mark.parametrize("encode, expected", PINNED,
                         ids=["inner", "op-put", "op-get", "exec", "batch", "request"])
def test_record_bytes_are_pinned(encode, expected):
    assert encode().hex() == expected


def test_a_request_shorter_than_its_header_is_a_frame_error():
    with pytest.raises(FrameError):
        decode_request(b"abc")
    assert decode_request(encode_request(1, 2)) == (1, 2, b"")


# decoder -> the bytes its encoder builds from what it decoded
DECODERS = [
    (unpack_pair, lambda pair: pack_pair(*pair)),
    (unpack_batch, pack_batch),
    (decode_request, lambda fields: encode_request(*fields)),
    (decode_op, lambda fields: encode_op(*fields)),
    (peel_poe, lambda fields: encode_proof(*fields)),
    (decode_frame, encode_frame),
]

small = st.binary(max_size=12)
# Valid encodings, so that mutating them reaches past the first length check.
encoded = st.one_of(
    st.builds(pack_pair, small, small),
    st.lists(small, max_size=4).map(pack_batch),
    st.builds(encode_op, st.integers(0, 255), small, small),
    st.builds(lambda result, cmd: encode_exec(result, encode_frame(_message(cmd, 1))),
              small, small),
)


@st.composite
def mutated(draw):
    data = bytearray(draw(encoded))
    edit = draw(st.sampled_from(["cut", "grow", "flip"]))
    if edit == "cut":
        del data[draw(st.integers(0, len(data))):]
    elif edit == "grow":
        data += draw(st.binary(min_size=1, max_size=4))
    elif data:
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    return bytes(data)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.one_of(st.binary(max_size=40), mutated()))
@example(data=b"abc")                   # shorter than a request header
@example(data=b"\x00\x00\x00\x00")      # a batch of no records: a proof with no request
@example(data=b"")
def test_every_decoder_accepts_only_what_its_encoder_builds(data):
    for decode, encode in DECODERS:
        try:
            fields = decode(data)
        except FrameError:
            continue
        assert encode(fields) == data, decode.__qualname__
    try:
        result, cmd = decode_exec(data)
    except FrameError:
        return
    # decode_exec gives the command, not the frame that carried it
    frame = decode_frame(unpack_pair(data[1:])[1])
    assert frame.payload == cmd and encode_exec(result, encode_frame(frame)) == data


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(head=small, tail=small, records=st.lists(small, max_size=4),
       client=st.integers(0, 2**32 - 1), req_id=st.integers(0, 2**64 - 1),
       op=st.integers(0, 255))
def test_every_encoder_round_trips(head, tail, records, client, req_id, op):
    assert unpack_pair(pack_pair(head, tail)) == (head, tail)
    assert unpack_batch(pack_batch(records)) == records
    assert decode_request(encode_request(client, req_id, head)) == (client, req_id, head)
    assert decode_op(encode_op(op, head, tail)) == (op, head, tail)
    assert peel_poe(encode_proof(head, records)) == (head, records)
    msg = _message(head, req_id)
    assert decode_frame(encode_frame(msg)) == msg
    assert decode_exec(encode_exec(tail, encode_frame(msg))) == (tail, head)


def test_decode_exec_refuses_an_entry_of_another_kind():
    entry = encode_exec(b"ack:dmc", encode_frame(_message(b"cmd", 1)))
    assert decode_exec(entry) == (b"ack:dmc", b"cmd")
    for kind in (b"\x52", b"\x53", b"\x00", b""):
        with pytest.raises(FrameError):
            decode_exec(kind + entry[1:])
