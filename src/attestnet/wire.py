"""Wire frame codec.

Frame layout, all integers big-endian:

    offset  size  field
    0       4     session id
    4       4     device id
    8       8     counter
    16      4     payload length
    20      n     payload
    20+n    64    attestation tag

Total length is exactly 84 + payload length; decode rejects anything else.
The codec is bijective on valid frames: decode(encode(f)) == f.
"""

import struct

from .errors import FrameError
from .kernel import AttestedMessage, TAG_LEN

_HEADER = struct.Struct(">IIQI")
HEADER_LEN = _HEADER.size            # 20
FRAME_OVERHEAD = HEADER_LEN + TAG_LEN  # 84


def encode_frame(msg: AttestedMessage) -> bytes:
    if len(msg.tag) != TAG_LEN:
        raise FrameError(f"tag must be {TAG_LEN} bytes")
    header = _HEADER.pack(msg.session, msg.device, msg.counter, len(msg.payload))
    return header + msg.payload + msg.tag


def frame_counter(data: bytes) -> int:
    """The counter field of a frame, read without decoding the rest."""
    return int.from_bytes(data[8:16], "big")


def decode_frame(data: bytes) -> AttestedMessage:
    if len(data) < FRAME_OVERHEAD:
        raise FrameError(f"frame too short: {len(data)} bytes")
    session, device, counter, payload_len = _HEADER.unpack_from(data)
    if len(data) != FRAME_OVERHEAD + payload_len:
        raise FrameError(
            f"length mismatch: header says {FRAME_OVERHEAD + payload_len}, got {len(data)}"
        )
    payload = data[HEADER_LEN:HEADER_LEN + payload_len]
    tag = data[HEADER_LEN + payload_len:]
    return AttestedMessage(tag=tag, payload=payload, device=device,
                           session=session, counter=counter)
