"""wire-width fixture: struct formats that depend on host byte order."""

import struct

__all__ = ["decode_envelope", "encode_envelope", "read_trailer", "read_word"]

# TP: native byte order in a wire format.
_ENVELOPE = struct.Struct("HBB")

# Near miss: the same envelope in network byte order.
_WIRE_ENVELOPE = struct.Struct(">HBB")


def encode_envelope(values):
    return _ENVELOPE.pack(*values)


def decode_envelope(data):
    return _WIRE_ENVELOPE.unpack_from(data)


def read_trailer(blob):
    # TP: explicit little-endian is host-independent, but not network order.
    return struct.unpack("<I", blob[-4:])


def read_word(blob):
    # Near miss: '!' is network byte order too.
    return struct.unpack_from("!I", blob, 0)
