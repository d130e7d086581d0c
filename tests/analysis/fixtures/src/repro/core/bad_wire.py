"""wire-width fixture: struct formats that depend on host byte order."""

import struct

__all__ = ["decode_envelope", "encode_envelope", "read_ids", "read_trailer", "read_word", "write_ids"]

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


def read_ids(payload, count):
    # TP: a computed format whose template lacks the byte order.
    return struct.unpack("%dI" % count, payload)


def write_ids(ids):
    # TP: an f-string format whose leading literal is no byte order.
    native = struct.pack(f"{len(ids)}I", *ids)
    # Near misses: the same formats, network order in the template.
    return native, struct.pack(">%dI" % len(ids), *ids), struct.pack(f">{len(ids)}I", *ids)
