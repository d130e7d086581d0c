"""Fixture: payload copies on the receive path (touch-once violations)."""

__all__ = ["FixtureReceiver"]


class FixtureReceiver:
    def receive_chunk(self, chunk):
        header = memoryview(chunk.payload)[0:44]  # near-miss: zero-copy view
        head = chunk.payload[:44]  # TP: slicing payload copies it
        tail = bytes(chunk.payload)  # TP: bytes() copies payload
        return self._stitch(head, tail), header

    def _stitch(self, data, frame):
        return data + frame  # TP: concat copy in a helper the entry reaches

    def cold_accessor(self, chunk):
        # near-miss: identical slice, but not reachable from any receive
        # entry point, so it is outside the touch-once budget.
        return chunk.payload[:44]
