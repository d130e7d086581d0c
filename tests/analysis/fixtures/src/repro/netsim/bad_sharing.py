"""Fixture: scheduled callbacks mutating module-level shared state."""

__all__ = ["Link", "schedule_leak", "schedule_count", "schedule_ok"]

SHARED_LOG: list = []
EVENTS = 0
ARRIVALS: list = []
TICKS: dict = {}


def schedule_leak(loop, frame):
    # TP: the lambda closes over and mutates a module-level list.
    loop.schedule(0.1, lambda: SHARED_LOG.append(frame))


def schedule_count(loop):
    def bump():
        global EVENTS
        EVENTS += 1  # TP: rebinding a module global from a callback

    loop.schedule(0.2, bump)


def schedule_ok(loop, sink):
    state = {"n": 0}

    def tick():
        state["n"] += 1  # near-miss: per-call closure state, not shared
        sink.frames.append(state["n"])  # near-miss: the caller's own object

    loop.schedule(0.3, tick)


class Link:
    def __init__(self, loop):
        self.loop = loop
        self.delivered: list = []

    def send(self, frame):
        # TP one call below: the lambda's self._arrive appends to a
        # module-level list.
        self.loop.at(1.0, lambda f=frame: self._arrive(f))
        # Near miss: self._deliver keeps the frame on the instance.
        self.loop.at(1.0, lambda f=frame: self._deliver(f))
        # TP: the bound method itself is the callback.
        self.loop.schedule(0.5, self._tick)

    def _arrive(self, frame):
        ARRIVALS.append(frame)

    def _deliver(self, frame):
        self.delivered.append(frame)

    def _tick(self):
        TICKS["link"] = self.loop
