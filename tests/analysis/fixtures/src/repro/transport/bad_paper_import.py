"""Fixture: a transfer-path module importing a figure model."""

from repro.paper.receiver import ReorderReceiver  # TP: the transfer path may not import paper

__all__ = ["contrast"]


def contrast() -> ReorderReceiver:
    return ReorderReceiver()
