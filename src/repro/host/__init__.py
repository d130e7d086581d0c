"""Host side of a transfer: the bus/memory touch ledger, application
address-space placement (spatial reordering), and the placement budget
shared by a conversation table and lent between shards.  The Section 3.3
receiver strategies, Integrated Layer Processing and the NIC models the
paper contrasts are figure models in :mod:`repro.paper`.
"""

from repro.host.budget import BudgetExceededError, SharedPlacementBudget
from repro.host.delivery import FrameStore, FrameWindow, PlacementBuffer
from repro.host.memory import BusModel, TouchLedger
from repro.host.pool import GlobalBudgetPool, ShardBudget

__all__ = [
    "TouchLedger",
    "BusModel",
    "SharedPlacementBudget",
    "BudgetExceededError",
    "GlobalBudgetPool",
    "ShardBudget",
    "PlacementBuffer",
    "FrameStore",
    "FrameWindow",
]
