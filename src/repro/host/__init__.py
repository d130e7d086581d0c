"""Host processing models: the bus/memory cost model, the three
receiver architectures of Section 3.3 (immediate / reorder /
reassemble), Integrated Layer Processing, and application address-space
placement (spatial reordering).
"""

from repro.host.budget import BudgetExceededError, SharedPlacementBudget
from repro.host.delivery import FrameStore, FrameWindow, PlacementBuffer
from repro.host.pool import GlobalBudgetPool, ShardBudget
from repro.host.ilp import (
    IlpResult,
    WordFunction,
    byteswap_function,
    checksum_function,
    run_integrated,
    run_layered,
    xor_decrypt_function,
)
from repro.host.interrupts import PerPacketNic, PerPduNic
from repro.host.memory import BusModel, TouchLedger
from repro.host.parallel import ProcessingUnit, TypeDemux, parallel_split
from repro.host.receiver import (
    DeliveryEvent,
    HostReceiver,
    ImmediateReceiver,
    ReassembleReceiver,
    ReorderReceiver,
)

__all__ = [
    "TouchLedger",
    "BusModel",
    "SharedPlacementBudget",
    "BudgetExceededError",
    "GlobalBudgetPool",
    "ShardBudget",
    "ProcessingUnit",
    "TypeDemux",
    "parallel_split",
    "PerPacketNic",
    "PerPduNic",
    "PlacementBuffer",
    "FrameStore",
    "FrameWindow",
    "DeliveryEvent",
    "HostReceiver",
    "ImmediateReceiver",
    "ReorderReceiver",
    "ReassembleReceiver",
    "WordFunction",
    "xor_decrypt_function",
    "checksum_function",
    "byteswap_function",
    "run_layered",
    "run_integrated",
    "IlpResult",
]
