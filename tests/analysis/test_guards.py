"""The runtime guards of :mod:`tests.guards` refuse by the caller's tree.

Each case runs one line compiled as if it sat in a file of that tree.
"""

from __future__ import annotations

import datetime
import os
import random
import socket
import struct
import time

import pytest

from tests.guards import ROOT, GuardError

CASES = [
    # wire width: src/repro, benchmarks/ and examples/ name a byte order
    ("src/repro/x.py", "struct.pack('I', 1)", True),
    ("src/repro/x.py", "struct.Struct('>HBB')", False),
    ("src/repro/x.py", "struct.unpack_from('<I', b'1234')", False),
    ("benchmarks/x.py", "struct.calcsize('%dI' % 3)", True),
    ("examples/x.py", "struct.Struct('=I')", True),
    ("tests/x.py", "struct.pack('I', 1)", False),
    # ambient authority: the library takes no clock, socket or entropy
    ("src/repro/x.py", "time.time()", True),
    ("src/repro/x.py", "time.sleep(0)", True),
    ("src/repro/x.py", "time.perf_counter()", False),
    ("src/repro/x.py", "datetime.datetime.now()", True),
    ("src/repro/x.py", "os.urandom(1)", True),
    ("src/repro/x.py", "socket.gethostname()", True),
    ("src/repro/x.py", "socket.socket()", True),
    ("examples/x.py", "time.sleep(0)", False),
    # ... and no tree takes unseeded randomness
    ("src/repro/x.py", "random.random()", True),
    ("examples/x.py", "random.shuffle([1, 2])", True),
    ("benchmarks/x.py", "random.Random()", True),
    ("benchmarks/x.py", "random.Random(7)", False),
    ("tests/x.py", "random.Random()", False),
]


@pytest.mark.parametrize("path, line, refused", CASES)
def test_a_guard_refuses_by_the_callers_tree(path, line, refused):
    code = compile(line, str(ROOT / path), "eval")
    scope = {"datetime": datetime, "os": os, "random": random, "socket": socket,
             "struct": struct, "time": time}
    if refused:
        with pytest.raises(GuardError, match=f"^{path}:1 "):
            eval(code, scope)
    else:
        eval(code, scope)
