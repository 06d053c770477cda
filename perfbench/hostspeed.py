"""How fast the host runs Python right now, from a fixed kernel.

The benchmark runs on shared machines whose speed swings by up to 2x in
spells that last from seconds to minutes, as other tenants come and go.
A rate timed on such a machine measures the spell as much as the
program.  Every process slows together, so a fixed Python kernel,
timed just before and just after a timed phase, measures the host's
speed during that phase; ``run.py`` scales the phase's rate by
``REFERENCE_RATE / rate``, which is the rate the phase would have run at
on the host at its reference speed.

The kernel touches nothing of the program, so a change to the program
moves the scaled rate by exactly as much as it moves the wall rate.  It
does the kinds of work the program does, so that contention slows both
alike: interpreter work (attribute reads, method calls, integer
arithmetic, dict and list updates over a few thousand entries), which
dominates ``clean``, and C-level work (hashing pages, a JSON round trip),
which is a large share of ``replay``.  Interpreter work alone slowed less
than ``clean`` and more than ``replay`` in contention; the mix sits
between them.
"""

from __future__ import annotations

import hashlib
import json
import time

#: Kernel runs per second on an idle 2-vCPU x86-64 host (CPython 3).
REFERENCE_RATE = 32.0
#: Interpreter-loop iterations and C-level rounds of one kernel run
#: (about 31 ms at the reference speed).
ITERATIONS = 40_000
ROUNDS = 1_200
#: A 4 KiB page to hash.
_PAGE = bytes(range(256)) * 16


class _Cell:
    __slots__ = ("count", "owner")

    def __init__(self, owner: int) -> None:
        self.count = 0
        self.owner = owner

    def bump(self, step: int) -> int:
        self.count += step
        return self.count & 7


def kernel(iterations: int = ITERATIONS, rounds: int = ROUNDS) -> int:
    """A fixed, deterministic mix of interpreter and C-level work; returns
    a checksum."""
    checksum = 0
    for index in range(rounds):
        checksum ^= hashlib.sha256(_PAGE + index.to_bytes(4, "little")
                                   ).digest()[0]
        text = json.dumps({"op": "w", "address": index * 4096,
                           "span": [index, index + 1]})
        checksum += len(json.loads(text)["span"])
    cells = [_Cell(index) for index in range(512)]
    table = {}
    order = []
    state = 12345
    for step in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        checksum += cells[state & 511].bump(step & 3)
        key = state % 4099
        if key in table:
            table[key] += 1
        else:
            table[key] = 1
            order.append(key)
        if len(order) > 2048:
            del table[order.pop(0)]
    return checksum


def rate() -> float:
    """Kernel runs per second, from one timed run of the kernel."""
    began = time.perf_counter()
    kernel()
    return 1.0 / (time.perf_counter() - began)
