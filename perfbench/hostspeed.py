"""The host's speed, measured next to every timed region.

On a shared virtual machine the speed of one core drifts by a quarter or
more over a minute, which is wider than any useful regression bound. So a
fixed pure-Python loop, which runs no cunitgen code, is timed right before
and right after each timed region, and the benchmark reports times scaled
to a fixed host speed:

    reported seconds = measured seconds * REFERENCE_S / loop seconds

that is, seconds at the speed at which the loop takes ``REFERENCE_S``. A
change to cunitgen moves the measured seconds and not the loop's, so it
shows in full; a slower or faster host moves both, and cancels out.

The loop does the kind of work cunitgen does: it allocates small objects,
walks trees recursively, reads attributes, hashes tuples and strings, and
sorts.
"""

from __future__ import annotations

import time

# The reference speed: the loop takes this long at it. It only fixes the
# unit: a 2-vCPU Xeon VM running CPython 3.11 takes 0.012-0.019 s, so there
# reported seconds are 1.0-1.7 times wall seconds.
REFERENCE_S = 0.02
ROUNDS = 100


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op: int, a, b):
        self.op, self.a, self.b = op, a, b


def _evaluate(node: _Node, env: dict[int, int]) -> int:
    if node.op == 0:
        return env.get(node.a, node.a)
    x, y = _evaluate(node.a, env), _evaluate(node.b, env)
    return (x + y) & 0xFFFF if node.op == 1 else (x * y) & 0xFFFF


def _loop() -> int:
    total = 0
    for r in range(ROUNDS):
        level = [_Node(0, i, None) for i in range(64)]
        while len(level) > 1:
            level = [_Node(1 + (i & 1), level[i], level[i + 1])
                     for i in range(0, len(level) - 1, 2)]
        env = {i: (i * 7 + r) & 0xFF for i in range(64)}
        total += _evaluate(level[0], env)
        words = sorted(str(k * r) for k in range(200))
        total += len({w[:2] for w in words})
    return total


def loop_s() -> float:
    """Seconds one run of the loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scale(loop_times: list[float]) -> float:
    """Factor that turns seconds measured between these loop runs into
    seconds at the reference speed."""
    return REFERENCE_S * len(loop_times) / sum(loop_times)
