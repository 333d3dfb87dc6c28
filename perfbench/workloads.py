"""Seeded inputs for the three benchmark workloads.

Each builder returns a list of ``(file name, C text)`` units. The program
under test only ever sees this text; nothing here imports it.

* ``corpus``: the paper's examples, a frozen copy of the repository's test
  data kept under ``perfbench/corpus`` so edits to the tests never move the
  yardstick. The seed only permutes the order the units are processed in.
* ``branch-chain``: the scaling probe ``if (a_x + c > a_y)`` over 8 ``int``
  inputs, one function per chain.
"""

from __future__ import annotations

import os
import random

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

# Chain lengths of the tree-shaped chains in one branch-chain unit.
CHAIN_LADDER = (8, 12, 16, 20)

# The chains are drawn once, from this seed, and every run's seed only
# renames the 8 inputs and reorders the functions. Renaming leaves the
# solver's search, and so the cost, unchanged. A chain drawn afresh per run
# would not: how often the solver exhausts its node budget depends on the
# cycles in the pair graph, and one unconstrained draw costs anywhere from
# 0.03 s to over a minute, far wider than any useful bound.
CHAIN_DRAW_SEED = 1

# One draw of the unconstrained chain family (random pairs, c in [-20, 20],
# k = 12), on which the solver spends one whole node budget and answers
# "unknown".
HARD_DRAW = (
    (1, 3, 3), (3, 2, 17), (0, 4, 19), (4, 2, 10), (1, 2, 6), (3, 7, -2),
    (2, 3, 16), (4, 7, 3), (4, 6, 19), (0, 6, -7), (6, 0, -18), (6, 1, 3),
)

_NONZERO_C = [c for c in range(-20, 21) if c]


def corpus(seed: int) -> list[tuple[str, str]]:
    units = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.endswith(".c"):
            with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
                units.append((name, fh.read()))
    random.Random(seed).shuffle(units)
    return units


def _chain_function(name: str, decisions) -> str:
    """Chains draw from 8 int inputs a0..a7; a draw may leave some unused."""
    used = sorted({v for x, y, _c in decisions for v in (x, y)})
    params = ", ".join(f"int a{i}" for i in used)
    lines = [f"int {name}({params})", "{", "    int r = 0;"]
    for x, y, c in decisions:
        lines.append(f"    if (a{x} + {c} > a{y}) {{ r = r + 1; }}")
    lines += ["    return r;", "}", ""]
    return "\n".join(lines)


def _seeded_chain(rng: random.Random, k: int) -> list[tuple[int, int, int]]:
    """k decisions whose pairs form a seeded spanning tree of the inputs.

    Six tree edges carry a drawn nonzero c and repeat with the same c to fill
    the chain; these are satisfiable on every path but need the solver to
    reason about possible wraparound. The seventh edge appears in both
    directions with c = 0, a cycle that is unsatisfiable with both branches
    taken, so every chain runs the min-failing-prefix search once over a
    prefix of about k decisions. One repeat follows that cycle.
    """
    perm = list(range(8))
    rng.shuffle(perm)
    edges = []
    for i in range(1, 8):
        j = rng.randrange(i)
        x, y = (perm[i], perm[j]) if rng.random() < 0.5 else (perm[j], perm[i])
        edges.append((x, y, rng.choice(_NONZERO_C)))
    rng.shuffle(edges)
    (zx, zy, _), body = edges[0], edges[1:]
    decisions = list(body)
    while len(decisions) < k - 3:
        decisions.append(rng.choice(body))
    decisions += [(zx, zy, 0), (zy, zx, 0), rng.choice(body)]
    return decisions


def branch_chain(seed: int) -> list[tuple[str, str]]:
    draw = random.Random(CHAIN_DRAW_SEED)
    chains = {f"chain_k{k}": _seeded_chain(draw, k) for k in CHAIN_LADDER}
    chains["chain_hard"] = list(HARD_DRAW)
    rng = random.Random(seed)
    rename = list(range(8))
    rng.shuffle(rename)
    parts = [_chain_function(name, [(rename[x], rename[y], c) for x, y, c in decisions])
             for name, decisions in chains.items()]
    rng.shuffle(parts)
    return [("branch_chain.c", "\n".join(parts))]


# name -> (unit builder, the percentile fn_s.tail reports). corpus: p95
# falls on Tritype, its one slow function; branch-chain: p75 falls among the
# tree chains, below the unconstrained draw that spends a node budget.
WORKLOADS = {
    "corpus": (corpus, 95),
    "branch-chain": (branch_chain, 75),
}
