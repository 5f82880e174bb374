"""The naive nested fixpoint solver (BFL), an oracle for the main solver.

``bfl_win0`` evaluates, literally, the nested fixpoint whose value is
player Even's winning region.  It works on plain frozensets of vertex
indices and shares no machinery with the main solver, so it serves as an
independent cross-check.  It recomputes inner fixpoints from scratch on
every outer iteration, so it is exponential in the number of priority
levels and only meant for small games.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet

from .game import ParityGame, Player, _check_deadline, _deadline

VertexSet = FrozenSet[int]


def universe(game: ParityGame) -> VertexSet:
    return frozenset(range(game.n))


@dataclass
class FixpointTrace:
    """Optional recording of every fixpoint chain, for convergence checks.

    Each entry is (priority level, [iterates in order]); a fresh entry is
    opened every time a level's fixpoint is recomputed.
    """

    chains: list[tuple[int, list[VertexSet]]] = field(default_factory=list)
    body_evaluations: int = 0


def bfl_win0(
    game: ParityGame,
    *,
    timeout_s: float | None = None,
    trace: FixpointTrace | None = None,
) -> VertexSet:
    """Player Even's winning region via literal nested fixpoint evaluation.

    One variable per priority level present in the game; even levels are
    greatest fixpoints (start at V), odd levels least fixpoints (start
    empty); the outermost level is the highest priority.  The body is the
    one-step move into the set of vertices currently marked good for Even:
    Even-owned vertices need some successor whose level variable covers it,
    Odd-owned vertices need all successors covered.
    """
    deadline = _deadline(timeout_s, time.perf_counter())
    n = game.n
    if n == 0:
        return frozenset()
    levels = sorted(set(game.priority), reverse=True)
    succ = game.successors
    owner = game.owner
    by_level: dict[int, list[int]] = {p: [] for p in levels}
    for v in range(n):
        by_level[game.priority[v]].append(v)
    full = universe(game)
    evals = 0

    env: dict[int, VertexSet] = {}

    def body() -> VertexSet:
        nonlocal evals
        evals += 1
        if evals % 256 == 0:
            _check_deadline(deadline)
        if trace is not None:
            trace.body_evaluations = evals
        good = set()
        for p in levels:
            xp = env[p]
            for v in by_level[p]:
                if v in xp:
                    good.add(v)
        out = set()
        for v in range(n):
            if owner[v] is Player.EVEN:
                if any(u in good for u in succ[v]):
                    out.add(v)
            elif all(u in good for u in succ[v]):
                out.add(v)
        return frozenset(out)

    def evaluate(idx: int) -> VertexSet:
        if idx == len(levels):
            return body()
        p = levels[idx]
        x = full if p % 2 == 0 else frozenset()
        chain: list[VertexSet] | None = None
        if trace is not None:
            chain = [x]
            trace.chains.append((p, chain))
        while True:
            env[p] = x
            nxt = evaluate(idx + 1)
            if chain is not None:
                chain.append(nxt)
            if nxt == x:
                return x
            x = nxt

    return evaluate(0)
