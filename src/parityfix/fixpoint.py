"""Set-level game semantics and the naive nested fixpoint solver.

Everything here works on plain frozensets of vertex indices, with no
shared machinery with the main solver, so it can serve as an independent
cross-check: modal operators, one-step forcing, one-step winner estimates,
and a literal evaluation of the nested fixpoint whose value is player
Even's winning region.  The nested evaluation recomputes inner fixpoints
from scratch on every outer iteration, so it is exponential in the number
of priority levels and only meant for small games.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet

from .game import ParityGame, Player, SolveTimeoutError, _deadline

VertexSet = FrozenSet[int]


class FixpointBudgetError(Exception):
    """The body-evaluation budget ran out before convergence."""

    def __init__(self, iterations: int):
        self.iterations = iterations
        super().__init__(f"fixpoint evaluation exceeded {iterations} body evaluations")


def universe(game: ParityGame) -> VertexSet:
    return frozenset(range(game.n))


def diamond(s: VertexSet, game: ParityGame) -> VertexSet:
    """Vertices with at least one successor in ``s``."""
    return frozenset(v for v in range(game.n) if any(u in s for u in game.successors[v]))


def box(s: VertexSet, game: ParityGame) -> VertexSet:
    """Vertices all of whose successors are in ``s``."""
    return frozenset(v for v in range(game.n) if all(u in s for u in game.successors[v]))


def _winner_bit(v: int, z: VertexSet, game: ParityGame) -> int:
    par = game.priority[v] & 1
    return (1 - par) if v in z else par


def winner_partition(z: VertexSet, game: ParityGame) -> tuple[VertexSet, VertexSet]:
    """(Even-estimated, Odd-estimated) vertex sets for flag set ``z``."""
    ev = frozenset(v for v in range(game.n) if _winner_bit(v, z, game) == 0)
    return ev, universe(game) - ev


def force(player: Player, x: VertexSet, game: ParityGame) -> VertexSet:
    """Vertices from which ``player`` can enter ``x`` in one step."""
    mine = int(player)
    out = set()
    for v in range(game.n):
        if int(game.owner[v]) == mine:
            if any(u in x for u in game.successors[v]):
                out.add(v)
        elif all(u in x for u in game.successors[v]):
            out.add(v)
    return frozenset(out)


def onestep_sets(z: VertexSet, game: ParityGame) -> tuple[VertexSet, VertexSet, VertexSet]:
    """(one-step Even wins, one-step Odd wins, one-step distraction estimate)."""
    ev, od = winner_partition(z, game)
    v_even_owned = frozenset(v for v in range(game.n) if game.owner[v] is Player.EVEN)
    v_odd_owned = universe(game) - v_even_owned
    one0 = (v_even_owned & diamond(ev, game)) | (v_odd_owned & box(ev, game))
    one1 = (v_even_owned & box(od, game)) | (v_odd_owned & diamond(od, game))
    v_even_pr = frozenset(v for v in range(game.n) if game.priority[v] & 1 == 0)
    v_odd_pr = universe(game) - v_even_pr
    distraction = (v_even_pr & one1) | (v_odd_pr & one0)
    return one0, one1, distraction


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
    budget: int = 10**8,
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
        if evals > budget:
            raise FixpointBudgetError(budget)
        if deadline is not None and evals % 256 == 0 and time.perf_counter() > deadline:
            raise SolveTimeoutError("fixpoint evaluation timed out")
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
