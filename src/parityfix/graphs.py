"""Attractor computation on restrictions of a game.

``attract`` is the per-vertex Python attractor of Zielonka's algorithm,
and the test references use it too.  The solve path (reader,
preprocessing, solver, verifier) has its own array code and does not
import this module.

A restriction is a per-vertex alive mask carving out a subgame (``None``
for the whole game).  Induced edges are simply the edges between alive
vertices; note that a restriction need not be left-total, callers must
not rely on every alive vertex keeping a successor.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

from .game import ParityGame, Player


def attract(
    game: ParityGame,
    restriction: Sequence[bool] | None,
    player: Player,
    seed: Iterable[int],
    prior_strategy: Mapping[int, int] | None = None,
) -> tuple[frozenset[int], dict[int, int]]:
    """Backward-search attractor of ``seed`` for ``player`` inside a restriction.

    Returns the attracted set and the new attractor strategy entries: a
    successor inside the set for every attracted player-owned vertex, and
    for player-owned seed vertices that can play into the set and have no
    entry in ``prior_strategy``.  Ties go to the first qualifying successor
    in stored order.  Runs in time linear in the edges touched, using
    per-vertex remaining-successor counters allocated per call.
    """
    alive = [True] * game.n if restriction is None else restriction
    owner = game.owner
    succ = game.successors
    preds = game.predecessors
    mine = int(player)

    region = set(seed)
    for a in region:
        if not alive[a]:
            raise ValueError(f"seed vertex {a} is not alive in the restriction")
    strategy: dict[int, int] = {}
    queue = deque(sorted(region))
    remaining: dict[int, int] = {}

    while queue:
        v = queue.popleft()
        for u in preds[v]:
            if not alive[u] or u in region:
                continue
            if owner[u] == mine:
                # choose before adding u, so u cannot pick itself
                for w in succ[u]:
                    if alive[w] and w in region:
                        strategy[u] = w
                        break
                region.add(u)
                queue.append(u)
            else:
                # u is triggered exactly once per attracted successor, so
                # counting down from its alive outdegree reaches zero exactly
                # when every alive successor has been attracted
                c = remaining.get(u)
                if c is None:
                    c = sum(1 for w in succ[u] if alive[w]) - 1
                else:
                    c -= 1
                remaining[u] = c
                if c == 0:
                    region.add(u)
                    queue.append(u)

    prior = prior_strategy or {}
    for a in sorted(set(seed)):
        if owner[a] == mine and a not in strategy and a not in prior:
            for w in succ[a]:
                if alive[w] and w in region:
                    strategy[a] = w
                    break
    return frozenset(region), strategy
