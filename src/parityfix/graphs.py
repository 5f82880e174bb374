"""Attractor computation and SCC decomposition on restrictions of a game.

These per-vertex Python versions serve the oracles (Zielonka and the test
references).  The solve path (reader, preprocessing, solver, verifier) has
its own array code and does not import this module.

A restriction is a per-vertex alive mask carving out a subgame (``None``
for the whole game).  Induced edges are simply the edges between alive
vertices; note that a restriction need not be left-total, callers must
not rely on every alive vertex keeping a successor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .game import ParityGame, Player


def _alive_mask(game: ParityGame, restriction: Sequence[bool] | None) -> Sequence[bool]:
    return [True] * game.n if restriction is None else restriction


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
    alive = _alive_mask(game, restriction)
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


@dataclass(frozen=True)
class Component:
    """One strongly connected component; cyclic iff it can host a play."""

    vertices: tuple[int, ...]
    cyclic: bool


def sccs(game: ParityGame, restriction: Sequence[bool] | None = None) -> list[Component]:
    """Tarjan's algorithm over the alive subgraph, iterative.

    Components come out in reverse topological order of the condensation
    (every component precedes the components that can reach it).
    """
    alive = _alive_mask(game, restriction)
    succ = game.successors
    n = game.n
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    out: list[Component] = []

    for root in range(n):
        if not alive[root] or index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, si = work[-1]
            if si == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while si < len(succ[v]):
                u = succ[v][si]
                si += 1
                if not alive[u]:
                    continue
                if index[u] == -1:
                    work[-1] = (v, si)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    if index[u] < lowlink[v]:
                        lowlink[v] = index[u]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]
            if lowlink[v] == index[v]:
                comp: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                vertices = tuple(comp)
                cyclic = len(vertices) > 1 or any(
                    u == vertices[0] for u in succ[vertices[0]] if alive[u]
                )
                out.append(Component(vertices, cyclic))
    return out
