"""Brute-force reference implementations used to pin expected values.

These deliberately share no code with the production paths: the attractor
is the textbook iterate-until-stable set computation, reachability is a
plain BFS.
"""

from __future__ import annotations

import parityfix as pf


def naive_attract(game: pf.ParityGame, alive, player: pf.Player, seed) -> frozenset[int]:
    """Iterated one-step forcing from scratch until the set stops growing.

    Opponent vertices with no alive successors are never attracted,
    matching backward-search semantics on non-left-total restrictions.
    """
    if alive is None:
        alive = [True] * game.n
    region = set(seed)
    changed = True
    while changed:
        changed = False
        for v in range(game.n):
            if not alive[v] or v in region:
                continue
            succ_alive = [u for u in game.successors[v] if alive[u]]
            if game.owner[v] is player:
                hit = any(u in region for u in succ_alive)
            else:
                hit = bool(succ_alive) and all(u in region for u in succ_alive)
            if hit:
                region.add(v)
                changed = True
    return frozenset(region)


def reachable(game: pf.ParityGame, start: int) -> frozenset[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in game.successors[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def sequential_self_loops(game: pf.ParityGame):
    """Self-loop elimination one loop at a time, each with its own attractor.

    Returns (winner, strategy, alive, dropped): the decided vertices' winners
    and strategies, the undecided mask, and the loop vertices whose hostile
    loop the residual drops.  Built on ``pf.attract``, not on the production
    preprocessing.
    """
    alive = [True] * game.n
    winner: dict[int, pf.Player] = {}
    strategy: dict[int, int] = {}
    loopers = [v for v in range(game.n) if v in game.successors[v]]
    changed = True
    while changed:
        changed = False
        for v in loopers:
            if not alive[v]:
                continue
            beta = pf.Player.of_parity(game.priority[v])
            if beta is game.owner[v]:
                region, strat = pf.attract(game, alive, beta, [v], prior_strategy={v: v})
                strategy[v] = v
            elif any(alive[u] for u in game.successors[v] if u != v):
                continue
            else:
                region, strat = pf.attract(game, alive, beta, [v])
            strategy.update(strat)
            for w in region:
                winner[w] = beta
                alive[w] = False
            changed = True
    dropped = {v for v in loopers if alive[v]}
    return winner, strategy, alive, dropped
