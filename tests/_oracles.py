"""Brute-force reference implementations used to pin expected values.

These deliberately share no code with the production paths: the attractor
is the textbook iterate-until-stable set computation and reachability is a
plain BFS.  The DFI references import nothing from ``parityfix.solver``:
``freezing_loop`` (reported by ``reference_freezing``) and ``basic_loop``
(reported by ``reference_basic``) are plain per-pass loops over every
vertex of a level, the freezing one with event callbacks for the tests
that check the freeze discipline.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

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


class FreezingEvents:
    """Event callbacks of ``freezing_loop``.

    Vertex indices refer to the priority-sorted order of
    ``pf.sort_by_priority``.
    """

    def on_pass(self, priority: int) -> None:
        pass

    def on_evaluate(self, v: int, priority: int) -> None:
        pass

    def on_add(self, v: int, priority: int) -> None:
        pass

    def on_freeze(self, v: int, priority: int, winner_bit: int) -> None:
        pass

    def on_thaw(self, v: int, priority: int) -> None:
        pass

    def on_reset(self, v: int, priority: int) -> None:
        pass


@dataclass
class LoopStats:
    passes: int = 0
    additions: int = 0
    resets: int = 0
    freezes: int = 0
    evaluations: int = 0
    state_bytes: int = 0


@dataclass(frozen=True)
class LoopOutcome:
    solution: pf.Solution
    stats: LoopStats
    distractions: frozenset[int]


def freezing_loop(game, hooks, stats):
    """Freezing DFI on a priority-sorted game, one plain loop per pass.

    Every pass evaluates every unfrozen non-Z vertex of its level, and every
    freeze, reset and thaw walks all lower vertices.  The production engine
    must reproduce its distractions, strategies and pass, addition, reset
    and freeze counts.  Returns the z bytes and the strategy slots.
    """
    n = game.n
    succ = game.successors
    par = game._parity_ints
    own = game._owner_ints
    d = game.max_priority
    z = bytearray(n)
    # freeze level + 1 per vertex, 0 meaning not frozen
    f = bytearray(n) if d <= 254 else [0] * n
    st = array("i", [-1]) * n
    stats.state_bytes = n + n + st.itemsize * n
    levels = game.levels
    li = 0
    while li < len(levels):
        stats.passes += 1
        p, lo, hi = levels[li]
        alpha = p & 1
        if hooks:
            hooks.on_pass(p)
        adds = []
        for v in range(lo, hi):
            if f[v] or z[v]:
                continue
            stats.evaluations += 1
            if hooks:
                hooks.on_evaluate(v, p)
            ow = own[v]
            res = 1 - ow
            choice = -1
            for u in succ[v]:
                if (par[u] ^ z[u]) == ow:
                    res = ow
                    choice = u
                    break
            st[v] = choice
            if res != alpha:
                adds.append(v)
                if hooks:
                    hooks.on_add(v, p)
        if adds:
            for v in adds:
                z[v] = 1
            stats.additions += len(adds)
            stats.resets += 1
            fp = p + 1
            opp = 1 - alpha
            for w in range(lo):
                if f[w]:
                    continue
                if (par[w] ^ z[w]) == opp:
                    f[w] = fp
                    stats.freezes += 1
                    if hooks:
                        hooks.on_freeze(w, p, opp)
                elif z[w]:
                    z[w] = 0
                    if hooks:
                        hooks.on_reset(w, p)
            li = 0
        else:
            fp = p + 1
            for w in range(lo):
                if f[w] == fp:
                    f[w] = 0
                    if hooks:
                        hooks.on_thaw(w, p)
            li += 1
    return z, st


def reference_freezing(game: pf.ParityGame, hooks: FreezingEvents | None = None) -> LoopOutcome:
    """``freezing_loop`` on ``game``, reported in the input's vertex order."""
    sorted_game, perm = pf.sort_by_priority(game)
    stats = LoopStats()
    z, st = freezing_loop(sorted_game, hooks, stats)
    par = sorted_game._parity_ints
    own = sorted_game._owner_ints
    fwd, bwd = perm.forward, perm.backward
    winner, strategy = [], []
    for v in range(game.n):
        s = fwd[v]
        w = par[s] ^ z[s]
        winner.append(pf.Player(w))
        strategy.append(bwd[st[s]] if own[s] == w and st[s] >= 0 else None)
    distractions = frozenset(bwd[s] for s in range(game.n) if z[s])
    return LoopOutcome(pf.Solution(tuple(winner), tuple(strategy)), stats, distractions)


def basic_loop(game, stats):
    """Basic DFI on a priority-sorted game, one plain loop per pass.

    Every pass evaluates every non-Z vertex of its level, and every reset
    clears all lower distractions.  The production kernel must reproduce its
    distractions and pass, addition and reset counts.  Returns the z bytes.
    """
    n = game.n
    succ = game.successors
    par = game._parity_ints
    own = game._owner_ints
    z = bytearray(n)
    stats.state_bytes = n
    levels = game.levels
    li = 0
    while li < len(levels):
        stats.passes += 1
        p, lo, hi = levels[li]
        alpha = p & 1
        adds = []
        for v in range(lo, hi):
            if z[v]:
                continue
            stats.evaluations += 1
            ow = own[v]
            res = 1 - ow
            for u in succ[v]:
                if (par[u] ^ z[u]) == ow:
                    res = ow
                    break
            if res != alpha:
                adds.append(v)
        if adds:
            for v in adds:
                z[v] = 1
            stats.additions += len(adds)
            stats.resets += 1
            for w in range(lo):
                if z[w]:
                    z[w] = 0
            li = 0
        else:
            li += 1
    return z


def reference_basic(game: pf.ParityGame) -> LoopOutcome:
    """``basic_loop`` on ``game``, reported in the input's vertex order;
    every strategy is ``None``."""
    sorted_game, perm = pf.sort_by_priority(game)
    stats = LoopStats()
    z = basic_loop(sorted_game, stats)
    par = sorted_game._parity_ints
    fwd, bwd = perm.forward, perm.backward
    winner = tuple(pf.Player(par[fwd[v]] ^ z[fwd[v]]) for v in range(game.n))
    distractions = frozenset(bwd[s] for s in range(game.n) if z[s])
    return LoopOutcome(pf.Solution(winner, (None,) * game.n), stats, distractions)
