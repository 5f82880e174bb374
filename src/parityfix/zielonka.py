"""Recursive attractor-decomposition solver, used as a differential oracle.

Correctness over speed: subgames are plain alive masks, and the recursion
is driven through an explicit stack of generators, so Python's recursion
limit never matters.  Every step removes at least one vertex (its top
priority vertices, or the opponent's won region), so the stack holds at
most n + 1 steps.
"""

from __future__ import annotations

import time
from typing import Generator

from .game import ParityGame, Player, Solution, _check_deadline, _deadline
from .graphs import attract


_Result = tuple[set[int], set[int], dict[int, int], dict[int, int]]


def _decompose(game: ParityGame, alive: list[bool], count: int) -> Generator:
    """One recursion step; ``yield`` hands a subgame back to the trampoline."""
    if count == 0:
        return set(), set(), {}, {}
    pr = game.priority
    own = game.owner
    succ = game.successors
    p = max(pr[v] for v in range(game.n) if alive[v])
    alpha = p & 1
    top = [v for v in range(game.n) if alive[v] and pr[v] == p]

    attracted, s_attr = attract(game, alive, Player(alpha), top)
    sub_alive = list(alive)
    for v in attracted:
        sub_alive[v] = False
    res: _Result = yield (sub_alive, count - len(attracted))
    w0, w1, s0, s1 = res
    w_opp = w1 if alpha == 0 else w0

    if not w_opp:
        # alpha wins the whole subgame: recursion strategy, then the
        # attractor strategy, then any alive successor for top vertices
        # still lacking a choice (everything alive is winning here).
        w_mine = {v for v in range(game.n) if alive[v]}
        s_mine = dict(s0 if alpha == 0 else s1)
        s_mine.update(s_attr)
        for v in top:
            if own[v] == alpha and v not in s_mine:
                for u in succ[v]:
                    if alive[u]:
                        s_mine[v] = u
                        break
        if alpha == 0:
            return w_mine, set(), s_mine, {}
        return set(), w_mine, {}, s_mine

    s_opp = s1 if alpha == 0 else s0
    blob, s_blob = attract(game, alive, Player(1 - alpha), sorted(w_opp), prior_strategy=s_opp)
    rest_alive = list(alive)
    for v in blob:
        rest_alive[v] = False
    res2: _Result = yield (rest_alive, count - len(blob))
    r0, r1, t0, t1 = res2
    opp_strategy = dict(s_opp)
    opp_strategy.update(s_blob)
    if alpha == 0:
        opp_win = blob | r1
        opp_strategy.update(t1)
        return r0, opp_win, t0, opp_strategy
    opp_win = blob | r0
    opp_strategy.update(t0)
    return opp_win, r1, opp_strategy, t1


def solve_zielonka(game: ParityGame, *, timeout_s: float | None = None) -> Solution:
    """Solve by recursive decomposition; returns regions and strategies."""
    n = game.n
    deadline = _deadline(timeout_s, time.perf_counter())

    stack = [_decompose(game, [True] * n, n)]
    sent: _Result | None = None
    result: _Result = (set(), set(), {}, {})
    while stack:
        _check_deadline(deadline)
        try:
            if sent is None:
                request = next(stack[-1])
            else:
                request = stack[-1].send(sent)
                sent = None
        except StopIteration as done:
            result = done.value
            stack.pop()
            sent = result
            continue
        sub_alive, sub_count = request
        stack.append(_decompose(game, sub_alive, sub_count))
        sent = None

    w0, w1, s0, s1 = result
    winner = tuple(Player.EVEN if v in w0 else Player.ODD for v in range(n))
    strategy: list[int | None] = [None] * n
    for v, u in s0.items():
        if winner[v] is Player.EVEN and game.owner[v] is Player.EVEN:
            strategy[v] = u
    for v, u in s1.items():
        if winner[v] is Player.ODD and game.owner[v] is Player.ODD:
            strategy[v] = u
    return Solution(winner, tuple(strategy))
