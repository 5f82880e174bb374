"""Brute-force reference implementations used to pin expected values.

These deliberately share no code with the production paths: the attractor
is the textbook iterate-until-stable set computation and reachability is a
plain BFS.  The DFI references import nothing from ``parityfix.solver``:
``freezing_loop`` (reported by ``reference_freezing``, the paper's
freezing and reset), ``justified_loop`` (reported by
``reference_justified``, the justified reset without freezing) and
``basic_loop`` (reported by ``reference_basic``) are plain per-pass loops
over every vertex of a level, the first two with event callbacks for the
tests that check the freeze discipline and the justified reset.
``reference_verify`` is the
per-vertex solution verifier that walks the successor and winner tuples
and runs Tarjan over every claimed vertex, and ``reference_trim`` the
verifier's trim as a count-down queue.  ``reference_first_error`` is
the per-edge walk that names the error the game constructor raises.
``reference_winner_controlled_cycles`` is the cycle reduction by SCC
decomposition, on ``sccs`` (iterative Tarjan, here since no production
module reads it) and ``pf.attract``; ``reference_controlled_cycles``
chains it after ``sequential_self_loops``, one attractor per loop, and
``reference_reduction`` chains ``reference_upstream``, a round-by-round
drop of the vertices that nothing alive points to, after that.
``winner_of`` and ``onestep`` are the one-step semantics of DFI on flag
sets.  ``reference_write_pgsolver`` and ``reference_write_solution`` are
the writers that format one line at a time with f-strings.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

import parityfix as pf
from parityfix import (
    EscapeEdge,
    LosingCycleWitness,
    MissingStrategy,
    ParityGame,
    Player,
    Solution,
    StrategyLeavesRegion,
    VerificationReport,
)
from parityfix.verifier import Violation


def reference_first_error(n: int, successors) -> pf.ValidationError | None:
    """The error that the constructor raises for the successor lists of
    ``n`` vertices, by a per-edge walk: the first sink or target that is
    not an integer in ``0..n-1``, else the first target that repeats one of
    its row; ``None`` when there is none."""
    for v, succ in enumerate(successors):
        if not succ:
            return pf.SinkVertexError(v)
        for u in succ:
            if not (isinstance(u, int) and 0 <= u < n):
                return pf.DanglingEdgeError(v, u)
    for v, succ in enumerate(successors):
        seen: set[int] = set()
        for u in succ:
            if u in seen:
                return pf.DuplicateEdgeError(v, u)
            seen.add(u)
    return None


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


def winner_of(v: int, z, game: ParityGame) -> Player:
    """Estimated winner of ``v`` under flag set ``z`` (any membership container)."""
    par = game.priority[v] & 1
    return Player(1 - par) if v in z else Player(par)


def onestep(v: int, z, game: ParityGame) -> tuple[Player, int | None]:
    """One-step evaluation of ``v``: can its owner move to an estimated win?

    Returns the one-step winner and, when that is the owner, the first
    winning successor in stored order; otherwise no successor.
    """
    ow = game.owner[v]
    for u in game.successors[v]:
        if winner_of(u, z, game) is ow:
            return ow, u
    return ow.opponent, None


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

    Returns (winner, alive): the decided vertices' winners and the undecided
    mask.  Built on ``pf.attract``, not on the production preprocessing.
    """
    alive = [True] * game.n
    winner: dict[int, pf.Player] = {}
    loopers = [v for v in range(game.n) if v in game.successors[v]]
    changed = True
    while changed:
        changed = False
        for v in loopers:
            if not alive[v]:
                continue
            beta = pf.Player.of_parity(game.priority[v])
            if beta is not game.owner[v] and any(alive[u] for u in game.successors[v] if u != v):
                continue
            region, _ = pf.attract(game, alive, beta, [v])
            for w in region:
                winner[w] = beta
                alive[w] = False
            changed = True
    return winner, alive


@dataclass(frozen=True)
class Component:
    """One strongly connected component; cyclic iff it can host a play."""

    vertices: tuple[int, ...]
    cyclic: bool


def sccs(game: ParityGame, restriction: list[bool] | None = None) -> list[Component]:
    """Tarjan's algorithm over the alive subgraph, iterative.

    Components come out in reverse topological order of the condensation
    (every component precedes the components that can reach it).
    """
    alive = [True] * game.n if restriction is None else restriction
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


def reference_winner_controlled_cycles(game: pf.ParityGame):
    """The cycle reduction by SCC decomposition, one player after the other.

    For each player, every cyclic SCC of the alive vertices they own with
    priorities of their parity is decided, together with its attractor.
    Returns (win, to_parent, residual successors): ``win[v]`` is the
    winner bit or -1.
    """
    n = game.n
    alive = [True] * n
    win = [-1] * n
    for beta in (0, 1):
        player = pf.Player(beta)
        mask = [
            alive[v] and game.owner[v] is player and game.priority[v] & 1 == beta for v in range(n)
        ]
        seeds = [v for comp in sccs(game, mask) if comp.cyclic for v in comp.vertices]
        if not seeds:
            continue
        region, _ = pf.attract(game, alive, player, seeds)
        for v in region:
            win[v] = beta
            alive[v] = False
    to_parent = [v for v in range(n) if alive[v]]
    index = {v: i for i, v in enumerate(to_parent)}
    successors = tuple(tuple(index[u] for u in game.successors[v] if alive[u]) for v in to_parent)
    return win, to_parent, successors


def reference_controlled_cycles(game: pf.ParityGame):
    """The reduction as two references in a chain: ``sequential_self_loops``,
    then ``reference_winner_controlled_cycles`` on the loop-free rest.

    Returns (win, to_parent, residual successors without self-loops), as
    the second reference does, in ``game``'s indexing.
    """
    winner, alive = sequential_self_loops(game)
    kept = [v for v in range(game.n) if alive[v]]
    index = {v: i for i, v in enumerate(kept)}
    rest = pf.ParityGame(
        [game.priority[v] for v in kept],
        [game.owner[v] for v in kept],
        [[index[u] for u in game.successors[v] if alive[u] and u != v] for v in kept],
    )
    rest_win, rest_to_parent, successors = reference_winner_controlled_cycles(rest)
    win = [-1 if v not in winner else int(winner[v]) for v in range(game.n)]
    for i, v in enumerate(kept):
        if rest_win[i] >= 0:
            win[v] = rest_win[i]
    return win, [kept[i] for i in rest_to_parent], successors


def reference_upstream(successors) -> tuple[list[list[int]], list[int]]:
    """Drop, round after round, every alive vertex that no alive vertex
    points to (a self-loop points to its own vertex).

    Returns (the rounds' vertices, each round ascending, in drop order; the
    vertices kept, ascending).
    """
    alive = [True] * len(successors)
    layers = []
    while True:
        pointed = [False] * len(successors)
        for v, succ in enumerate(successors):
            if alive[v]:
                for u in succ:
                    pointed[u] = True
        layer = [v for v in range(len(successors)) if alive[v] and not pointed[v]]
        if not layer:
            break
        for v in layer:
            alive[v] = False
        layers.append(layer)
    return layers, [v for v in range(len(successors)) if alive[v]]


def reference_reduction(game: pf.ParityGame):
    """The whole reduction as references in a chain:
    ``reference_controlled_cycles``, then ``reference_upstream`` on its
    residual with the hostile loops kept.

    Returns (win, to_parent, residual successors without self-loops,
    upstream layers), all in ``game``'s indexing but the successors, which
    are in the residual's.
    """
    win, rest, successors = reference_controlled_cycles(game)
    # the residual keeps its hostile loops
    looped = [
        list(succ) + ([i] if v in game.successors[v] else [])
        for i, (v, succ) in enumerate(zip(rest, successors))
    ]
    layers, kept = reference_upstream(looped)
    index = {i: k for k, i in enumerate(kept)}
    return (
        win,
        [rest[i] for i in kept],
        tuple(tuple(index[u] for u in successors[i]) for i in kept),
        [[rest[i] for i in layer] for layer in layers],
    )


class FreezingEvents:
    """Event callbacks of ``freezing_loop`` and ``justified_loop``; only the
    first freezes and thaws, only the second walks and sweeps.

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

    def on_walk(self, v: int, priority: int) -> None:
        """The justification walk reaches ``v`` (before resetting it, if it does)."""

    def on_sweep(self, priority: int, z, st) -> None:
        """A level's additions have reset the lower levels; ``z`` and ``st``
        are the loop's live z bytes and strategy slots, to be read only."""


@dataclass
class LoopStats:
    passes: int = 0
    additions: int = 0
    resets: int = 0
    reset_vertices: int = 0
    freezes: int = 0
    evaluations: int = 0
    state_bytes: int = 0


@dataclass(frozen=True)
class LoopOutcome:
    solution: pf.Solution
    stats: LoopStats


def freezing_loop(game, hooks, stats):
    """Freezing DFI on a priority-sorted game, one plain loop per pass, with
    the paper's reset.

    Every pass evaluates every unfrozen non-Z vertex of its level, and every
    freeze, reset and thaw walks all lower vertices.  The production kernel
    must reproduce its winners.  Returns the z bytes and the strategy slots.
    """
    n = game.n
    succ = game.successors
    par = [p & 1 for p in game.priority]
    own = list(map(int, game.owner))
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
                    stats.reset_vertices += 1
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


def justified_loop(game, hooks, stats):
    """DFI with strategies on a priority-sorted game, one plain loop per
    pass, with the justified reset and no freezing.

    Every pass evaluates every non-Z vertex of its level.  An evaluation
    keeps a strategy slot that still wins, and a level's additions reset
    only the lower distractions whose justification reaches them.  The walk
    goes backward from the additions through the lower vertices won by the
    level's player, following every predecessor its opponent owns and each
    one its player owns whose slot is the vertex walked from.  The
    production kernel's strategy mode must reproduce its winners,
    strategies and pass, addition, reset and reset-vertex counts.  Returns
    the z bytes and the strategy slots.
    """
    n = game.n
    succ = game.successors
    pred = [[] for _ in range(n)]
    for v in range(n):
        for u in succ[v]:
            pred[u].append(v)
    par = [p & 1 for p in game.priority]
    own = list(map(int, game.owner))
    z = bytearray(n)
    st = array("i", [-1]) * n
    stats.state_bytes = n + st.itemsize * n
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
            if z[v]:
                continue
            stats.evaluations += 1
            if hooks:
                hooks.on_evaluate(v, p)
            ow = own[v]
            choice = st[v]
            if choice < 0 or (par[choice] ^ z[choice]) != ow:
                choice = -1
                for u in succ[v]:
                    if (par[u] ^ z[u]) == ow:
                        choice = u
                        break
            st[v] = choice
            res = ow if choice >= 0 else 1 - ow
            if res != alpha:
                adds.append(v)
                if hooks:
                    hooks.on_add(v, p)
        if adds:
            for v in adds:
                z[v] = 1
            stats.additions += len(adds)
            stats.resets += 1
            seen = set()
            todo = list(adds)
            while todo:
                x = todo.pop()
                for u in pred[x]:
                    if u >= lo or u in seen or (par[u] ^ z[u]) != alpha:
                        continue
                    if own[u] == alpha and st[u] != x:
                        continue
                    seen.add(u)
                    todo.append(u)
                    if hooks:
                        hooks.on_walk(u, p)
                    if z[u]:
                        z[u] = 0
                        stats.reset_vertices += 1
                        if hooks:
                            hooks.on_reset(u, p)
            if hooks:
                hooks.on_sweep(p, z, st)
            li = 0
        else:
            li += 1
    return z, st


def forward_map(to_parent) -> list[int]:
    """The inverse of a ``to_parent`` map: each input vertex's sorted index."""
    forward = [0] * len(to_parent)
    for internal, external in enumerate(to_parent.tolist()):
        forward[external] = internal
    return forward


def _strategy_outcome(game, loop, hooks) -> LoopOutcome:
    sorted_game, to_parent = pf.sort_by_priority(game)
    stats = LoopStats()
    z, st = loop(sorted_game, hooks, stats)
    par = [p & 1 for p in sorted_game.priority]
    own = list(map(int, sorted_game.owner))
    fwd, bwd = forward_map(to_parent), to_parent.tolist()
    winner, strategy = [], []
    for v in range(game.n):
        s = fwd[v]
        w = par[s] ^ z[s]
        winner.append(pf.Player(w))
        strategy.append(bwd[st[s]] if own[s] == w and st[s] >= 0 else None)
    return LoopOutcome(pf.Solution(tuple(winner), tuple(strategy)), stats)


def reference_freezing(game: pf.ParityGame, hooks: FreezingEvents | None = None) -> LoopOutcome:
    """``freezing_loop`` on ``game``, the paper's freezing and reset,
    reported in the input's vertex order."""
    return _strategy_outcome(game, freezing_loop, hooks)


def reference_justified(game: pf.ParityGame, hooks: FreezingEvents | None = None) -> LoopOutcome:
    """``justified_loop`` on ``game``, reported in the input's vertex order;
    the production kernel's strategy mode (``mode="freezing"``)."""
    return _strategy_outcome(game, justified_loop, hooks)


def basic_loop(game, stats):
    """Basic DFI on a priority-sorted game, one plain loop per pass.

    Every pass evaluates every non-Z vertex of its level, and every reset
    clears all lower distractions.  The production kernel must reproduce its
    winners and pass, addition and reset counts.  Returns the z bytes.
    """
    n = game.n
    succ = game.successors
    par = [p & 1 for p in game.priority]
    own = list(map(int, game.owner))
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
                    stats.reset_vertices += 1
            li = 0
        else:
            li += 1
    return z


def reference_basic(game: pf.ParityGame) -> LoopOutcome:
    """``basic_loop`` on ``game``, reported in the input's vertex order;
    every strategy is ``None``."""
    sorted_game, to_parent = pf.sort_by_priority(game)
    stats = LoopStats()
    z = basic_loop(sorted_game, stats)
    par = [p & 1 for p in sorted_game.priority]
    fwd = forward_map(to_parent)
    winner = tuple(pf.Player(par[fwd[v]] ^ z[fwd[v]]) for v in range(game.n))
    return LoopOutcome(pf.Solution(winner, (None,) * game.n), stats)


def _cyclic_components(
    subset: list[int],
    adj: dict[int, list[int]],
    index: list[int],
    lowlink: list[int],
    on_stack: bytearray,
) -> list[list[int]]:
    """Tarjan over ``subset`` with edges filtered to it; the components with a cycle.

    ``index``, ``lowlink`` and ``on_stack`` hold per-vertex state for all
    calls of one ``verify``.  Every vertex that ``adj`` reaches from
    ``subset`` without being in it was indexed by an earlier call and is
    off the stack, so its edges are skipped as leaving the subset.
    """
    for v in subset:
        index[v] = -1
    stack: list[int] = []
    counter = 0
    out: list[list[int]] = []
    for root in subset:
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for u in edges:
                if index[u] < 0:
                    index[u] = lowlink[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack[u] = 1
                    work.append((u, iter(adj[u])))
                    break
                if on_stack[u] and index[u] < lowlink[v]:
                    lowlink[v] = index[u]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
                if lowlink[v] == index[v]:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp = [w]
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w)
                    if len(comp) > 1 or v in adj[v]:
                        out.append(comp)
    return out


def _witness_cycle(comp: list[int], adj: dict[int, list[int]], anchor: int) -> tuple[int, ...]:
    """A cycle through ``anchor`` inside its strongly connected component.

    Witnesses are for debugging; no minimality is attempted beyond a BFS.
    """
    inside = set(comp)
    if anchor in adj[anchor]:
        return (anchor,)
    parent: dict[int, int] = {}
    queue: deque[int] = deque()
    found = False
    for s in adj[anchor]:
        if s in inside and s not in parent:
            parent[s] = anchor
            queue.append(s)
    while queue and not found:
        x = queue.popleft()
        for y in adj[x]:
            if y in inside and y not in parent:
                parent[y] = x
                if y == anchor:
                    found = True
                    break
                queue.append(y)
    if not found:  # strong connectivity makes this unreachable
        return (anchor,)
    nodes: list[int] = []
    cur = parent[anchor]
    while cur != anchor:
        nodes.append(cur)
        cur = parent[cur]
    nodes.reverse()
    return (anchor, *nodes)


def reference_verify(game: ParityGame, sol: Solution) -> VerificationReport:
    """Check a claimed solution; all problems come back as report entries."""
    if sol.n != game.n:
        raise ValueError("solution does not match the game")
    violations: list[Violation] = []
    index = [-1] * game.n
    lowlink = [0] * game.n
    on_stack = bytearray(game.n)
    for player in (Player.EVEN, Player.ODD):
        members = [v for v in range(game.n) if sol.winner[v] is player]
        region = set(members)
        adj: dict[int, list[int]] = {}
        for v in members:
            if game.owner[v] is player:
                s = sol.strategy[v]
                if s is None:
                    violations.append(MissingStrategy(v))
                    adj[v] = []
                elif s not in game.successors[v] or s not in region:
                    violations.append(StrategyLeavesRegion(v, s))
                    adj[v] = []
                else:
                    adj[v] = [s]
            else:
                kept: list[int] = []
                for u in game.successors[v]:
                    if u in region:
                        kept.append(u)
                    else:
                        violations.append(EscapeEdge(v, u))
                adj[v] = kept
        work: list[list[int]] = [members]
        while work:
            subset = work.pop()
            if not subset:
                continue
            for comp in _cyclic_components(subset, adj, index, lowlink, on_stack):
                pmax = max(game.priority[v] for v in comp)
                if pmax & 1 != int(player):
                    anchor = min(v for v in comp if game.priority[v] == pmax)
                    violations.append(LosingCycleWitness(_witness_cycle(comp, adj, anchor), pmax))
                rest = [v for v in comp if game.priority[v] != pmax]
                if rest:
                    work.append(rest)
    return VerificationReport(not violations, tuple(violations))


def reference_trim(n: int, sources: list[int], targets: list[int]) -> list[int]:
    """The vertices left, ascending, when every vertex with no in-edge or no
    out-edge other than a self-loop is dropped; a queue drops them one at a
    time and counts their neighbours' degrees down."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(sources, targets):
        if a != b:
            succ[a].append(b)
            pred[b].append(a)
    outdeg = [len(s) for s in succ]
    indeg = [len(p) for p in pred]
    alive = [bool(outdeg[v] and indeg[v]) for v in range(n)]
    queue = deque(v for v in range(n) if not alive[v])
    while queue:
        v = queue.popleft()
        for neighbours, deg in ((succ[v], indeg), (pred[v], outdeg)):
            for u in neighbours:
                deg[u] -= 1
                if alive[u] and not deg[u]:
                    alive[u] = False
                    queue.append(u)
    return [v for v in range(n) if alive[v]]


def _by_id(game: ParityGame) -> np.ndarray:
    """The vertices in ascending original id order."""
    return np.argsort(game._ids, kind="stable")


def reference_write_pgsolver(game: ParityGame) -> str:
    """Serialize a game, vertices in ascending original id order.

    A label holding a double quote or a line break has no PGSolver form, so
    it raises ``ValueError``.
    """
    if game.n == 0:
        return ""
    indptr, targets, _ = game._csr
    ids = list(map(str, game._ids.tolist()))
    succ = list(map(ids.__getitem__, targets.tolist()))
    bounds = indptr.tolist()
    priority = game._priority.tolist()
    owner = game._owner_bits.tolist()
    out = [f"parity {game._ids.max()};"]
    for v in _by_id(game).tolist():
        label = game.label[v]
        if label is not None and ('"' in label or "\n" in label):
            raise ValueError(f"vertex {ids[v]}: label {label!r} cannot be written")
        lbl = f' "{label}"' if label is not None else ""
        row = ",".join(succ[bounds[v] : bounds[v + 1]])
        out.append(f"{ids[v]} {priority[v]} {owner[v]} {row}{lbl};")
    return "\n".join(out) + "\n"


_CHUNK = 1 << 12  # lines per chunk of ``reference_write_solution``


def reference_write_solution(game: ParityGame, sol: Solution) -> str:
    """Serialize winners and strategies, vertices in ascending original id order.

    The text is joined in chunks of ``_CHUNK`` lines, each read off the
    arrays on its own, so only one chunk's Python ints and line strings are
    alive at a time.
    """
    if game.n == 0:
        return ""
    if sol.n != game.n:
        raise ValueError("solution does not match the game")
    ids = game._ids
    order = _by_id(game)
    out = [f"paritysol {ids.max()};\n"]
    for a in range(0, game.n, _CHUNK):
        vs = order[a : a + _CHUNK]
        choice = sol.choice[vs]
        # a vertex without a strategy (-1) reads the last id, unused
        rows = zip(ids[vs].tolist(), sol.win[vs].tolist(), choice.tolist(), ids[choice].tolist())
        out.append("".join(f"{i} {w} {t};\n" if s >= 0 else f"{i} {w};\n" for i, w, s, t in rows))
    return "".join(out)
