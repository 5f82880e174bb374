"""Independent checking of claimed solutions.

A solution is accepted when, for each player's claimed region: the
opponent cannot leave it, every region vertex owned by the claimant has a
strategy edge staying inside it, and in the graph restricted to strategy
edges (claimant) plus all region-internal edges (opponent) every cycle's
maximum priority has the claimant's parity.

The checks read the game's arrays (its CSR, owner bits and priorities) and
the solution's, ``win`` and ``choice`` (each vertex's winner and strategy
target, -1 for none); they build no tuple view of either.  The local
checks (escape edges, missing strategies, strategies that are not a
region-internal edge) are whole-array comparisons over the edges.  The
checked graph, both players' edges at once, since no edge of it crosses
from one region into the other, is then trimmed: every vertex with no
remaining in-edge or no remaining out-edge other than a self-loop is
dropped, round after round, over the graph's forward and reverse CSR.
Trimming keeps every cycle of two or more vertices: each vertex of such a
cycle keeps the cycle's edges into and out of it for as long as the other
vertices of the cycle stay, so none of them can be the first to go.  A
dropped vertex therefore lies on no such cycle, and its strongly connected
component is the vertex alone.  If it has a self-loop, whichever player
owns it, that loop is its component's only cycle, so it is checked on the
spot.  The trim leaves self-loops out of its degrees for that reason:
counting them would keep every opponent vertex whose loop stays in the
region, and the peel would meet each one as a component of its own.  A
vertex that the trim keeps keeps its self-loop, because the peel may drop
the rest of its component and leave the loop as the vertex's last cycle.
The cycle condition is checked on the survivors by peeling: SCC-decompose,
test the maximum priority of every cyclic component, drop the
maximum-priority vertices, repeat.

These checks are sound and complete for regions: a wrong winner map cannot
pass them, because passing means both claimed regions are genuinely won.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .game import ParityGame, Player, Solution, _group_by_target, _positions


@dataclass(frozen=True)
class EscapeEdge:
    vertex: int
    target: int

    def describe(self, game: ParityGame) -> str:
        return (
            f"EscapeEdge: vertex {game.original_id[self.vertex]} can leave its "
            f"claimed region via {game.original_id[self.target]}"
        )


@dataclass(frozen=True)
class MissingStrategy:
    vertex: int

    def describe(self, game: ParityGame) -> str:
        return f"MissingStrategy: vertex {game.original_id[self.vertex]} has no strategy"


@dataclass(frozen=True)
class StrategyLeavesRegion:
    vertex: int
    target: int

    def describe(self, game: ParityGame) -> str:
        return (
            f"StrategyLeavesRegion: strategy {game.original_id[self.vertex]} -> "
            f"{game.original_id[self.target]} is not a region-internal edge"
        )


@dataclass(frozen=True)
class LosingCycleWitness:
    cycle: tuple[int, ...]
    max_priority: int

    def describe(self, game: ParityGame) -> str:
        ids = ",".join(str(game.original_id[v]) for v in self.cycle)
        return f"LosingCycleWitness: cycle [{ids}] has hostile maximum priority {self.max_priority}"


Violation = EscapeEdge | MissingStrategy | StrategyLeavesRegion | LosingCycleWitness


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...]


def _cyclic_components(
    subset: list[int],
    adj: Sequence[list[int]],
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


def _witness_cycle(comp: list[int], adj: Sequence[list[int]], anchor: int) -> tuple[int, ...]:
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


def _local_checks(
    game: ParityGame, sol: Solution
) -> tuple[list[list[Violation]], np.ndarray, np.ndarray]:
    """Each player's local faults, and the (sources, targets) of the
    checked graph.

    The local faults (escape edges, missing strategies, strategies that
    are not a region-internal edge) come by vertex and then by stored edge
    order.  The graph holds the opponent's region-internal edges and the
    claimant's strategy edges that stay in the region, self-loops of both
    included; its edges keep the CSR order, so its sources ascend.
    """
    n = game.n
    win, choice = sol.win, sol.choice
    indptr, targets, edge_owner = game._csr
    deg = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int32), deg)
    win_src = np.repeat(win, deg)
    inside = win[targets] == win_src
    claimed = edge_owner == win_src  # the source's owner claims it
    moves = targets == np.repeat(choice, deg)
    moves &= claimed
    moves &= inside
    keep = (inside & ~claimed) | moves
    escapes = np.flatnonzero(~(claimed | inside))
    stays = np.zeros(n, dtype=bool)
    stays[src[moves]] = True
    faulty = np.flatnonzero((game._owner_bits == win) & ~stays)
    found: list[list[Violation]] = [[], []]
    # sorted by CSR position: a faulty vertex's first edge, or the escape edge
    keys = np.concatenate((indptr[faulty], escapes))
    for i in np.argsort(keys).tolist():
        if i < len(faulty):
            v = int(faulty[i])
            s = int(choice[v])
            fault: Violation = MissingStrategy(v) if s < 0 else StrategyLeavesRegion(v, s)
        else:
            e = int(escapes[i - len(faulty)])
            v = int(src[e])
            fault = EscapeEdge(v, int(targets[e]))
        found[int(win[v])].append(fault)
    return found, src[keep], targets[keep]


def _trim(n: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The vertices left after dropping, round by round, every vertex with
    no remaining in-edge or out-edge other than a self-loop; ``sources``
    must ascend.

    Self-loops are left out of the degrees.  Each round visits only the
    edges of the vertices it drops and counts their endpoints' losses down
    in place, so a round costs its frontier, not ``n``.
    """
    step = sources != targets
    sources, targets = sources[step], targets[step]
    # int64 degrees: np.subtract.at has a fast path for them, not for int32
    outdeg = np.bincount(sources, minlength=n).astype(np.int64, copy=False)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(outdeg, out=out_ptr[1:])
    in_ptr, preds = _group_by_target(n, sources, targets)
    indeg = np.diff(in_ptr)
    alive = np.ones(n, dtype=bool)
    slot = np.empty(n, dtype=np.intp)
    dropped = np.flatnonzero((outdeg == 0) | (indeg == 0))
    while len(dropped):
        alive[dropped] = False
        succ = targets[_positions(out_ptr, dropped)[0]]
        pred = preds[_positions(in_ptr, dropped)[0]]
        np.subtract.at(indeg, succ, 1)
        np.subtract.at(outdeg, pred, 1)
        touched = np.concatenate((succ, pred))
        touched = touched[alive[touched]]
        touched = touched[(indeg[touched] == 0) | (outdeg[touched] == 0)]
        # one copy of each vertex: the one whose position its slot kept
        at = np.arange(len(touched))
        slot[touched] = at
        dropped = touched[slot[touched] == at]
    return np.flatnonzero(alive)


def _survivor_graph(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, list[list[int]], np.ndarray]:
    """The trimmed checked graph: its vertices, ascending, and their
    successor lists in stored order, both over indices into that vertex
    list; and the dropped vertices with a self-loop, ascending, each a
    cyclic component of its own."""
    kept = _trim(n, sources, targets)
    alive = np.zeros(n, dtype=bool)
    alive[kept] = True
    edges = alive[sources] & alive[targets]
    index = np.zeros(n, dtype=np.int32)
    index[kept] = np.arange(len(kept), dtype=np.int32)
    cut = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(np.bincount(index[sources[edges]], minlength=len(kept)), out=cut[1:])
    flat = index[targets[edges]].tolist()
    bounds = cut.tolist()
    looped = sources[sources == targets]
    return kept, [flat[a:b] for a, b in zip(bounds, bounds[1:])], looped[~alive[looped]]


def verify(game: ParityGame, sol: Solution) -> VerificationReport:
    """Check a claimed solution; all problems come back as report entries.

    Faults come by player, Even first: the local faults by vertex and then
    by stored edge order, then the losing self-loops of the vertices that
    the trim dropped, by vertex, then the losing cycles that peeling finds.
    """
    if sol.n != game.n:
        raise ValueError("solution does not match the game")
    if not game.n:
        return VerificationReport(True, ())
    found, sources, targets = _local_checks(game, sol)
    kept, adj, lone = _survivor_graph(game.n, sources, targets)
    del sources, targets
    lone_priority = game._priority[lone]
    lone_side = sol.win[lone]
    vertices = kept.tolist()
    priority = game._priority[kept].tolist()
    side = sol.win[kept]
    k = len(vertices)
    index = [-1] * k
    lowlink = [0] * k
    on_stack = bytearray(k)
    violations: list[Violation] = []
    for player in (Player.EVEN, Player.ODD):
        violations.extend(found[player])
        hostile = (lone_side == player) & (lone_priority & 1 != int(player))
        for v, p in zip(lone[hostile].tolist(), lone_priority[hostile].tolist()):
            violations.append(LosingCycleWitness((v,), p))
        work: list[list[int]] = [np.flatnonzero(side == player).tolist()]
        while work:
            subset = work.pop()
            if not subset:
                continue
            for comp in _cyclic_components(subset, adj, index, lowlink, on_stack):
                pmax = max(priority[c] for c in comp)
                if pmax & 1 != int(player):
                    anchor = min(c for c in comp if priority[c] == pmax)
                    cycle = _witness_cycle(comp, adj, anchor)
                    violations.append(LosingCycleWitness(tuple(vertices[c] for c in cycle), pmax))
                rest = [c for c in comp if priority[c] != pmax]
                if rest:
                    work.append(rest)
    return VerificationReport(not violations, tuple(violations))
