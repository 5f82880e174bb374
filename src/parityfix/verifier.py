"""Independent checking of claimed solutions.

A solution is accepted when, for each player's claimed region: the
opponent cannot leave it, every region vertex owned by the claimant has a
strategy edge staying inside it, and in the graph restricted to strategy
edges (claimant) plus all region-internal edges (opponent) every cycle's
maximum priority has the claimant's parity.  The cycle condition is
checked by peeling: SCC-decompose, test the maximum priority of every
cyclic component, drop the maximum-priority vertices, repeat.

These checks are sound and complete for regions: a wrong winner map cannot
pass them, because passing means both claimed regions are genuinely won.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .game import ParityGame, Player, Solution


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


def verify(game: ParityGame, sol: Solution) -> VerificationReport:
    """Check a claimed solution; all problems come back as report entries.

    A game with a sink or a dangling edge raises the ``ValidationError``
    every solver raises on it.
    """
    if sol.n != game.n:
        raise ValueError("solution does not match the game")
    game._csr  # raises on a sink or a dangling edge, as every solver does
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
