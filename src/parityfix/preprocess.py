"""The game reduction applied before solving.

One pass decides every cycle that a player controls and likes: the winner
gets each decided vertex outright, with a strategy.  It then sets aside
the vertices that no cycle reaches, to be decided after the solve, and
returns a smaller residual game; solving the residual and composing gives
a solution of the original game.  Soundness of the decided regions comes
from their being attractor-closed: the loser can never escape them, and
every internal cycle favors the decided winner.

The pass works on numpy arrays over the game's forward and reverse CSR.
The attractor grows its region layer by layer: an opponent vertex counts
down its live out-degree and joins once that reaches zero, and an owner
vertex joins with the first successor, in stored order, that was in the
region before its layer.  In order:

1. Self-loops, the controlled cycles of length one.  Each player's
   attractor is seeded with the loops of its parity whose owner is that
   player (each one's choice is the loop) and with the vertices whose only
   move is a hostile loop of its parity.  A hostile loop is not counted in
   its vertex's live out-degree, so a hostile loop that the attractor
   leaves stuck joins the attractor like any other cornered opponent
   vertex.  The two attractors are winning regions of different players,
   so they are disjoint, and the decided set is the one that deciding
   loop after loop would give.
2. Longer cycles, among the vertices left.  In the subgraph of a player's
   own vertices of their own parity, the vertices that cannot stay
   forever are the ones from which every path reaches a vertex with no
   successor inside; the same count-down attractor, run for the other
   player from those vertices, finds them.  The rest, each with its first
   successor inside, and their attractor are won.  Seeding these with
   the loops in one attractor per player would make the subgraphs scan
   every vertex that the loops decide.
3. The vertices that no cycle reaches, among the vertices left.  Each
   layer is the alive vertices with no alive predecessor: in-degrees are
   counted over the alive edges once, then counted down over each dropped
   layer's successors.  What stays is closed under successors, since a
   vertex drops only after all its predecessors have (a vertex with a
   hostile loop is its own predecessor and stays), and every vertex left
   has an alive successor, so it is a trap for both players: its
   winners in the residual are its winners in the whole game.  The
   dropped vertices are not decided here (``win`` stays -1);
   ``compose_solution`` decides them after the solve by one-step backward
   induction, layer by layer in reverse.  A layer's successors lie in
   later layers, in the residual or in the regions decided before, so
   each step reads only decided winners: the owner wins a vertex if some
   successor is won by the owner, with the first such successor in stored
   order as its choice (the solver's tie rule), and the opponent wins it
   otherwise.  This is the cheapest form of the SCC decomposition of
   Friedmann and Lange's generic solver (*Solving Parity Games in
   Practice*, ATVA 2009): it keeps the solver off the vertices upstream of
   every cycle, whose distractions would restart its lowest level.
4. The residual is built once from the parent's arrays by
   ``game._subgame``, with no tuple view read.

The residual keeps the hostile loops of its vertices.  The solver never
takes one: DFI evaluates a vertex only while it is estimated won by the
player of its priority's parity, which a hostile loop's owner is not, so
the loop's target is never a winning successor for the owner.  The dirty
mark that such a vertex puts on itself when it joins Z falls on a Z
vertex, which is never selected.  So the solver does the same work with
the loops as without them.  Nothing here shares code with the oracles'
per-vertex attractor and SCC search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import ParityGame, Solution, _first_hits, _positions, _subgame


@dataclass(frozen=True, eq=False)
class PartialSolution:
    """Vertices decided by a reduction, in the parent game's indexing.

    ``win`` holds each parent vertex's winner bit, -1 while undecided;
    ``choice`` the chosen successor of a decided winner-owned vertex, -1
    elsewhere.  ``to_parent`` maps the residual game's dense indices back
    to the parent's.  ``layers`` are the vertices that no cycle reaches,
    as parent-index arrays in the order they were dropped; they are in
    neither ``to_parent`` nor ``decided`` and are decided by
    ``compose_solution`` after the solve, from the parent's ``csr`` (its
    ``_csr`` triple) and ``owner`` bits.  The arrays are read-only;
    ``decided``, the vertices decided before the solve, is a view of them,
    built on first use.
    """

    win: np.ndarray
    choice: np.ndarray
    to_parent: np.ndarray
    layers: tuple[np.ndarray, ...]
    csr: tuple[np.ndarray, np.ndarray, np.ndarray]
    owner: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.win, self.choice, self.to_parent, *self.layers):
            a.flags.writeable = False

    @cached_property
    def decided(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.win >= 0).tolist())


def _distinct(vs: np.ndarray) -> np.ndarray:
    """The distinct values of ``vs``, ascending.

    ``np.unique`` would do, but its first call imports ``numpy.ma`` (about
    40 ms and 1.2 MB of resident memory per process).
    """
    vs = np.sort(vs)
    keep = np.ones(len(vs), dtype=bool)
    np.not_equal(vs[1:], vs[:-1], out=keep[1:])
    return vs[keep]


def _first_inside(game: ParityGame, inside: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The first successor of each of ``rows``, in stored order, marked ``inside``.

    Every row must have one.
    """
    indptr, targets, _ = game._csr
    pos, bounds = _positions(indptr, rows)
    tg = targets[pos]
    return tg[_first_hits(inside[tg], bounds)]


def _attract(
    game: ParityGame,
    alive: np.ndarray,
    degree: np.ndarray,
    player: int,
    seeds: np.ndarray,
    choice: np.ndarray,
) -> np.ndarray:
    """Attract the alive ``seeds`` for ``player`` and return the region.

    ``degree`` holds every alive vertex's number of alive successors that
    let its owner escape; an opponent vertex joins when it has none left.
    The region leaves ``alive``, and ``degree`` is kept true for the
    vertices still alive: an owner vertex left outside has no edge into
    the region, and an opponent vertex is counted down once per such edge.
    Attracted owner vertices get their ``choice``; the seeds keep theirs.
    """
    owner = game._owner_bits
    rev_indptr, sources = game._reverse_csr
    inside = np.zeros(game.n, dtype=bool)
    inside[seeds] = True
    alive[seeds] = False
    layers = [seeds]
    layer = seeds
    while len(layer):
        pos, _ = _positions(rev_indptr, layer)
        pred = sources[pos]
        pred = pred[alive[pred]]
        mine = owner[pred] == player
        np.subtract.at(degree, pred[~mine], 1)
        layer = _distinct(pred[mine | (degree[pred] == 0)])
        mine = layer[owner[layer] == player]
        if len(mine):
            choice[mine] = _first_inside(game, inside, mine)
        inside[layer] = True
        alive[layer] = False
        layers.append(layer)
    return np.concatenate(layers)


def _staying(game: ParityGame, mask: np.ndarray, player: int) -> np.ndarray:
    """The vertices of ``mask``, all owned by ``player``, that have an
    infinite path inside ``mask``.

    The others are the opponent's attractor, within ``mask``, of the
    vertices without a successor in ``mask``.  The opponent owns none of
    them, so a vertex joins once all its successors in ``mask`` have.
    """
    indptr, targets, _ = game._csr
    rows = np.flatnonzero(mask)
    pos, bounds = _positions(indptr, rows)
    degree = np.zeros(game.n, dtype=np.int64)
    degree[rows] = np.add.reduceat(mask[targets[pos]], bounds[:-1], dtype=np.int64)
    stay = mask.copy()
    # the opponent owns no vertex of ``mask``, so it makes no choice
    _attract(game, stay, degree, 1 - player, rows[degree[rows] == 0], np.empty(0, dtype=np.int64))
    return np.flatnonzero(stay)


def _upstream(game: ParityGame, alive: np.ndarray) -> tuple[np.ndarray, ...]:
    """Drop from ``alive``, layer by layer, the alive vertices with no
    alive predecessor; returns the layers in drop order."""
    indptr, targets, _ = game._csr
    indegree = np.bincount(targets[np.repeat(alive, np.diff(indptr))], minlength=game.n)
    layer = np.flatnonzero(alive & (indegree == 0))
    layers = []
    while len(layer):
        alive[layer] = False
        layers.append(layer)
        pos, _ = _positions(indptr, layer)
        tg = targets[pos]
        tg = tg[alive[tg]]
        np.subtract.at(indegree, tg, 1)
        layer = _distinct(tg[indegree[tg] == 0])
    return tuple(layers)


def winner_controlled_cycles(game: ParityGame) -> tuple[PartialSolution, ParityGame]:
    """Decide every cycle that a player controls and likes, with its
    attractor, and set aside the vertices that no cycle reaches, in one
    pass (steps 1-4 of the module docstring).

    Returns the partial solution and the residual, which keeps the hostile
    loops of its vertices.
    """
    indptr, targets, _ = game._csr
    owner, par = game._owner_bits, game._parity_bits
    degree = np.diff(indptr)
    # each loop's target is its source, and a game stores each edge once
    loopers = targets[targets == np.repeat(np.arange(game.n), degree)]
    alive = np.ones(game.n, dtype=bool)
    win = np.full(game.n, -1, dtype=np.int8)
    choice = np.full(game.n, -1, dtype=np.int64)
    # 1. the loops; a hostile loop is left out of its vertex's degree
    friendly = par[loopers] == owner[loopers]
    choice[loopers[friendly]] = loopers[friendly]
    hostile = loopers[~friendly]
    degree[hostile] -= 1
    seeds = np.concatenate((loopers[friendly], hostile[degree[hostile] == 0]))
    for beta in (0, 1):
        mine = seeds[par[seeds] == beta]
        if len(mine):
            win[_attract(game, alive, degree, beta, mine, choice)] = beta
    # 2. the longer cycles, among the vertices left
    own_parity = owner == par
    for beta in (0, 1):
        mask = alive & own_parity & (owner == beta)
        if not mask.any():
            continue
        mine = _staying(game, mask, beta)
        if not len(mine):
            continue
        inside = np.zeros(game.n, dtype=bool)
        inside[mine] = True
        choice[mine] = _first_inside(game, inside, mine)
        win[_attract(game, alive, degree, beta, mine, choice)] = beta
    # 3. the vertices that no cycle reaches, decided after the solve
    layers = _upstream(game, alive)
    # 4. the residual
    to_parent = np.flatnonzero(alive)
    residual = game if len(to_parent) == game.n else _subgame(game, to_parent)
    return PartialSolution(win, choice, to_parent, layers, game._csr, owner), residual


def apply_preprocessing(game: ParityGame) -> tuple[list[PartialSolution], ParityGame]:
    """Run the reduction; returns its partial, in a list, and the residual."""
    partial, residual = winner_controlled_cycles(game)
    return [partial], residual


def compose_solution(partials: list[PartialSolution], residual_solution: Solution) -> Solution:
    """Fold the reduction chain back up to the original game.

    At each step the residual's solution is scattered into the parent, and
    then the vertices that no cycle reaches are decided, one layer at a
    time from the last dropped (step 3 of the module docstring).
    """
    if not partials:
        return residual_solution
    win, choice = residual_solution.win, residual_solution.choice
    for partial in reversed(partials):
        to_parent = partial.to_parent
        if len(win) != len(to_parent):
            raise ValueError("residual solution does not match the reduction")
        parent_win = partial.win.copy()
        parent_win[to_parent] = win
        parent_choice = partial.choice.copy()
        chosen = choice >= 0
        parent_choice[to_parent[chosen]] = to_parent[choice[chosen]]
        indptr, targets, edge_owner = partial.csr
        for layer in reversed(partial.layers):
            pos, bounds = _positions(indptr, layer)
            tg = targets[pos]
            first = _first_hits(parent_win[tg] == edge_owner[pos], bounds)
            has = first >= 0
            own = partial.owner[layer]
            parent_win[layer] = np.where(has, own, 1 - own)
            parent_choice[layer[has]] = tg[first[has]]
        win, choice = parent_win, parent_choice
    return Solution(win, choice)
