"""Optional game reductions applied before solving.

Two passes: self-loop elimination and winner-controlled winning cycle
detection.  Each decides a set of vertices outright (winner plus strategy)
and returns a smaller residual game; solving the residual and composing
gives exactly the solution of the original game.  Soundness comes from the
decided regions being attractor-closed: the loser can never escape them,
and every internal cycle favors the decided winner.

Both passes work on numpy arrays over the game's forward and reverse CSR.
The attractor grows its region layer by layer: an opponent vertex counts
down its live out-degree and joins once that reaches zero, and an owner
vertex joins with the first successor, in stored order, that was in the
region before its layer.  Self-loop elimination runs one attractor per
player, seeded with every loop of the owner's parity and every hostile
loop without another live successor.  A hostile loop is not counted in
its vertex's live out-degree, so a hostile loop that the attractor leaves
stuck joins the attractor like any other cornered opponent vertex.  The
two attractors are winning regions of different players, so they are
disjoint, and the decided set is the one that deciding loop
after loop would give.

The cycle pass needs no SCC decomposition.  In the subgraph of a player's
own vertices of their own parity, the vertices that cannot stay forever
are the ones from which every path reaches a vertex with no successor
inside; the same count-down attractor, run for the other player from
those vertices, finds them.  The rest, and their attractor, are won.
Residuals are built from the parent's arrays by ``game._subgame``, with no
tuple view read.  Nothing here shares code with the oracles' per-vertex
attractor and SCC search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import ParityGame, Solution, _positions, _subgame


@dataclass(frozen=True, eq=False)
class PartialSolution:
    """Vertices decided by a reduction, in the parent game's indexing.

    ``win`` holds each parent vertex's winner bit, -1 while undecided;
    ``choice`` the chosen successor of a decided winner-owned vertex, -1
    elsewhere.  ``to_parent`` maps the residual game's dense indices back
    to the parent's.  The arrays are read-only; ``decided`` is a view of
    them, built on first use.
    """

    win: np.ndarray
    choice: np.ndarray
    to_parent: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.win, self.choice, self.to_parent):
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
    hits = np.flatnonzero(inside[tg])
    return tg[hits[np.searchsorted(hits, bounds[:-1])]]


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


def _extract(
    game: ParityGame, alive: np.ndarray, keep: np.ndarray | None = None
) -> tuple[ParityGame, np.ndarray]:
    """The residual on ``alive`` and its ``to_parent`` map (``_subgame``),
    keeping only the edges that ``keep``, a mask over the parent's edges,
    marks when it is given; the game itself when nothing goes."""
    to_parent = np.flatnonzero(alive)
    if len(to_parent) == game.n and keep is None:
        return game, to_parent
    return _subgame(game, to_parent, keep), to_parent


def _undecided(game: ParityGame) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Everything alive and undecided: (alive, degree, win, choice)."""
    indptr = game._csr[0]
    return (
        np.ones(game.n, dtype=bool),
        np.diff(indptr),
        np.full(game.n, -1, dtype=np.int8),
        np.full(game.n, -1, dtype=np.int64),
    )


def eliminate_self_loops(game: ParityGame) -> tuple[PartialSolution, ParityGame]:
    """Decide or drop every self-loop; the residual is self-loop-free.

    A loop whose priority parity matches the owner is an immediate win for
    the owner (keep looping), and the owner's attractor of it is decided
    along.  A loop of hostile parity is simply deleted when the vertex has
    another live successor; when the loop is the only move left, the owner
    is stuck and the parity's player wins, again with its attractor.  Either
    way the loop's priority parity names the winner.  A hostile loop is
    left out of its vertex's degree: when the player of the loop's parity
    takes every other successor, the owner is stuck and the vertex joins
    that player's attractor at once.  The owner's attractor never counts a
    hostile loop's vertex down (it joins on any edge into the region), so
    one attractor per player leaves no hostile loop stuck.
    """
    indptr, targets, _ = game._csr
    sources = np.repeat(np.arange(game.n), np.diff(indptr))
    looped = targets == sources
    loopers = sources[looped]
    par = game._parity_bits
    alive, degree, win, choice = _undecided(game)
    friendly = par[loopers] == game._owner_bits[loopers]
    choice[loopers[friendly]] = loopers[friendly]
    hostile = loopers[~friendly]
    degree[hostile] -= 1
    seeds = np.concatenate((loopers[friendly], hostile[degree[hostile] == 0]))
    for beta in (0, 1):
        mine = seeds[par[seeds] == beta]
        if len(mine):
            win[_attract(game, alive, degree, beta, mine, choice)] = beta
    hostile = hostile[alive[hostile]]
    keep = None
    if len(hostile):  # the hostile loops of the live vertices go
        dropped = np.zeros(game.n, dtype=bool)
        dropped[hostile] = True
        keep = ~(looped & dropped[sources])
    residual, to_parent = _extract(game, alive, keep)
    return PartialSolution(win, choice, to_parent), residual


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


def winner_controlled_cycles(game: ParityGame) -> tuple[PartialSolution, ParityGame]:
    """Decide cycles a player fully controls and likes.

    For each player, take the subgraph of vertices they own whose priority
    parity is also theirs.  From every vertex with an infinite path inside
    it the player wins outright (all priorities on such a play have the
    winning parity), so those vertices are decided, each with its first
    successor in stored order that keeps such a path, plus their
    attractor.  This is deliberately conservative detection; intended for
    self-loop-free input.
    """
    alive, degree, win, choice = _undecided(game)
    own_parity = game._owner_bits == game._parity_bits
    for beta in (0, 1):
        mask = alive & own_parity & (game._owner_bits == beta)
        if not mask.any():
            continue
        seeds = _staying(game, mask, beta)
        if not len(seeds):
            continue
        inside = np.zeros(game.n, dtype=bool)
        inside[seeds] = True
        choice[seeds] = _first_inside(game, inside, seeds)
        win[_attract(game, alive, degree, beta, seeds, choice)] = beta
    residual, to_parent = _extract(game, alive)
    return PartialSolution(win, choice, to_parent), residual


def apply_preprocessing(game: ParityGame) -> tuple[list[PartialSolution], ParityGame]:
    """Run both reductions in order; returns the partials plus the residual."""
    loop_partial, loopless = eliminate_self_loops(game)
    cycle_partial, residual = winner_controlled_cycles(loopless)
    return [loop_partial, cycle_partial], residual


def compose_solution(partials: list[PartialSolution], residual_solution: Solution) -> Solution:
    """Fold the reduction chain back up to the original game."""
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
        win, choice = parent_win, parent_choice
    return Solution(win, choice)
