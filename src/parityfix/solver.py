"""Distraction-driven fixpoint solver for parity games.

Every vertex starts out estimated as won by the player of its own priority
parity.  A per-vertex flag set Z collects the vertices where that estimate
fails (the distractions): a vertex joins Z when its owner cannot reach an
estimated-winning successor in one step.  Levels are processed from the
lowest priority upward, and whenever a level gains distractions all lower
levels are recomputed.  The final winners are read off the flags.

The two modes differ in the reset that follows a level's additions.  Basic
mode resets every lower distraction, so it yields regions only.  Strategy
mode (``mode="freezing"``, after the paper's name for it) resets only the
lower distractions whose justification reaches the new ones (the
justification rule of Lapauw, Bruynooghe and Denecker, VMCAI 2020).  A
vertex's justification is its strategy slot when its owner wins it, and all
its edges otherwise.  The reset walks backward from the new distractions
through the lower vertices won by the level's player: it follows every such
predecessor that the opponent owns, and one that the player owns only when
its slot is the vertex walked from.  It resets the distractions it reaches
and walks on through the other vertices, since a distraction kept in Z may
be justified through them.

The paper freezes the lower vertices that the opponent of the level's
player wins, so that its reset, which clears every lower distraction,
leaves their estimates and slots alone.  The walk needs no such guard.
When a level adds distractions, the levels below it have just passed
without additions, so every lower vertex has a valid justification, and
one that the opponent wins is justified by vertices the opponent wins.  The
new distractions were won by the level's player until this pass, so no
such justification reaches them: the walk never enters a vertex that the
opponent wins, and no reset changes its estimate or its slot.
The strategies rest on one invariant: after every reset, each distraction
left in Z keeps a valid justification (its slot's target, or every
successor, won by its winner).  An evaluation keeps a vertex's slot while
its target is still won by the vertex's owner, and picks the first winning
successor in stored order only otherwise.  So a slot moves only when its
justification broke, and distractions never come to justify one another
around a cycle that no walk from a new distraction enters.  Keeping a slot
never changes a one-step result, so basic mode's counters are those of the
paper's loop.

A pass evaluates the vertices of its level against the flags as they
stand when the pass starts: it collects the level's new distractions in a
list and sets their z bits only when the pass ends.  No flag moves during
a pass, so no copy of the flags is needed.

Both modes run on one kernel, ``_dfi``, whose ``justified`` switch chooses
the reset.  It is a worklist over dirty vertices.  A vertex's one-step
result depends only on its successors' winner bits, so it is re-evaluated
only when it is dirty: every vertex starts dirty, a reset vertex becomes
dirty, and so does every predecessor of a vertex that is added to Z or
reset.  A pass evaluates the non-Z dirty vertices of its level and clears
their dirty bits.  A dirty set of at most ``_K`` vertices is evaluated, and
its additions' predecessors marked, in a Python loop; a larger set goes
through a numpy gather over the CSR edge arrays and a reverse-CSR scatter.
The justification walk is a Python loop over the ascending predecessor
tuples, which stops at the level's first vertex.

Its state is one flag byte and one int32 strategy slot per vertex, at every
level count.  A flag byte holds the estimated winner bit (parity ^ z) over
the dirty bit.  The evaluators read winner bits straight off the bytes, and
so do the final winners; z is ``winner ^ parity``.  At a level of parity
alpha the vertices to evaluate are exactly those whose byte equals
``alpha << 1 | 1``: won by alpha (so not in Z) and dirty.  The bytes sit in
a ``bytearray``, whose ``count`` and ``find`` list them in a few
microseconds per pass over thousands of vertices, where numpy calls cost
that much each.  A numpy view of the same memory serves the large-set
branches and basic mode's reset: one numpy pass over the lower levels that
sets each vertex whose winner bit differs from its parity back to
``parity << 1 | 1``.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .game import (
    ParityGame,
    Solution,
    SolveTimeoutError,
    _check_deadline,
    _deadline,
    _first_hits,
    _positions,
    sort_by_priority,
)

# The kernel lists a dirty set of at most this many vertices with ``find``
# and evaluates it in a Python loop; a larger set is listed and evaluated
# with numpy.  The same split decides how the predecessors of changed
# vertices are marked.  Thread CPU of strategy mode on the two seed-0
# core-10k games after preprocessing (best of 5; Python 3.11, numpy 2.4, a
# 2-vCPU x86-64 host): 36 and 33 ms at 64, 39 and 34 ms with the Python
# loop at every size, 112 and 111 ms with numpy at every size.  Passes,
# additions, resets and evaluations are the same at every setting.
_K = 64


@dataclass(frozen=True)
class SolverOptions:
    mode: Literal["basic", "freezing"] = "freezing"
    timeout_s: float | None = None

    def __post_init__(self):
        if self.mode not in ("basic", "freezing"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class SolverStats:
    """Counters over one solve run; always maintained, cheap to keep."""

    passes: int = 0
    additions: int = 0
    # passes that added distractions, each followed by a reset
    resets: int = 0
    # vertices moved out of Z by those resets
    reset_vertices: int = 0
    # always 0: the paper's freezing is replaced by the justified reset; the
    # field stays for the readers of the counters (bench CSV, perfbench)
    freezes: int = 0
    # vertices evaluated; both modes skip the vertices whose successors'
    # winner bits have not changed since their last evaluation
    evaluations: int = 0
    wall_time_s: float = 0.0
    state_bytes: int = 0
    # passes, evaluations and additions per level of the sorted game,
    # lowest priority first; each sums to its counter above
    level_passes: list[int] = field(default_factory=list)
    level_evaluations: list[int] = field(default_factory=list)
    level_additions: list[int] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class DfiOutcome:
    """Solution, in the caller's vertex order, and the run's counters.  The
    final distractions are the vertices not won by the player of their
    priority's parity."""

    solution: Solution
    stats: SolverStats


# ---------------------------------------------------------------- kernel


def _eval_indices(indptr, targets, edge_owner, owner_bits, flags, strat, gidx):
    """One-step evaluation of the vertices listed in ``gidx`` against the
    winner bits read from ``flags``.

    Returns (strategy slot or -1, one-step winner bit), aligned with
    ``gidx``.  A slot in ``strat`` that still wins for its vertex's owner is
    kept; otherwise the slot is the first winning successor in stored order.
    """
    pos, bounds = _positions(indptr, gidx)
    tg = targets[pos]
    first = _first_hits((flags[tg] >> 1) == edge_owner[pos], bounds)
    has = first >= 0
    stratvals = np.where(has, tg[first], np.int32(-1))
    ob = owner_bits[gidx]
    held = strat[gidx]
    stratvals = np.where((held >= 0) & ((flags[held] >> 1) == ob), held, stratvals)
    osbit = np.where(has, ob, 1 - ob).astype(np.uint8)
    return stratvals, osbit


def _dfi(game, deadline, stats, justified):
    n = game.n
    succ = game.successors
    pred = game.predecessors
    own = game._owner_bits.tobytes()
    par = game._parity_bits.tobytes()
    parb = game._parity_bits
    owner_bits = game._owner_bits
    indptr, targets, edge_owner = game._csr
    rev_indptr, sources = game._reverse_csr
    levels = game.levels
    # one flag byte per vertex: the winner bit (bit 1) over the dirty bit
    # (bit 0); every vertex starts dirty and won by the player of its parity
    fl = bytearray((parb << 1 | 1).tobytes())
    st = array("i", [-1]) * n
    # numpy views of the same memory, for the large-set branches
    flags = np.frombuffer(fl, dtype=np.uint8)
    strat = np.frombuffer(st, dtype=np.int32)
    stats.state_bytes = flags.nbytes + strat.nbytes
    level_passes = stats.level_passes = [0] * len(levels)
    level_evaluations = stats.level_evaluations = [0] * len(levels)
    level_additions = stats.level_additions = [0] * len(levels)
    count, find = fl.count, fl.find

    def mark_predecessors(vs):
        """Mark dirty the predecessors of ``vs``, whose winner bits just changed.

        ``vs`` is a list or an array; a list is never longer than ``_K``.
        """
        if len(vs) <= _K:
            for u in vs:
                for w in pred[u]:
                    fl[w] |= 1
        else:
            pos, _ = _positions(rev_indptr, vs)
            flags[sources[pos]] |= 1

    def walk(adds, lo, alpha):
        """Reset the distractions of ``[0, lo)`` whose justification reaches
        ``adds``, the level's new distractions, and return their number.

        The walk goes backward from ``adds`` over the vertices won by
        ``alpha``, the level's player, following every predecessor that the
        opponent owns and each one the player owns whose slot is the vertex
        walked from.  It goes on through the vertices it does not reset.
        """
        back = (1 - alpha) << 1 | 1  # reset: won by the opponent, and dirty
        seen = set()
        todo = list(adds)
        reset = []
        for x in todo:
            for u in pred[x]:
                if u >= lo:
                    break  # predecessors come in ascending order
                if fl[u] >> 1 == alpha and u not in seen and (own[u] != alpha or st[u] == x):
                    seen.add(u)
                    todo.append(u)
                    if par[u] != alpha:
                        fl[u] = back
                        reset.append(u)
        mark_predecessors(reset if len(reset) <= _K else np.array(reset))
        return len(reset)

    li = 0
    while li < len(levels):
        _check_deadline(deadline)
        stats.passes += 1
        level_passes[li] += 1
        p, lo, hi = levels[li]
        alpha = p & 1
        keep = alpha << 1  # evaluated and still won by the level's player
        lose = keep ^ 2  # added to Z: won by the opponent
        want = keep | 1  # dirty and won by the level's player, so not in Z
        k = count(want, lo, hi)
        stats.evaluations += k
        level_evaluations[li] += k
        if k <= _K:
            # every vertex is evaluated before any winner bit moves: snapshot semantics
            adds = []
            v = lo - 1
            for _ in range(k):
                v = find(want, v + 1, hi)
                ow = own[v]
                choice = st[v]
                if choice < 0 or fl[choice] >> 1 != ow:
                    choice = -1
                    for u in succ[v]:
                        if fl[u] >> 1 == ow:
                            choice = u
                            break
                    st[v] = choice
                fl[v] = keep
                if (ow if choice >= 0 else 1 - ow) != alpha:
                    adds.append(v)
            for v in adds:
                fl[v] = lose
            mark_predecessors(adds)
        else:
            sel = np.flatnonzero(flags[lo:hi] == want) + lo
            stratvals, osbit = _eval_indices(indptr, targets, edge_owner, owner_bits, flags, strat, sel)
            strat[sel] = stratvals
            flags[sel] = keep
            adds = sel[osbit != alpha]
            flags[adds] = lose
            mark_predecessors(adds)
            adds = adds.tolist()
        if adds:
            stats.additions += len(adds)
            level_additions[li] += len(adds)
            stats.resets += 1
            if lo and justified:
                stats.reset_vertices += walk(adds, lo, alpha)
            elif lo:
                # basic mode: every lower distraction is reset
                reset = np.flatnonzero(flags[:lo] >> 1 != parb[:lo])
                flags[reset] = parb[reset] << 1 | 1
                mark_predecessors(reset.tolist() if len(reset) <= _K else reset)
                stats.reset_vertices += len(reset)
            li = 0
        else:
            li += 1
    return flags >> 1, st


# ---------------------------------------------------------------- driver


def solve_detailed(game: ParityGame, options: SolverOptions | None = None) -> DfiOutcome:
    """Full solve with stats.

    The input is sorted by priority internally when needed; all results are
    reported in the input's vertex order.  A ``SolveTimeoutError`` carries
    the run's stats so far as ``exc.stats``.
    """
    opts = options or SolverOptions()
    sorted_game, to_parent = sort_by_priority(game)
    stats = SolverStats()
    t0 = time.perf_counter()
    deadline = _deadline(opts.timeout_s, t0)

    justified = opts.mode == "freezing"
    try:
        won, st = _dfi(sorted_game, deadline, stats, justified)
    except SolveTimeoutError as exc:
        stats.wall_time_s = time.perf_counter() - t0
        exc.stats = stats
        raise
    stats.wall_time_s = time.perf_counter() - t0

    # the results in sorted order, scattered into the input's order
    win = np.empty(len(won), dtype=np.uint8)
    win[to_parent] = won
    choice = np.full(len(won), -1, dtype=np.int64)
    if justified:
        strat = np.frombuffer(st, dtype=np.int32)
        chosen = np.flatnonzero((sorted_game._owner_bits == won) & (strat >= 0))
        choice[to_parent[chosen]] = to_parent[strat[chosen]]
    return DfiOutcome(Solution(win, choice), stats)


def solve(game: ParityGame, options: SolverOptions | None = None) -> Solution:
    """Solve with strategies (default) or regions only (mode=basic)."""
    return solve_detailed(game, options).solution


def solve_basic(game: ParityGame, *, timeout_s: float | None = None) -> Solution:
    """Region-only solve; strategies are all ``None``."""
    return solve_detailed(game, SolverOptions(mode="basic", timeout_s=timeout_s)).solution
