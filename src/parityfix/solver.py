"""Distraction-driven fixpoint solver for parity games.

Every vertex starts out estimated as won by the player of its own priority
parity.  A per-vertex flag set Z collects the vertices where that estimate
fails (the distractions): a vertex joins Z when its owner cannot reach an
estimated-winning successor in one step.  Levels are processed from the
lowest priority upward, and whenever a level gains distractions all lower
levels are recomputed.  The final winners are read off the flags.

The two modes differ in the reset that follows a level's additions.  Basic
mode resets every lower distraction, so it yields regions only.  Freezing
mode first freezes every unfrozen lower vertex that the opponent of the
level's player now wins: a frozen vertex is not evaluated and keeps its
strategy slot until the level that froze it completes a pass without
additions, which is what makes the recorded slots a winning strategy by
the end of the run.  Then it resets only the lower distractions whose
justification reaches the new ones (the justification rule of Lapauw,
Bruynooghe and Denecker, VMCAI 2020).  A vertex's justification is its
strategy slot when its owner wins it, and all its edges otherwise.  The
reset walks backward from the new distractions through the lower vertices
that are unfrozen and won by the level's player: it follows every such
predecessor that the opponent owns, and one that the player owns only when
its slot is the vertex walked from.  It resets the distractions it reaches
and walks on through the other vertices, since a distraction kept in Z may
be justified through them.

Freezing comes first because a reset vertex is won by the opponent too: a
freeze after the reset would keep it out of the recomputation with an
estimate no evaluation made.  Frozen vertices never enter the walk.  Those
this sweep freezes are won by the opponent, so their justifications hold
only vertices the opponent won, never the new distractions, which the
level's player won until now.  Those a higher level froze keep their
estimate and slot until that level thaws them, as under the paper's reset.
An evaluation keeps a vertex's slot while its target is still won by the
vertex's owner, and picks the first winning successor in stored order only
otherwise.  So a slot moves only when its justification broke, and
distractions never come to justify one another around a cycle that no walk
from a new distraction enters.  Keeping a slot never changes a one-step
result, so basic mode's counters are those of the paper's loop.

A pass evaluates the vertices of its level against the flags as they
stand when the pass starts: it collects the level's new distractions in a
list and sets their z bits only when the pass ends.  No flag moves during
a pass, so no copy of the flags is needed.

Both modes run on one kernel, ``_dfi``, whose ``freeze`` switch chooses
the reset.  It is a worklist over dirty vertices.  A vertex's one-step
result depends only on its successors' winner bits, so it is re-evaluated
only when it is dirty: every vertex starts dirty, a reset vertex becomes dirty,
and so does every predecessor of a vertex that is added to Z or reset.  A
pass evaluates the unfrozen, non-Z dirty vertices of its level and clears
their dirty bits.  Frozen vertices keep their dirty bit until they are
thawed.  A dirty set of at most ``_K`` vertices is evaluated, and its
additions' predecessors marked, in a Python loop; a larger set goes
through a numpy gather over the CSR edge arrays and a reverse-CSR
scatter.  The justification walk is a Python loop over the ascending
predecessor tuples, which stops at the level's first vertex.

Its state is one flags word and one int32 strategy slot per vertex.  A
flags word holds, from the top bit down, the estimated winner bit (parity
^ z), the dirty bit and a freeze field with the freezing level's index + 1
(0: not frozen).  The evaluators read winner bits straight off the words,
and so do the final winners; z is ``winner ^ parity``.  At a level of parity
alpha the vertices to evaluate are exactly those whose word equals
``alpha << top | dirty``: won by alpha (so not in Z), dirty and unfrozen.

Up to 63 levels (distinct priorities) the word is one byte in a
``bytearray``, and selecting, freezing and thawing are C-level byte
operations over it (``_byte_helpers``): ``count`` and ``find`` list a
level's vertices to evaluate; one ``translate`` over the lower levels
freezes them, and one thaws them, with 256-byte tables built once per
solve.  These cost a few microseconds per pass over thousands of
vertices, where numpy calls cost that much each.  With more levels the
word is 16 bits wide (32 above 16383 levels), which the byte operations
cannot address, so the same pass loop calls numpy sweeps instead
(``_wide_helpers``); a second per-vertex byte buffer would add to the
state the solver keeps.  Both containers are shared with a numpy view of
the same memory for the large-set branches.  Basic mode uses only the
selection of these helpers: on every layout its reset is one numpy pass
over the lower levels that sets each vertex whose winner bit differs from
its parity back to ``parity << top | dirty``.
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
    _deadline,
    _positions,
    sort_by_priority,
)

# The freezing engine lists a dirty set of at most this many vertices in
# Python (``find`` on the byte layout) and evaluates it in a Python loop; a
# larger set is listed and evaluated with numpy.  The same split decides how
# the predecessors of changed vertices are marked.  Thread CPU of the two
# seed-0 core-10k games after preprocessing (best of 3; Python 3.11, numpy
# 2.4, a 2-vCPU x86-64 host): 2.16 and 2.91 s at 64, 2.74 and 3.11 s with
# the Python loop at every size, 6.50 and 7.71 s with numpy at every size.
# Passes, additions, resets and freezes are the same at every setting.
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


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveTimeoutError("solver deadline exceeded")


# ---------------------------------------------------------------- kernel


def _flag_layout(levels: int) -> tuple[str, int]:
    """Typecode of the flags word and the shift of its winner bit.

    Below the winner bit sits the dirty bit, and below that a freeze field
    wide enough for the level index + 1.
    """
    if levels <= 63:
        return "B", 7
    if levels <= 16383:
        return "H", 15
    return "I", 31


def _eval_indices(indptr, targets, edge_owner, owner_bits, flags, strat, wshift, gidx):
    """One-step evaluation of the vertices listed in ``gidx`` against the
    winner bits read from ``flags``.

    Returns (strategy slot or -1, one-step winner bit), aligned with
    ``gidx``.  A slot in ``strat`` that still wins for its vertex's owner is
    kept; otherwise the slot is the first winning successor in stored order.
    """
    pos, bounds = _positions(indptr, gidx)
    tg = targets[pos]
    good = (flags[tg] >> wshift) == edge_owner[pos]
    hits = np.flatnonzero(good)
    fh = np.searchsorted(hits, bounds[:-1], side="left")
    eh = np.empty_like(fh)
    if len(eh):
        eh[:-1] = fh[1:]
        eh[-1] = len(hits)
    has = fh < eh
    if len(hits):
        first = tg[hits[np.minimum(fh, len(hits) - 1)]]
        stratvals = np.where(has, first, np.int32(-1))
    else:
        stratvals = np.full(len(gidx), -1, dtype=np.int32)
    ob = owner_bits[gidx]
    held = strat[gidx]
    stratvals = np.where((held >= 0) & ((flags[held] >> wshift) == ob), held, stratvals)
    osbit = np.where(has, ob, 1 - ob).astype(np.uint8)
    return stratvals, osbit


def _byte_helpers(fl, flags, levels):
    """Select, sweep and thaw on the one-byte flags word ``fl``, as byte
    operations (``count``, ``find``, ``translate``).

    ``select(want, lo, hi)`` lists the vertices of ``[lo, hi)`` whose word
    equals ``want``: a list of at most ``_K``, else an index array.
    ``sweep(li, lo, lose)`` freezes the unfrozen vertices of ``[0, lo)``
    that the opponent of level ``li``'s player wins after the level added
    distractions, and returns their number; ``lose`` is the word of an
    unfrozen vertex won by that opponent.
    ``thaw(li, lo)`` unfreezes the vertices frozen by level ``li``.
    """
    dirty = 0x40
    codes = np.arange(256)
    # one row of each table per level, built in one broadcast
    alphas = np.array([p & 1 for p, _, _ in levels], dtype=np.int64)[:, None]
    ids = np.arange(1, len(levels) + 1)[:, None]
    frozen = np.where(((codes & 0x3F) == 0) & (codes >> 7 != alphas), codes | ids, codes)
    thawed = np.where((codes & 0x3F) == ids, codes & 0xC0, codes)
    sweeps = [row.tobytes() for row in frozen.astype(np.uint8)]
    thaws = [row.tobytes() for row in thawed.astype(np.uint8)]

    count, find = fl.count, fl.find

    def select(want, lo, hi):
        k = count(want, lo, hi)
        if k > _K:
            return np.flatnonzero(flags[lo:hi] == want) + lo
        out = []
        v = lo - 1
        for _ in range(k):
            v = find(want, v + 1, hi)
            out.append(v)
        return out

    def sweep(li, lo, lose):
        # freezes are counted at the event, so partial stats stay honest
        nfr = count(lose, 0, lo) + count(lose | dirty, 0, lo)
        fl[:lo] = fl[:lo].translate(sweeps[li])
        return nfr

    def thaw(li, lo):
        fl[:lo] = fl[:lo].translate(thaws[li])

    return select, sweep, thaw


def _wide_helpers(flags, wshift):
    """Select, sweep and thaw as numpy sweeps over a 16- or 32-bit flags
    word; the same contracts as ``_byte_helpers``."""
    wbit = 1 << wshift
    dirty = wbit >> 1
    field = dirty - 1

    def select(want, lo, hi):
        sel = np.flatnonzero(flags[lo:hi] == want) + lo
        return sel if len(sel) > _K else sel.tolist()

    def sweep(li, lo, lose):
        low = flags[:lo]
        fr = ((low & field) == 0) & ((low >> wshift) == (lose >> wshift))
        np.bitwise_or(low, li + 1, out=low, where=fr)
        return int(np.count_nonzero(fr))

    def thaw(li, lo):
        low = flags[:lo]
        np.bitwise_and(low, wbit | dirty, out=low, where=(low & field) == li + 1)

    return select, sweep, thaw


def _dfi(game, deadline, stats, freeze):
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
    code, wshift = _flag_layout(len(levels))
    wbit = 1 << wshift
    dirty = wbit >> 1
    # every vertex starts dirty and won by the player of its parity; Python
    # containers for per-vertex reads and writes, numpy views of the same
    # memory for sweeps
    word = (parb.astype(code) << wshift | dirty).tobytes()
    fl = bytearray(word) if code == "B" else array(code, word)
    st = array("i", [-1]) * n
    flags = np.frombuffer(fl, dtype=code)
    strat = np.frombuffer(st, dtype=np.int32)
    stats.state_bytes = flags.nbytes + strat.nbytes
    level_passes = stats.level_passes = [0] * len(levels)
    level_evaluations = stats.level_evaluations = [0] * len(levels)
    level_additions = stats.level_additions = [0] * len(levels)
    if code == "B":
        select, sweep, thaw = _byte_helpers(fl, flags, levels)
    else:
        select, sweep, thaw = _wide_helpers(flags, wshift)

    def mark_predecessors(vs):
        """Mark dirty the predecessors of ``vs``, whose winner bits just changed.

        ``vs`` is a list or an array; a list is never longer than ``_K``.
        """
        if len(vs) <= _K:
            for u in vs:
                for w in pred[u]:
                    fl[w] |= dirty
        else:
            pos, _ = _positions(rev_indptr, vs)
            flags[sources[pos]] |= dirty

    def walk(adds, lo, alpha, lose):
        """Reset the distractions of ``[0, lo)`` whose justification reaches
        ``adds``, the level's new distractions, and return their number.

        The walk goes backward from ``adds`` over the unfrozen vertices won
        by ``alpha``, the level's player (after the sweep, all unfrozen
        vertices of ``[0, lo)`` are), following every predecessor that the
        opponent owns and each one the player owns whose slot is the vertex
        walked from.  It goes on through the vertices it does not reset.
        """
        won = lose ^ wbit
        seen = set()
        todo = list(adds)
        reset = []
        for x in todo:
            for u in pred[x]:
                if u >= lo:
                    break  # predecessors come in ascending order
                if fl[u] & ~dirty == won and u not in seen and (own[u] != alpha or st[u] == x):
                    seen.add(u)
                    todo.append(u)
                    if par[u] != alpha:
                        fl[u] = lose | dirty
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
        keep = alpha << wshift  # evaluated and still won by the level's player
        lose = keep ^ wbit  # added to Z: won by the opponent
        sel = select(keep | dirty, lo, hi)
        stats.evaluations += len(sel)
        level_evaluations[li] += len(sel)
        if type(sel) is list:
            # every vertex is evaluated before any winner bit moves: snapshot semantics
            adds = []
            for v in sel:
                ow = own[v]
                choice = st[v]
                if choice < 0 or fl[choice] >> wshift != ow:
                    choice = -1
                    for u in succ[v]:
                        if fl[u] >> wshift == ow:
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
            stratvals, osbit = _eval_indices(
                indptr, targets, edge_owner, owner_bits, flags, strat, wshift, sel
            )
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
            if lo and freeze:
                # freeze first: the vertices the walk resets are won by the
                # opponent too, and must stay unfrozen
                stats.freezes += sweep(li, lo, lose)
                stats.reset_vertices += walk(adds, lo, alpha, lose)
            elif lo:
                # basic mode: every lower distraction is reset
                reset = np.flatnonzero(flags[:lo] >> wshift != parb[:lo])
                flags[reset] = parb[reset].astype(code) << wshift | dirty
                mark_predecessors(reset.tolist() if len(reset) <= _K else reset)
                stats.reset_vertices += len(reset)
            li = 0
        else:
            if lo and freeze:
                thaw(li, lo)
            li += 1
    return (flags >> wshift).astype(np.uint8), st


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

    freeze = opts.mode == "freezing"
    try:
        won, st = _dfi(sorted_game, deadline, stats, freeze)
    except SolveTimeoutError as exc:
        stats.wall_time_s = time.perf_counter() - t0
        exc.stats = stats
        raise
    stats.wall_time_s = time.perf_counter() - t0

    # the results in sorted order, scattered into the input's order
    win = np.empty(len(won), dtype=np.uint8)
    win[to_parent] = won
    choice = np.full(len(won), -1, dtype=np.int64)
    if freeze:
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
