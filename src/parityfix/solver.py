"""Distraction-driven fixpoint solver for parity games.

Every vertex starts out estimated as won by the player of its own priority
parity.  A per-vertex flag set Z collects the vertices where that estimate
fails (the distractions): a vertex joins Z when its owner cannot reach an
estimated-winning successor in one step.  Levels are processed from the
lowest priority upward, and whenever a level gains distractions all lower
levels are recomputed.  The final winners are read off the flags.

The freezing mode differs from the basic mode in one step, the reset.
While a level's fixpoint is in progress, it keeps all lower vertices
currently won by the opposite parity out of the recomputation.  Those
frozen vertices keep the last successor choice recorded for them, which is
exactly what makes the recorded one-step choices a correct winning
strategy by the end of the run.  Basic mode freezes nothing and resets
every lower distraction, so it yields regions only.

A pass evaluates the vertices of its level against the flags as they
stand when the pass starts: it collects the level's new distractions in a
list and sets their z bits only when the pass ends.  No flag moves during
a pass, so no copy of the flags is needed.

Both modes run on one kernel, ``_dfi``, whose ``freeze`` switch chooses
the reset; strategy ties break on the first winning successor in stored
order.  It is a worklist over dirty vertices.  A vertex's one-step result
depends only on its successors' winner bits, so it is re-evaluated only
when it is dirty: every vertex starts dirty, a reset vertex becomes dirty,
and so does every predecessor of a vertex that is added to Z or reset.  A
pass evaluates the unfrozen, non-Z dirty vertices of its level and clears
their dirty bits.  Frozen vertices keep their dirty bit until they are
thawed.  A dirty set of at most ``_K`` vertices is evaluated, and its
additions' predecessors marked, in a Python loop; a larger set goes
through a numpy gather over the CSR edge arrays and a reverse-CSR
scatter.

Its state is one flags word and one int32 strategy slot per vertex.  A
flags word holds, from the top bit down, the estimated winner bit (parity
^ z), the dirty bit and a freeze field with the freezing level's index + 1
(0: not frozen).  The evaluators read winner bits straight off the words,
and so do the final winners; z is ``winner ^ parity``.  At a level of parity
alpha the vertices to evaluate are exactly those whose word equals
``alpha << top | dirty``: won by alpha (so not in Z), dirty and unfrozen.

Up to 63 levels (distinct priorities) the word is one
byte in a ``bytearray``, and selecting, freezing, resetting and thawing are
C-level byte operations over it (``_byte_helpers``): ``count`` and ``find``
list a level's vertices to evaluate; one ``translate`` per run of
same-parity lower levels freezes and resets them, with 256-byte tables
built once per solve; one ``translate`` thaws.  These cost a few
microseconds per pass over thousands of vertices, where numpy calls cost
that much each.  With more levels the word is 16 bits wide (32 above 16383
levels), which the byte operations cannot address, so the same pass loop
calls numpy sweeps instead (``_wide_helpers``); a second per-vertex byte
buffer would add to the state the solver keeps.  Both containers are
shared with a numpy view of the same memory for the large-set branches.
Basic mode uses only the selection of these helpers: on every layout its
reset is one numpy pass over the lower levels that sets each vertex whose
winner bit differs from its parity back to ``parity << top | dirty``.
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
    resets: int = 0
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


def _eval_indices(indptr, targets, edge_owner, owner_bits, flags, wshift, gidx):
    """One-step evaluation of the vertices listed in ``gidx`` against the
    winner bits read from ``flags``.

    Returns (first winning successor or -1, one-step winner bit), aligned
    with ``gidx``.
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
    osbit = np.where(has, ob, 1 - ob).astype(np.uint8)
    return stratvals, osbit


def _byte_helpers(fl, flags, levels):
    """Select, sweep and thaw on the one-byte flags word ``fl``, as byte
    operations (``count``, ``find``, ``translate``).

    ``select(want, lo, hi)`` lists the vertices of ``[lo, hi)`` whose word
    equals ``want``: a list of at most ``_K``, else an index array.
    ``sweep(li, lo, lose)`` freezes and resets ``[0, lo)`` after level
    ``li`` added distractions and returns the number of freezes; ``lose``
    is the word of an unfrozen vertex won by the opponent of the level's
    player, and each reset vertex is left as ``lose | dirty``.
    ``thaw(li, lo)`` unfreezes the vertices frozen by level ``li``.
    """
    dirty = 0x40
    codes = np.arange(256)
    free = (codes & 0x3F) == 0
    won = codes >> 7
    # one row of each table per level, built in one broadcast
    alphas = np.array([p & 1 for p, _, _ in levels], dtype=np.int64)[:, None]
    ids = np.arange(1, len(levels) + 1)[:, None]
    frozen = np.where(free & (won != alphas), codes | ids, codes)
    # at levels of the other parity a vertex won by the level's player is
    # in Z, and is reset
    reset = np.where(free & (won == alphas), (1 - alphas) << 7 | dirty, frozen)
    thawed = np.where((codes & 0x3F) == ids, codes & 0xC0, codes)
    frozen, reset, thawed = (t.astype(np.uint8) for t in (frozen, reset, thawed))
    sweeps = []  # per level index: (lo, hi, table) over runs of lower levels
    thaws = []
    for li, (p, _, _) in enumerate(levels):
        alpha = p & 1
        same = frozen[li].tobytes()
        other = reset[li].tobytes()
        runs = []
        for q, a, b in levels[:li]:
            tab = same if (q & 1) == alpha else other
            if runs and runs[-1][2] is tab:
                runs[-1] = (runs[-1][0], b, tab)
            else:
                runs.append((a, b, tab))
        sweeps.append(runs)
        thaws.append(thawed[li].tobytes())

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
        for a, b, tab in sweeps[li]:
            fl[a:b] = fl[a:b].translate(tab)
        return nfr

    def thaw(li, lo):
        fl[:lo] = fl[:lo].translate(thaws[li])

    return select, sweep, thaw


def _wide_helpers(flags, parb, wshift):
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
        unfrozen = (low & field) == 0
        opp_won = (low >> wshift) == (lose >> wshift)
        fr = unfrozen & opp_won
        nfr = int(np.count_nonzero(fr))
        np.bitwise_or(low, li + 1, out=low, where=fr)
        # reset: unfrozen Z vertices that the level's player now wins
        np.copyto(low, lose | dirty, where=unfrozen & ~opp_won & (parb[:lo] == lose >> wshift))
        return nfr

    def thaw(li, lo):
        low = flags[:lo]
        np.bitwise_and(low, wbit | dirty, out=low, where=(low & field) == li + 1)

    return select, sweep, thaw


def _dfi(game, deadline, stats, freeze):
    n = game.n
    succ = game.successors
    pred = game.predecessors
    own = game._owner_bits.tobytes()
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
        select, sweep, thaw = _wide_helpers(flags, parb, wshift)

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
            added = len(adds)
        else:
            stratvals, osbit = _eval_indices(
                indptr, targets, edge_owner, owner_bits, flags, wshift, sel
            )
            strat[sel] = stratvals
            flags[sel] = keep
            add = sel[osbit != alpha]
            flags[add] = lose
            mark_predecessors(add)
            added = len(add)
        if added:
            stats.additions += added
            level_additions[li] += added
            stats.resets += 1
            if lo and freeze:
                stats.freezes += sweep(li, lo, lose)
                mark_predecessors(select(lose | dirty, 0, lo))
            elif lo:
                # basic mode: every lower distraction is reset
                reset = np.flatnonzero(flags[:lo] >> wshift != parb[:lo])
                flags[reset] = parb[reset].astype(code) << wshift | dirty
                mark_predecessors(reset.tolist() if len(reset) <= _K else reset)
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
