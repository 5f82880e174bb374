"""Distraction-driven fixpoint solver for parity games.

Every vertex starts out estimated as won by the player of its own priority
parity.  A per-vertex flag set Z collects the vertices where that estimate
fails (the distractions): a vertex joins Z when its owner cannot reach an
estimated-winning successor in one step.  Levels are processed from the
lowest priority upward, and whenever a level gains distractions all lower
levels are recomputed.  The final winners are read off the flags.

The freezing mode additionally keeps, while a level's fixpoint is in
progress, all lower vertices currently won by the opposite parity out of
the recomputation.  Those frozen vertices keep the last successor choice
recorded for them, which is exactly what makes the recorded one-step
choices a correct winning strategy by the end of the run.

A pass evaluates the vertices of its level against the flags as they
stand when the pass starts: it collects the level's new distractions in a
list and sets their z bits only when the pass ends.  No flag moves during
a pass, so no copy of the flags is needed.

Engines: a scalar engine (plain Python, used for small games and whenever
instrumentation hooks are attached) and a vector engine (used for large
games).  The vector engine implements freezing mode, including strategy
tie-breaking on the first winning successor in stored order, and produces
the scalar engine's results, distractions and pass, addition, reset and
freeze counts.  Basic mode, the region-only reference of the algorithm,
runs on the scalar engine only.

The vector engine is a worklist over dirty vertices.  A vertex's one-step
result depends only on its successors' winner bits, so it is re-evaluated
only when it is dirty: every vertex starts dirty, a reset vertex becomes
dirty, and so does every predecessor of a vertex that is added to Z or
reset.  A pass evaluates the unfrozen, non-Z dirty vertices of its level and
clears their dirty bits; a pass that finds none costs a few numpy calls.
Frozen vertices keep their dirty bit until they are thawed.  A dirty set
of at most ``_K`` vertices is evaluated, and its additions' predecessors
marked, in a Python loop; a larger set goes through a numpy gather over the
CSR edge arrays and a reverse-CSR scatter.  Freezes, resets and thaws are
numpy sweeps over the levels below the current one.

Its state is one flags word and one int32 strategy slot per vertex, each
a Python ``array`` shared with a numpy view of the same memory.  A flags
word holds, from the top bit down, the z bit, the dirty bit and a freeze
field with the freezing level's index + 1 (0: not frozen); it is 8 bits
wide up to 63 levels, then 16, then 32.  A winner bit is read as
``parity ^ z``.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .game import (
    ParityGame,
    Player,
    Solution,
    SolveTimeoutError,
    SortPermutation,
    _positions,
    sort_by_priority,
)

# engine="auto" runs games of at most this many vertices on the scalar engine;
# at this size both engines take about the same time (seeded d=6 games)
_SCALAR_LIMIT = 750
# The vector engine evaluates a dirty set of at most this many vertices in a
# Python loop and a larger one with numpy; the same split decides how the
# predecessors of changed vertices are marked.
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
    # vertices evaluated; a per-engine work counter, since the vector engine
    # skips vertices whose successors' winner bits have not changed
    evaluations: int = 0
    wall_time_s: float = 0.0
    state_bytes: int = 0


class SolverHooks:
    """Instrumentation callbacks.

    Attaching hooks forces the scalar engine.  All vertex indices passed to
    callbacks refer to the priority-sorted order (see DfiOutcome.sorted_game).
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


@dataclass(frozen=True)
class DfiOutcome:
    """Solution plus run metadata, all in the caller's vertex order except
    sorted_game/permutation which expose the internal order for inspection."""

    solution: Solution
    stats: SolverStats
    distractions: frozenset[int]
    sorted_game: ParityGame
    permutation: SortPermutation


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


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveTimeoutError("solver deadline exceeded")


# ---------------------------------------------------------------- scalar


def _basic_scalar(game, hooks, deadline, stats) -> bytearray:
    n = game.n
    succ = game.successors
    par = game._parity_ints
    own = game._owner_ints
    z = bytearray(n)
    stats.state_bytes = n
    levels = game.levels
    li = 0
    while li < len(levels):
        _check_deadline(deadline)
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
            res = 1 - ow
            for u in succ[v]:
                if (par[u] ^ z[u]) == ow:
                    res = ow
                    break
            if res != alpha:
                adds.append(v)
                if hooks:
                    hooks.on_add(v, p)
        if adds:
            for v in adds:
                z[v] = 1
            stats.additions += len(adds)
            stats.resets += 1
            for w in range(lo):
                if z[w]:
                    z[w] = 0
                    if hooks:
                        hooks.on_reset(w, p)
            li = 0
        else:
            li += 1
    return z


def _freezing_scalar(game, hooks, deadline, stats):
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
        _check_deadline(deadline)
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


# ---------------------------------------------------------------- vector


def _flag_layout(levels: int) -> tuple[str, int]:
    """Typecode of the flags word and the shift of its z bit.

    Below the z bit sits the dirty bit, and below that a freeze field wide
    enough for the level index + 1.
    """
    if levels <= 63:
        return "B", 7
    if levels <= 16383:
        return "H", 15
    return "I", 31


def _eval_indices(indptr, targets, edge_owner, owner_bits, par, flags, zshift, gidx):
    """One-step evaluation of the vertices listed in ``gidx`` against the
    winner bits ``par ^ z`` read from ``flags``.

    Returns (first winning successor or -1, one-step winner bit), aligned
    with ``gidx``.
    """
    pos, bounds = _positions(indptr, gidx)
    tg = targets[pos]
    good = (par[tg] ^ (flags[tg] >> zshift)) == edge_owner[pos]
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


def _freezing_vector(game, deadline, stats):
    n = game.n
    succ = game.successors
    pred = game.predecessors
    par = game._parity_ints
    own = game._owner_ints
    parb = game._parity_bits
    owner_bits = game._owner_bits
    indptr, targets, edge_owner = game._csr
    rev_indptr, sources = game._reverse_csr
    levels = game.levels
    code, zshift = _flag_layout(len(levels))
    zbit = 1 << zshift
    dirty = zbit >> 1
    field = dirty - 1  # freeze field mask
    # Python arrays for per-vertex reads and writes, numpy views of the same
    # memory for sweeps
    fl = array(code, [dirty]) * n
    st = array("i", [-1]) * n
    flags = np.frombuffer(fl, dtype=code)
    strat = np.frombuffer(st, dtype=np.int32)
    stats.state_bytes = flags.nbytes + strat.nbytes

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

    frozen_at = [0] * len(levels)  # live frozen count per freezing level, to skip no-op thaws
    li = 0
    while li < len(levels):
        _check_deadline(deadline)
        stats.passes += 1
        p, lo, hi = levels[li]
        alpha = p & 1
        sel = (flags[lo:hi] == dirty).nonzero()[0]
        stats.evaluations += len(sel)
        if len(sel) <= _K:
            # every vertex is evaluated before any z bit moves: snapshot semantics
            adds = []
            for i in sel.tolist():
                v = lo + i
                ow = own[v]
                choice = -1
                for u in succ[v]:
                    if (par[u] ^ (fl[u] >> zshift)) == ow:
                        choice = u
                        break
                st[v] = choice
                fl[v] = 0
                if (ow if choice >= 0 else 1 - ow) != alpha:
                    adds.append(v)
            for v in adds:
                fl[v] = zbit
            mark_predecessors(adds)
            added = len(adds)
        else:
            gidx = sel + lo
            stratvals, osbit = _eval_indices(
                indptr, targets, edge_owner, owner_bits, parb, flags, zshift, gidx
            )
            strat[gidx] = stratvals
            flags[gidx] = 0
            add = gidx[osbit != alpha]
            flags[add] = zbit
            mark_predecessors(add)
            added = len(add)
        if added:
            stats.additions += added
            stats.resets += 1
            if lo:
                low = flags[:lo]
                unfrozen = (low & field) == 0
                opp_now = (parb[:lo] ^ (low >> zshift)) != alpha
                fr = unfrozen & opp_now
                nfr = int(np.count_nonzero(fr))
                if nfr:
                    np.bitwise_or(low, li + 1, out=low, where=fr)
                    stats.freezes += nfr
                    frozen_at[li] += nfr
                # reset: unfrozen Z vertices that the current level's player now wins
                rs = (unfrozen & ~opp_now & (low >= zbit)).nonzero()[0]
                low[rs] = dirty
                mark_predecessors(rs)
            li = 0
        else:
            if frozen_at[li]:
                low = flags[:lo]
                np.bitwise_and(low, zbit | dirty, out=low, where=(low & field) == li + 1)
                frozen_at[li] = 0
            li += 1
    z = (flags >> zshift).astype(np.uint8).tobytes()
    return z, st


# ---------------------------------------------------------------- driver


def _pick_engine(engine: str, game: ParityGame, options: SolverOptions, hooks) -> str:
    if engine not in ("auto", "scalar", "vector"):
        raise ValueError(f"unknown engine {engine!r}")
    if hooks is not None:
        if engine == "vector":
            raise ValueError("instrumentation hooks require the scalar engine")
        return "scalar"
    if options.mode == "basic":
        if engine == "vector":
            raise ValueError("basic mode requires the scalar engine")
        return "scalar"
    if engine == "auto":
        return "scalar" if game.n <= _SCALAR_LIMIT else "vector"
    return engine


def solve_detailed(
    game: ParityGame,
    options: SolverOptions | None = None,
    hooks: SolverHooks | None = None,
    *,
    engine: str = "auto",
) -> DfiOutcome:
    """Full solve with stats and the final distraction set.

    The input is sorted by priority internally when needed; all results are
    reported in the input's vertex order.
    """
    opts = options or SolverOptions()
    sorted_game, perm = sort_by_priority(game)
    eng = _pick_engine(engine, sorted_game, opts, hooks)
    stats = SolverStats()
    t0 = time.perf_counter()
    deadline = t0 + opts.timeout_s if opts.timeout_s is not None else None

    st = None
    if opts.mode == "basic":
        z = _basic_scalar(sorted_game, hooks, deadline, stats)
    elif eng == "scalar":
        z, st = _freezing_scalar(sorted_game, hooks, deadline, stats)
    else:
        z, st = _freezing_vector(sorted_game, deadline, stats)
    stats.wall_time_s = time.perf_counter() - t0

    par = sorted_game._parity_ints
    own = sorted_game._owner_ints
    n = sorted_game.n
    winner_int = [par[v] ^ (1 if z[v] else 0) for v in range(n)]
    if st is not None:
        strategy_int: list[int | None] = [
            (int(st[v]) if (own[v] == winner_int[v] and st[v] >= 0) else None) for v in range(n)
        ]
    else:
        strategy_int = [None] * n

    if perm.is_identity:
        winner = tuple(Player(w) for w in winner_int)
        strategy = tuple(strategy_int)
        distractions = frozenset(v for v in range(n) if z[v])
    else:
        fwd = perm.forward
        bwd = perm.backward
        winner = tuple(Player(winner_int[fwd[v]]) for v in range(n))
        strategy = tuple(
            (bwd[strategy_int[fwd[v]]] if strategy_int[fwd[v]] is not None else None)
            for v in range(n)
        )
        distractions = frozenset(bwd[v] for v in range(n) if z[v])
    return DfiOutcome(Solution(winner, strategy), stats, distractions, sorted_game, perm)


def solve(
    game: ParityGame,
    options: SolverOptions | None = None,
    hooks: SolverHooks | None = None,
    *,
    engine: str = "auto",
) -> Solution:
    """Solve with strategies (default) or regions only (mode=basic)."""
    return solve_detailed(game, options, hooks, engine=engine).solution


def solve_basic(
    game: ParityGame,
    hooks: SolverHooks | None = None,
    *,
    engine: str = "auto",
    timeout_s: float | None = None,
) -> Solution:
    """Region-only solve; strategies are all ``None``."""
    opts = SolverOptions(mode="basic", timeout_s=timeout_s)
    return solve_detailed(game, opts, hooks, engine=engine).solution
