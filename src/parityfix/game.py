"""Parity game data model.

A game is a finite directed graph in which every vertex carries a priority
and an owner, and every vertex has at least one outgoing edge.  Games are
immutable once constructed; transforms always build new objects.  Vertices
are dense indices 0..n-1.  The original (possibly sparse) identifiers from
an input file are kept per vertex so that results can be written back in
the caller's namespace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np


class Player(IntEnum):
    """The two players.  Integer values follow parity arithmetic."""

    EVEN = 0
    ODD = 1

    @property
    def opponent(self) -> "Player":
        return Player(1 - self.value)

    @classmethod
    def of_parity(cls, priority: int) -> "Player":
        """The player that likes seeing ``priority`` infinitely often."""
        return cls(priority & 1)


_PLAYER = {0: Player.EVEN, 1: Player.ODD}


class ValidationError(Exception):
    """A parity game invariant does not hold."""


class SolveTimeoutError(Exception):
    """A solver's cooperative deadline passed before it finished.

    ``stats`` holds the DFI solver's counters up to that point (a
    ``SolverStats``); the other solvers leave it ``None``.
    """

    stats = None


def _deadline(timeout_s: float | None, start: float) -> float | None:
    """The ``time.perf_counter`` reading after which a solver started at
    ``start`` with ``timeout_s`` seconds stops; ``None`` for no deadline.

    NaN and negative timeouts are rejected: NaN would never pass and a
    negative value would pass before the first check.
    """
    if timeout_s is None:
        return None
    if not timeout_s >= 0:
        raise ValueError(f"timeout_s must be a nonnegative number of seconds, got {timeout_s!r}")
    return start + timeout_s


def _check_deadline(deadline: float | None) -> None:
    """Raise ``SolveTimeoutError`` once a ``_deadline`` reading has passed."""
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveTimeoutError("solver deadline exceeded")


class SinkVertexError(ValidationError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no successors")


class DanglingEdgeError(ValidationError):
    def __init__(self, vertex: int, target: int, message: str | None = None):
        self.vertex = vertex
        self.target = target
        super().__init__(message or f"edge {vertex} -> {target!r} leaves the vertex range")


class DuplicateEdgeError(ValidationError):
    def __init__(self, vertex: int, target: int):
        self.vertex = vertex
        self.target = target
        super().__init__(f"duplicate edge {vertex} -> {target}")


def _positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of ``rows``, row after row, and the row bounds within them."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    bounds = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    pos = np.arange(bounds[-1], dtype=np.int64)
    pos += np.repeat(starts - bounds[:-1], counts)
    return pos, bounds


def _first_hits(good: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The index of each row's first true entry of ``good``, -1 for a row
    with none; row ``i`` is ``good[bounds[i]:bounds[i + 1]]``."""
    hits = np.flatnonzero(good)
    at = np.searchsorted(hits, bounds)
    has = at[:-1] < at[1:]
    first = np.full(len(bounds) - 1, -1, dtype=np.int64)
    first[has] = hits[at[:-1][has]]
    return first


def _group_by_target(
    n: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, sources) of the edges ``sources[i] -> targets[i]``, grouped
    by target, each target's sources ascending.

    The int64 keys ``target * n + source`` are sorted in place and the
    sources read back as ``key % n``.  That is the order of a stable argsort
    of the targets, which numpy runs as a slower timsort; and ``np.sort``,
    unlike ``np.argsort`` and ``np.unique``, runs code that the reader's
    duplicate check has already paged in.  As n < 2**31, keys stay < 2**62.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=indptr[1:])
    keys = targets.astype(np.int64)
    keys *= n
    keys += sources
    keys.sort()
    keys %= n
    return indptr, keys.astype(np.int32)


def _first_repeat(keys: np.ndarray) -> int:
    """The first index whose key equals an earlier index's key, or -1."""
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(later.min()) if len(later) else -1


def _repeated_edge(indptr: np.ndarray, targets: np.ndarray) -> int:
    """The first edge, in stored order, that repeats an earlier edge of its
    vertex, or -1; a plain sort tells whether there is one."""
    n = len(indptr) - 1
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + targets
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return -1
    return _first_repeat(keys)


def _vertex_array(
    values: Sequence[int] | np.ndarray, what: str, low: int, high: int, dtype: type = np.int64
) -> np.ndarray:
    """``values``, one per vertex, as a new ``dtype`` array, or
    ``ValueError`` naming the first entry that is not an integer in
    ``low..high-1``.  Every per-vertex input of a game or a solution is
    converted here."""
    a = np.asarray(values)
    if a.ndim == 1 and (
        not a.size or a.dtype.kind in "biu" and low <= int(a.min()) and int(a.max()) < high
    ):
        return a.astype(dtype)
    items = values.tolist() if isinstance(values, np.ndarray) else values
    for v, x in enumerate(items):
        if not (isinstance(x, (int, np.integer)) and low <= x < high):
            raise ValueError(f"{what} of vertex {v} is {x!r}, not in {low}..{high - 1}")
    return np.array([int(x) for x in items], dtype=dtype)  # e.g. int64 and uint64 mixed


class ParityGame:
    """Immutable indexed parity game, stored as arrays over its vertices.

    ``_store`` sets them all: ``_priority`` and ``_ids`` (the original ids)
    hold int64 values; ``_owner_bits`` and ``_parity_bits`` hold uint8 bits;
    ``_csr`` is (indptr int64, targets int32, the edge source's owner bit)
    with each successor list in stored order, which solvers use for
    deterministic tie-breaking; ``label`` is a tuple.  ``priority``,
    ``owner`` (of ``Player``), ``original_id``, ``successors`` and
    ``predecessors`` are tuple views of the arrays, built on first read.

    The constructor converts owners, priorities and original ids with
    ``_vertex_array``, the one conversion of per-vertex input, which the
    ``Solution`` constructor shares.  It refuses, with ``ValueError``,
    lengths that differ, an owner that is not 0 or 1 (a ``Player`` is one),
    a priority or original id that is not an integer in ``0..2**63-1``, an
    id that repeats, and a label that is neither a ``str`` nor ``None``.
    It raises the ``SinkVertexError`` or ``DanglingEdgeError`` (a target
    that is not an integer in ``0..n-1``) of the first such vertex, and then
    the ``DuplicateEdgeError`` of the first edge, in stored order, that
    repeats an earlier edge of its vertex.  So every game is valid: each
    vertex has a successor and each edge is stored once.  The reader builds
    games from checked arrays (``_from_csr``), and the sort and the
    reduction through ``_subgame``.
    """

    def __init__(
        self,
        priority: Sequence[int],
        owner: Sequence[Player | int],
        successors: Sequence[Sequence[int]],
        original_id: Sequence[int] | None = None,
        label: Sequence[str | None] | None = None,
    ):
        n = len(priority)
        if any(a is not None and len(a) != n for a in (owner, successors, original_id, label)):
            raise ValueError("priority, owner, successors, original_id and label differ in length")
        if n >= 2**31:
            raise ValueError("games this large are not supported")
        owner_bits = _vertex_array(owner, "owner", 0, 2, np.uint8)
        priority = _vertex_array(priority, "priority", 0, 2**63)
        ids = np.arange(n, dtype=np.int64)
        if original_id is not None:
            ids = _vertex_array(original_id, "original_id", 0, 2**63)
            if (v := _first_repeat(ids)) >= 0:
                first = np.flatnonzero(ids == ids[v])[0]
                raise ValueError(f"original_id of vertex {v} is {ids[v]}, the id of vertex {first}")
        for v, x in enumerate(() if label is None else label):
            if not (x is None or isinstance(x, str)):
                raise ValueError(f"label of vertex {v} is {x!r}, not a str or None")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, successors), dtype=np.int64, count=n), out=indptr[1:])
        flat = list(chain.from_iterable(successors))
        targets = np.asarray(flat)
        if targets.ndim == 1 and targets.dtype.kind in "biu":
            bad = (targets < 0) | (targets >= n)
        else:  # not all integers, or integers beyond int64: one by one
            bad = [not (isinstance(u, (int, np.integer)) and 0 <= u < n) for u in flat]
        bad = np.flatnonzero(bad)
        sinks = np.flatnonzero(indptr[1:] == indptr[:-1])
        if len(sinks) or len(bad):  # the first vertex that is a sink or has a bad target
            v = np.searchsorted(indptr, bad[0], side="right") - 1 if len(bad) else n
            if len(sinks) and sinks[0] < v:
                raise SinkVertexError(int(sinks[0]))
            u = flat[bad[0]]
            raise DanglingEdgeError(int(v), int(u) if isinstance(u, np.integer) else u)
        targets = targets.astype(np.int32)
        if (e := _repeated_edge(indptr, targets)) >= 0:
            v = int(np.searchsorted(indptr, e, side="right")) - 1
            raise DuplicateEdgeError(v, int(targets[e]))
        label = (None,) * n if label is None else label
        self._store(priority, owner_bits, indptr, targets, ids, label)

    @classmethod
    def _from_csr(cls, *arrays) -> "ParityGame":
        """The game of ``_store``'s arguments, checked by the caller: no sink,
        no target out of range, no repeated id or edge."""
        game = cls.__new__(cls)
        game._store(*arrays)
        return game

    def _store(
        self,
        priority: np.ndarray,
        owner: np.ndarray,
        indptr: np.ndarray,
        targets: np.ndarray,
        ids: np.ndarray,
        label: Sequence[str | None],
    ) -> None:
        """Set the arrays that hold the game, read-only; the one place that does."""
        self._priority = priority
        self._parity_bits = (self._priority & 1).astype(np.uint8)
        self._owner_bits = owner
        self._csr = indptr, targets, np.repeat(owner, np.diff(indptr))
        self._ids = ids
        self.label = tuple(label)
        for a in (self._priority, self._parity_bits, self._owner_bits, self._ids, *self._csr):
            a.flags.writeable = False

    @cached_property
    def priority(self) -> tuple[int, ...]:
        return tuple(self._priority.tolist())

    @cached_property
    def owner(self) -> tuple[Player, ...]:
        return tuple(map(_PLAYER.__getitem__, self._owner_bits.tolist()))

    @cached_property
    def original_id(self) -> tuple[int, ...]:
        return tuple(self._ids.tolist())

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Successor lists in stored order."""
        indptr, targets, _ = self._csr
        flat = targets.tolist()
        bounds = indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def n(self) -> int:
        return len(self._owner_bits)

    def __len__(self) -> int:
        return self.n

    @cached_property
    def max_priority(self) -> int:
        """Highest priority in the game; 0 for the empty game."""
        return int(self._priority.max()) if self.n else 0

    @property
    def edge_count(self) -> int:
        return len(self._csr[1])

    def has_self_loop(self, v: int) -> bool:
        indptr, targets, _ = self._csr
        return bool((targets[indptr[v] : indptr[v + 1]] == v).any())

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Reverse adjacency, built lazily and cached.

        Each vertex's predecessors come in ascending order, read off the
        reverse CSR.
        """
        rev_indptr, sources = self._reverse_csr
        src = sources.tolist()
        bounds = rev_indptr.tolist()
        return tuple(tuple(src[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def is_priority_sorted(self) -> bool:
        pr = self._priority
        return bool((pr[1:] >= pr[:-1]).all())

    @cached_property
    def _reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, edge sources) of the reverse edges, grouped by target,
        each target's sources ascending."""
        indptr, targets, _ = self._csr
        sources = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(indptr))
        return _group_by_target(self.n, sources, targets)

    @cached_property
    def levels(self) -> tuple[tuple[int, int, int], ...]:
        """(priority, lo, hi) ranges of equal priority; requires sorted order."""
        if not self.is_priority_sorted:
            raise ValueError("levels are only defined for priority-sorted games")
        pr = self._priority
        lo = np.flatnonzero(np.concatenate(([self.n > 0], pr[1:] != pr[:-1])))
        hi = np.append(lo[1:], self.n)
        return tuple(zip(pr[lo].tolist(), lo.tolist(), hi.tolist()))

    def __repr__(self) -> str:
        return f"ParityGame(n={self.n}, edges={self.edge_count}, d={self.max_priority})"


class Solution:
    """Winning regions and positional strategies for one game.

    A solution is stored as two read-only arrays over the vertices: ``win``
    (uint8) holds the ``Player`` value of each vertex's winner, and
    ``choice`` (int64) the chosen successor of a vertex owned by its
    winner, -1 elsewhere (and everywhere for region-only solvers).
    ``winner`` (a tuple of ``Player``) and ``strategy`` (a successor or
    ``None`` per vertex) are tuple views of them, built on first read.

    The constructor takes either form: arrays as stored, or sequences of
    players and of successors or ``None``, both converted by
    ``_vertex_array``, the game constructor's one conversion of per-vertex
    input, to the uint8 and int64 arrays.  It raises ``ValueError`` for a
    winner other than 0 or 1, a strategy target outside ``0..n-1`` (for an
    array, other than -1), a non-integer entry, or a strategy whose length
    differs from the winners'.  Solutions compare by value and are not
    hashable.
    """

    def __init__(
        self,
        winner: Sequence[Player | int] | np.ndarray,
        strategy: Sequence[int | None] | np.ndarray,
    ):
        win = _vertex_array(winner, "winner", 0, 2, np.uint8)
        n = len(win)
        if len(strategy) != n:
            raise ValueError(f"strategy has {len(strategy)} entries for {n} winners")
        if isinstance(strategy, np.ndarray):
            choice = _vertex_array(strategy, "strategy target", -1, n)
        else:
            targets = [0 if s is None else s for s in strategy]
            choice = _vertex_array(targets, "strategy target", 0, n)
            choice[np.array([s is None for s in strategy], dtype=bool)] = -1
        win.flags.writeable = choice.flags.writeable = False
        self.win = win
        self.choice = choice

    @cached_property
    def winner(self) -> tuple[Player, ...]:
        return tuple(map(_PLAYER.__getitem__, self.win.tolist()))

    @cached_property
    def strategy(self) -> tuple[int | None, ...]:
        return tuple(None if s < 0 else s for s in self.choice.tolist())

    def region(self, player: Player) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.win == player).tolist())

    @property
    def n(self) -> int:
        return len(self.win)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Solution):
            return NotImplemented
        return np.array_equal(self.win, other.win) and np.array_equal(self.choice, other.choice)

    def __repr__(self) -> str:
        return f"Solution(winner={self.winner!r}, strategy={self.strategy!r})"


@dataclass(frozen=True)
class GameStats:
    n: int
    edges: int
    max_priority: int
    distinct_priorities: int
    avg_outdegree: float


def _subgame(game: ParityGame, rows: np.ndarray) -> ParityGame:
    """The game on the parent vertices ``rows``, in that order.

    Each successor list keeps, in stored order, its edges into ``rows``,
    renumbered to the targets' places in ``rows``.  The caller makes sure
    that every row keeps an edge.  Every derived game (the sort and the
    reduction) is built here.
    """
    indptr, targets, _ = game._csr
    child_index = np.full(game.n, -1, dtype=np.int32)
    child_index[rows] = np.arange(len(rows), dtype=np.int32)
    pos, bounds = _positions(indptr, rows)
    tg = child_index[targets[pos]]
    kept = tg >= 0
    cut = np.zeros(len(pos) + 1, dtype=np.int64)
    np.cumsum(kept, out=cut[1:])
    return ParityGame._from_csr(
        game._priority[rows],
        game._owner_bits[rows],
        cut[bounds],
        tg[kept],
        game._ids[rows],
        list(map(game.label.__getitem__, rows.tolist())),
    )


def sort_by_priority(game: ParityGame) -> tuple[ParityGame, np.ndarray]:
    """Reorder the vertices so that priorities are nondecreasing (stable).

    Returns the sorted game and its ``to_parent`` map, a read-only int64
    array whose entry ``i`` is the input index of sorted vertex ``i``.  An
    already-sorted game is returned as it is, with ``np.arange(n)``.
    """
    if game.is_priority_sorted:
        to_parent = np.arange(game.n, dtype=np.int64)
        sorted_game = game
    else:
        to_parent = np.argsort(game._priority, kind="stable").astype(np.int64, copy=False)
        sorted_game = _subgame(game, to_parent)
    to_parent.flags.writeable = False
    return sorted_game, to_parent


def game_stats(game: ParityGame) -> GameStats:
    """Exact size counters used by the CLI and the bench harness."""
    n = game.n
    edges = game.edge_count
    return GameStats(
        n=n,
        edges=edges,
        max_priority=game.max_priority,
        distinct_priorities=len(set(game._priority.tolist())),
        avg_outdegree=(edges / n) if n else 0.0,
    )
