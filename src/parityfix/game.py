"""Parity game data model.

A game is a finite directed graph in which every vertex carries a priority
and an owner, and every vertex has at least one outgoing edge.  Games are
immutable once constructed; transforms always build new objects.  Vertices
are dense indices 0..n-1.  The original (possibly sparse) identifiers from
an input file are kept per vertex so that results can be written back in
the caller's namespace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

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


class SinkVertexError(ValidationError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no successors")


class DanglingEdgeError(ValidationError):
    def __init__(self, vertex: int, target: int, message: str | None = None):
        self.vertex = vertex
        self.target = target
        super().__init__(message or f"edge {vertex} -> {target} leaves the vertex range")


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


class ParityGame:
    """Immutable indexed parity game.

    ``priority``, ``owner``, ``successors``, ``original_id`` and ``label``
    are parallel tuples indexed by vertex.  Successor lists keep their
    construction order; solvers use that order for deterministic
    tie-breaking.  A game built by the constructor holds the successor
    tuples it was given and derives its CSR arrays (``_csr``) from them.
    The games that the reader, the sort and the preprocessing build come
    from CSR arrays, and their ``successors`` are a view of those arrays,
    built on first read.
    """

    def __init__(
        self,
        priority: Sequence[int],
        owner: Sequence[Player | int],
        successors: Sequence[Iterable[int]],
        original_id: Sequence[int] | None = None,
        label: Sequence[str | None] | None = None,
    ):
        n = len(priority)
        if len(owner) != n or len(successors) != n:
            raise ValueError("priority, owner and successors must have equal length")
        if original_id is not None and len(original_id) != n:
            raise ValueError("original_id length mismatch")
        if label is not None and len(label) != n:
            raise ValueError("label length mismatch")
        self.priority: tuple[int, ...] = tuple(map(int, priority))
        if min(self.priority, default=0) < 0:
            raise ValueError("priorities must be nonnegative")
        try:
            self.owner: tuple[Player, ...] = tuple(map(_PLAYER.__getitem__, owner))
        except (KeyError, TypeError):
            self.owner = tuple(Player(o) for o in owner)  # raises Player's ValueError
        self.successors: tuple[tuple[int, ...], ...] = tuple(
            tuple(map(int, succ)) for succ in successors
        )
        self.original_id: tuple[int, ...] = (
            tuple(map(int, original_id)) if original_id is not None else tuple(range(n))
        )
        self.label: tuple[str | None, ...] = tuple(label) if label is not None else (None,) * n

    @classmethod
    def _from_csr(
        cls,
        priority: np.ndarray,
        owner: np.ndarray,
        indptr: np.ndarray,
        targets: np.ndarray,
        original_id: Sequence[int],
        label: Sequence[str | None],
    ) -> "ParityGame":
        """The game of CSR arrays that ``_csr`` would accept: every row has a
        successor and every target is in range.  Duplicate edges are kept.

        ``priority`` holds int64 values (Python ints in an object array
        beyond that), ``owner`` bits (uint8), ``indptr`` int64 and
        ``targets`` int32 values; they become the ``_parity_bits``,
        ``_owner_bits`` and ``_csr`` caches.  No successor tuple is built
        until ``successors`` is read.
        """
        game = cls.__new__(cls)
        game.priority = tuple(priority.tolist())
        game.owner = tuple(map(_PLAYER.__getitem__, owner.tolist()))
        game.original_id = tuple(original_id)
        game.label = tuple(label)
        game._parity_bits = (priority & 1).astype(np.uint8)
        game._owner_bits = owner
        game._csr = indptr, targets, np.repeat(owner, np.diff(indptr))
        return game

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Successor lists in stored order; an array-built game reads them
        off its CSR on first use."""
        indptr, targets, _ = self._csr
        flat = targets.tolist()
        bounds = indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def n(self) -> int:
        return len(self.priority)

    def __len__(self) -> int:
        return self.n

    @cached_property
    def max_priority(self) -> int:
        """Highest priority in the game; 0 for the empty game."""
        return max(self.priority, default=0)

    @cached_property
    def edge_count(self) -> int:
        if "successors" in vars(self):
            return sum(map(len, self.successors))
        return len(self._csr[1])

    def has_self_loop(self, v: int) -> bool:
        return v in self.successors[v]

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Reverse adjacency, built lazily and cached.

        Each vertex's predecessors come in ascending order, read off the
        reverse CSR, whose stable sort keeps the sources of a target in
        edge order.
        """
        rev_indptr, sources = self._reverse_csr
        src = sources.tolist()
        bounds = rev_indptr.tolist()
        return tuple(tuple(src[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def is_priority_sorted(self) -> bool:
        pr = self.priority
        return all(pr[i] <= pr[i + 1] for i in range(len(pr) - 1))

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, targets, edge source owner bit) in CSR layout.

        Raises the ``SinkVertexError`` or ``DanglingEdgeError`` that
        ``validate`` meets first, so no array code reads past a vertex range.
        """
        n = self.n
        if n >= 2**31:
            raise ValueError("games this large are not supported")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, self.successors), dtype=np.int64, count=n), out=indptr[1:])
        try:
            with warnings.catch_warnings():
                # numpy 1.x wraps a target beyond 32 bits with this warning
                warnings.simplefilter("error", DeprecationWarning)
                targets = np.fromiter(
                    chain.from_iterable(self.successors), dtype=np.int32, count=int(indptr[-1])
                )
        except (OverflowError, DeprecationWarning):  # a target beyond 32 bits
            self._raise_malformed()
        counts = np.diff(indptr)
        # negative targets wrap to values of at least 2**31
        if n and (counts.min() == 0 or targets.view(np.uint32).max() >= n):
            self._raise_malformed()
        edge_owner = np.repeat(self._owner_bits, counts)
        return indptr, targets, edge_owner

    def _raise_malformed(self) -> None:
        """Raise the error of the first sink or dangling edge, as ``validate``
        would, but not the duplicate edges, which no solver minds."""
        for v, succ in enumerate(self.successors):
            if not succ:
                raise SinkVertexError(v)
            for u in succ:
                if not 0 <= u < self.n:
                    raise DanglingEdgeError(v, u)

    @cached_property
    def _reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, edge sources) of the reverse edges, grouped by target."""
        indptr, targets, _ = self._csr
        rev_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=self.n), out=rev_indptr[1:])
        sources = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(indptr))
        return rev_indptr, sources[np.argsort(targets, kind="stable")]

    @cached_property
    def _parity_bits(self) -> np.ndarray:
        return np.fromiter((p & 1 for p in self.priority), dtype=np.uint8, count=self.n)

    @cached_property
    def _owner_bits(self) -> np.ndarray:
        return np.fromiter(map(int, self.owner), dtype=np.uint8, count=self.n)

    @cached_property
    def levels(self) -> tuple[tuple[int, int, int], ...]:
        """(priority, lo, hi) ranges of equal priority; requires sorted order."""
        if not self.is_priority_sorted:
            raise ValueError("levels are only defined for priority-sorted games")
        out: list[tuple[int, int, int]] = []
        lo = 0
        for i in range(1, self.n + 1):
            if i == self.n or self.priority[i] != self.priority[lo]:
                out.append((self.priority[lo], lo, i))
                lo = i
        return tuple(out)

    def __repr__(self) -> str:
        return f"ParityGame(n={self.n}, edges={self.edge_count}, d={self.max_priority})"


@dataclass(frozen=True)
class SortPermutation:
    """Bijection between external vertex order and priority-sorted order."""

    forward: tuple[int, ...]  # external index -> internal index
    backward: tuple[int, ...]  # internal index -> external index

    @classmethod
    def identity(cls, n: int) -> "SortPermutation":
        ident = tuple(range(n))
        return cls(ident, ident)

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.forward))


def _vertex_array(
    values: Sequence[int] | np.ndarray, what: str, low: int, high: int, dtype: type = np.int64
) -> np.ndarray:
    """``values`` as a new ``dtype`` array, or ``ValueError`` naming the
    first entry that is not an integer in ``low..high-1``."""
    a = np.asarray(values)
    if a.ndim == 1 and (
        not a.size or a.dtype.kind in "biu" and low <= int(a.min()) and int(a.max()) < high
    ):
        return a.astype(dtype)
    for v, x in enumerate(values.tolist() if isinstance(values, np.ndarray) else values):
        if not (isinstance(x, (int, np.integer)) and low <= x < high):
            raise ValueError(f"{what} of vertex {v} is {x!r}, not in {low}..{high - 1}")
    raise ValueError(f"{what}s must be one integer per vertex")


class Solution:
    """Winning regions and positional strategies for one game.

    A solution is stored as two read-only arrays over the vertices: ``win``
    (uint8) holds the ``Player`` value of each vertex's winner, and
    ``choice`` (int64) the chosen successor of a vertex owned by its
    winner, -1 elsewhere (and everywhere for region-only solvers).
    ``winner`` (a tuple of ``Player``) and ``strategy`` (a successor or
    ``None`` per vertex) are tuple views of them, built on first read.

    The constructor takes either form: arrays as stored, or sequences of
    players and of successors or ``None``.  It raises ``ValueError`` for a
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


def validate(game: ParityGame) -> None:
    """Check the structural invariants; raise ValidationError on the first hit."""
    n = game.n
    for v, succ in enumerate(game.successors):
        if not succ:
            raise SinkVertexError(v)
        seen: set[int] = set()
        for u in succ:
            if u < 0 or u >= n:
                raise DanglingEdgeError(v, u)
            if u in seen:
                raise DuplicateEdgeError(v, u)
            seen.add(u)


def _priority_array(priority: Sequence[int]) -> np.ndarray:
    """``priority`` as int64 values, or as Python ints in an object array
    when one of them needs 64 bits or more."""
    return np.array(priority, dtype=np.int64 if max(priority, default=0) < 2**63 else object)


def sort_by_priority(game: ParityGame) -> tuple[ParityGame, SortPermutation]:
    """Reorder vertices so priorities are nondecreasing (stable).

    Returns the reordered game together with the permutation that connects
    the two vertex orders.  Already-sorted games are returned as-is with an
    identity permutation.
    """
    n = game.n
    if game.is_priority_sorted:
        return game, SortPermutation.identity(n)
    indptr, targets, _ = game._csr  # raises on a sink or a dangling edge
    priority = _priority_array(game.priority)
    backward = np.argsort(priority, kind="stable")
    forward = np.empty(n, dtype=np.int32)
    forward[backward] = np.arange(n, dtype=np.int32)
    pos, sorted_indptr = _positions(indptr, backward)
    order = backward.tolist()
    sorted_game = ParityGame._from_csr(
        priority[backward],
        game._owner_bits[backward],
        sorted_indptr,
        forward[targets[pos]],
        list(map(game.original_id.__getitem__, order)),
        list(map(game.label.__getitem__, order)),
    )
    return sorted_game, SortPermutation(tuple(forward.tolist()), tuple(order))


def game_stats(game: ParityGame) -> GameStats:
    """Exact size counters used by the CLI and the bench harness."""
    n = game.n
    edges = game.edge_count
    return GameStats(
        n=n,
        edges=edges,
        max_priority=game.max_priority,
        distinct_priorities=len(set(game.priority)),
        avg_outdegree=(edges / n) if n else 0.0,
    )
