"""Reading and writing games and solutions in the PGSolver text format.

Game files: an optional ``parity <max-id>;`` header followed by one record
per vertex, ``<id> <priority> <owner> <succ>(,<succ>)* ("<label>")?;``.
Ids may be sparse and unordered; they are remapped to dense indices in
order of appearance and preserved as ``original_id``.

Solution files: an optional ``paritysol <max-id>;`` header followed by
``<id> <winner-bit>( <strategy-id>)?;`` per vertex.

Both ``\\n`` and ``\\r\\n`` line endings are accepted; output always uses
``\\n``.  The header's max-id is advisory only; the true vertex set comes
from the records.  An empty game serializes to an empty file since there
is no sensible max-id for it.

Game files are read by one regex pass over the whole text, from after an
optional header on the first non-blank line.  The pass is accepted only
when the header, the record matches and the blank lines (exactly
``[ \\t]*\\r?``; a form feed or a second ``\\r`` is not blank) add up to
the number of lines, ids are distinct, every target is declared and no
row repeats a target.  Anything else (a late header, an owner written
``01``, a non-ASCII digit, any error) hands the whole text to the line
scanner, which builds the same game or raises.  So every error, with its
line, column and message, comes from the line scanner.
"""

from __future__ import annotations

import logging
import re

from .game import (
    DanglingEdgeError,
    DuplicateEdgeError,
    ParityGame,
    Player,
    Solution,
    ValidationError,
    validate,
)

log = logging.getLogger(__name__)

_INT = re.compile(r"\d+")
_LABEL = re.compile(r'"([^"]*)"')

# Whole-text patterns.  A record or a blank line never spans a line break.  A
# label keeps its quotes, so that an empty label is told apart from none.
_HEADER = re.compile(r"(?:[ \t]*\r?\n)*[ \t]*parity[ \t]*[0-9]+[ \t]*;[ \t]*\r?$", re.M)
_RECORD = re.compile(
    r"^[ \t]*([0-9]+)[ \t]+([0-9]+)[ \t]+([01])[ \t]+([0-9]+(?:[ \t]*,[ \t]*[0-9]+)*)"
    r'[ \t]*("[^"\n]*")?[ \t]*;[ \t]*\r?$',
    re.M,
)
_BLANK = re.compile(r"^[ \t]*\r?$", re.M)


class ParseError(Exception):
    """Input text does not match the grammar."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class DuplicateVertexIdError(ParseError):
    def __init__(self, line: int, column: int, vertex_id: int):
        self.vertex_id = vertex_id
        super().__init__(line, column, f"vertex id {vertex_id} declared twice")


class _LineScanner:
    """Cursor over one physical line with 1-based column error reporting."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def fail(self, message: str):
        raise ParseError(self.lineno, self.pos + 1, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self, what: str) -> int:
        self.skip_ws()
        m = _INT.match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return int(m.group())

    def take_char(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected '{ch}'")
        self.pos += 1

    def take_label(self) -> str:
        self.skip_ws()
        m = _LABEL.match(self.text, self.pos)
        if not m:
            self.fail("expected quoted label")
        self.pos = m.end()
        return m.group(1)

    def take_word(self) -> str:
        self.skip_ws()
        m = re.compile(r"[A-Za-z]+").match(self.text, self.pos)
        if not m:
            self.fail("expected keyword")
        self.pos = m.end()
        return m.group()


def _lines(text: str | bytes) -> list[str]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]


def parse_pgsolver(text: str | bytes, *, permissive: bool = False) -> ParityGame:
    """Parse a game file and validate the result.

    ``permissive`` downgrades duplicate successor entries to a dedup with a
    logged warning instead of an error.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    game = _parse_records(text)
    if game is not None:
        try:
            validate(game)
            return game
        except ValidationError:
            pass  # a dangling or repeated target; the scanner reports it in file ids
    return _scan_pgsolver(text, permissive=permissive)


def _parse_records(text: str) -> ParityGame | None:
    """The game of a text of well-formed lines only, or None for the line scanner.

    The caller still validates the result: a target beyond the last id of
    a text with ids ``0..n-1`` in order, or a repeated target, is left to
    ``validate``.
    """
    header = _HEADER.match(text)
    ids: list[str] = []
    priorities: list[str] = []
    owners: list[str] = []
    succ_texts: list[str] = []
    labels: list[str | None] = []
    for m in _RECORD.finditer(text, header.end() if header else 0):
        vid, priority, owner, succ, label = m.groups()
        ids.append(vid)
        priorities.append(priority)
        owners.append(owner)
        succ_texts.append(succ)
        labels.append(label)
    n = len(ids)
    blanks = sum(1 for _ in _BLANK.finditer(text))
    if n + blanks + (header is not None) != text.count("\n") + 1:
        return None
    original_id = list(map(int, ids))
    if original_id == list(range(n)):
        successors = [tuple(map(int, s.split(","))) for s in succ_texts]
    else:
        index_of = dict(zip(original_id, range(n)))
        if len(index_of) != n:
            return None
        try:
            successors = [
                tuple(map(index_of.__getitem__, map(int, s.split(",")))) for s in succ_texts
            ]
        except KeyError:
            return None
    return ParityGame(
        list(map(int, priorities)),
        list(map(int, owners)),
        successors,
        original_id=original_id,
        label=[label and label[1:-1] for label in labels],
    )


def _scan_pgsolver(text: str, *, permissive: bool = False) -> ParityGame:
    """Parse line by line with exact error positions, and validate the result."""
    records: list[tuple[int, int, int, list[int], str | None]] = []
    index_of: dict[int, int] = {}
    header_seen = False
    for lineno, raw in enumerate(_lines(text), start=1):
        sc = _LineScanner(raw, lineno)
        if sc.at_end():
            continue
        if sc.peek().isalpha():
            word_pos = sc.pos
            word = sc.take_word()
            if word != "parity" or header_seen or records:
                sc.pos = word_pos
                sc.fail("unexpected keyword")
            sc.take_int("max vertex id")
            sc.take_char(";")
            if not sc.at_end():
                sc.fail("trailing characters after header")
            header_seen = True
            continue
        vid = sc.take_int("vertex id")
        if vid in index_of:
            raise DuplicateVertexIdError(lineno, 1, vid)
        priority = sc.take_int("priority")
        owner = sc.take_int("owner bit")
        if owner not in (0, 1):
            sc.fail("owner bit must be 0 or 1")
        succ_ids = [sc.take_int("successor id")]
        while sc.peek() == ",":
            sc.take_char(",")
            succ_ids.append(sc.take_int("successor id"))
        label: str | None = None
        if sc.peek() == '"':
            label = sc.take_label()
        sc.take_char(";")
        if not sc.at_end():
            sc.fail("trailing characters after record")
        index_of[vid] = len(records)
        records.append((vid, priority, owner, succ_ids, label))

    n = len(records)
    priorities = [r[1] for r in records]
    owners = [r[2] for r in records]
    ids = [r[0] for r in records]
    labels = [r[4] for r in records]
    successors: list[list[int]] = []
    for vid, _, _, succ_ids, _ in records:
        row: list[int] = []
        seen: set[int] = set()
        for uid in succ_ids:
            if uid not in index_of:
                raise DanglingEdgeError(vid, uid, f"edge {vid} -> {uid} targets an undeclared vertex")
            u = index_of[uid]
            if u in seen:
                if permissive:
                    log.warning("dropping duplicate edge %d -> %d", vid, uid)
                    continue
                raise DuplicateEdgeError(vid, uid)
            seen.add(u)
            row.append(u)
        successors.append(row)
    game = ParityGame(priorities, owners, successors, original_id=ids, label=labels)
    validate(game)
    return game


def write_pgsolver(game: ParityGame) -> str:
    """Serialize a game, vertices in ascending original id order.

    A label holding a double quote or a line break has no PGSolver form, so
    it raises ``ValueError``.
    """
    if game.n == 0:
        return ""
    order = sorted(range(game.n), key=lambda v: game.original_id[v])
    out = [f"parity {max(game.original_id)};"]
    for v in order:
        succ = ",".join(str(game.original_id[u]) for u in game.successors[v])
        label = game.label[v]
        if label is not None and ('"' in label or "\n" in label):
            raise ValueError(f"vertex {game.original_id[v]}: label {label!r} cannot be written")
        lbl = f' "{label}"' if label is not None else ""
        out.append(f"{game.original_id[v]} {game.priority[v]} {int(game.owner[v])} {succ}{lbl};")
    return "\n".join(out) + "\n"


def write_solution(game: ParityGame, sol: Solution) -> str:
    """Serialize winners and strategies, vertices in ascending original id order."""
    if game.n == 0:
        return ""
    if sol.n != game.n:
        raise ValueError("solution does not match the game")
    order = sorted(range(game.n), key=lambda v: game.original_id[v])
    out = [f"paritysol {max(game.original_id)};"]
    for v in order:
        s = sol.strategy[v]
        tail = f" {game.original_id[s]}" if s is not None else ""
        out.append(f"{game.original_id[v]} {int(sol.winner[v])}{tail};")
    return "\n".join(out) + "\n"


def parse_solution(text: str | bytes, game: ParityGame) -> Solution:
    """Parse a solution file against a known game.

    Every vertex of the game must be assigned exactly once.
    """
    index_of = {oid: v for v, oid in enumerate(game.original_id)}
    winner: list[Player | None] = [None] * game.n
    strategy: list[int | None] = [None] * game.n
    header_seen = False
    records = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        sc = _LineScanner(raw, lineno)
        if sc.at_end():
            continue
        if sc.peek().isalpha():
            word_pos = sc.pos
            word = sc.take_word()
            if word != "paritysol" or header_seen or records:
                sc.pos = word_pos
                sc.fail("unexpected keyword")
            sc.take_int("max vertex id")
            sc.take_char(";")
            if not sc.at_end():
                sc.fail("trailing characters after header")
            header_seen = True
            continue
        vid = sc.take_int("vertex id")
        if vid not in index_of:
            sc.fail(f"unknown vertex id {vid}")
        v = index_of[vid]
        if winner[v] is not None:
            sc.fail(f"vertex id {vid} assigned twice")
        bit = sc.take_int("winner bit")
        if bit not in (0, 1):
            sc.fail("winner bit must be 0 or 1")
        winner[v] = Player(bit)
        if sc.peek().isdigit():
            sid = sc.take_int("strategy id")
            if sid not in index_of:
                sc.fail(f"unknown strategy target id {sid}")
            strategy[v] = index_of[sid]
        sc.take_char(";")
        if not sc.at_end():
            sc.fail("trailing characters after record")
        records += 1
    for v, w in enumerate(winner):
        if w is None:
            raise ParseError(0, 0, f"vertex id {game.original_id[v]} has no assignment")
    return Solution(tuple(winner), tuple(strategy))  # type: ignore[arg-type]
