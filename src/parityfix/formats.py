"""Reading and writing games and solutions in the PGSolver text format.

Game files: an optional ``parity <max-id>;`` header followed by one record
per vertex, ``<id> <priority> <owner> <succ>(,<succ>)* ("<label>")?;``.
Ids may be sparse and unordered; they are remapped to dense indices in
order of appearance and preserved as ``original_id``.

Solution files: an optional ``paritysol <max-id>;`` header followed by
``<id> <winner-bit>( <strategy-id>)?;`` per vertex.

Every number (id, priority, bit, max-id) is a run of ASCII digits
``[0-9]+`` whose value is below 2**63: numbers are int64 throughout, and a
larger one raises ``ParseError`` at its first digit.  The array reader
below reads runs of at most 18 digits, so a 19-digit number in range goes
through the line scanner.

Both ``\\n`` and ``\\r\\n`` line endings are accepted; output always uses
``\\n``.  The header's max-id is advisory only; the true vertex set comes
from the records.  An empty game serializes to an empty file since there
is no sensible max-id for it.

Game files are read by an array reader, from after an optional header on
the first non-blank line.  It reads the UTF-8 bytes of the text (a
``str`` is encoded once) as a ``uint8`` array, in blocks of at most
``_BLOCK`` bytes (64 KiB) cut at line ends, so its transient arrays stay
small; a line longer than a block is a block of its own.  In each block a 256-entry table classifies the bytes,
the span of each label (a line holds 0 or 2 double quotes) becomes one
token, every line must be blank (exactly ``[ \\t]*\\r?``; a form feed or a
second ``\\r`` is not blank) or a record ``N N [01] N (, N)* L? ;``, a
``\\r`` may only end a line, and digit runs of at most 18 digits become
int64 numbers.  Over the whole text, ids must be distinct, every target
must be declared and no row may repeat a target.  The reader then builds
the game straight from its CSR arrays; it decodes nothing but the labels.
Anything else (a late header, an owner written ``01``, a 19-digit number,
a non-ASCII digit, a label that is not UTF-8, any error) hands the whole
text to the line scanner, which decodes it and raises or builds the same
game through the constructor.  So every error, with its line, column and
message, and every ``UnicodeDecodeError`` comes from the line scanner.

Both formats share one line-record walk, ``_records``: it skips blank
lines, reads a header only on the first line that is not blank, and checks
that each record ends with ``;`` and nothing after it.  The game's line
scanner and ``parse_solution`` read only each record's fields.

Both writers read the game's arrays and write ``_CHUNK`` vertices at a
time, in ascending original id order, so their transient arrays stay
small.  A chunk's numbers go, in output order, through ``_digits``, which
writes them as ASCII digits into one ``uint8`` buffer and leaves after
each number a gap of as many bytes as the separator or line end that
follows it; the writer then fills the gaps by scatters.  The game writer
copies in the UTF-8 bytes of the labels, for the labelled vertices only.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

import numpy as np

from .game import (
    DanglingEdgeError,
    DuplicateEdgeError,
    ParityGame,
    Solution,
    _positions,
    _repeated_edge,
)

_INT = re.compile(r"[0-9]+")
_WORD = re.compile(r"[A-Za-z]+")
_INT_MAX = 2**63 - 1  # every number is an int64
_LABEL = re.compile(r'"([^"]*)"')

# The header, on the first non-blank line, ends where the array reader starts.
_HEADER = re.compile(rb"(?:[ \t]*\r?\n)*[ \t]*parity[ \t]*[0-9]{1,18}[ \t]*;[ \t]*\r?$", re.M)

_BLOCK = 1 << 16  # bytes per block of the array reader, cut at a line end
_CHUNK = 1 << 12  # vertices per chunk of the writers
_POW10 = 10 ** np.arange(19, dtype=np.int64)  # 10**0 .. 10**18, for digit counts

# Byte classes of the array reader, a translation table.  Spaces and
# carriage returns make no tokens; digits and labels (quotes included, once
# reclassified as _QUOTED) make one token per run; every other byte is a
# token of its own.
_SPACE, _CR, _DIGIT, _QUOTED, _COMMA, _SEMI, _NL, _QUOTE, _OTHER = range(9)
_CLASS = bytearray([_OTHER]) * 256
_CLASS[ord("0") : ord("9") + 1] = bytes([_DIGIT]) * 10
_CLASS[ord(" ")] = _CLASS[ord("\t")] = _SPACE
_CLASS[ord("\r")] = _CR
_CLASS[ord(",")] = _COMMA
_CLASS[ord(";")] = _SEMI
_CLASS[ord("\n")] = _NL
_CLASS[ord('"')] = _QUOTE
_CLASS = bytes(_CLASS)
_MAX_DIGITS = 18  # every number of this many digits fits in int64
# what the '0' bytes add to a number of k digits read as byte values
_ZEROS = np.array([ord("0") * (10**k - 1) // 9 for k in range(_MAX_DIGITS + 1)], dtype=np.int64)


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
    """Cursor over one physical line with 1-based column error reporting.

    ``number_at`` is where the last number taken starts, so that an error
    about its value points at its first digit.
    """

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0
        self.number_at = 0

    def fail(self, message: str):
        raise ParseError(self.lineno, self.pos + 1, message)

    def fail_number(self, message: str):
        raise ParseError(self.lineno, self.number_at + 1, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, pattern: re.Pattern, what: str) -> re.Match:
        """The match of ``pattern`` after any blanks, or the error ``expected <what>``."""
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m

    def take_int(self, what: str) -> int:
        m = self.take(_INT, what)
        value = int(m.group())
        self.number_at = m.start()
        if value > _INT_MAX:
            self.fail_number(f"{what} {value} is out of range (above {_INT_MAX})")
        return value

    def take_char(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected '{ch}'")
        self.pos += 1

    def take_label(self) -> str:
        return self.take(_LABEL, "quoted label").group(1)

    def take_word(self) -> str:
        return self.take(_WORD, "keyword").group()


def _records(text: str | bytes, keyword: str) -> Iterator[_LineScanner]:
    """A scanner on each record line of ``text``, the line walk of both formats.

    Blank lines are skipped.  A ``<keyword> <max-id>;`` header is read only
    on the first line that is not blank; any other word is an unexpected
    keyword.  The caller reads a record's fields; when it asks for the next
    record, the one before must end with ``;`` and nothing after it.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    first = True
    for lineno, line in enumerate(text.split("\n"), start=1):
        sc = _LineScanner(line[:-1] if line.endswith("\r") else line, lineno)
        if sc.at_end():
            continue
        if sc.peek().isalpha():
            word_pos = sc.pos
            if sc.take_word() != keyword or not first:
                sc.pos = word_pos
                sc.fail("unexpected keyword")
            sc.take_int("max vertex id")
            what = "header"
        else:
            yield sc
            what = "record"
        sc.take_char(";")
        if not sc.at_end():
            sc.fail(f"trailing characters after {what}")
        first = False


def parse_pgsolver(text: str | bytes) -> ParityGame:
    """Parse a game file, as text or as UTF-8 bytes, into a game without
    sinks, dangling or duplicate edges."""
    # a lone surrogate is encoded as it is, so the reader cannot decode it
    game = _read_arrays(text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text)
    return _scan_pgsolver(text) if game is None else game


def _read_arrays(raw: bytes) -> ParityGame | None:
    """The game of a text of well-formed lines only, or None for the line scanner."""
    header = _HEADER.match(raw)
    blocks = []
    records = 0
    start = header.end() if header else 0
    while start < len(raw):
        stop = len(raw)
        if start + _BLOCK < stop:
            stop = (
                raw.rfind(b"\n", start, start + _BLOCK) + 1
                or raw.find(b"\n", start + _BLOCK) + 1
                or stop
            )
        block = _read_block(raw[start:stop])
        if block is None:
            return None
        block[-2] += records  # labelled records, as indices into the game
        block[-1] += start  # label spans, as offsets into ``raw``
        records += len(block[0])
        blocks.append(block)
        start = stop
    if not blocks:
        return ParityGame([], [], [])
    ids, priority, owner, degree, succ, label_at, label_span = (
        np.concatenate(part) for part in zip(*blocks)
    )
    n = len(ids)
    if n >= 2**31:
        return None
    if np.array_equal(ids, np.arange(n)):
        if succ.max(initial=-1) >= n:
            return None
        targets = succ
    else:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        if (sorted_ids[1:] == sorted_ids[:-1]).any():
            return None
        at = np.searchsorted(sorted_ids, succ)
        np.minimum(at, n - 1, out=at)
        if (sorted_ids[at] != succ).any():
            return None
        targets = order[at]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    if _repeated_edge(indptr, targets) >= 0:
        return None
    label: list[str | None] = [None] * n
    try:
        for v, (a, b) in zip(label_at.tolist(), label_span.reshape(-1, 2).tolist()):
            label[v] = raw[a:b].decode()
    except UnicodeDecodeError:  # the line scanner raises it for the whole text
        return None
    return ParityGame._from_csr(
        priority, owner.astype(np.uint8), indptr, targets.astype(np.int32), ids, label
    )


def _read_block(block: bytes) -> list[np.ndarray] | None:
    """The records of a block of whole lines, or None when a line is not well-formed.

    Returns the records' ids, priorities, owners, degrees and successor ids,
    then the labelled records' indices within the block and the flat
    ``[start, stop)`` byte offsets of their labels within the block.
    """
    if not block.endswith(b"\n"):  # the end of the text ends the last line
        block += b"\n"
    data = np.frombuffer(block, dtype=np.uint8)
    cls = np.frombuffer(block.translate(_CLASS), dtype=np.uint8)
    size = len(cls)
    quotes = np.flatnonzero(cls == _QUOTE)
    if len(quotes):
        if len(quotes) & 1:
            return None
        line = np.searchsorted(np.flatnonzero(cls == _NL), quotes)
        open_line, close_line = line[0::2], line[1::2]
        if (open_line != close_line).any() or (open_line[1:] == close_line[:-1]).any():
            return None  # a label crosses a line end, or a line has more than two quotes
        span = np.zeros(size + 1, dtype=np.int32)
        span[quotes[0::2]] = 1
        span[quotes[1::2] + 1] = -1
        cls = np.where(np.cumsum(span[:-1]) > 0, np.uint8(_QUOTED), cls)
    cr = np.flatnonzero(cls == _CR)
    if len(cr) and (cls[cr + 1] != _NL).any():
        return None
    first = np.empty(size, dtype=bool)
    first[0] = True
    np.not_equal(cls[1:], cls[:-1], out=first[1:])
    first &= cls >= _DIGIT
    first |= cls >= _COMMA
    pos = np.flatnonzero(first)
    kind = cls[pos]
    # Lines: each ends with its newline token; ``width`` counts the others.
    ends = np.flatnonzero(kind == _NL)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    width = ends - starts
    record = width > 0
    labelled = record & (width >= 6) & (kind.take(ends - 2, mode="clip") == _QUOTED)
    last_succ = np.where(record, width - 2 - labelled, -1)  # index in the line
    if (record & ((width < 5) | (kind[ends - 1] != _SEMI) | (last_succ & 1 == 0))).any():
        return None
    # Up to the last successor a record line reads N N N N , N , N ...
    col = np.arange(len(kind)) - np.repeat(starts, width + 1)
    body = col <= np.repeat(last_succ, width + 1)
    comma = (col >= 4) & (col & 1 == 0)
    if (body & (kind != np.where(comma, np.uint8(_COMMA), np.uint8(_DIGIT)))).any():
        return None
    # Numbers, in digit token order: a record's id, priority, owner, successors.
    is_digit = cls == _DIGIT
    end = np.flatnonzero(is_digit[:-1] > is_digit[1:]) + 1
    length = end - pos[kind == _DIGIT]
    longest = length.max(initial=0)
    if longest > _MAX_DIGITS:
        return None
    number = np.zeros(len(end), dtype=np.int64)
    for j in range(longest, 0, -1):  # Horner, the numbers aligned at their last digit
        number *= 10
        number += data[end - j] * (length >= j)
    number -= _ZEROS[length]
    degree = (last_succ[record] - 1) // 2
    head = np.zeros(len(degree), dtype=np.int64)
    np.cumsum(degree[:-1] + 3, out=head[1:])
    owner = number[head + 2]
    if ((owner > 1) | (length[head + 2] != 1)).any():
        return None
    succ = np.ones(len(number), dtype=bool)
    succ[head] = succ[head + 1] = succ[head + 2] = False
    label_span = quotes.copy()  # every quote pair is a label now
    label_span[0::2] += 1
    return [
        number[head],
        number[head + 1],
        owner,
        degree,
        number[succ],
        np.flatnonzero(labelled[record]),
        label_span,
    ]


def _scan_pgsolver(text: str) -> ParityGame:
    """Parse line by line with exact error positions; a row with an undeclared
    or repeated target never reaches the constructor."""
    records: list[tuple[int, int, int, list[int], str | None]] = []
    index_of: dict[int, int] = {}
    for sc in _records(text, "parity"):
        vid = sc.take_int("vertex id")
        if vid in index_of:
            raise DuplicateVertexIdError(sc.lineno, sc.number_at + 1, vid)
        priority = sc.take_int("priority")
        owner = sc.take_int("owner bit")
        if owner not in (0, 1):
            sc.fail_number("owner bit must be 0 or 1")
        succ_ids = [sc.take_int("successor id")]
        while sc.peek() == ",":
            sc.take_char(",")
            succ_ids.append(sc.take_int("successor id"))
        label: str | None = None
        if sc.peek() == '"':
            label = sc.take_label()
        index_of[vid] = len(records)
        records.append((vid, priority, owner, succ_ids, label))

    ids, priorities, owners, _, labels = zip(*records) if records else ((),) * 5
    successors: list[list[int]] = []
    for vid, _, _, succ_ids, _ in records:
        row: list[int] = []
        seen: set[int] = set()
        for uid in succ_ids:
            if uid not in index_of:
                raise DanglingEdgeError(vid, uid, f"edge {vid} -> {uid} targets an undeclared vertex")
            u = index_of[uid]
            if u in seen:
                raise DuplicateEdgeError(vid, uid)
            seen.add(u)
            row.append(u)
        successors.append(row)
    return ParityGame(priorities, owners, successors, original_id=ids, label=labels)


def _by_id(game: ParityGame) -> np.ndarray:
    """The vertices in ascending original id order."""
    return np.argsort(game._ids, kind="stable")


def _digits(numbers: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write int64 ``numbers`` (each at least 0) as ASCII digits into a
    ``uint8`` buffer, each followed by ``gaps[i]`` bytes that the caller fills.

    Returns the buffer and the offsets where each number's digits end and
    its gap starts.  Each round writes the last digit still unwritten of
    every number with digits left, so there are at most 19.
    """
    width = np.searchsorted(_POW10, numbers, side="right")
    np.maximum(width, 1, out=width)  # 0 is written as one digit
    ends = np.cumsum(width + gaps)
    buf = np.empty(ends[-1], dtype=np.uint8)
    ends -= gaps
    at, rest = ends - 1, numbers
    while len(rest):
        high = rest // 10  # np.divmod is slower here
        digit = rest - high * 10
        digit += ord("0")
        buf[at] = digit
        more = high > 0
        at, rest = at[more] - 1, high[more]
    return buf, ends


def write_pgsolver(game: ParityGame) -> str:
    """Serialize a game, vertices in ascending original id order.

    A label holding a double quote or a line break has no PGSolver form, so
    it raises ``ValueError``, naming the first such vertex in id order.
    """
    if game.n == 0:
        return ""
    indptr, targets, _ = game._csr
    ids = game._ids
    order = _by_id(game)
    # bytes() of a list of bools is faster than np.array of it
    has_label = np.frombuffer(bytes([label is not None for label in game.label]), dtype=bool)
    out = [f"parity {ids.max()};\n"]
    for a in range(0, game.n, _CHUNK):
        vs = order[a : a + _CHUNK]
        labelled = np.flatnonzero(has_label[vs])
        texts = []
        for v in vs[labelled].tolist():
            label = game.label[v]
            if '"' in label or "\n" in label:
                raise ValueError(f"vertex {ids[v]}: label {label!r} cannot be written")
            texts.append(label.encode("utf-8", "surrogatepass"))
        # a line holds the id, priority and owner bit, then the successor ids
        edges, bounds = _positions(indptr, vs)
        line = 3 * np.arange(len(vs))
        first = bounds[:-1] + line
        last = bounds[1:] + line + 2
        numbers = np.empty(last[-1] + 1, dtype=np.int64)
        succ = np.ones(len(numbers), dtype=bool)
        for k, column in enumerate((ids, game._priority, game._owner_bits)):
            numbers[first + k] = column[vs]
            succ[first + k] = False
        numbers[succ] = ids[targets[edges]]
        size = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        gaps = np.ones(len(numbers), dtype=np.int64)
        gaps[last] = 2  # ";\n"
        gaps[last[labelled]] += size + 3  # ' "<label>"' before it
        buf, ends = _digits(numbers, gaps)
        buf[ends] = ord(",")
        for k in range(3):
            buf[ends[first + k]] = ord(" ")
        stop = ends[last] + gaps[last]
        buf[stop - 2] = ord(";")
        buf[stop - 1] = ord("\n")
        if texts:
            at = ends[last[labelled]]
            buf[at] = ord(" ")
            buf[at + 1] = ord('"')
            buf[at + 2 + size] = ord('"')
            blob = np.frombuffer(b"".join(texts), dtype=np.uint8)
            dest = np.arange(len(blob), dtype=np.int64)
            dest += np.repeat(at + 2 - (np.cumsum(size) - size), size)
            buf[dest] = blob
        out.append(str(buf, "utf-8", "surrogatepass"))
    return "".join(out)


def write_solution(game: ParityGame, sol: Solution) -> str:
    """Serialize winners and strategies, vertices in ascending original id order."""
    if game.n == 0:
        return ""
    if sol.n != game.n:
        raise ValueError("solution does not match the game")
    ids = game._ids
    order = _by_id(game)
    out = [f"paritysol {ids.max()};\n"]
    for a in range(0, game.n, _CHUNK):
        vs = order[a : a + _CHUNK]
        choice = sol.choice[vs]
        has = choice >= 0
        # a line holds the id and the winner bit, then the strategy's id if any
        last = np.cumsum(2 + has) - 1
        numbers = np.empty(last[-1] + 1, dtype=np.int64)
        numbers[last - has - 1] = ids[vs]
        numbers[last - has] = sol.win[vs]
        numbers[last[has]] = ids[choice[has]]
        gaps = np.ones(len(numbers), dtype=np.int64)
        gaps[last] = 2  # ";\n"
        buf, ends = _digits(numbers, gaps)
        buf[ends] = ord(" ")
        buf[ends[last]] = ord(";")
        buf[ends[last] + 1] = ord("\n")
        out.append(str(buf, "ascii"))
    return "".join(out)


def parse_solution(text: str | bytes, game: ParityGame) -> Solution:
    """Parse a solution file against a known game.

    Every vertex of the game must be assigned exactly once.
    """
    index_of = {oid: v for v, oid in enumerate(game._ids.tolist())}
    win = [-1] * game.n
    choice = [-1] * game.n
    for sc in _records(text, "paritysol"):
        vid = sc.take_int("vertex id")
        if vid not in index_of:
            sc.fail_number(f"unknown vertex id {vid}")
        v = index_of[vid]
        if win[v] >= 0:
            sc.fail_number(f"vertex id {vid} assigned twice")
        win[v] = sc.take_int("winner bit")
        if win[v] > 1:
            sc.fail_number("winner bit must be 0 or 1")
        if "0" <= sc.peek() <= "9":  # an ASCII digit; peek gives "" at the end
            sid = sc.take_int("strategy id")
            if sid not in index_of:
                sc.fail_number(f"unknown strategy target id {sid}")
            choice[v] = index_of[sid]
    if -1 in win:
        raise ParseError(0, 0, f"vertex id {game._ids[win.index(-1)]} has no assignment")
    return Solution(np.array(win, dtype=np.uint8), np.array(choice, dtype=np.int64))
