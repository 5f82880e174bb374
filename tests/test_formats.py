from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parityfix as pf
from parityfix import formats

from _oracles import reference_write_pgsolver, reference_write_solution
from conftest import DATA, build_g1, build_g2, seeded_game


def games_equal(a: pf.ParityGame, b: pf.ParityGame) -> bool:
    return (
        a.priority == b.priority
        and a.owner == b.owner
        and a.successors == b.successors
        and a.original_id == b.original_id
        and a.label == b.label
    )


class TestParseGame:
    def test_g1_text(self):
        game = pf.parse_pgsolver("parity 1;\n0 1 0 0,1;\n1 2 0 0;")
        assert games_equal(game, build_g1())

    def test_checked_in_fixtures(self):
        assert games_equal(pf.parse_pgsolver((DATA / "g1.pg").read_text()), build_g1())
        assert games_equal(pf.parse_pgsolver((DATA / "g2.pg").read_text()), build_g2())

    def test_label_and_owner(self):
        game = pf.parse_pgsolver('0 2 1 0 "loop";')
        assert game.n == 1
        assert game.priority == (2,)
        assert game.owner == (pf.Player.ODD,)
        assert game.successors == ((0,),)
        assert game.label == ("loop",)

    def test_dangling_target(self):
        with pytest.raises(pf.DanglingEdgeError) as err:
            pf.parse_pgsolver("0 1 0 5;")
        assert (err.value.vertex, err.value.target) == (0, 5)

    def test_sparse_unordered_ids(self):
        game = pf.parse_pgsolver("7 1 0 3;\n3 0 1 7,3;")
        assert game.original_id == (7, 3)
        assert game.successors == ((1,), (0, 1))

    def test_duplicate_vertex_id(self):
        with pytest.raises(pf.DuplicateVertexIdError):
            pf.parse_pgsolver("0 1 0 0;\n0 2 0 0;")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(pf.DuplicateEdgeError):
            pf.parse_pgsolver("0 1 0 0,0;")

    def test_syntax_error_reports_position(self):
        with pytest.raises(pf.ParseError) as err:
            pf.parse_pgsolver("0 1 0 0,1;\n1 2 x 0;")
        assert err.value.line == 2
        assert err.value.column > 0

    def test_missing_semicolon(self):
        with pytest.raises(pf.ParseError):
            pf.parse_pgsolver("0 1 0 0")

    def test_owner_bit_range(self):
        with pytest.raises(pf.ParseError):
            pf.parse_pgsolver("0 1 2 0;")

    def test_crlf_accepted(self):
        game = pf.parse_pgsolver("parity 1;\r\n0 1 0 0,1;\r\n1 2 0 0;\r\n")
        assert games_equal(game, build_g1())

    def test_bytes_accepted(self):
        game = pf.parse_pgsolver(b"0 0 0 0;")
        assert game.n == 1

    def test_header_is_advisory(self):
        game = pf.parse_pgsolver("parity 99;\n0 1 0 0;")
        assert game.n == 1

    def test_whitespace_insensitive(self):
        game = pf.parse_pgsolver("  0   1  0   0 , 1 ;\n1 2 0 0;")
        assert games_equal(game, build_g1())

    def test_empty_input_is_empty_game(self):
        assert pf.parse_pgsolver("").n == 0

    def test_empty_label_is_not_no_label(self):
        assert pf.parse_pgsolver('0 2 1 0 "";').label == ("",)

    @pytest.mark.parametrize(
        "text, column, what",
        [
            (f"0 {2**63} 0 0;\n", 3, "priority"),
            (f"{2**63} 1 0 {2**63};\n", 1, "vertex id"),
            (f"0 1 0 0,{2**64};\n", 9, "successor id"),
            (f"0 1 {2**70} 0;\n", 5, "owner bit"),
            (f"parity {2**63};\n0 1 0 0;\n", 8, "max vertex id"),
        ],
    )
    def test_numbers_beyond_int64(self, text, column, what):
        # such numbers reached the constructor, which kept them in object arrays
        with pytest.raises(pf.ParseError, match=f"^line 1, column {column}: {what} .* out of range"):
            pf.parse_pgsolver(text)

    def test_int64_max_goes_through_line_scanner(self):
        top = 2**63 - 1
        text = f"parity {top};\n{top} {top} 0 {top};\n"
        assert _read(text) is None
        game = pf.parse_pgsolver(text)
        assert game.priority == (top,) and game.original_id == (top,)
        assert game._priority.dtype == game._ids.dtype == np.int64

    @pytest.mark.parametrize("digit", ["\u0661", "\u0967", "\uff11", "\u00b9"])
    def test_digits_are_ascii(self, digit):
        # Arabic-Indic and other Unicode digits were read as numbers
        with pytest.raises(pf.ParseError, match="^line 1, column 3: expected priority$"):
            pf.parse_pgsolver(f"0 {digit} 0 0;\n")


_WS = st.sampled_from(["", " ", "\t", " \t", "  "])
_SEP = st.sampled_from([" ", "\t", "  ", "\t "])
_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_MUTATIONS = (
    "cr", "cr_eol", "ff", "nl", "owner2", "owner01", "dup_id", "dangling", "dup_edge", "late_header"
)


@st.composite
def pgsolver_texts(draw, mutate: bool = False) -> str:
    """Game texts in varied layouts; with ``mutate``, one defect or oddity added."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        ids = list(range(n))
    else:
        ids = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))

    def num(k: int) -> str:
        return draw(st.sampled_from(["", "0"])) + str(k)

    records = []
    for vid in ids:
        succ = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
        label = draw(
            st.none()
            | st.just("")
            | st.text(st.characters(codec="utf-8", exclude_characters='"\n'), max_size=5)
        )
        priority = num(draw(st.integers(0, 20)))
        owner = str(draw(st.integers(0, 1)))
        records.append([num(vid), priority, owner, list(map(num, succ)), label])
    kind = draw(st.sampled_from(_MUTATIONS)) if mutate else None
    if records:
        i = draw(st.integers(0, len(records) - 1))
        if kind == "owner2":
            records[i][2] = "2"
        elif kind == "owner01":
            records[i][2] = "01"
        elif kind == "dup_id":
            copy = [records[i][0], "0", "1", records[i][3], None]
            records.insert(draw(st.integers(0, len(records))), copy)
        elif kind == "dangling":
            records[i][3].append(str(max(ids) + 1))
        elif kind == "dup_edge":
            records[i][3].append(records[i][3][-1])

    def header() -> str:
        return f"{draw(_WS)}parity{draw(_WS)}{draw(st.integers(0, 99))}{draw(_WS)};{draw(_WS)}"

    lines = draw(st.lists(_BLANK, max_size=2))
    if draw(st.booleans()):
        lines.append(header())
    late = draw(st.integers(0, len(records)))
    for k, (vid, priority, owner, succ, label) in enumerate(records):
        if kind == "late_header" and k == late:
            lines.append(header())
        succ_text = succ[0] + "".join(f"{draw(_WS)},{draw(_WS)}{u}" for u in succ[1:])
        label_text = "" if label is None else f'{draw(_WS)}"{label}"'
        lines.append(
            f"{draw(_WS)}{vid}{draw(_SEP)}{priority}{draw(_SEP)}{owner}{draw(_SEP)}"
            f"{succ_text}{label_text}{draw(_WS)};{draw(_WS)}"
        )
        lines.extend(draw(st.lists(_BLANK, max_size=1)))
    if kind == "late_header" and late == len(records):
        lines.append(header())
    if kind == "cr_eol" and lines:
        lines[draw(st.integers(0, len(lines) - 1))] += "\r"
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if kind in ("cr", "ff", "nl"):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + {"cr": "\r", "ff": "\x0c", "nl": "\n"}[kind] + text[at:]
    return text


def _outcome(parse, text: str):
    try:
        return parse(text)
    except (pf.ParseError, pf.ValidationError) as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "column", None), str(exc)


def _check_outcome(text: str, data: str | bytes | None = None) -> None:
    """``parse_pgsolver`` of ``data`` (by default ``text``) gives the line
    scanner's game or error for ``text``."""
    want = _outcome(formats._scan_pgsolver, text)
    got = _outcome(pf.parse_pgsolver, text if data is None else data)
    if isinstance(want, pf.ParityGame):
        assert isinstance(got, pf.ParityGame) and games_equal(got, want)
    else:
        assert got == want


def _csr_equal(a: pf.ParityGame, b: pf.ParityGame) -> bool:
    return all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip((*a._csr, a._owner_bits), (*b._csr, b._owner_bits))
    )


def _read(text: str) -> pf.ParityGame | None:
    """The array reader on ``text`` as ``parse_pgsolver`` encodes it."""
    return formats._read_arrays(text.encode("utf-8", "surrogatepass"))


def _block_sizes():
    """The reader's block size, then 16 bytes, so most lines are cut into blocks of their own."""
    for block in (formats._BLOCK, 16):
        with mock.patch.object(formats, "_BLOCK", block):
            yield block


class TestWholeTextReader:
    """The array reader against the line scanner it falls back to."""

    @settings(max_examples=300, deadline=None)
    @given(pgsolver_texts())
    def test_same_game_as_line_scanner(self, text):
        want = formats._scan_pgsolver(text)
        for _ in _block_sizes():
            fast = _read(text)
            assert fast is not None
            assert games_equal(fast, want) and _csr_equal(fast, want)
            assert games_equal(pf.parse_pgsolver(text), want)

    @settings(max_examples=400, deadline=None)
    @given(pgsolver_texts(mutate=True))
    def test_same_outcome_as_line_scanner(self, text):
        for _ in _block_sizes():
            _check_outcome(text)
            _check_outcome(text, text.encode())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    def test_seeded_arrays_match_constructor(self, seed, sparse):
        game = seeded_game(seed, max_n=200)
        if sparse:  # ids with gaps, written in another order than the vertices
            ids = [7 * v + 3 for v in range(game.n)]
            ids.reverse()
            game = pf.ParityGame(game.priority, game.owner, game.successors, original_id=ids)
        parsed = pf.parse_pgsolver(pf.write_pgsolver(game))
        assert "_csr" in vars(parsed) and "_owner_bits" in vars(parsed)
        rebuilt = pf.ParityGame(
            parsed.priority, parsed.owner, parsed.successors, parsed.original_id, parsed.label
        )
        assert _csr_equal(parsed, rebuilt)

    @pytest.mark.parametrize(
        "text, read",
        [
            ("1234567890123456789 0 0 1234567890123456789;", False),
            ("parity 1234567890123456789;\n0 0 0 0;", False),
            ("123456789012345678 0 0 123456789012345678;", True),
            (f"0 0 0 {2**40};", False),
            ("0 0 0 0;\r", True),
            ("0 0 0 0;\n1 1 1 0,1;", True),
            ("", True),
            (" \n\t\r\n\n", True),
            ("parity 3;", True),
            ("\nparity 3;\r\n", True),
            ("0 0 0 0;\r\r\n", False),
            ('0 0 0 0 "a"; "b"\n', False),
            ('0 0 0 0 "a""b";', False),
            ('0 0 0 0 "a;\n1 0 0 0 b";', False),
            ('0 0 0 0 "\ud800";', False),
        ],
    )
    def test_edge_texts(self, text, read):
        # ``read``: the array reader takes the text rather than the scanner
        for _ in _block_sizes():
            assert (_read(text) is not None) is read
            _check_outcome(text)

    def test_invalid_utf8_raises(self):
        # inside a label the reader decodes it, elsewhere the line scanner;
        # either way the error is the whole text's
        for data in (
            b'0 0 0 0 "\xff";',
            b'0 0 0 0 "ok";\n1 0 0 1 "caf\xc3";\n',
            b"0 0 0 0;\n1 \xff 0 1;\n",
            b"\xfe0 0 0 0;",
            b'0 0 0 0; "\xff"\n',
        ):
            with pytest.raises(UnicodeDecodeError) as want:
                data.decode("utf-8")
            for _ in _block_sizes():
                with pytest.raises(UnicodeDecodeError) as got:
                    pf.parse_pgsolver(data)
                assert got.value.args == want.value.args
        # a label that is not UTF-8 sends the text to the line scanner
        assert formats._read_arrays(b'0 0 0 0 "\xff";') is None


class TestWriteGame:
    def test_roundtrip_normalizes_then_stabilizes(self):
        text = "3 0 1 0;\n0 1 0 3,0;"
        once = pf.write_pgsolver(pf.parse_pgsolver(text))
        twice = pf.write_pgsolver(pf.parse_pgsolver(once))
        assert once == twice
        assert games_equal(pf.parse_pgsolver(once), pf.parse_pgsolver(twice))

    def test_empty_game_writes_empty(self):
        assert pf.write_pgsolver(pf.ParityGame([], [], [])) == ""

    def test_labels_preserved(self):
        text = '0 2 1 0 "loop";'
        game = pf.parse_pgsolver(text)
        assert pf.parse_pgsolver(pf.write_pgsolver(game)).label == ("loop",)

    @pytest.mark.parametrize("label", ['a"b', "a\nb", '"'])
    def test_unwritable_label_rejected(self, label):
        # the reader would reject the text, so the writer refuses to make it
        game = pf.ParityGame([0, 1], [0, 1], [[1], [0]], original_id=[4, 7], label=[None, label])
        with pytest.raises(ValueError, match="vertex 7"):
            pf.write_pgsolver(game)

    def test_other_labels_roundtrip(self):
        labels = ["", "a\rb", "x;y", "\t", "é", "a'b"]
        game = pf.ParityGame([0] * 6, [0] * 6, [[v] for v in range(6)], label=labels)
        assert pf.parse_pgsolver(pf.write_pgsolver(game)).label == tuple(labels)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_generator_output_roundtrips(self, seed):
        game = seeded_game(seed)
        text = pf.write_pgsolver(game)
        again = pf.parse_pgsolver(text)
        assert games_equal(again, game)


# ids whose digit count changes, and the largest int64
_EDGE_IDS = [0, 9, 10, 99, 100, 10**18 - 1, 10**18, 2**63 - 1]
_REFUSED_LABELS = ['a"b', "a\nb", '"', "\n"]


@st.composite
def written_games(draw, refused: bool = False):
    """A seeded game with sparse, unordered ids and labels (among them, if
    ``refused``, ones that cannot be written), and a solution in which some
    vertices have a strategy and some do not."""
    game = seeded_game(draw(st.integers(0, 10**9)), max_n=60)
    n = game.n
    ids = draw(
        st.lists(
            st.sampled_from(_EDGE_IDS) | st.integers(0, 2**63 - 1),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    label = st.sampled_from(["", "café", "x;y", "a\rb", "\t", "\ud800", "\U0001f600"])
    label |= st.text(st.characters(exclude_characters='"\n'), max_size=5)
    if refused:
        label |= st.sampled_from(_REFUSED_LABELS)
    labels = draw(st.lists(st.none() | label, min_size=n, max_size=n))
    game = pf.ParityGame(game.priority, game.owner, game.successors, ids, labels)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sol = pf.Solution(rng.integers(0, 2, n), rng.integers(-1, n, n))
    return game, sol


def _written(write, *args):
    try:
        return write(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _chunk_sizes():
    """The writers' chunk size, then 7 vertices, so most games span chunks."""
    for chunk in (formats._CHUNK, 7):
        with mock.patch.object(formats, "_CHUNK", chunk):
            yield chunk


class TestWritersMatchReference:
    """The array writers give the bytes of the per-line f-string writers."""

    def _check(self, game: pf.ParityGame, sol: pf.Solution) -> None:
        for _ in _chunk_sizes():
            want = _written(reference_write_pgsolver, game)
            assert _written(pf.write_pgsolver, game) == want
            assert _written(pf.write_solution, game, sol) == reference_write_solution(game, sol)

    @settings(max_examples=150, deadline=None)
    @given(written_games())
    def test_seeded_games(self, case):
        self._check(*case)

    @settings(max_examples=80, deadline=None)
    @given(written_games(refused=True))
    def test_refused_labels(self, case):
        # the same ValueError, naming the first refused vertex in id order
        self._check(*case)

    @pytest.mark.parametrize("label", [None, "", "café", *_REFUSED_LABELS])
    @pytest.mark.parametrize("vid", _EDGE_IDS)
    def test_one_vertex(self, vid, label):
        game = pf.ParityGame([vid], [1], [[0]], original_id=[vid], label=[label])
        for strategy in ([None], [0]):
            self._check(game, pf.Solution([1], strategy))

    def test_empty_game(self):
        self._check(pf.ParityGame([], [], []), pf.Solution((), ()))

    def test_solution_of_wrong_size(self, g1):
        sol = pf.Solution([0], [None])
        with pytest.raises(ValueError, match="^solution does not match the game$"):
            pf.write_solution(g1, sol)
        assert _written(pf.write_solution, g1, sol) == _written(reference_write_solution, g1, sol)

    def test_generated_game_spans_chunks(self):
        params = pf.GenParams(n=3 * formats._CHUNK + 5, max_priority=8, seed=5)
        game = pf.random_game(params)
        n = game.n
        ids = 2**63 - 1 - 7919 * np.arange(n, dtype=np.int64)  # descending, 19 digits
        labels = [None if v % 5 else f"v{v}" for v in range(n)]
        labelled = pf.ParityGame(game.priority, game.owner, game.successors, ids, labels)
        sol = pf.solve(labelled)
        self._check(labelled, sol)
        # refused labels in two chunks: the vertex stored first has the
        # larger id, so the other one is named
        labels[10], labels[n - 10] = "a\nb", 'a"b'
        refused = pf.ParityGame(game.priority, game.owner, game.successors, ids, labels)
        with pytest.raises(ValueError, match=f"^vertex {ids[n - 10]}: "):
            pf.write_pgsolver(refused)
        self._check(refused, pf.Solution(sol.win, np.full(n, -1)))


class TestSolutionFormat:
    def test_g1_solution_text(self, g1):
        sol = pf.solve(g1)
        assert pf.write_solution(g1, sol) == "paritysol 1;\n0 0 1;\n1 0 0;\n"

    def test_empty_solution(self):
        empty = pf.ParityGame([], [], [])
        assert pf.write_solution(empty, pf.Solution((), ())) == ""

    def test_single_odd_self_loop(self):
        game = pf.ParityGame([1], [1], [[0]])
        sol = pf.solve(game)
        assert pf.write_solution(game, sol) == "paritysol 0;\n0 1 0;\n"

    def test_strategy_field_only_when_defined(self, g1):
        sol = pf.solve_basic(g1)
        text = pf.write_solution(g1, sol)
        assert text == "paritysol 1;\n0 0;\n1 0;\n"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_solution_roundtrip(self, seed):
        game = seeded_game(seed)
        sol = pf.solve(game)
        text = pf.write_solution(game, sol)
        assert pf.parse_solution(text, game) == sol
        # the header after blank lines, and \r\n line ends
        for other in ("\n \t\n" + text, text.replace("\n", "\r\n")):
            assert pf.parse_solution(other, game) == sol

    def test_parse_solution_requires_totality(self, g1):
        with pytest.raises(pf.ParseError):
            pf.parse_solution("paritysol 1;\n0 0 1;", g1)

    def test_parse_solution_digits_are_ascii(self, g1):
        for text in ("0 0 \u0661;\n1 0;\n", "0 \u0661;\n1 0;\n"):
            with pytest.raises(pf.ParseError) as err:
                pf.parse_solution(text, g1)
            assert err.value.line == 1
        # at the end of a line the strategy test sees no digit, and ';' is missing
        with pytest.raises(pf.ParseError, match="^line 1, column 4: expected ';'$"):
            pf.parse_solution("0 0\n1 0;\n", g1)

    def test_parse_solution_unknown_id(self, g1):
        with pytest.raises(pf.ParseError):
            pf.parse_solution("5 0;", g1)

    def test_parse_solution_rejects_header_junk(self, g1):
        with pytest.raises(pf.ParseError) as err:
            pf.parse_solution("paritysol 1; junk\n0 0 1;\n1 0;\n", g1)
        assert (err.value.line, err.value.column) == (1, 14)
        assert "trailing characters after header" in str(err.value)
        for text, line, column, what in (
            ("\r\n\nparitysol 1; ;\r\n0 0 1;\r\n1 0;\r\n", 3, 14, "header"),
            ("paritysol 1;\n0 0 1; junk\n1 0;\n", 2, 8, "record"),
            ("0 0 1;\r\n1 0;;\r\n", 2, 5, "record"),
        ):
            with pytest.raises(pf.ParseError) as err:
                pf.parse_solution(text, g1)
            want = (line, column, f"trailing characters after {what}")
            assert (err.value.line, err.value.column, err.value.message) == want

    def test_parse_solution_rejects_late_header(self, g1):
        with pytest.raises(pf.ParseError) as err:
            pf.parse_solution("0 0 1;\nparitysol 1;\n1 0;\n", g1)
        assert (err.value.line, err.value.column) == (2, 1)
        assert "unexpected keyword" in str(err.value)
        # a second header, another format's keyword, and a word after blank lines
        for text, line in (
            ("paritysol 1;\nparitysol 1;\n0 0 1;\n1 0;\n", 2),
            ("parity 1;\n0 0 1;\n1 0;\n", 1),
            ("0 0 1;\n\r\nsol 1;\n1 0;\n", 3),
        ):
            with pytest.raises(pf.ParseError) as err:
                pf.parse_solution(text, g1)
            assert (err.value.line, err.value.column, err.value.message) == (
                line, 1, "unexpected keyword"
            )


# (parser, text, line, column, message): an error about a number's value
# points at its first digit, indented or not
_VALUE_ERRORS = [
    ("game", "0 1 2 0;\n", 1, 5, "owner bit must be 0 or 1"),
    ("game", "0 1 0 0;\n\t1 1  12 0;\n", 2, 7, "owner bit must be 0 or 1"),
    ("game", "  0 1 0 0;\n  0 1 0 0;\n", 2, 3, "vertex id 0 declared twice"),
    ("game", "parity 1;\n1 1 0 1;\n\t 1 2 0 1;\n", 3, 3, "vertex id 1 declared twice"),
    ("game", f"0 1 0 0,{2**64};\n", 1, 9, f"successor id {2**64} is out of range (above {2**63 - 1})"),
    ("solution", "17 0;\n", 1, 1, "unknown vertex id 17"),
    ("solution", "0 0 1;\n   0 1;\n", 2, 4, "vertex id 0 assigned twice"),
    ("solution", "0 0 12;\n1 0;\n", 1, 5, "unknown strategy target id 12"),
    ("solution", "0  2;\n1 0;\n", 1, 4, "winner bit must be 0 or 1"),
]


@pytest.mark.parametrize("parser, text, line, column, message", _VALUE_ERRORS)
def test_value_errors_point_at_first_digit(g1, parser, text, line, column, message):
    with pytest.raises(pf.ParseError) as err:
        if parser == "game":
            pf.parse_pgsolver(text)
        else:
            pf.parse_solution(text, g1)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)
