import re
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parityfix as pf
from parityfix.game import _subgame

from _oracles import forward_map, reference_first_error
from conftest import seeded_game


class TestPlayer:
    def test_integer_encoding(self):
        assert int(pf.Player.EVEN) == 0
        assert int(pf.Player.ODD) == 1

    def test_opponent_involution(self):
        for p in pf.Player:
            assert p.opponent.opponent is p

    def test_of_parity_matches_arithmetic(self):
        assert pf.Player.of_parity(4) is pf.Player.EVEN
        assert pf.Player.of_parity(17) is pf.Player.ODD


class TestConstructor:
    @pytest.mark.parametrize("owner", [2, -1, "x", [1], 1.0])
    def test_owner_must_be_a_player(self, owner):
        # 1.0 was refused as a priority but taken as Odd for an owner
        message = rf"^owner of vertex 0 is {re.escape(repr(owner))}, not in 0\.\.1$"
        with pytest.raises(ValueError, match=message):
            pf.ParityGame([0], [owner], [[0]])

    @pytest.mark.parametrize("owner", [pf.Player.ODD, 1, True])
    def test_owner_accepts_players_and_ints(self, owner):
        assert pf.ParityGame([0], [owner], [[0]]).owner[0] is pf.Player.ODD

    @pytest.mark.parametrize("priority", [1.5, -1, "3", None, 2**64 + 0.5])
    def test_priority_must_be_a_nonnegative_integer(self, priority):
        # 1.5 and "3" were read as 1 and 3
        message = rf"^priority of vertex 1 is {re.escape(repr(priority))}, not in 0\.\.{2**63 - 1}$"
        with pytest.raises(ValueError, match=message):
            pf.ParityGame([0, priority], [0, 0], [[1], [0]])

    @pytest.mark.parametrize("vertex_id", [-3, 7.5, "7"])
    def test_original_id_must_be_a_nonnegative_integer(self, vertex_id):
        # -3 was written as a record that no reader accepts
        value = re.escape(repr(vertex_id))
        message = rf"^original_id of vertex 0 is {value}, not in 0\.\.{2**63 - 1}$"
        with pytest.raises(ValueError, match=message):
            pf.ParityGame([0, 0], [0, 0], [[1], [0]], original_id=[vertex_id, 4])

    def test_original_ids_must_be_distinct(self):
        # a repeated id was written as two records of one vertex id
        with pytest.raises(ValueError, match="^original_id of vertex 2 is 7, the id of vertex 0$"):
            pf.ParityGame([0, 0, 0], [0, 0, 0], [[1], [2], [0]], original_id=[7, 2**63 - 1, 7])

    @pytest.mark.parametrize("target", [0.9, "0", None, 1.0])
    def test_target_must_be_an_integer(self, target):
        # 0.9 and "0" were read as vertex 0
        message = rf"^edge 1 -> {re.escape(repr(target))} leaves the vertex range$"
        with pytest.raises(pf.DanglingEdgeError, match=message):
            pf.ParityGame([0, 0], [0, 0], [[1], [0, target]])

    def test_values_beyond_int64_are_refused(self):
        # such numbers were kept as Python ints in object arrays
        for value in (2**63, 2**64, 2**70):
            message = rf"^priority of vertex 0 is {value}, not in 0\.\.{2**63 - 1}$"
            with pytest.raises(ValueError, match=message):
                pf.ParityGame([value, 1], [0, 1], [[1], [0]])
            message = rf"^original_id of vertex 1 is {value}, not in 0\.\.{2**63 - 1}$"
            with pytest.raises(ValueError, match=message):
                pf.ParityGame([0, 1], [0, 1], [[1], [0]], original_id=[3, value])

    @pytest.mark.parametrize("label", [5, b"loop", ["a"]])
    def test_label_must_be_a_str_or_none(self, label):
        # an int or bytes label was accepted and then failed in write_pgsolver
        message = rf"^label of vertex 1 is {re.escape(repr(label))}, not a str or None$"
        with pytest.raises(ValueError, match=message):
            pf.ParityGame([0, 0], [0, 0], [[1], [0]], label=["ok", label])

    def test_int64_max_is_stored_as_int64(self):
        top = 2**63 - 1
        game = pf.ParityGame([top, 1], [0, 1], [[1], [0]], original_id=[top, 3])
        assert game._priority.dtype == game._ids.dtype == np.int64
        assert game.priority == (top, 1) and game.original_id == (top, 3)
        assert pf.parse_pgsolver(pf.write_pgsolver(game)).original_id == (3, top)


class TestSolution:
    @pytest.mark.parametrize("winner", [2, -1, 2**70, None, 0.5])
    def test_winner_must_be_a_player(self, winner):
        with pytest.raises(ValueError, match="winner of vertex 1 is"):
            pf.Solution((pf.Player.EVEN, winner), (None, None))

    @pytest.mark.parametrize("target", [2, -1, 2**70, 1.0])
    def test_strategy_target_must_be_a_vertex(self, target):
        with pytest.raises(ValueError, match="strategy target of vertex 0 is"):
            pf.Solution((pf.Player.EVEN, pf.Player.ODD), (target, None))

    @pytest.mark.parametrize("strategy", [(), (None,), (None, None, None)])
    def test_strategy_length_must_match(self, strategy):
        with pytest.raises(ValueError, match=f"strategy has {len(strategy)} entries for 2 winners"):
            pf.Solution((pf.Player.EVEN, pf.Player.ODD), strategy)

    @pytest.mark.parametrize(
        "win, choice",
        [
            (np.array([0, 2], dtype=np.uint8), np.array([-1, -1])),
            (np.array([0, 1], dtype=np.int8), np.array([-2, -1])),
            (np.array([0, 1]), np.array([0, 2])),
            (np.array([0, 1]), np.array([0, 2**64 - 1], dtype=np.uint64)),  # -1 as int64
            (np.array([0.0, 1.0]), np.array([-1, -1])),
        ],
    )
    def test_arrays_are_checked(self, win, choice):
        # in an array, -1 means no strategy; nothing else outside the range passes
        with pytest.raises(ValueError):
            pf.Solution(win, choice)

    def test_arrays_and_sequences_agree(self):
        winner = (pf.Player.ODD, pf.Player.EVEN, pf.Player.EVEN)
        strategy = (None, 2, 0)
        from_seqs = pf.Solution(winner, strategy)
        from_arrays = pf.Solution(np.array([1, 0, 0], dtype=np.int8), np.array([-1, 2, 0]))
        assert from_arrays == from_seqs
        assert from_arrays.winner == winner and from_arrays.strategy == strategy
        assert all(type(w) is pf.Player for w in from_arrays.winner)
        assert from_seqs.win.dtype == np.uint8 and from_seqs.choice.dtype == np.int64
        assert from_seqs.win.tolist() == [1, 0, 0] and from_seqs.choice.tolist() == [-1, 2, 0]
        assert from_seqs.region(pf.Player.EVEN) == {1, 2}
        assert from_seqs != pf.Solution(winner, (None, 2, None))

    def test_arrays_are_read_only_copies(self):
        win = np.zeros(2, dtype=np.uint8)
        sol = pf.Solution(win, np.full(2, -1))
        win[0] = 1
        assert sol.winner == (pf.Player.EVEN, pf.Player.EVEN)
        with pytest.raises(ValueError):
            sol.win[0] = 1
        with pytest.raises(TypeError):
            hash(sol)


class TestValidate:
    def test_empty_game_is_legal(self):
        assert pf.ParityGame([], [], []).n == 0

    def test_g1_validates(self, g1):
        assert pf.ParityGame(g1.priority, g1.owner, g1.successors).successors == g1.successors

    def test_sink_vertex(self):
        with pytest.raises(pf.SinkVertexError) as err:
            pf.ParityGame([0], [0], [[]])
        assert err.value.vertex == 0

    def test_dangling_edge(self):
        with pytest.raises(pf.DanglingEdgeError) as err:
            pf.ParityGame([0, 1], [0, 1], [[1], [5]])
        assert (err.value.vertex, err.value.target) == (1, 5)

    def test_duplicate_edge(self):
        with pytest.raises(pf.DuplicateEdgeError, match="^duplicate edge 0 -> 0$") as err:
            pf.ParityGame([0], [0], [[0, 0]])
        assert (err.value.vertex, err.value.target) == (0, 0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-1, 5) | st.sampled_from([2**40, 2**70, 0.5, "1"]), max_size=4),
        min_size=1,
        max_size=6,
    )
)
def test_first_error_matches_per_edge_walk(successors):
    # the constructor's sinks and dangling edges, then its duplicates
    n = len(successors)
    want = reference_first_error(n, successors)
    try:
        pf.ParityGame([0] * n, [0] * n, successors)
        got = None
    except pf.ValidationError as exc:
        got = exc
    assert (type(got), str(got)) == (type(want), str(want))


class TestSortByPriority:
    def test_three_vertex_example(self):
        game = pf.ParityGame([2, 0, 1], [0, 1, 0], [[1], [2], [0]])
        sorted_game, to_parent = pf.sort_by_priority(game)
        assert sorted_game.priority == (0, 1, 2)
        assert to_parent.tolist() == [1, 2, 0]

    def test_already_sorted_gives_identity(self, g1):
        sorted_game, to_parent = pf.sort_by_priority(g1)
        assert to_parent.tolist() == list(range(g1.n))
        assert sorted_game is g1

    @pytest.mark.parametrize("priority", [[0, 1, 2], [2, 0, 1]], ids=["sorted", "unsorted"])
    def test_map_is_a_read_only_int64_array(self, priority):
        _, to_parent = pf.sort_by_priority(pf.ParityGame(priority, [0, 1, 0], [[1], [2], [0]]))
        assert isinstance(to_parent, np.ndarray) and to_parent.dtype == np.int64
        with pytest.raises(ValueError):
            to_parent[0] = 0

    def test_g2_internal_priorities(self, g2):
        sorted_game, _ = pf.sort_by_priority(g2)
        assert sorted_game.priority == (1, 2, 3, 4, 5, 16, 17, 18)

    def test_sort_is_stable(self):
        game = pf.ParityGame([1, 1, 0], [0, 1, 0], [[0], [1], [2]], original_id=[10, 11, 12])
        sorted_game, _ = pf.sort_by_priority(game)
        assert sorted_game.original_id == (12, 10, 11)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_backward_permutation_roundtrip(self, seed):
        game = seeded_game(seed)
        sorted_game, to_parent = pf.sort_by_priority(game)
        back = apply_backward(sorted_game, to_parent)
        assert back.priority == game.priority
        assert back.owner == game.owner
        assert back.successors == game.successors
        assert back.original_id == game.original_id

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_permutation_is_bijective(self, seed):
        game = seeded_game(seed)
        _, to_parent = pf.sort_by_priority(game)
        assert sorted(to_parent.tolist()) == list(range(game.n))


def apply_backward(sorted_game: pf.ParityGame, to_parent: np.ndarray) -> pf.ParityGame:
    """Undo sort_by_priority, reproducing the original vertex order."""
    bwd = to_parent.tolist()
    if bwd == list(range(sorted_game.n)):
        return sorted_game
    fwd = forward_map(to_parent)
    return pf.ParityGame(
        priority=[sorted_game.priority[fwd[v]] for v in range(sorted_game.n)],
        owner=[sorted_game.owner[fwd[v]] for v in range(sorted_game.n)],
        successors=[[bwd[u] for u in sorted_game.successors[fwd[v]]] for v in range(sorted_game.n)],
        original_id=[sorted_game.original_id[fwd[v]] for v in range(sorted_game.n)],
        label=[sorted_game.label[fwd[v]] for v in range(sorted_game.n)],
    )


def _sort_reference(game: pf.ParityGame) -> tuple[pf.ParityGame, list[int]]:
    """The sort as a stable Python sort that renumbers the successor lists;
    returns the sorted game and its ``to_parent`` map as a list."""
    backward = sorted(range(game.n), key=game.priority.__getitem__)
    forward = [0] * game.n
    for internal, external in enumerate(backward):
        forward[external] = internal
    sorted_game = pf.ParityGame(
        [game.priority[e] for e in backward],
        [game.owner[e] for e in backward],
        [[forward[u] for u in game.successors[e]] for e in backward],
        [game.original_id[e] for e in backward],
        [game.label[e] for e in backward],
    )
    return sorted_game, backward


class TestSortArrays:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    def test_same_game_and_arrays_as_python_sort(self, seed, named):
        game = seeded_game(seed, max_n=200, max_d=8)
        if named:  # sparse ids and some labels ride along with their vertices
            game = pf.ParityGame(
                game.priority,
                game.owner,
                game.successors,
                original_id=[5 * v + 2 for v in range(game.n)],
                label=[f"v{v}" if v % 3 else None for v in range(game.n)],
            )
        got, to_parent = pf.sort_by_priority(game)
        want, want_to_parent = _sort_reference(game)
        assert to_parent.tolist() == want_to_parent
        for attr in ("priority", "owner", "successors", "original_id", "label"):
            assert getattr(got, attr) == getattr(want, attr)
        for a, b in zip((*got._csr, got._owner_bits), (*want._csr, want._owner_bits)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_priorities_up_to_int64_max(self):
        game = pf.ParityGame([2**63 - 1, 1, 2**62], [0, 1, 0], [[1], [2], [0]])
        sorted_game, to_parent = pf.sort_by_priority(game)
        assert sorted_game.priority == (1, 2**62, 2**63 - 1)
        assert sorted_game._priority.dtype == np.int64
        assert to_parent.tolist() == [1, 2, 0]
        assert sorted_game.successors == ((1,), (2,), (0,))


class TestStats:
    def test_g1(self, g1):
        s = pf.game_stats(g1)
        assert (s.n, s.edges, s.max_priority) == (2, 3, 2)
        assert s.avg_outdegree == pytest.approx(1.5)

    def test_g2(self, g2):
        s = pf.game_stats(g2)
        assert (s.n, s.edges, s.max_priority) == (8, 12, 18)

    def test_empty(self):
        s = pf.game_stats(pf.ParityGame([], [], []))
        assert (s.n, s.edges, s.max_priority, s.avg_outdegree) == (0, 0, 0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_priority_bounds_and_left_totality(seed):
    game = seeded_game(seed)
    d = game.max_priority
    for v in range(game.n):
        assert 0 <= game.priority[v] <= d
        assert len(game.successors[v]) >= 1


class TestArrays:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_predecessors_match_per_edge_build(self, seed):
        game = seeded_game(seed, max_n=300, max_d=8, self_loop=0.2)
        preds: list[list[int]] = [[] for _ in range(game.n)]
        for v, succ in enumerate(game.successors):
            for u in succ:
                preds[u].append(v)
        assert game.predecessors == tuple(map(tuple, preds))

    @pytest.mark.parametrize("target", [-1, 20_000, 2**40, 2**70])
    def test_dangling_edge_of_a_large_game(self, target):
        # the checked CSR of the clean game holds the targets unchanged
        n = 20_000
        successors = [[(v + 1) % n] for v in range(n)]
        assert pf.ParityGame([0] * n, [0] * n, successors)._csr[1].tolist() == list(chain(*successors))
        successors[19_000] = [0, target]
        with pytest.raises(pf.DanglingEdgeError) as info:
            pf.ParityGame([0] * n, [0] * n, successors)
        assert (info.value.vertex, info.value.target) == (19_000, target)

    def test_empty_game_arrays(self):
        game = pf.ParityGame([], [], [])
        assert game.predecessors == ()
        assert game._csr[0].tolist() == [0]

    @pytest.mark.parametrize(
        "game",
        [
            *(seeded_game(seed, max_n=300, max_d=8, self_loop=0.2) for seed in range(30)),
            pf.ParityGame([], [], []),
            pf.ParityGame([3], [1], [[0]]),
            pf.ParityGame([0, 1, 2], [0, 1, 0], [[0], [1], [2]]),
            pf.ParityGame([0] * 4, [0] * 4, [[3, 1, 2], [3, 0], [0, 3, 1], [2, 1, 0, 3]]),
        ],
        ids=[*(f"seed{seed}" for seed in range(30)), "empty", "one", "self-loops", "complete"],
    )
    def test_reverse_csr_matches_stable_argsort(self, game):
        # the sort key's order is the stable argsort's, and the solver's
        # kernel needs each target's sources (its predecessors) ascending
        indptr, targets, _ = game._csr
        sources = np.repeat(np.arange(game.n, dtype=np.int32), np.diff(indptr))
        rev_indptr, rev_sources = game._reverse_csr
        assert rev_sources.dtype == np.int32
        assert rev_sources.tolist() == sources[np.argsort(targets, kind="stable")].tolist()
        assert rev_indptr.tolist() == [0, *np.cumsum(np.bincount(targets, minlength=game.n)).tolist()]
        assert all(list(p) == sorted(p) for p in game.predecessors)


def _stored(game: pf.ParityGame) -> tuple[np.ndarray, ...]:
    return (*game._csr, game._owner_bits, game._parity_bits, game._priority, game._ids)


class TestStorage:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.booleans())
    def test_constructor_rebuilds_derived_games(self, seed, wide):
        # the reader, the sort and the reduction store what the constructor
        # stores for the same game, priorities and ids as int64
        game = seeded_game(seed, max_n=120, max_d=8, self_loop=0.3)
        if wide:  # priorities and ids up to the int64 maximum, and labels
            game = pf.ParityGame(
                [p * 2**59 + (p & 1) for p in game.priority],
                game.owner,
                game.successors,
                original_id=[2**63 - 1 - 5 * v for v in range(game.n)],
                label=[f"v{v}" if v % 3 else None for v in range(game.n)],
            )
        parsed = pf.parse_pgsolver(pf.write_pgsolver(game))
        _, residual = pf.winner_controlled_cycles(parsed)
        sorted_games = [pf.sort_by_priority(g)[0] for g in (parsed, residual)]
        for g in (parsed, residual, *sorted_games):
            assert g._priority.dtype == g._ids.dtype == np.int64
            rebuilt = pf.ParityGame(g.priority, g.owner, g.successors, g.original_id, g.label)
            for a, b in zip(_stored(g), _stored(rebuilt)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert g.label == rebuilt.label

    def test_arrays_are_read_only(self, g1):
        for a in _stored(g1):
            with pytest.raises(ValueError):
                a[0] = 1


class TestSubgame:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_same_game_as_python_renumber_and_filter(self, seed):
        # the vertices that the reduction leaves, in a seeded random order;
        # their edges to the decided vertices go
        base = seeded_game(seed, max_n=120, max_d=8, self_loop=0.1)
        n = base.n
        succ = base.successors
        game = pf.ParityGame(
            base.priority,
            base.owner,
            succ,
            original_id=[3 * v + 1 for v in range(n)],
            label=[f"v{v}" if v % 2 else None for v in range(n)],
        )
        rng = pf.SplitMix64(seed + 5)
        rows = pf.winner_controlled_cycles(game)[0].to_parent.tolist()
        for i in range(len(rows) - 1, 0, -1):
            j = rng.below(i + 1)
            rows[i], rows[j] = rows[j], rows[i]
        got = _subgame(game, np.array(rows, dtype=np.int64))
        index = {v: i for i, v in enumerate(rows)}
        want = pf.ParityGame(
            [game.priority[v] for v in rows],
            [game.owner[v] for v in rows],
            [[index[u] for u in succ[v] if u in index] for v in rows],
            [game.original_id[v] for v in rows],
            [game.label[v] for v in rows],
        )
        for a, b in zip(_stored(got), _stored(want)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got.label == want.label


_SOLVERS_WITH_TIMEOUT = {
    "dfi": lambda game, t: pf.solve_detailed(game, pf.SolverOptions(timeout_s=t)),
    "zielonka": lambda game, t: pf.solve_zielonka(game, timeout_s=t),
    "bfl": lambda game, t: pf.bfl_win0(game, timeout_s=t),
}


@pytest.mark.parametrize("timeout_s", [float("nan"), -1.0])
@pytest.mark.parametrize("solver", sorted(_SOLVERS_WITH_TIMEOUT))
def test_invalid_timeout_rejected(g1, solver, timeout_s):
    # NaN would never pass and a negative deadline would pass at once
    with pytest.raises(ValueError, match="nonnegative"):
        _SOLVERS_WITH_TIMEOUT[solver](g1, timeout_s)


_SOLVERS_ON_GAMES = {
    "dfi": pf.solve,
    "dfi-basic": pf.solve_basic,
    "zielonka": pf.solve_zielonka,
    "bfl": pf.bfl_win0,
    "preprocess": pf.apply_preprocessing,
}

# successor lists of three vertices with priorities 0, 1, 2, and the error
# that the constructor raises for them
_MALFORMED = {
    "sink": ([[1], [], [0]], pf.SinkVertexError, "vertex 1 has no successors"),
    "target-minus-1": ([[1], [-1], [0]], pf.DanglingEdgeError, "edge 1 -> -1 leaves the vertex range"),
    "target-n": ([[1], [2, 3], [0]], pf.DanglingEdgeError, "edge 1 -> 3 leaves the vertex range"),
    "target-2**40": (
        [[1], [2**40], [0]],
        pf.DanglingEdgeError,
        f"edge 1 -> {2**40} leaves the vertex range",
    ),
    "target-2**70": (
        [[1], [0, 2**70], [0]],
        pf.DanglingEdgeError,
        f"edge 1 -> {2**70} leaves the vertex range",
    ),
    "sink-after-dangling": ([[3], [0], []], pf.DanglingEdgeError, "edge 0 -> 3 leaves the vertex range"),
    "duplicate": ([[1], [2, 0, 2], [0]], pf.DuplicateEdgeError, "duplicate edge 1 -> 2"),
}


@pytest.mark.parametrize("priority", [[0, 1, 2], [2, 1, 0]], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
@pytest.mark.parametrize("solver", sorted(_SOLVERS_ON_GAMES))
def test_malformed_game_raises_validation_error(solver, case, priority):
    # a solver is never handed such a game: the constructor raises the
    # first error, never a numpy error or a game
    successors, error, message = _MALFORMED[case]
    with pytest.raises(pf.ValidationError) as got:
        _SOLVERS_ON_GAMES[solver](pf.ParityGame(priority, [0, 1, 0], successors))
    assert type(got.value) is error
    assert str(got.value) == message
