import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import parityfix as pf
from parityfix import Player, preprocess
from parityfix import solver as solver_module

from _oracles import reference_first_error, reference_reduction, sequential_self_loops
from conftest import seeded_game


def winners(partial: pf.PartialSolution) -> dict[int, Player]:
    """The decided vertices' winners, read off ``win``."""
    return {v: Player(int(partial.win[v])) for v in np.flatnonzero(partial.win >= 0).tolist()}


def strategies(partial: pf.PartialSolution) -> dict[int, int]:
    """The decided vertices' strategies, read off ``choice``."""
    return {v: int(partial.choice[v]) for v in np.flatnonzero(partial.choice >= 0).tolist()}


class TestEliminateSelfLoops:
    def test_friendly_loop_decided_for_owner(self):
        # Even-owned vertex with an even-priority self-loop wins by looping
        game = pf.ParityGame([2, 1], [0, 1], [[0, 1], [0]], original_id=[0, 1])
        partial, residual = pf.winner_controlled_cycles(game)
        assert partial.win[0] == Player.EVEN
        assert partial.choice[0] == 0
        # vertex 1 is Odd-owned with its only escape into the Even dominion
        assert partial.decided == {0, 1}
        assert residual.n == 0

    def test_g1_hostile_loop_kept_nothing_decided(self, g1):
        # vertex 0 is Even-owned with an odd loop and another move
        partial, residual = pf.winner_controlled_cycles(g1)
        assert partial.decided == frozenset()
        assert residual is g1 and residual.has_self_loop(0)
        sol = pf.compose_solution([partial], pf.solve(residual))
        assert sol.winner == pf.solve(g1).winner

    def test_forced_hostile_loop(self):
        # Even-owned, odd priority, no other move: Odd wins it
        game = pf.ParityGame([1], [0], [[0]])
        partial, residual = pf.winner_controlled_cycles(game)
        assert partial.win[0] == Player.ODD
        assert partial.choice[0] == -1
        assert residual.n == 0

    def test_cascading_forced_loop(self):
        # v0's alternative dies when v1 is decided, forcing v0's loop
        game = pf.ParityGame(
            priority=[1, 3],
            owner=[0, 1],
            successors=[[0, 1], [1]],
        )
        partial, residual = pf.winner_controlled_cycles(game)
        assert partial.win.tolist() == [Player.ODD, Player.ODD]
        assert residual.n == 0


class TestWinnerControlledCycles:
    def test_mutual_even_pair(self):
        game = pf.ParityGame([2, 0], [0, 0], [[1], [0]])
        partial, residual = pf.winner_controlled_cycles(game)
        assert partial.decided == {0, 1}
        assert partial.win.tolist() == [Player.EVEN, Player.EVEN]
        assert residual.n == 0

    def test_g2_nothing_decided(self, g2):
        partial, residual = pf.winner_controlled_cycles(g2)
        assert partial.decided == frozenset()
        assert residual is g2

    def test_acyclic_induced_subgraphs_identity(self):
        game = pf.ParityGame([2, 1], [0, 1], [[1], [0]])
        partial, residual = pf.winner_controlled_cycles(game)
        assert partial.decided == frozenset()
        assert residual.n == 2


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_composition_soundness(seed):
    game = seeded_game(seed, self_loop=0.4)
    direct = pf.solve(game)
    partials, residual = pf.apply_preprocessing(game)
    assert len(partials) == 1
    # the residual keeps hostile loops only
    for v in range(residual.n):
        if residual.has_self_loop(v):
            assert residual.priority[v] & 1 != residual.owner[v]
    composed = pf.compose_solution(partials, pf.solve(residual))
    assert composed.winner == direct.winner
    assert pf.verify(game, composed).ok
    # the same residual composed with the oracle solver also agrees
    composed_zlk = pf.compose_solution(partials, pf.solve_zielonka(residual))
    assert composed_zlk.winner == pf.solve_zielonka(game).winner
    assert pf.verify(game, composed_zlk).ok


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_decided_regions_are_loser_closed(seed):
    game = seeded_game(seed, self_loop=0.4)
    partials, _ = pf.apply_preprocessing(game)
    current = game
    for partial in partials:
        winner, strategy = winners(partial), strategies(partial)
        for v in partial.decided:
            w = winner[v]
            if current.owner[v] is not w:
                # the loser cannot leave the decided region into the rest
                for u in current.successors[v]:
                    assert u in partial.decided and winner[u] is w
        # winner-owned decided vertices carry a strategy into the region
        for v in partial.decided:
            if current.owner[v] is winner[v]:
                target = strategy[v]
                assert target in current.successors[v]
                assert winner.get(target) is winner[v]
        # the upstream vertices are left undecided, and nothing that stays
        # points to them
        trimmed = {v for layer in partial.layers for v in layer.tolist()}
        assert not trimmed & partial.decided
        alive = [v for v in range(current.n) if v not in partial.decided and v not in trimmed]
        assert all(u not in trimmed for v in alive for u in current.successors[v])
        # rebuild the child to walk down the chain
        assert list(partial.to_parent) == alive
        current = pf.ParityGame(
            priority=[current.priority[v] for v in alive],
            owner=[current.owner[v] for v in alive],
            successors=[
                [alive.index(u) for u in current.successors[v] if u in set(alive)]
                for v in alive
            ],
        )


@st.composite
def loop_games(draw):
    n = draw(st.integers(1, 3000))
    params = pf.GenParams(
        n=n,
        max_priority=draw(st.integers(0, 8)),
        outdegree_lo=1,
        outdegree_hi=min(n, draw(st.integers(1, 4))),
        self_loop_probability=draw(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5])),
        seed=draw(st.integers(0, 10**9)),
    )
    return pf.random_game(params)


def _check_against_reference(game: pf.ParityGame) -> None:
    """The one pass decides what the chain of references decides: the
    winners, the upstream layers, ``to_parent`` and the residual without
    its (hostile) loops; every strategy moves into its winner's region,
    and every winner-owned decided vertex has one."""
    win, to_parent, successors, layers = reference_reduction(game)
    partial, residual = pf.winner_controlled_cycles(game)
    assert partial.win.tolist() == win
    assert [layer.tolist() for layer in partial.layers] == layers
    assert partial.to_parent.tolist() == to_parent
    assert tuple(tuple(u for u in s if u != v) for v, s in enumerate(residual.successors)) == successors
    strategy = strategies(partial)
    for v, u in strategy.items():
        assert u in game.successors[v] and win[u] == win[v] >= 0
    assert all(v in strategy for v in partial.decided if game.owner[v] == win[v])


@settings(max_examples=60, deadline=None)
@given(loop_games())
def test_self_loops_match_sequential_reference(game):
    """Batched rounds decide what one attractor per loop decides."""
    _check_against_reference(game)
    partials, rest = pf.apply_preprocessing(game)
    assert pf.verify(game, pf.compose_solution(partials, pf.solve(rest))).ok


@st.composite
def in_tree_games(draw):
    """Games with long in-trees and few cycles: out-degree 1 or 1-2, and
    few or no self-loops."""
    n = draw(st.integers(1, 1500))
    params = pf.GenParams(
        n=n,
        max_priority=draw(st.integers(0, 8)),
        outdegree_lo=1,
        outdegree_hi=min(n, draw(st.integers(1, 2))),
        self_loop_probability=draw(st.sampled_from([0.0, 0.01, 0.05])),
        seed=draw(st.integers(0, 10**9)),
    )
    return pf.random_game(params)


# one successor per vertex: 6 of 300 vertices lie on cycles, and the other
# 294 hang upstream of them in 26 layers
_IN_TREE = pf.GenParams(300, 6, outdegree_hi=1, seed=28)


@settings(max_examples=60, deadline=None)
@given(in_tree_games())
@example(pf.random_game(_IN_TREE))
def test_upstream_vertices_decided_after_the_solve(game):
    """Backward induction over the upstream layers gives Zielonka's winners
    in both modes, with strategies that ``verify`` accepts; each layer
    points only to later layers, the residual and the decided regions."""
    partials, residual = pf.apply_preprocessing(game)
    [partial] = partials
    upstream = [v for layer in partial.layers for v in layer.tolist()]
    place = [len(partial.layers)] * game.n  # the residual and decided vertices: past every layer
    for i, layer in enumerate(partial.layers):
        for v in layer.tolist():
            place[v] = i
    assert all(place[u] > place[v] for v in upstream for u in game.successors[v])
    zielonka = pf.solve_zielonka(game)
    for mode in ("freezing", "basic"):
        composed = pf.compose_solution(partials, pf.solve(residual, pf.SolverOptions(mode=mode)))
        assert composed.winner == zielonka.winner
        # an owner-won upstream vertex takes its first successor won by the
        # owner, the solver's tie rule
        for v in upstream:
            won = [u for u in game.successors[v] if composed.winner[u] is game.owner[v]]
            assert composed.strategy[v] == (won[0] if won else None)
        if mode == "freezing":
            assert pf.verify(game, composed).ok


def _counters(stats: pf.SolverStats) -> tuple[int, ...]:
    return stats.passes, stats.additions, stats.resets, stats.freezes, stats.evaluations


# its residual keeps 18 hostile loops among 109 vertices
_HOSTILE_RESIDUAL = pf.GenParams(400, 8, outdegree_hi=4, self_loop_probability=0.25, seed=8)


@settings(max_examples=60, deadline=None)
@given(loop_games())
@example(pf.random_game(_HOSTILE_RESIDUAL))
def test_hostile_loops_do_nothing_in_the_kernel(game):
    """The kernel never takes a hostile loop, so the residual solves alike
    with and without its loops, counters included."""
    _, residual = pf.winner_controlled_cycles(game)
    succ = residual.successors
    loopless = pf.ParityGame(
        residual.priority, residual.owner, [[u for u in s if u != v] for v, s in enumerate(succ)]
    )
    for mode in ("freezing", "basic"):
        a, b = (pf.solve_detailed(g, pf.SolverOptions(mode=mode)) for g in (residual, loopless))
        assert a.solution == b.solution
        assert _counters(a.stats) == _counters(b.stats)


def _hostile_chain(n: int) -> pf.ParityGame:
    """Even-owned odd loops: v0 has only its loop, each later v_i also
    moves to v_{i-1}, so every loop is stuck once its predecessor falls."""
    return pf.ParityGame([1] * n, [0] * n, [[0]] + [[i, i - 1] for i in range(1, n)])


def test_hostile_loop_chain_decided_by_one_attractor(monkeypatch):
    """A loop left stuck joins the attractor that cornered it, so a chain
    of n hostile loops costs one attractor, not n."""
    calls = []
    attract = preprocess._attract
    monkeypatch.setattr(
        preprocess, "_attract", lambda *args: calls.append(args[3]) or attract(*args)
    )
    game = _hostile_chain(20_000)
    partial, residual = pf.winner_controlled_cycles(game)
    assert calls == [1]
    assert residual.n == 0
    assert set(winners(partial).values()) == {Player.ODD}
    winner, _ = sequential_self_loops(_hostile_chain(60))
    assert winners(pf.winner_controlled_cycles(_hostile_chain(60))[0]) == winner


def _doubled(game: pf.ParityGame, seed: int) -> list[list[int]]:
    """The successor lists of ``game`` with some edges stored twice: about
    half of the self-loops and a quarter of the other vertices' first edges."""
    rng = pf.SplitMix64(seed)
    successors = []
    for v, succ in enumerate(game.successors):
        succ = list(succ)
        if v in succ and rng.below(2):
            succ.insert(rng.below(len(succ) + 1), v)
        elif rng.below(4) == 0:
            succ.append(succ[0])
        successors.append(succ)
    return successors


DUPLICATE_EDGE_GAMES = [
    # a doubled friendly loop on vertex 0; vertex 1 can still escape to 2
    ([0, 0, 1], [0, 1, 1], [[0, 0], [0, 2], [2]], (0, 0)),
    # a doubled hostile loop on vertex 0 beside its edge to 1
    ([1, 1], [0, 1], [[0, 0, 1], [1]], (0, 0)),
    # a doubled edge that would survive into the residual
    ([1, 2, 0], [0, 1, 0], [[1, 1], [0], [2]], (0, 1)),
]


@pytest.mark.parametrize("game", DUPLICATE_EDGE_GAMES)
def test_duplicate_edge_cases(game):
    # no game holds a duplicate edge, so no reduction has to tolerate one
    priority, owner, successors, edge = game
    with pytest.raises(pf.DuplicateEdgeError) as err:
        pf.ParityGame(priority, owner, successors)
    assert (err.value.vertex, err.value.target) == edge


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.1, 0.4]))
def test_doubled_edges_are_refused(seed, self_loop):
    game = seeded_game(seed, self_loop=self_loop)
    successors = _doubled(game, seed)
    want = reference_first_error(game.n, successors)
    try:
        pf.ParityGame(game.priority, game.owner, successors)
        got = None
    except pf.ValidationError as exc:
        got = exc
    assert (type(got), str(got)) == (type(want), str(want))


@settings(max_examples=60, deadline=None)
@given(loop_games())
def test_cycles_match_scc_reference_on_loop_games(game):
    _check_against_reference(game)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_cycles_match_scc_reference(seed):
    _check_against_reference(seeded_game(seed, self_loop=0.4))


_VIEWS = {"priority", "owner", "original_id", "successors", "predecessors"}


def test_derived_games_build_no_successor_tuples(monkeypatch):
    """From parse to write, the pipeline reads the arrays of the parsed game
    and of the residual, and builds none of their tuple views; only the
    sorted residual holds the successor and predecessor tuples that the
    kernel reads."""
    kernel_games = []
    kernel = solver_module._dfi

    def recording_kernel(game, *args):
        kernel_games.append(game)
        return kernel(game, *args)

    monkeypatch.setattr(solver_module, "_dfi", recording_kernel)
    source = pf.random_game(pf.GenParams(n=500, max_priority=6, self_loop_probability=0.05, seed=1))
    game = pf.parse_pgsolver(pf.write_pgsolver(source))
    partial, residual = pf.winner_controlled_cycles(game)
    assert not _VIEWS & vars(pf.sort_by_priority(residual)[0]).keys()
    outcome = pf.solve_detailed(residual)
    solution = pf.compose_solution([partial], outcome.solution)
    assert pf.verify(game, solution).ok
    text = pf.write_solution(game, solution)
    assert 0 < residual.n < game.n
    [sorted_game] = kernel_games
    assert sorted_game is not residual
    for derived in (game, residual):
        assert not _VIEWS & vars(derived).keys()
    assert _VIEWS & vars(sorted_game).keys() <= {"successors", "predecessors"}
    assert text == pf.write_solution(source, solution)
