import pytest
from hypothesis import given, settings, strategies as st

import parityfix as pf
from parityfix import LosingCycleWitness, Player

from conftest import seeded_game


def mutate_winner(sol: pf.Solution, v: int) -> pf.Solution:
    winner = list(sol.winner)
    winner[v] = winner[v].opponent
    return pf.Solution(tuple(winner), sol.strategy)


def broken_strategy_mutation(game: pf.ParityGame, sol: pf.Solution) -> pf.Solution | None:
    """A single-edge strategy mutation that is genuinely invalid.

    Preferred: redirect some strategy edge to a successor outside the
    winner's region (playing into the opponent's true region loses).
    Fallback: delete one strategy edge, leaving a winning vertex bare.
    """
    strategy = list(sol.strategy)
    for v, current in enumerate(strategy):
        if current is None:
            continue
        for u in game.successors[v]:
            if sol.winner[u] is not sol.winner[v]:
                strategy[v] = u
                return pf.Solution(sol.winner, tuple(strategy))
    for v, current in enumerate(strategy):
        if current is not None:
            strategy[v] = None
            return pf.Solution(sol.winner, tuple(strategy))
    return None


@pytest.mark.parametrize(
    "successors, error", [([[], [0]], pf.SinkVertexError), ([[5], [0]], pf.DanglingEdgeError)]
)
def test_malformed_game_raises_validation_error(successors, error):
    # the error every solver raises, not a missing strategy
    game = pf.ParityGame([0, 1], [0, 1], successors)
    claim = pf.Solution((Player.EVEN, Player.EVEN), (None, None))
    with pytest.raises(error) as info:
        pf.verify(game, claim)
    with pytest.raises(error) as expected:
        pf.validate(game)
    assert str(info.value) == str(expected.value)


class TestExamples:
    def test_g1_correct_solution_accepted(self, g1):
        report = pf.verify(g1, pf.Solution((Player.EVEN, Player.EVEN), (1, 0)))
        assert report.ok and report.violations == ()

    def test_g1_self_loop_strategy_rejected_with_cycle_witness(self, g1):
        report = pf.verify(g1, pf.Solution((Player.EVEN, Player.EVEN), (0, 0)))
        assert not report.ok
        witnesses = [v for v in report.violations if isinstance(v, LosingCycleWitness)]
        assert witnesses == [LosingCycleWitness((0,), 1)]

    def test_empty_solution_ok(self):
        empty = pf.ParityGame([], [], [])
        assert pf.verify(empty, pf.Solution((), ())).ok

    def test_missing_strategy_reported(self, g1):
        report = pf.verify(g1, pf.Solution((Player.EVEN, Player.EVEN), (None, 0)))
        assert not report.ok
        assert any(isinstance(v, pf.MissingStrategy) for v in report.violations)

    def test_violations_in_vertex_order(self):
        # self-loops only; Odd owns and claims 0, 5 and 8 but names no moves
        odd = {0, 5, 8}
        n = 10
        game = pf.ParityGame(
            [1 if v in odd else 0 for v in range(n)],
            [1 if v in odd else 0 for v in range(n)],
            [[v] for v in range(n)],
        )
        claimed = pf.Solution(
            tuple(Player.ODD if v in odd else Player.EVEN for v in range(n)),
            tuple(None if v in odd else v for v in range(n)),
        )
        report = pf.verify(game, claimed)
        assert report.violations == tuple(pf.MissingStrategy(v) for v in (0, 5, 8))

    def test_escape_edge_reported(self):
        # Odd-owned vertex claimed for Even, but it can walk to the Odd side
        game = pf.ParityGame([0, 1], [1, 1], [[0, 1], [1]])
        claimed = pf.Solution((Player.EVEN, Player.ODD), (None, 1))
        report = pf.verify(game, claimed)
        assert any(isinstance(v, pf.EscapeEdge) for v in report.violations)

    def test_strategy_leaving_region_reported(self):
        game = pf.ParityGame([0, 1], [0, 1], [[0, 1], [1]])
        claimed = pf.Solution((Player.EVEN, Player.ODD), (1, 1))
        report = pf.verify(game, claimed)
        assert any(isinstance(v, pf.StrategyLeavesRegion) for v in report.violations)

    def test_witness_is_checkable(self, g1):
        report = pf.verify(g1, pf.Solution((Player.EVEN, Player.EVEN), (0, 0)))
        for violation in report.violations:
            if isinstance(violation, LosingCycleWitness):
                cycle = violation.cycle
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert b in g1.successors[a]
                assert max(g1.priority[v] for v in cycle) == violation.max_priority


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_accepts_solver_output_rejects_mutations(seed):
    game = seeded_game(seed)
    sol = pf.solve(game)
    assert pf.verify(game, sol).ok

    rng = pf.SplitMix64(seed ^ 0xBAD)
    flipped = mutate_winner(sol, rng.below(game.n))
    report = pf.verify(game, flipped)
    assert not report.ok and len(report.violations) >= 1

    broken = broken_strategy_mutation(game, sol)
    if broken is not None:
        report = pf.verify(game, broken)
        assert not report.ok and len(report.violations) >= 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_region_completeness_against_oracle(seed):
    # any claimed solution that passes has the true winner map
    game = seeded_game(seed, max_n=14)
    truth = pf.solve_zielonka(game)
    sol = pf.solve(game)
    assert pf.verify(game, sol).ok
    assert sol.winner == truth.winner
    if game.n:
        flipped = mutate_winner(truth, 0)
        assert not pf.verify(game, flipped).ok
