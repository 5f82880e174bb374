import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import parityfix as pf
from parityfix import LosingCycleWitness, Player, verifier

from _oracles import reference_trim, reference_verify
from conftest import package_imports, seeded_game


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
    # verify is never handed such a game: the constructor raises the error
    # every solver path meets, not a missing strategy
    claim = pf.Solution((Player.EVEN, Player.EVEN), (None, None))
    with pytest.raises(error) as info:
        pf.verify(pf.ParityGame([0, 1], [0, 1], successors), claim)
    assert str(info.value) == {
        pf.SinkVertexError: "vertex 0 has no successors",
        pf.DanglingEdgeError: "edge 0 -> 5 leaves the vertex range",
    }[error]


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


def corruptions(game: pf.ParityGame, sol: pf.Solution, rng: pf.SplitMix64):
    """Named single corruptions of a correct solution; each is skipped when
    the game has no vertex it applies to."""
    n = game.n
    winner, strategy = list(sol.winner), list(sol.strategy)
    flipped = list(winner)
    for _ in range(1 + rng.below(3)):
        v = rng.below(n)
        flipped[v] = flipped[v].opponent
    yield "flipped winners", pf.Solution(tuple(flipped), sol.strategy)
    moved = [v for v in range(n) if strategy[v] is not None]
    if moved:
        # a redirection that stays in the region can only be caught by a cycle
        redirected = list(strategy)
        for v in moved:
            others = [u for u in game.successors[v] if u != strategy[v] and winner[u] is winner[v]]
            if others:
                redirected[v] = others[rng.below(len(others))]
        yield "other successors in the region", pf.Solution(sol.winner, tuple(redirected))
        v = moved[rng.below(len(moved))]
        others = [u for u in game.successors[v] if u != strategy[v]]
        if others:
            redirected = list(strategy)
            redirected[v] = others[rng.below(len(others))]
            yield "other successor", pf.Solution(sol.winner, tuple(redirected))
        outside = [u for u in range(n) if u not in game.successors[v]]
        if outside:
            redirected = list(strategy)
            redirected[v] = outside[rng.below(len(outside))]
            yield "non-successor", pf.Solution(sol.winner, tuple(redirected))
        dropped = list(strategy)
        dropped[v] = None
        yield "dropped strategy", pf.Solution(sol.winner, tuple(dropped))
    unowned = [v for v in range(n) if game.owner[v] is not winner[v]]
    if unowned:
        v = unowned[rng.below(len(unowned))]
        extra = list(strategy)
        extra[v] = game.successors[v][rng.below(len(game.successors[v]))]
        yield "strategy of a losing owner", pf.Solution(sol.winner, tuple(extra))


def assert_witness_is_losing_cycle(game: pf.ParityGame, sol: pf.Solution, w: LosingCycleWitness):
    """``w.cycle`` is a cycle of the graph the verifier checks for the claimant
    of its vertices, and its maximum priority is the opponent's."""
    player = sol.winner[w.cycle[0]]
    for a, b in zip(w.cycle, w.cycle[1:] + w.cycle[:1]):
        assert sol.winner[a] is player and sol.winner[b] is player
        assert b in game.successors[a]
        if game.owner[a] is player:
            assert sol.strategy[a] == b
    assert max(game.priority[v] for v in w.cycle) == w.max_priority
    assert w.max_priority & 1 != int(player)


def assert_matches_reference(game: pf.ParityGame, claim: pf.Solution, name: str = "") -> None:
    """``pf.verify`` agrees with ``reference_verify``: the same verdict, the
    same local faults in the same order, and the same losing cycles."""
    report, expected = pf.verify(game, claim), reference_verify(game, claim)
    assert report.ok == expected.ok, name
    local = [v for v in report.violations if not isinstance(v, LosingCycleWitness)]
    assert local == [v for v in expected.violations if not isinstance(v, LosingCycleWitness)], name
    witnesses = [v for v in report.violations if isinstance(v, LosingCycleWitness)]
    for w in witnesses:
        assert_witness_is_losing_cycle(game, claim, w)
    # the trim drops no vertex of a longer cycle, and the loops it drops are
    # checked on the spot, so the losing cycles are the same
    assert sorted(witnesses, key=repr) == sorted(
        (v for v in expected.violations if isinstance(v, LosingCycleWitness)), key=repr
    ), name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.0, 0.1, 0.4]))
def test_matches_reference_verifier(seed, self_loop):
    game = seeded_game(seed, max_n=3000, self_loop=self_loop)
    sol = pf.solve(game)
    cases = [("correct", sol), *corruptions(game, sol, pf.SplitMix64(seed ^ 0xC0FFEE))]
    for name, claim in cases:
        assert_matches_reference(game, claim, name)


@pytest.mark.parametrize("target", ["n", -1, 2**70])
def test_out_of_range_strategy_target_leaves_region(target):
    # no game of 3 vertices has such a target, so no solution holds it:
    # the constructor refuses it instead of wrapping or clipping it into
    # range, where it would name vertex 0 or 2, and verify never sees it
    value = 3 if target == "n" else target
    with pytest.raises(ValueError, match=rf"strategy target of vertex 1 is {value}\b"):
        pf.Solution((Player.EVEN,) * 3, (1, value, 1))


def test_strategy_self_loops_match_reference():
    # Even claims both; 0 keeps its odd self-loop, 1 its even one
    game = pf.ParityGame([1, 2], [0, 0], [[0], [1, 0]])
    claim = pf.Solution((Player.EVEN, Player.EVEN), (0, 1))
    report = pf.verify(game, claim)
    assert report.violations == (LosingCycleWitness((0,), 1),)
    assert report == reference_verify(game, claim)


@pytest.mark.parametrize(
    "priority, owner, successors, strategy, expected",
    [
        # Odd's hostile loop at 0 is its only cycle: the trim drops 0, and
        # the loop is checked on the spot
        ([1, 0], [1, 0], [[0, 1], [1]], (None, 1), (LosingCycleWitness((0,), 1),)),
        # 0 is also on the 2-cycle 0 -> 1 -> 0, whose maximum 2 is Even's:
        # the trim keeps 0 with its loop, and the peel finds the loop once
        # it has dropped 1
        ([1, 2], [1, 0], [[0, 1], [0]], (None, 0), (LosingCycleWitness((0,), 1),)),
        # Odd's loop at 0 has Even's priority 2, so Even's claim stands
        ([2, 0], [1, 0], [[0, 1], [1]], (None, 1), ()),
    ],
)
def test_opponent_self_loops_match_reference(priority, owner, successors, strategy, expected):
    # Even claims both vertices
    game = pf.ParityGame(priority, owner, successors)
    claim = pf.Solution((Player.EVEN, Player.EVEN), strategy)
    assert pf.verify(game, claim).violations == expected
    assert_matches_reference(game, claim)


def _checked_edges(n: int, seed: int, degree: float, loops: bool) -> tuple[np.ndarray, np.ndarray]:
    """Distinct random edges over ``n`` vertices, about ``degree`` per
    vertex, with ascending sources, as the checked graph has them."""
    if not n:
        return np.zeros(0, np.int32), np.zeros(0, np.int32)
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.unique(rng.integers(0, n * n, int(degree * n))))
    sources, targets = np.divmod(keys, n)
    if not loops:
        step = sources != targets
        sources, targets = sources[step], targets[step]
    order = np.argsort(sources, kind="stable")
    return sources[order].astype(np.int32), targets[order].astype(np.int32)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 300), st.integers(0, 2**32 - 1), st.floats(0, 3), st.booleans())
@example(0, 0, 0.0, True)  # the empty graph
@example(5, 0, 0.0, True)  # vertices and no edges
def test_trim_matches_reference(n, seed, degree, loops):
    sources, targets = _checked_edges(n, seed, degree, loops)
    kept = verifier._trim(n, sources, targets)
    assert kept.tolist() == reference_trim(n, sources.tolist(), targets.tolist())


@pytest.mark.parametrize("loops", [False, True])
def test_trim_drops_a_long_path(loops):
    # the trim takes a vertex off each end per round, 1,000 rounds in all;
    # a self-loop on every vertex keeps none of them
    n = 2000
    pairs = [(v, u) for v in range(n) for u in ((v, v + 1) if loops else (v + 1,)) if u < n]
    sources = np.array([a for a, _ in pairs], dtype=np.int32)
    targets = np.array([b for _, b in pairs], dtype=np.int32)
    kept = verifier._trim(n, sources, targets)
    assert kept.tolist() == reference_trim(n, sources.tolist(), targets.tolist()) == []


def test_verifier_imports_only_the_game_module():
    # the verifier checks the production path, so it may not share its code
    package = package_imports(verifier)
    assert not package & {"solver", "preprocess", "fixpoint", "zielonka", "graphs"}
    assert package <= {"game"}
