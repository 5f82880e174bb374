import pytest
from hypothesis import given, settings, strategies as st

import parityfix as pf
from parityfix import Player
from parityfix.fixpoint import FixpointTrace, universe

from _oracles import onestep
from conftest import seeded_game


class TestModalOperators:
    def test_full_set(self, g1):
        v = universe(g1)
        assert pf.diamond(v, g1) == v
        assert pf.box(v, g1) == v

    def test_empty_set(self, g1):
        assert pf.diamond(frozenset(), g1) == frozenset()
        assert pf.box(frozenset(), g1) == frozenset()

    def test_g1_singleton(self, g1):
        s = frozenset({1})
        assert pf.diamond(s, g1) == {0}
        assert pf.box(s, g1) == frozenset()


class TestOnestepSets:
    def test_g1_empty_flags(self, g1):
        one0, one1, distraction = pf.onestep_sets(frozenset(), g1)
        assert one0 == {0}
        assert one1 == {1}
        # v0 (odd priority, one-step Even) and v1 (even priority, one-step
        # Odd) are both one-step distraction estimates at this point
        assert distraction == {0, 1}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_partition(self, seed):
        game = seeded_game(seed, max_n=20)
        rng = pf.SplitMix64(seed + 1)
        z = frozenset(v for v in range(game.n) if rng.below(3) == 0)
        one0, one1, _ = pf.onestep_sets(z, game)
        assert one0 | one1 == universe(game)
        assert one0 & one1 == frozenset()

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_pointwise_agreement_with_solver_onestep(self, seed):
        game = seeded_game(seed, max_n=20)
        rng = pf.SplitMix64(seed + 2)
        z = frozenset(v for v in range(game.n) if rng.below(3) == 0)
        one0, one1, distraction = pf.onestep_sets(z, game)
        for v in range(game.n):
            player, _ = onestep(v, z, game)
            assert (v in one0) == (player is Player.EVEN)
            assert (v in one1) == (player is Player.ODD)
            expected = (game.priority[v] & 1) != int(player)
            assert (v in distraction) == expected


class TestForce:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_duality(self, seed):
        game = seeded_game(seed, max_n=20)
        rng = pf.SplitMix64(seed + 3)
        x = frozenset(v for v in range(game.n) if rng.below(2) == 0)
        v = universe(game)
        for player in (Player.EVEN, Player.ODD):
            assert pf.force(player, x, game) == v - pf.force(player.opponent, v - x, game)


class TestNestedFixpoint:
    def test_g1(self, g1):
        assert pf.bfl_win0(g1) == {0, 1}

    def test_single_even_self_loop(self):
        game = pf.ParityGame([4], [1], [[0]])
        assert pf.bfl_win0(game) == {0}

    def test_single_odd_self_loop(self):
        game = pf.ParityGame([3], [0], [[0]])
        assert pf.bfl_win0(game) == frozenset()

    def test_empty_game(self):
        assert pf.bfl_win0(pf.ParityGame([], [], [])) == frozenset()

    def test_budget_exhaustion(self, g2):
        with pytest.raises(pf.FixpointBudgetError):
            pf.bfl_win0(g2, budget=2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_basic_solver_even_region(self, seed):
        game = seeded_game(seed, max_n=12, max_d=4)
        assert pf.bfl_win0(game) == pf.solve_basic(game).region(Player.EVEN)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_monotone_convergence(self, seed):
        game = seeded_game(seed, max_n=10, max_d=3)
        trace = FixpointTrace()
        pf.bfl_win0(game, trace=trace)
        for priority, chain in trace.chains:
            # mu levels only grow, nu levels only shrink, and each chain
            # stabilizes within n + 1 steps of its own level
            assert len(chain) <= game.n + 2
            for earlier, later in zip(chain, chain[1:]):
                if priority % 2 == 1:
                    assert earlier <= later
                else:
                    assert later <= earlier


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_union_intersection_identity_over_level_partition(seed):
    # with the V_p partitioning V, the union over levels of (V_p and X_p)
    # equals the intersection over levels of (not V_p or X_p)
    game = seeded_game(seed, max_n=14)
    rng = pf.SplitMix64(seed + 4)
    levels = sorted(set(game.priority))
    v_of = {p: frozenset(v for v in range(game.n) if game.priority[v] == p) for p in levels}
    x_of = {
        p: frozenset(v for v in range(game.n) if rng.below(2) == 0) for p in levels
    }
    full = universe(game)
    union_form = frozenset().union(*(v_of[p] & x_of[p] for p in levels)) if levels else frozenset()
    intersection_form = full
    for p in levels:
        intersection_form &= (full - v_of[p]) | x_of[p]
    assert union_form == intersection_form
