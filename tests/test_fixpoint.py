from hypothesis import given, settings, strategies as st

import parityfix as pf
from parityfix import Player
from parityfix.fixpoint import FixpointTrace, universe

from conftest import seeded_game


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
