import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parityfix as pf

from conftest import seeded_game


class TestSplitMix64:
    def test_reference_vectors(self):
        # published outputs of the canonical splitmix64 stream
        rng = pf.SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F
        rng = pf.SplitMix64(1234567)
        assert rng.next_u64() == 0x599ED017FB08FC85
        assert rng.next_u64() == 0x2C73F08458540FA5

    def test_below_is_in_range(self):
        rng = pf.SplitMix64(9)
        for bound in (1, 2, 3, 17, 1000):
            for _ in range(50):
                assert 0 <= rng.below(bound) < bound

    def test_below_takes_bounds_up_to_2_pow_64(self):
        # a larger bound made the rejection limit 0, and the draw loop endless
        for bound in (0, 2**64 + 1, 2**65):
            with pytest.raises(ValueError, match="bound must be in 1..2\\*\\*64"):
                pf.SplitMix64(3).below(bound)
        # a bound of 2**64 takes every draw as it is
        assert pf.SplitMix64(3).below(2**64) == pf.SplitMix64(3).next_u64()

    def test_sample_distinct(self):
        rng = pf.SplitMix64(5)
        for _ in range(100):
            got = rng.sample(10, 7)
            assert len(set(got)) == 7
            assert all(0 <= x < 10 for x in got)


class TestParams:
    def test_invalid(self):
        with pytest.raises(pf.InvalidParamsError):
            pf.GenParams(n=0, max_priority=1)
        with pytest.raises(pf.InvalidParamsError):
            pf.GenParams(n=5, max_priority=1, outdegree_lo=0)
        with pytest.raises(pf.InvalidParamsError):
            pf.GenParams(n=5, max_priority=1, outdegree_lo=3, outdegree_hi=2)
        with pytest.raises(pf.InvalidParamsError):
            pf.GenParams(n=5, max_priority=1, outdegree_hi=6)
        with pytest.raises(pf.InvalidParamsError):
            pf.GenParams(n=5, max_priority=-1)
        with pytest.raises(pf.InvalidParamsError):
            pf.GenParams(n=5, max_priority=1, self_loop_probability=1.5)

    def test_max_priority_is_an_int64(self):
        # a game with a larger priority is refused by the constructor
        with pytest.raises(pf.InvalidParamsError, match="max_priority"):
            pf.GenParams(n=3, max_priority=2**63)
        game = pf.random_game(pf.GenParams(n=3, max_priority=2**63 - 1, seed=1))
        assert game._priority.dtype == np.int64 and game.max_priority < 2**63


class TestRandomGame:
    def test_same_seed_same_game_twice(self):
        params = pf.GenParams(n=30, max_priority=5, outdegree_hi=4, self_loop_probability=0.3, seed=77)
        a = pf.random_game(params)
        b = pf.random_game(params)
        assert a.priority == b.priority
        assert a.owner == b.owner
        assert a.successors == b.successors

    def test_frozen_stream(self):
        # the exact output for this seed is part of the API; a change here
        # means the generator algorithm changed and needs a major version
        game = pf.random_game(
            pf.GenParams(n=4, max_priority=3, outdegree_lo=1, outdegree_hi=2, self_loop_probability=0.5, seed=42)
        )
        assert game.priority == (1, 2, 3, 2)
        assert tuple(int(o) for o in game.owner) == (1, 0, 0, 1)
        assert game.successors == ((0,), (2, 0), (3,), (3, 0))

    def test_forced_single_self_loop(self):
        game = pf.random_game(
            pf.GenParams(n=1, max_priority=0, outdegree_lo=1, outdegree_hi=1, self_loop_probability=1.0, seed=3)
        )
        assert game.successors == ((0,),)

    def test_no_loops_when_probability_zero(self):
        game = pf.random_game(
            pf.GenParams(n=40, max_priority=4, outdegree_hi=3, self_loop_probability=0.0, seed=11)
        )
        assert not any(game.has_self_loop(v) for v in range(game.n))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_generated_games_validate(self, seed):
        game = seeded_game(seed, self_loop=0.3)
        d = game.max_priority
        for v in range(game.n):
            assert len(game.successors[v]) >= 1
            assert 0 <= game.priority[v] <= d
