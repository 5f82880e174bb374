from hypothesis import given, settings, strategies as st

import parityfix as pf

from _oracles import naive_attract, reachable, sccs
from conftest import seeded_game


def by_id(game, vertices):
    return sorted(game.original_id[v] for v in vertices)


class TestAttract:
    def test_empty_seed(self, g1):
        region, strategy = pf.attract(g1, None, pf.Player.EVEN, [])
        assert region == frozenset()
        assert strategy == {}

    def test_g2_odd_to_17(self, g2):
        seventeen = g2.original_id.index(17)
        region, strategy = pf.attract(g2, None, pf.Player.ODD, [seventeen])
        assert by_id(g2, region) == [17]
        assert strategy == {}

    def test_g2_even_to_16_attracts_everything(self, g2):
        # pinned with the brute-force oracle: the whole game drains into 16
        sixteen = g2.original_id.index(16)
        region, strategy = pf.attract(g2, None, pf.Player.EVEN, [sixteen])
        assert region == naive_attract(g2, None, pf.Player.EVEN, [sixteen])
        assert by_id(g2, region) == [1, 2, 3, 4, 5, 16, 17, 18]
        for v, u in strategy.items():
            assert g2.owner[v] is pf.Player.EVEN
            assert u in g2.successors[v]
            assert u in region

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 1))
    def test_matches_oracle_and_is_maximal(self, seed, player_bit):
        game = seeded_game(seed)
        player = pf.Player(player_bit)
        rng = pf.SplitMix64(seed)
        seeds = [v for v in range(game.n) if rng.below(4) == 0]
        region, strategy = pf.attract(game, None, player, seeds)
        assert set(seeds) <= region
        assert region == naive_attract(game, None, player, seeds)
        # idempotence / alpha-maximality
        again, _ = pf.attract(game, None, player, sorted(region))
        assert again == region
        # attractor strategy stays inside the region, seeds keep priors
        for v, u in strategy.items():
            assert int(game.owner[v]) == player_bit
            assert u in game.successors[v] and u in region
        for v in region - set(seeds):
            if int(game.owner[v]) == player_bit:
                assert v in strategy

    def test_restriction_respected(self):
        # a -> b -> c in a line; with c dead, attracting to b only reaches a
        game = pf.ParityGame([0, 0, 0], [0, 0, 0], [[1], [2], [2]])
        region, _ = pf.attract(game, [True, True, False], pf.Player.EVEN, [1])
        assert region == {0, 1}


class TestSccs:
    def test_g1_single_cyclic(self, g1):
        comps = sccs(g1)
        assert len(comps) == 1
        assert sorted(comps[0].vertices) == [0, 1]
        assert comps[0].cyclic

    def test_chain_with_sink_loop(self):
        game = pf.ParityGame([0, 0], [0, 0], [[1], [1]])
        comps = sccs(game)
        assert [sorted(c.vertices) for c in comps] == [[1], [0]]
        assert [c.cyclic for c in comps] == [True, False]

    def test_g2_single_component(self, g2):
        comps = sccs(g2)
        assert len(comps) == 1 and comps[0].cyclic
        # cross-check with the reachability oracle: everything reaches and
        # is reached by vertex 2
        two = g2.original_id.index(2)
        assert reachable(g2, two) == frozenset(range(8))
        assert all(two in reachable(g2, v) for v in range(8))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9))
    def test_partition_and_reverse_topological_order(self, seed):
        game = seeded_game(seed)
        comps = sccs(game)
        seen: set[int] = set()
        position: dict[int, int] = {}
        for i, comp in enumerate(comps):
            for v in comp.vertices:
                assert v not in seen
                seen.add(v)
                position[v] = i
        assert seen == set(range(game.n))
        # edges leaving a component may only reach earlier components
        for v in range(game.n):
            for u in game.successors[v]:
                assert position[u] <= position[v]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_cyclic_flag(self, seed):
        game = seeded_game(seed, max_n=15)
        for comp in sccs(game):
            expected = len(comp.vertices) > 1 or game.has_self_loop(comp.vertices[0])
            assert comp.cyclic == expected
