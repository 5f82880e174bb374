import pytest
from hypothesis import given, settings, strategies as st

import parityfix as pf
from parityfix import Player

from conftest import seeded_game


def test_g1(g1):
    sol = pf.solve_zielonka(g1)
    assert sol.winner == (Player.EVEN, Player.EVEN)
    assert pf.verify(g1, sol).ok


def test_g2(g2):
    sol = pf.solve_zielonka(g2)
    assert set(sol.winner) == {Player.EVEN}
    assert pf.verify(g2, sol).ok


def test_single_odd_self_loop():
    game = pf.ParityGame([1], [1], [[0]])
    sol = pf.solve_zielonka(game)
    assert sol.winner == (Player.ODD,)
    assert sol.strategy == (0,)


def test_empty_game():
    sol = pf.solve_zielonka(pf.ParityGame([], [], []))
    assert sol.winner == ()


def test_timeout():
    game = seeded_game(7)
    with pytest.raises(pf.SolveTimeoutError):
        pf.solve_zielonka(game, timeout_s=0.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_differential_against_dfi(seed):
    game = seeded_game(seed)
    zlk = pf.solve_zielonka(game)
    dfi = pf.solve(game)
    assert zlk.winner == dfi.winner
    assert pf.verify(game, zlk).ok
