import hashlib
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parityfix as pf
from parityfix import Player
from parityfix import solver as solver_module

from _oracles import (
    FreezingEvents,
    onestep,
    reference_basic,
    reference_freezing,
    reference_justified,
    winner_of,
)
from conftest import seeded_game


class Recorder(FreezingEvents):
    """Independently mirrors Z and F from events and checks the freeze rules.

    The mirror never reads solver state: every assertion is reconstructed
    from the event stream alone.
    """

    def __init__(self, sorted_game: pf.ParityGame):
        self.game = sorted_game
        self.z = [0] * sorted_game.n
        self.f: list[int | None] = [None] * sorted_game.n
        self.level_size: dict[int, int] = {}
        for p in sorted_game.priority:
            self.level_size[p] = self.level_size.get(p, 0) + 1
        self.epoch_additions: dict[int, int] = {}
        self.trace: list[tuple] = []
        self.violations: list[tuple] = []

    def on_pass(self, p):
        self.trace.append(("pass", p))
        for v, fv in enumerate(self.f):
            if fv is not None and fv < p:
                self.violations.append(("freeze-below-cursor", v, fv, p))

    def on_evaluate(self, v, p):
        if self.f[v] is not None:
            self.violations.append(("evaluated-frozen", v, p))
        if self.z[v]:
            self.violations.append(("evaluated-flagged", v, p))
        if self.game.priority[v] != p:
            self.violations.append(("evaluated-off-level", v, p))

    def on_add(self, v, p):
        self.trace.append(("add", v, p))
        if self.z[v]:
            self.violations.append(("re-add-without-reset", v, p))
        self.z[v] = 1
        count = self.epoch_additions.get(p, 0) + 1
        self.epoch_additions[p] = count
        if count > self.level_size.get(p, 0):
            self.violations.append(("epoch-additions-exceed-level", p, count))

    def on_freeze(self, v, p, winner_bit):
        self.trace.append(("freeze", v, p))
        if self.f[v] is not None:
            self.violations.append(("double-freeze", v, p))
        if not p > self.game.priority[v]:
            self.violations.append(("freeze-level-not-above-priority", v, p))
        mirror_winner = (self.game.priority[v] & 1) ^ self.z[v]
        if mirror_winner != 1 - (p & 1) or winner_bit != 1 - (p & 1):
            self.violations.append(("freeze-winner-mismatch", v, p))
        self.f[v] = p

    def on_thaw(self, v, p):
        self.trace.append(("thaw", v, p))
        if self.f[v] != p:
            self.violations.append(("thaw-mismatch", v, p))
        self.f[v] = None

    def on_reset(self, v, p):
        self.trace.append(("reset", v, p))
        if self.f[v] is not None:
            self.violations.append(("reset-frozen", v, p))
        self.z[v] = 0
        self.epoch_additions[self.game.priority[v]] = 0


class TestWinnerOf:
    def test_even_priority_unflagged(self, g1):
        assert winner_of(1, frozenset(), g1) is Player.EVEN

    def test_odd_priority_flagged_goes_even(self):
        game = pf.ParityGame([5], [0], [[0]])
        assert winner_of(0, {0}, game) is Player.EVEN

    def test_even_priority_flagged_goes_odd(self, g1):
        assert winner_of(1, {1}, g1) is Player.ODD


class TestOnestep:
    def test_g1_v0_picks_v1(self, g1):
        assert onestep(0, frozenset(), g1) == (Player.EVEN, 1)

    def test_opponent_wins_no_strategy(self):
        # Odd-owned vertex whose only successor has an even priority
        game = pf.ParityGame([1, 0], [1, 0], [[1], [1]])
        assert onestep(0, frozenset(), game) == (Player.EVEN, None)

    def test_all_successors_hostile(self):
        # Even-owned vertex, both successors currently Odd-winning
        game = pf.ParityGame([0, 1, 3], [0, 1, 0], [[1, 2], [1], [2]])
        assert onestep(0, frozenset(), game) == (Player.ODD, None)


class TestSolveBasic:
    def test_g1_regions_and_distractions(self, g1):
        out = pf.solve_detailed(g1, pf.SolverOptions(mode="basic"))
        assert out.solution.winner == (Player.EVEN, Player.EVEN)
        assert out.solution.strategy == (None, None)
        assert _distractions(g1, out.solution) == [0]

    def test_g2_all_even(self, g2):
        sol = pf.solve_basic(g2)
        assert set(sol.winner) == {Player.EVEN}

    def test_empty_game(self):
        sol = pf.solve_basic(pf.ParityGame([], [], []))
        assert sol.winner == () and sol.strategy == ()


class TestSolveFreezing:
    def test_g1_strategy(self, g1):
        sol = pf.solve(g1)
        assert sol.winner == (Player.EVEN, Player.EVEN)
        assert sol.strategy == (1, 0)

    def test_g2_forced_choices(self, g2):
        sol = pf.solve(g2)
        assert set(sol.winner) == {Player.EVEN}
        strat = {g2.original_id[v]: g2.original_id[s] for v, s in enumerate(sol.strategy) if s is not None}
        assert strat[3] == 16
        assert strat[2] == 1
        assert strat[4] == 17
        assert pf.verify(g2, sol).ok

    def test_lost_single_vertex_has_no_strategy(self):
        game = pf.ParityGame([1], [0], [[0]])
        sol = pf.solve(game)
        assert sol.winner == (Player.ODD,)
        assert sol.strategy == (None,)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            pf.SolverOptions(mode="nope")

    def test_timeout(self):
        game = seeded_game(99, max_n=40)
        with pytest.raises(pf.SolveTimeoutError):
            pf.solve(game, pf.SolverOptions(timeout_s=0.0))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9))
def test_region_agreement_across_modes(seed):
    game = seeded_game(seed)
    basic = pf.solve_basic(game)
    freezing = pf.solve(game)
    assert basic.winner == freezing.winner
    assert pf.verify(game, freezing).ok


def _distractions(game, solution):
    """The final Z: the vertices not won by the player of their parity."""
    return np.flatnonzero(solution.win != game._parity_bits).tolist()


def _run_record(out):
    # equal solutions imply equal distractions
    st = out.stats
    return out.solution, (st.passes, st.additions, st.resets, st.reset_vertices, st.freezes)


_REFERENCE = {"freezing": reference_justified, "basic": reference_basic}


def _check_mode(game, mode):
    """Solve ``game`` in ``mode`` and compare the run with its reference
    loop, which evaluates every vertex the kernel evaluates and more."""
    out = pf.solve_detailed(game, pf.SolverOptions(mode=mode))
    reference = _REFERENCE[mode](game)
    assert _run_record(out) == _run_record(reference), mode
    assert out.stats.evaluations <= reference.stats.evaluations
    return out


def _check_modes(game):
    return [_check_mode(game, mode) for mode in _REFERENCE]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_engines_bit_identical(seed):
    game = seeded_game(seed, max_n=60)
    assert _run_record(pf.solve_detailed(game)) == _run_record(reference_justified(game))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_basic_kernel_matches_reference(seed):
    _check_mode(seeded_game(seed, max_n=60, max_d=8), "basic")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_sparse_huge_priorities_match_reference(seed):
    base = seeded_game(seed, max_n=40)
    game = pf.ParityGame([p * 2**33 + (p & 1) for p in base.priority], base.owner, base.successors)
    _check_modes(game)


@pytest.mark.parametrize("mode", ["freezing", "basic"])
def test_empty_and_one_vertex_games(mode):
    # the empty game and a self-loop per owner and priority 0-3
    games = [pf.ParityGame([], [], [])]
    games += [pf.ParityGame([p], [o], [[0]]) for o in (0, 1) for p in range(4)]
    for game in games:
        sol = pf.solve(game, pf.SolverOptions(mode=mode))
        assert sol.winner == pf.solve_zielonka(game).winner
        if mode == "freezing":
            assert pf.verify(game, sol).ok


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.0, 0.1]))
def test_engines_bit_identical_detailed(seed, self_loop):
    # n is uniform in 1..2500: levels of more than 64 vertices send their
    # first pass through the numpy evaluator, later small dirty sets through
    # the Python one
    game = seeded_game(seed, max_n=2500, max_d=8, self_loop=self_loop)
    assert _run_record(pf.solve_detailed(game)) == _run_record(reference_justified(game))


def test_vector_engine_evaluates_fewer_vertices():
    game = pf.random_game(
        pf.GenParams(n=2000, max_priority=6, outdegree_lo=1, outdegree_hi=3,
                     self_loop_probability=0.0, seed=1)
    )
    reference = reference_justified(game)
    out = pf.solve_detailed(game)
    assert _run_record(out) == _run_record(reference)
    assert 0 < out.stats.evaluations < reference.stats.evaluations


def test_vector_engine_huge_priorities():
    base = pf.random_game(
        pf.GenParams(n=3000, max_priority=6, outdegree_lo=1, outdegree_hi=3,
                     self_loop_probability=0.1, seed=5)
    )
    game = pf.ParityGame([p * 2**33 + (p & 1) for p in base.priority], base.owner, base.successors)
    out = pf.solve_detailed(game)
    assert _run_record(out) == _run_record(reference_justified(game))
    assert pf.verify(game, out.solution).ok


def _leveled_game(seed: int, levels: int) -> pf.ParityGame:
    """Seeded game whose priorities take exactly ``levels`` distinct values.

    Vertex v < ``levels`` has priority v, and three in four of those are
    owned by the player of their parity and move to themselves first, so
    they never become distractions and the pass count stays small.  The 80
    further vertices share priority 0, a level larger than ``_K``.
    """
    n = levels + 80
    base = pf.random_game(
        pf.GenParams(n=n, max_priority=0, outdegree_lo=1, outdegree_hi=3,
                     self_loop_probability=0.0, seed=seed)
    )
    rng = pf.SplitMix64(seed)
    priority, owner, successors = [], [], []
    for v in range(n):
        succ = list(base.successors[v])
        if v < levels and rng.below(4):
            priority.append(v)
            owner.append(v & 1)
            successors.append([v] + [u for u in succ if u != v])
        else:
            priority.append(v if v < levels else 0)
            owner.append(base.owner[v])
            successors.append(succ)
    return pf.ParityGame(priority, owner, successors)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**9), st.integers(64, 300))
def test_engines_bit_identical_wide_layout(seed, levels):
    # more than 63 levels: the flags stay one byte per vertex.  Strategy
    # mode only; basic mode's full reset makes the pass count of most
    # seeds grow too fast at these level counts
    game = _leveled_game(seed, levels)
    assert len(pf.sort_by_priority(game)[0].levels) == levels
    out = _check_mode(game, "freezing")
    assert out.stats.state_bytes == game.n * 5


@pytest.mark.parametrize("levels, old_word_bytes", [(63, 1), (64, 2)])
def test_flag_layout_boundary(levels, old_word_bytes):
    # 63 levels is the most that a one-byte flags word with a freeze field
    # held; without that field the flags are one byte at 64 levels too,
    # where the freeze field needed a two-byte word
    for seed in range(8):
        game = _leveled_game(seed, levels)
        assert len(pf.sort_by_priority(game)[0].levels) == levels
        for out in _check_modes(game):
            assert out.stats.state_bytes == game.n * 5 <= game.n * (old_word_bytes + 4)


@pytest.mark.parametrize("mode, state_bytes", [("freezing", 5), ("basic", 5)])
def test_timeout_carries_partial_stats(monkeypatch, mode, state_bytes):
    # a clock that ticks once per reading: the start, one per pass, so the
    # deadline passes at the check before pass k + 1, and the stop
    ticks = iter(range(10**6))
    clock = types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
    game = pf.random_game(
        pf.GenParams(n=2000, max_priority=6, outdegree_lo=1, outdegree_hi=3,
                     self_loop_probability=0.0, seed=1)
    )
    k = 25
    monkeypatch.setattr(solver_module, "time", clock)
    with pytest.raises(pf.SolveTimeoutError) as info:
        pf.solve_detailed(game, pf.SolverOptions(mode=mode, timeout_s=k + 0.5))
    stats = info.value.stats
    assert stats.passes == k
    assert stats.state_bytes == state_bytes * game.n
    assert stats.wall_time_s == k + 2
    assert stats.evaluations > 0
    assert sum(stats.level_passes) == k
    assert sum(stats.level_evaluations) == stats.evaluations
    assert sum(stats.level_additions) == stats.additions


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_level_counters_sum_to_totals(seed):
    game = seeded_game(seed, max_n=300, max_d=8)
    levels = pf.sort_by_priority(game)[0].levels
    for mode in ("freezing", "basic"):
        stats = pf.solve_detailed(game, pf.SolverOptions(mode=mode)).stats
        for per_level, total in (
            (stats.level_passes, stats.passes),
            (stats.level_evaluations, stats.evaluations),
            (stats.level_additions, stats.additions),
        ):
            assert len(per_level) == len(levels)
            assert sum(per_level) == total
        # the last run goes up through every level without an addition, and
        # no level gets more passes than the one below it
        assert min(stats.level_passes, default=1) >= 1
        assert all(a >= b for a, b in zip(stats.level_passes, stats.level_passes[1:]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_freeze_discipline_and_epoch_monotonicity(seed):
    game = seeded_game(seed)
    sorted_game, _ = pf.sort_by_priority(game)
    recorder = Recorder(sorted_game)
    reference = reference_freezing(game, recorder)
    assert recorder.violations == []
    # the paper's reset stays an independent oracle of the kernel's winners
    assert reference.solution.winner == pf.solve(game).winner
    assert pf.verify(game, reference.solution).ok


class JustificationWatch(Recorder):
    """Also checks the justified reset: the walk reaches no vertex at or
    above the resetting level, the loop's z bytes equal the mirror, and after
    every reset each lower distraction still in Z keeps a valid
    justification (its slot's target, or every successor, won by its
    winner)."""

    def on_walk(self, v, p):
        if not self.game.priority[v] < p:
            self.violations.append(("walked-not-below", v, p))

    def on_sweep(self, p, z, st):
        game = self.game
        if list(z) != self.z:
            self.violations.append(("z-differs-from-mirror", p))
        parity = [q & 1 for q in game.priority]
        for v, q in enumerate(game.priority):
            if q >= p or not z[v]:
                continue
            w = parity[v] ^ 1
            if int(game.owner[v]) == w:
                held = st[v] >= 0 and parity[st[v]] ^ z[st[v]] == w
            else:
                held = all(parity[u] ^ z[u] == w for u in game.successors[v])
            if not held:
                self.violations.append(("justification-broken", v, p))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.0, 0.1]))
def test_justified_reset_invariants(seed, self_loop):
    game = seeded_game(seed, max_n=120, max_d=8, self_loop=self_loop)
    watch = JustificationWatch(pf.sort_by_priority(game)[0])
    reference = reference_justified(game, watch)
    assert watch.violations == []
    assert reference.solution.winner == pf.solve_zielonka(game).winner
    assert pf.verify(game, reference.solution).ok


@pytest.mark.parametrize("mode", ["freezing", "basic"])
def test_reset_vertices_match_reference(mode):
    for seed in range(20):
        game = seeded_game(seed, min_n=100, max_n=400, max_d=8, self_loop=0.0)
        stats = pf.solve_detailed(game, pf.SolverOptions(mode=mode)).stats
        assert stats.reset_vertices == _REFERENCE[mode](game).stats.reset_vertices


def test_trace_deterministic_across_runs():
    for seed in (3, 17, 2024):
        game = seeded_game(seed)
        sorted_game, _ = pf.sort_by_priority(game)
        traces = []
        for _ in range(3):
            rec = Recorder(sorted_game)
            reference_freezing(game, rec)
            traces.append(rec.trace)
        assert all(t == traces[0] for t in traces)


def test_frozen_strategy_survives_until_thaw():
    # any seed works; the recorder pins str writes to non-frozen evaluations
    class StrWatch(Recorder):
        def __init__(self, sorted_game):
            super().__init__(sorted_game)
            self.frozen_str: dict[int, int | None] = {}

        def on_freeze(self, v, p, winner_bit):
            super().on_freeze(v, p, winner_bit)
            self.frozen_str[v] = None  # sentinel: no writes allowed now

        def on_evaluate(self, v, p):
            super().on_evaluate(v, p)
            if v in self.frozen_str and self.f[v] is not None:
                self.violations.append(("write-while-frozen", v))

    for seed in (5, 55, 555):
        game = seeded_game(seed)
        sorted_game, _ = pf.sort_by_priority(game)
        watch = StrWatch(sorted_game)
        reference_freezing(game, watch)
        assert watch.violations == []


def test_state_bytes_reported(g2):
    # both modes: packed flag byte plus 4-byte strategy slot per vertex
    out = pf.solve_detailed(g2)
    assert out.stats.state_bytes == g2.n * 5
    basic = pf.solve_detailed(g2, pf.SolverOptions(mode="basic"))
    assert basic.stats.state_bytes == g2.n * 5


def test_counters_populated(g2):
    out = pf.solve_detailed(g2)
    assert out.stats.passes > 0
    assert out.stats.additions > 0
    assert out.stats.wall_time_s >= 0.0


class DigestHooks(FreezingEvents):
    """Feeds every hook event, in call order, into one SHA-256."""

    def __init__(self, digest):
        self.digest = digest

    def _event(self, *fields):
        self.digest.update((" ".join(map(str, fields)) + "\n").encode())

    def on_pass(self, p):
        self._event("pass", p)

    def on_evaluate(self, v, p):
        self._event("evaluate", v, p)

    def on_add(self, v, p):
        self._event("add", v, p)

    def on_freeze(self, v, p, winner_bit):
        self._event("freeze", v, p, winner_bit)

    def on_thaw(self, v, p):
        self._event("thaw", v, p)

    def on_reset(self, v, p):
        self._event("reset", v, p)


# (seed, self-loop probability) of the games whose runs are pinned
_PINNED_GAMES = [(11, 0.0), (12, 0.0), (13, 0.1), (14, 0.1)]


def _pinned_game(seed, self_loop):
    return seeded_game(seed, max_n=300, max_d=8, self_loop=self_loop)


# Recorded from the reference loop; no other test looks at the content of
# the event stream.
_HOOK_DIGEST = "4c38754d83fa982d41feef9527daede600c5160efc4b5bcf17949507226294b4"


def test_hook_event_stream_pinned():
    digest = hashlib.sha256()
    for seed, self_loop in _PINNED_GAMES:
        reference_freezing(_pinned_game(seed, self_loop), DigestHooks(digest))
    assert digest.hexdigest() == _HOOK_DIGEST


# per game, from the basic reference loop: passes, additions, resets,
# evaluations and the first 16 hex digits of the SHA-256 of the sorted
# distractions
_BASIC_PINNED = {
    (11, 0.0): (111, 251, 68, 956, "1e9ab7a9ecd635db"),
    (12, 0.0): (2814, 7981, 1527, 24199, "858407aabb295fd8"),
    (13, 0.1): (279, 898, 174, 3667, "ed208ee4c760e79b"),
    (14, 0.1): (24948, 123405, 16252, 444805, "245987e5dd9e13a3"),
}

# the kernel's evaluations in basic mode on the same games: it skips the
# vertices whose successors' winner bits have not changed
_BASIC_KERNEL_EVALUATIONS = {(11, 0.0): 574, (12, 0.0): 15125, (13, 0.1): 1542, (14, 0.1): 202725}


def _basic_record(game, out):
    st = out.stats
    distractions = hashlib.sha256(repr(_distractions(game, out.solution)).encode()).hexdigest()[:16]
    return st.passes, st.additions, st.resets, st.evaluations, distractions


def test_basic_mode_pinned():
    for seed, self_loop in _PINNED_GAMES:
        game = _pinned_game(seed, self_loop)
        reference = _basic_record(game, reference_basic(game))
        kernel = _basic_record(game, pf.solve_detailed(game, pf.SolverOptions(mode="basic")))
        assert reference == _BASIC_PINNED[seed, self_loop]
        # the same run but for the evaluations
        assert kernel[:3] + kernel[4:] == reference[:3] + reference[4:]
        assert kernel[3] == _BASIC_KERNEL_EVALUATIONS[seed, self_loop] <= reference[3]
