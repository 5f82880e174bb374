"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run pytest -s to watch them as they complete)."""

import math
import time

import parityfix as pf
from parityfix import Player

from _oracles import reference_freezing, reference_justified
from conftest import build_g1, build_g2
from test_solver import Recorder, _run_record
from test_verifier import broken_strategy_mutation, mutate_winner


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {description}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def suite_game(seed: int, *, max_n: int, max_d: int, outdeg_hi: int = 4, self_loop: float = 0.1):
    rng = pf.SplitMix64(seed ^ 0x5EED5EED)
    n = 1 + rng.below(max_n)
    d = rng.below(max_d + 1)
    return pf.random_game(
        pf.GenParams(
            n=n,
            max_priority=d,
            outdegree_lo=1,
            outdegree_hi=min(outdeg_hi, n),
            self_loop_probability=self_loop,
            seed=seed,
        )
    )


def best_solve_time(game: pf.ParityGame, runs: int = 5) -> float:
    best = math.inf
    for _ in range(runs):
        best = min(best, pf.solve_detailed(game).stats.wall_time_s)
    return best


def test_criterion_1_golden_g1():
    g1 = build_g1()
    sol = pf.solve(g1)
    exact = sol.winner == (Player.EVEN, Player.EVEN) and sol.strategy == (1, 0)
    text_ok = pf.write_solution(g1, sol) == "paritysol 1;\n0 0 1;\n1 0 0;\n"
    elapsed = best_solve_time(g1)
    report(
        1,
        "golden game 1 exact solution under 1 ms",
        exact and text_ok and elapsed < 1e-3,
        f"(best of 5: {elapsed * 1e6:.0f} us)",
    )


def test_criterion_2_golden_g2():
    g2 = build_g2()
    sol = pf.solve(g2)
    all_even = set(sol.winner) == {Player.EVEN}
    strat = {g2.original_id[v]: g2.original_id[s] for v, s in enumerate(sol.strategy) if s is not None}
    forced = strat.get(3) == 16 and strat.get(2) == 1 and strat.get(4) == 17
    verified = pf.verify(g2, sol).ok
    elapsed = best_solve_time(g2)
    report(
        2,
        "golden game 2 forced strategy choices under 1 ms",
        all_even and forced and verified and elapsed < 1e-3,
        f"(best of 5: {elapsed * 1e6:.0f} us)",
    )


def test_criterion_3_differential_suite():
    t0 = time.perf_counter()
    count = 10_000
    for seed in range(count):
        game = suite_game(seed, max_n=40, max_d=6)
        basic = pf.solve_basic(game)
        freezing = pf.solve(game)
        zlk = pf.solve_zielonka(game)
        assert basic.winner == freezing.winner == zlk.winner, seed
        assert pf.verify(game, freezing).ok, seed
        assert pf.verify(game, zlk).ok, seed
    elapsed = time.perf_counter() - t0
    report(
        3,
        "differential suite: 10000 games, 3 solver configurations, verified",
        elapsed <= 300.0,
        f"({elapsed:.1f} s)",
    )


def test_criterion_4_nested_fixpoint_equivalence():
    t0 = time.perf_counter()
    for seed in range(1_000):
        game = suite_game(seed, max_n=12, max_d=4)
        assert pf.bfl_win0(game) == pf.solve_basic(game).region(Player.EVEN), seed
    elapsed = time.perf_counter() - t0
    report(
        4,
        "nested fixpoint oracle equals region solver on 1000 games",
        elapsed <= 120.0,
        f"({elapsed:.1f} s)",
    )


def test_criterion_5_freezing_discipline():
    violations = 0
    mismatches = 0
    for seed in range(10_000):
        game = suite_game(seed, max_n=40, max_d=6)
        sorted_game, _ = pf.sort_by_priority(game)
        recorder = Recorder(sorted_game)
        paper = reference_freezing(game, recorder)
        violations += len(recorder.violations)
        # the kernel's whole run matches the justified loop's, and its
        # winners the paper's loop's
        out = pf.solve_detailed(game)
        justified = reference_justified(game)
        if _run_record(out) != _run_record(justified) or out.solution.winner != paper.solution.winner:
            mismatches += 1
    report(
        5,
        "freeze discipline holds on the paper's loop over the differential suite, "
        "solver runs match the justified loop",
        violations == 0 and mismatches == 0,
        f"({violations} violations, {mismatches} mismatches)",
    )


def test_criterion_6_engine_agreement():
    mismatches = 0
    unverified = 0
    for seed in range(200):
        rng = pf.SplitMix64(seed ^ 0x6060)
        n = 1 + rng.below(2500)
        d = rng.below(7)
        game = pf.random_game(
            pf.GenParams(
                n=n,
                max_priority=d,
                outdegree_lo=1,
                outdegree_hi=min(4, n),
                self_loop_probability=0.1,
                seed=seed,
            )
        )
        out = pf.solve_detailed(game)
        if _run_record(out) != _run_record(reference_justified(game)):
            mismatches += 1
        if not pf.verify(game, out.solution).ok:
            unverified += 1
    report(
        6,
        "200 games bit-identical on the strategy kernel and the justified loop, all verified",
        mismatches == 0 and unverified == 0,
        f"({mismatches} mismatches, {unverified} unverified)",
    )


def test_criterion_7_preprocessing_soundness():
    for seed in range(1_000):
        game = suite_game(seed, max_n=40, max_d=6, self_loop=0.5)
        direct = pf.solve(game)
        partials, residual = pf.apply_preprocessing(game)
        composed = pf.compose_solution(partials, pf.solve(residual))
        assert composed.winner == direct.winner, seed
        assert pf.verify(game, composed).ok, seed
    report(7, "preprocessing keeps winner maps and strategies valid on 1000 games", True)


def test_criterion_8_space_accounting():
    game = pf.random_game(
        pf.GenParams(n=100_000, max_priority=3, outdegree_lo=1, outdegree_hi=3,
                     self_loop_probability=0.1, seed=80_002)
    )
    out = pf.solve_detailed(game)
    n, d = game.n, game.max_priority
    formula_bits = n * (1 + math.ceil(math.log2(d + 2)) + math.ceil(math.log2(n)))
    actual_bits = out.stats.state_bytes * 8
    ratio = actual_bits / formula_bits
    report(
        8,
        "working state is n(1 + log(d+2) + log n) bits within factor 2 at n=100000",
        0.5 <= ratio <= 2.0,
        f"(allocated {actual_bits} bits, formula {formula_bits} bits, ratio {ratio:.3f})",
    )


def test_criterion_9_performance_smoke():
    game = pf.random_game(
        pf.GenParams(n=100_000, max_priority=2, outdegree_lo=1, outdegree_hi=3,
                     self_loop_probability=0.1, seed=90_001)
    )
    out = pf.solve_detailed(game)
    elapsed = out.stats.wall_time_s
    ok = elapsed <= 5.0 and pf.verify(game, out.solution).ok
    report(
        9,
        "n=100000, d=2 game solved single-threaded within 5 s",
        ok,
        f"({elapsed:.2f} s, {out.stats.passes} passes)",
    )


def test_criterion_10_verifier_discrimination():
    accepted = rejected_winner = rejected_strategy = 0
    wanted = 500
    seed = 0
    while accepted < wanted and seed < 20 * wanted:
        game = suite_game(seed, max_n=40, max_d=6)
        seed += 1
        sol = pf.solve(game)
        if not any(s is not None for s in sol.strategy):
            continue  # need at least one strategy edge to mutate
        if not pf.verify(game, sol).ok:
            continue  # leaves accepted short, reported as failure below
        accepted += 1
        rng = pf.SplitMix64(seed ^ 0x10)
        flipped = mutate_winner(sol, rng.below(game.n))
        if not pf.verify(game, flipped).ok:
            rejected_winner += 1
        broken = broken_strategy_mutation(game, sol)
        if broken is not None and not pf.verify(game, broken).ok:
            rejected_strategy += 1
    ok = accepted == rejected_winner == rejected_strategy == wanted
    report(
        10,
        "verifier accepts 500 correct solutions, rejects 500+500 mutations",
        ok,
        f"(accepted {accepted}, rejected {rejected_winner} winner flips, "
        f"{rejected_strategy} strategy breaks)",
    )
