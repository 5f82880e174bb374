"""Scaled-down checks of the solve benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import signal
import time

import pytest

import calibrate
import corpus
import run

SCALE = 0.02
SPEC = json.loads((corpus.ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    info, result = run.measure(workload, 1, 0.0, trace, scale=SCALE)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(info["games"]) * 2  # two passes, or one per mode
    want = _units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    json.dumps(result, allow_nan=False)


def test_facts_describe_machine_code_and_games():
    info, _ = run.measure("pipeline-100k", 3, 0.0, False, scale=SCALE)
    for key in ("nproc", "python", "numpy", "commit", "source_sha256", "seed"):
        assert key in info
    assert info["seed"] == 3 and info["winner_digests"] == "skipped"
    assert [sorted(g) for g in info["games"]] == [["d", "edges", "n", "name"]] * 2


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_corpus_other_seed_other_corpus(workload):
    a = corpus.generate(workload, 5, SCALE)
    assert a == corpus.generate(workload, 5, SCALE)
    assert a != corpus.generate(workload, 6, SCALE)


def _flip_first_bit(solution_text: str) -> str:
    return re.sub(r"^(\d+) ([01])", lambda m: f"{m[1]} {1 - int(m[2])}", solution_text, count=1, flags=re.M)


def test_flipped_winner_bit_trips_the_digest_check(monkeypatch):
    pf = corpus.import_parityfix()
    games, _ = run.set_up("core-10k", 0, SCALE)
    expected = run.run_pass(pf, games, run.GAME_TIMEOUT_S, traced=False).digests
    _, clean = run.measure("core-10k", 0, 0.0, False, scale=SCALE, digests=expected)
    assert clean["correct"] and clean["failed"] == 0

    solve_text = run.solve_text

    def flipped(pf, text, options, lap=run._no_lap):
        out, residual, outcome = solve_text(pf, text, options, lap)
        return (_flip_first_bit(out) if text == games[0]["text"] else out), residual, outcome

    monkeypatch.setattr(run, "solve_text", flipped)
    _, result = run.measure("core-10k", 0, 0.0, False, scale=SCALE, digests=expected)
    assert not result["correct"]
    assert result["failed"] == run.MIN_PASSES  # the first game, once per pass
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - run.MIN_PASSES / result["attempted"])


def test_injected_timeout_is_counted_not_dropped():
    info, result = run.measure("core-10k", 0, 0.0, False, scale=SCALE, timeout_s=0.0)
    assert result["attempted"] == len(info["games"]) * run.MIN_PASSES
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_digests_apply_to_the_default_seed_only():
    recorded = run.expected_digests("core-10k", run.DEFAULT_SEED, 1.0)
    assert recorded is not None and len(recorded) == corpus.CORE_GAMES
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in recorded)
    assert run.expected_digests("core-10k", run.DEFAULT_SEED + 1, 1.0) is None
    assert run.expected_digests("core-10k", run.DEFAULT_SEED, SCALE) is None


def test_own_cycle_check_matches_the_cycle_reduction():
    pf = corpus.import_parityfix()
    seen = set()
    for seed in range(40):
        game = pf.random_game(pf.GenParams(n=60, max_priority=6, seed=seed))
        partial, _ = pf.winner_controlled_cycles(game)
        seen.add(corpus.has_own_cycle(game))
        assert corpus.has_own_cycle(game) == bool(partial.decided)
    assert seen == {True, False}


def test_renumbering_seeds_keep_the_solver_work():
    _, a = run.measure("core-10k", 1, 0.0, True, scale=SCALE)
    _, b = run.measure("core-10k", 2, 0.0, True, scale=SCALE)
    for key in ("solver.passes", "solver.additions", "solver.resets", "solver.freezes", "preprocess.decided_frac"):
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"]


def _spin(cpu_s: float) -> None:
    end = time.thread_time() + cpu_s
    while time.thread_time() < end:
        pass


def test_sampler_leaves_out_the_kernel_and_scales_by_it(monkeypatch):
    def slow_kernel():  # a machine at half the reference speed
        _spin(0.001)
        return 2 * calibrate.REFERENCE_S

    monkeypatch.setattr(calibrate, "kernel_s", slow_kernel)
    handler = signal.getsignal(signal.SIGPROF)
    with calibrate.Sampler() as clock:
        _spin(0.3)
    assert len(clock.kernel_times) >= 4
    assert clock.program_s == pytest.approx(0.3, rel=0.1)
    assert clock.calibrated_s == pytest.approx(clock.program_s / 2)
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_calibration_kernel_does_not_use_the_package():
    source = (corpus.ROOT / "perfbench" / "calibrate.py").read_text()
    assert "parityfix" not in source and "import corpus" not in source
