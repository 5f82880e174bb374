"""Solve benchmark: time from a game text to a verified solution text.

One user runs ``parityfix solve --verify`` on one game at a time with the
default options, so each game goes through ``parse_pgsolver`` ->
``apply_preprocessing`` -> ``solve_detailed`` -> ``compose_solution`` ->
``verify`` -> ``write_solution`` in this process, closed loop, one thread.
Set-up (import, corpus generation, serialisation) runs in separate
processes and is timed ``SETUP_REPS`` times.  The corpus is then solved in
passes while the next pass is expected to end within ``--seconds``, and at
least ``MIN_PASSES`` times.

End-to-end times are calibrated (see ``calibrate.py``): each game's CPU
time is expressed in seconds of a machine that runs a fixed kernel in
``calibrate.REFERENCE_S``, by running that kernel throughout the game.
Set-up runs in other processes, so it is calibrated by kernel runs just
before and after each.  Before each game the heap is collected and frozen,
so every game meets the garbage collector as it would in a fresh
``parityfix`` process.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
an untraced pass and a traced pass alternate, and the per-layer split of
the traced pass is reported.  The last stdout line is the result JSON; the
line before it holds the machine and code facts of the run.

    python3 perfbench/run.py --workload core-10k --seed 0 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import corpus

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPS = 5
MIN_PASSES = 2  # so every game has a second sample to take the fastest of
GAME_TIMEOUT_S = 60.0

_WINNER_BITS = re.compile(rb"^\d+ ([01])", re.M)


class Lap:
    """Adds the time since the previous lap to ``spans[name]``."""

    def __init__(self, spans: defaultdict[str, float]):
        self.spans = spans
        self.last = time.perf_counter()

    def __call__(self, name: str) -> None:
        now = time.perf_counter()
        self.spans[name] += now - self.last
        self.last = now


def _no_lap(name: str) -> None:
    pass


class VerificationFailed(Exception):
    pass


def solve_text(pf, text: str, options, lap=_no_lap):
    """What ``parityfix solve --verify`` does to one game text."""
    game = pf.parse_pgsolver(text)
    lap("formats.parse_s")
    partials, residual = pf.apply_preprocessing(game)
    lap("preprocess.apply_s")
    outcome = pf.solve_detailed(residual, options)
    lap("solver.call_s")
    solution = pf.compose_solution(partials, outcome.solution)
    lap("preprocess.compose_s")
    report = pf.verify(game, solution)
    lap("verifier.verify_s")
    if not report.ok:
        raise VerificationFailed(report.violations[0].describe(game))
    out = pf.write_solution(game, solution)
    lap("formats.write_s")
    return out, residual, outcome


def winner_digest(solution_text: str) -> str:
    """SHA-256 of the winner bits, in ascending vertex id order as written."""
    return hashlib.sha256(b"".join(_WINNER_BITS.findall(solution_text.encode()))).hexdigest()


@dataclass
class Pass:
    solve_s: float  # wall seconds, without the calibration kernel's runs
    game_s: list[float]  # CPU seconds per game; this and the next two only in untraced passes
    calibrated_s: list[float]  # game_s at the reference machine's speed
    kernel_s: list[float]  # median kernel run time during each game
    digests: list[str | None]
    errors: list[str | None]
    spans: defaultdict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: defaultdict[str, int] = field(default_factory=lambda: defaultdict(int))


def run_pass(pf, games: list[dict], timeout_s: float, traced: bool) -> Pass:
    """Solve every game once; a traced pass also records the per-layer split."""
    options = pf.SolverOptions(timeout_s=timeout_s)
    result = Pass(0.0, [], [], [], [], [])
    spans, counts = result.spans, result.counts
    for g in games:
        gc.collect()
        gc.freeze()
        lap = Lap(spans) if traced else _no_lap
        clock = contextlib.nullcontext() if traced else calibrate.Sampler()
        w0 = time.perf_counter()
        with clock:
            try:
                out, residual, outcome = solve_text(pf, g["text"], options, lap)
                error = None
            except pf.SolveTimeoutError:
                out, error = None, "timeout"
            except Exception as exc:  # counted as a failed game; the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
        result.solve_s += time.perf_counter() - w0
        gc.unfreeze()
        if not traced:
            result.solve_s -= sum(clock.kernel_times)
            result.game_s.append(clock.program_s)
            result.calibrated_s.append(clock.calibrated_s)
            result.kernel_s.append(statistics.median(clock.kernel_times))
        result.errors.append(error)
        result.digests.append(winner_digest(out) if out is not None else None)
        if traced and out is not None:
            t_side = time.perf_counter()
            pf.sort_by_priority(residual)  # side call, discarded; outside solve_s
            spans["game.sort_s"] += time.perf_counter() - t_side
            st = outcome.stats
            spans["solver.core_s"] += st.wall_time_s
            counts["n"] += g["n"]
            counts["residual_n"] += residual.n
            for key in ("passes", "additions", "resets", "freezes"):
                counts[key] += getattr(st, key)
            counts["state_bytes"] = max(counts["state_bytes"], st.state_bytes)
    return result


def check_digests(result: Pass, expected: list[str] | None) -> None:
    """Turn a winner map that differs from the recorded one into a failed game."""
    if expected is None:
        return
    for i, (got, want) in enumerate(zip(result.digests, expected)):
        if got is not None and got != want and result.errors[i] is None:
            result.errors[i] = "winner digest mismatch"


def expected_digests(workload: str, seed: int, scale: float) -> list[str] | None:
    """Recorded digests apply to the default seed at full size only."""
    if seed != DEFAULT_SEED or scale != 1.0 or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def _children_cpu_s() -> float:
    t = os.times()
    return t.children_user + t.children_system


def set_up(workload: str, seed: int, scale: float) -> tuple[list[dict], list[float]]:
    """Generate the corpus ``SETUP_REPS`` times in fresh processes; all texts must agree.

    Returns the corpus and each generation's calibrated CPU seconds.
    """
    first, times = None, []
    kernel_before = calibrate.burst_s()
    for _ in range(SETUP_REPS):
        t0 = _children_cpu_s()
        proc = subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), "--workload", workload, "--seed", str(seed), "--scale", str(scale)],
            capture_output=True,
            timeout=150,
        )
        used_s = _children_cpu_s() - t0
        kernel_after = calibrate.burst_s()
        times.append(calibrate.REFERENCE_S * used_s / ((kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
        if proc.returncode != 0:
            raise SystemExit(f"error: corpus generation failed:\n{proc.stderr.decode(errors='replace')}")
        if first is None:
            first = proc.stdout
        elif proc.stdout != first:
            raise SystemExit("error: corpus generation is not deterministic")
    return json.loads(first), times


def tally(passes: list[Pass]) -> tuple[int, int]:
    """(games attempted, games failed) over the passes."""
    return sum(len(p.errors) for p in passes), sum(e is not None for p in passes for e in p.errors)


def corpus_s(per_game: list[list[float]]) -> float:
    """The corpus once: each game's median over the passes, summed."""
    return sum(statistics.median(times) for times in zip(*per_game))


def end_to_end(plain: list[Pass], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    attempted, failed = tally(plain)
    return {
        "solve_s": (corpus_s([p.calibrated_s for p in plain]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict[str, tuple[float, str]]:
    def med(name: str) -> float:
        return statistics.median(p.spans.get(name, 0.0) for p in traced)

    c = traced[0].counts
    core_s = med("solver.core_s")
    traced_s = statistics.median(p.solve_s for p in traced)
    attempted, failed = tally(traced)
    spans = (
        "formats.parse_s",
        "preprocess.apply_s",
        "solver.call_s",
        "preprocess.compose_s",
        "verifier.verify_s",
        "formats.write_s",
        "game.sort_s",
        "solver.core_s",
    )
    metrics = {name: (med(name), "s") for name in spans}
    metrics.update(
        {
            "preprocess.decided_frac": (1 - c["residual_n"] / c["n"] if c["n"] else 0.0, "frac"),
            "solver.wrap_s": (med("solver.call_s") - core_s, "s"),
            "solver.passes": (c["passes"], "count"),
            "solver.additions": (c["additions"], "count"),
            "solver.resets": (c["resets"], "count"),
            "solver.freezes": (c["freezes"], "count"),
            "solver.reset_ratio": (c["resets"] / c["passes"] if c["passes"] else 0.0, "frac"),
            "solver.passes_per_s": (c["passes"] / core_s if core_s else 0.0, "1/s"),
            "solver.state_bytes": (c["state_bytes"], "B"),
            "trace.solve_s": (traced_s, "s"),
            "solve_cpu_s": (corpus_s([p.game_s for p in plain]), "s"),
            "calibrate.kernel_s": (statistics.median(k for p in plain for k in p.kernel_s), "s"),
            "trace.overhead_s": (traced_s - statistics.median(p.solve_s for p in plain), "s"),
            "fail_frac": (failed / attempted, "frac"),
        }
    )
    return metrics


def _git_commit() -> str | None:
    """HEAD of the checkout's own git repository, if it is one."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(corpus.ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((corpus.SRC / "parityfix").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def facts(pf, workload: str, seed: int, scale: float, games: list[dict], digests: list[str] | None) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parityfix": pf.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "winner_digests": "checked" if digests is not None else "skipped",
        "games": [{"name": g["name"], "n": g["n"], "edges": g["edges"], "d": g["d"]} for g in games],
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    timeout_s: float = GAME_TIMEOUT_S,
    digests: list[str] | None = None,
) -> tuple[dict, dict]:
    """One benchmark run; returns (facts, result) where result is the final JSON line."""
    pf = corpus.import_parityfix()
    games, setup_times = set_up(workload, seed, scale)
    if digests is None:
        digests = expected_digests(workload, seed, scale)
    plain: list[Pass] = []
    traced: list[Pass] = []
    min_passes = 1 if trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(pf, games, timeout_s, traced=False))
        if trace:
            traced.append(run_pass(pf, games, timeout_s, traced=True))
        elapsed = time.perf_counter() - start
        if len(plain) >= min_passes and elapsed + (time.perf_counter() - t0) > seconds:
            break
    runs = plain + traced
    for p in runs:
        check_digests(p, digests)
    for p in runs:
        for g, error in zip(games, p.errors):
            if error is not None:
                print(f"{g['name']}: {error}", file=sys.stderr)
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setup_times)
    attempted, failed = tally(runs)
    info = facts(pf, workload, seed, scale, games, digests)
    info["pass_solve_s"] = {"plain": [p.solve_s for p in plain], "traced": [p.solve_s for p in traced]}
    info["game_cpu_s"] = [p.game_s for p in plain]
    info["game_calibrated_s"] = [p.calibrated_s for p in plain]
    info["kernel_s"] = [p.kernel_s for p in plain]
    info["setup_s"] = setup_times
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def record_digests() -> None:
    """Solve every workload once at the default seed and store its winner digests."""
    pf = corpus.import_parityfix()
    recorded = {}
    for workload in corpus.WORKLOADS:
        games, _ = set_up(workload, DEFAULT_SEED, 1.0)
        result = run_pass(pf, games, GAME_TIMEOUT_S, traced=False)
        if any(result.errors):
            raise SystemExit(f"error: {workload} did not solve cleanly: {result.errors}")
        recorded[workload] = result.digests
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parityfix solve benchmark")
    parser.add_argument("--workload", choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json at the default seed")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"facts": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
