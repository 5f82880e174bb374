"""Command line front end: solve, verify, gen, bench, stats.

Exit codes: 0 solved/ok, 1 verification failure, 2 I/O, decode or parse
error, 3 invalid flags, 4 solver deadline passed (``solve --timeout``,
which bounds the solver only, not reading or preprocessing).  ``main``
prints the one ``error:`` line of a usage, I/O, decode or parse error.
All file I/O speaks the PGSolver formats; sorting and index remapping
stay internal, users only ever see their own vertex ids.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

from .fixpoint import bfl_win0
from .formats import ParseError, parse_pgsolver, parse_solution, write_pgsolver, write_solution
from .game import ParityGame, Player, Solution, SolveTimeoutError, ValidationError, game_stats
from .generator import GenParams, InvalidParamsError, random_game
from .preprocess import apply_preprocessing, compose_solution
from .solver import SolverOptions, SolverStats, solve_detailed
from .verifier import verify
from .zielonka import solve_zielonka

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_IO = 2
EXIT_USAGE = 3
EXIT_TIMEOUT = 4

SOLVERS = ("dfi", "dfi-basic", "zlk", "bfl")
REGION_ONLY_SOLVERS = ("dfi-basic", "bfl")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract wants 3
        raise _UsageError(message)


def _read_game(path: str) -> ParityGame:
    # the formats are UTF-8 in every locale: read bytes, which the parser decodes
    return parse_pgsolver(Path(path).read_bytes())


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout without one."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _run_solver(
    residual: ParityGame,
    solver: str,
    *,
    timeout_s: float | None = None,
) -> tuple[Solution, SolverStats | None]:
    if solver in ("dfi", "dfi-basic"):
        mode = "freezing" if solver == "dfi" else "basic"
        outcome = solve_detailed(residual, SolverOptions(mode=mode, timeout_s=timeout_s))
        return outcome.solution, outcome.stats
    if solver == "zlk":
        return solve_zielonka(residual, timeout_s=timeout_s), None
    if solver == "bfl":
        win0 = bfl_win0(residual, timeout_s=timeout_s)
        winner = tuple(Player.EVEN if v in win0 else Player.ODD for v in range(residual.n))
        return Solution(winner, (None,) * residual.n), None
    raise _UsageError(f"unknown solver {solver!r}")


def _solve_game(
    game: ParityGame,
    solver: str,
    *,
    preprocess: bool,
    timeout_s: float | None = None,
) -> tuple[Solution, SolverStats | None]:
    if preprocess:
        partials, residual = apply_preprocessing(game)
    else:
        partials, residual = [], game
    solution, stats = _run_solver(residual, solver, timeout_s=timeout_s)
    return compose_solution(partials, solution), stats


def _cmd_solve(args) -> int:
    if args.verify and args.solver in REGION_ONLY_SOLVERS:
        raise _UsageError(f"--verify needs strategies; solver {args.solver!r} emits regions only")
    if args.timeout is not None and not args.timeout >= 0:
        raise _UsageError("--timeout must be a nonnegative number of seconds")
    game = _read_game(args.game)
    try:
        solution, stats = _solve_game(
            game,
            args.solver,
            preprocess=not args.no_preprocess,
            timeout_s=args.timeout,
        )
    except SolveTimeoutError as exc:
        print(f"error: {exc} (--timeout {args.timeout:g})", file=sys.stderr)
        if args.stats and exc.stats is not None:
            _print_stats(exc.stats, timed_out=True)
        return EXIT_TIMEOUT
    if args.verify:
        report = verify(game, solution)
        if not report.ok:
            for violation in report.violations:
                print(violation.describe(game), file=sys.stderr)
            return EXIT_VERIFICATION
    _write_output(args.output, write_solution(game, solution))
    if args.stats and stats is not None:
        _print_stats(stats, timed_out=False)
    return EXIT_OK


def _print_stats(stats: SolverStats, *, timed_out: bool) -> None:
    """The DFI solver's counters as one JSON object on stderr."""
    print(json.dumps({**dataclasses.asdict(stats), "timed_out": timed_out}), file=sys.stderr)


def _cmd_verify(args) -> int:
    game = _read_game(args.game)
    solution = parse_solution(Path(args.solution).read_bytes(), game)
    report = verify(game, solution)
    if report.ok:
        return EXIT_OK
    for violation in report.violations:
        print(violation.describe(game))
    return EXIT_VERIFICATION


def _cmd_gen(args) -> int:
    try:
        params = GenParams(
            n=args.n,
            max_priority=args.d,
            outdegree_lo=args.outdeg[0],
            outdegree_hi=args.outdeg[1],
            self_loop_probability=args.self_loops,
            seed=args.seed,
        )
    except InvalidParamsError as exc:
        raise _UsageError(str(exc))
    _write_output(args.output, write_pgsolver(random_game(params)))
    return EXIT_OK


def _cmd_stats(args) -> int:
    st = game_stats(_read_game(args.game))
    print(f"n={st.n} edges={st.edges} d={st.max_priority}")
    print(f"distinct_priorities={st.distinct_priorities} avg_outdegree={st.avg_outdegree:.3f}")
    return EXIT_OK


_BENCH_COLUMNS = [
    "game",
    "solver",
    "preprocess",
    "time_s",
    "outcome",
    "n",
    "edges",
    "d",
    "passes",
    "additions",
    "resets",
    "freezes",
]


def _bench_row(
    name: str, game: ParityGame | None, solver: str, preprocess: bool, timeout_s: float, reps: int
):
    """One CSV row; ``game`` is None for a file that could not be read."""
    pre = "1" if preprocess else "0"
    if game is None:
        return [name, solver, pre, "", "error", "", "", "", "", "", "", ""]
    st = game_stats(game)
    size = [str(st.n), str(st.edges), str(st.max_priority)]
    times: list[float] = []
    stats: SolverStats | None = None
    for _ in range(reps):
        t0 = time.perf_counter()
        try:
            _, stats = _solve_game(game, solver, preprocess=preprocess, timeout_s=timeout_s)
        except SolveTimeoutError as exc:
            row = [name, solver, pre, f"{timeout_s:.6f}", "timeout", *size]
            return row + _counter_cells(exc.stats)
        except Exception:
            return [name, solver, pre, "", "error", *size, "", "", "", ""]
        times.append(time.perf_counter() - t0)
    mean = sum(times) / len(times)
    return [name, solver, pre, f"{mean:.6f}", "solved", *size, *_counter_cells(stats)]


def _counter_cells(stats: SolverStats | None) -> list[str]:
    """The DFI counters of a bench row; empty for the other solvers."""
    if stats is None:
        return ["", "", "", ""]
    return [str(stats.passes), str(stats.additions), str(stats.resets), str(stats.freezes)]


def _cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise _UsageError("--repetitions must be at least 1")
    if not args.timeout >= 0:
        raise _UsageError("--timeout must be a nonnegative number of seconds")
    directory = Path(args.dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for s in solvers:
        if s not in SOLVERS:
            raise _UsageError(f"unknown solver {s!r}")
    files = sorted(p for p in directory.iterdir() if p.is_file())
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_BENCH_COLUMNS)
    for path in files:
        try:
            game = parse_pgsolver(path.read_bytes())
        except Exception:
            game = None
        for solver in solvers:
            for preprocess in (True, False):
                row = _bench_row(path.name, game, solver, preprocess, args.timeout, args.repetitions)
                writer.writerow(row)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="parityfix", description="Parity game solving toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a game file")
    p_solve.add_argument("game")
    p_solve.add_argument("--solver", choices=SOLVERS, default="dfi")
    p_solve.add_argument("--no-preprocess", action="store_true")
    p_solve.add_argument("--verify", action="store_true", help="check the solution before writing")
    p_solve.add_argument("-o", "--output")
    p_solve.add_argument(
        "--stats", action="store_true", help="print the DFI counters to stderr as one JSON object"
    )
    p_solve.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="solver deadline; exit 4 when it passes"
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a solution file against a game")
    p_verify.add_argument("game")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded random game")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True, help="maximum priority")
    p_gen.add_argument("--outdeg", type=int, nargs=2, default=[1, 3], metavar=("LO", "HI"))
    p_gen.add_argument("--self-loops", type=float, default=0.1)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="time solvers over a directory of games, CSV to stdout")
    p_bench.add_argument("dir")
    p_bench.add_argument("--solvers", default="dfi")
    p_bench.add_argument("--timeout", type=float, default=1800.0)
    p_bench.add_argument("--repetitions", type=int, default=5)
    p_bench.set_defaults(func=_cmd_bench)

    p_stats = sub.add_parser("stats", help="print size counters for a game")
    p_stats.add_argument("game")
    p_stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError, ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
