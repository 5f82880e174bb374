import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parityfix as pf
from parityfix import cli
from parityfix.cli import main

from conftest import DATA


@pytest.fixture
def g1_path(tmp_path):
    p = tmp_path / "g1.pg"
    p.write_text((DATA / "g1.pg").read_text())
    return p


class TestSolveCommand:
    def test_solve_with_verify(self, g1_path, capsys):
        assert main(["solve", str(g1_path), "--solver", "dfi", "--verify"]) == 0
        out = capsys.readouterr().out
        assert out == "paritysol 1;\n0 0 1;\n1 0 0;\n"

    def test_all_solvers_agree_on_winners(self, g1_path, capsys):
        outputs = {}
        for solver in ("dfi", "dfi-basic", "zlk", "bfl"):
            assert main(["solve", str(g1_path), "--solver", solver]) == 0
            outputs[solver] = capsys.readouterr().out
        assert outputs["dfi"].splitlines()[1].startswith("0 0")
        # region-only solvers emit no strategy fields
        assert outputs["bfl"] == "paritysol 1;\n0 0;\n1 0;\n"
        assert outputs["dfi-basic"] == outputs["bfl"]

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.pg")]) == 2

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pg"
        bad.write_text("0 1 0\n")
        assert main(["solve", str(bad)]) == 2

    def test_invalid_flags(self, g1_path, capsys):
        assert main(["solve", str(g1_path), "--solver", "nope"]) == 3
        assert main(["nonsense"]) == 3
        assert main(["solve", str(g1_path), "--solver", "bfl", "--verify"]) == 3
        assert main(["solve", str(g1_path), "--timeout", "-1"]) == 3
        assert main(["solve", str(g1_path), "--timeout", "nan"]) == 3

    def test_output_file_and_stats(self, g1_path, tmp_path, capsys):
        out_file = tmp_path / "sol.txt"
        code = main(["solve", str(g1_path), "-o", str(out_file), "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert out_file.read_text() == "paritysol 1;\n0 0 1;\n1 0 0;\n"
        record = json.loads(captured.err)
        assert set(record) == {
            "passes", "additions", "resets", "reset_vertices", "freezes", "evaluations",
            "wall_time_s", "state_bytes", "level_passes", "level_evaluations",
            "level_additions", "timed_out",
        }
        assert record["passes"] > 0 and record["timed_out"] is False
        for key in ("passes", "evaluations", "additions"):
            assert sum(record["level_" + key]) == record[key]

    def test_no_preprocess_same_answer(self, g1_path, capsys):
        assert main(["solve", str(g1_path)]) == 0
        with_pre = capsys.readouterr().out
        assert main(["solve", str(g1_path), "--no-preprocess"]) == 0
        without = capsys.readouterr().out
        assert with_pre == without

    def test_timeout_exit_code(self, tmp_path, capsys):
        game_path = tmp_path / "loop_free.pg"
        gen = ["gen", "--n", "300", "--d", "6", "--self-loops", "0", "--seed", "3"]
        assert main([*gen, "-o", str(game_path)]) == 0
        for solver in ("dfi", "dfi-basic", "zlk", "bfl"):
            assert main(["solve", str(game_path), "--solver", solver, "--timeout", "0"]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
        assert main(["solve", str(game_path), "--timeout", "60", "--verify"]) == 0

    def test_timeout_prints_partial_stats(self, tmp_path, capsys):
        game_path = tmp_path / "loop_free.pg"
        gen = ["gen", "--n", "300", "--d", "6", "--self-loops", "0", "--seed", "3"]
        assert main([*gen, "-o", str(game_path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(game_path), "--timeout", "0", "--stats"]) == 4
        error, stats = capsys.readouterr().err.splitlines()
        assert error.startswith("error:")
        record = json.loads(stats)
        assert record["timed_out"] is True
        assert record["passes"] == 0
        assert record["state_bytes"] > 0
        # the other solvers keep no DFI counters
        assert main(["solve", str(game_path), "--solver", "zlk", "--timeout", "0", "--stats"]) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_non_utf8_input(self, g1_path, tmp_path, capsys):
        bad = tmp_path / "bad.pg"
        bad.write_bytes(b"\xff\xfe0 1 0 0;\n")
        assert main(["solve", str(bad)]) == 2
        assert main(["stats", str(bad)]) == 2
        assert main(["verify", str(bad), str(bad)]) == 2
        assert main(["verify", str(g1_path), str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("error:") for line in err)

    def test_in_place_rejected_outside_dfi(self, g1_path, capsys):
        # the flag is gone: it is an unknown option for every solver, dfi included
        for solver in ("dfi", "dfi-basic", "zlk"):
            assert main(["solve", str(g1_path), "--solver", solver, "--in-place"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--in-place" in captured.err


def test_failed_write(g1_path, tmp_path, capsys):
    # a missing output directory is an I/O error of the write: exit 2, one
    # error line and nothing on stdout
    missing = tmp_path / "missing"
    for argv in (
        ["solve", str(g1_path), "-o", str(missing / "x.sol")],
        ["gen", "--n", "3", "--d", "2", "--seed", "1", "-o", str(missing / "x.pg")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    assert not missing.exists()


def test_utf8_files_under_an_ascii_locale(tmp_path):
    # the formats are UTF-8 whatever the locale; with the C locale and no
    # UTF-8 mode, Python's text files are ASCII
    game = tmp_path / "cafe.pg"
    game.write_bytes('parity 1;\n0 1 0 1 "café";\n1 2 1 0,1;\n'.encode())
    src = str(Path(pf.__file__).parent.parent)
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    cli = "import sys; from parityfix.cli import main; sys.exit(main(sys.argv[1:]))"
    sol = tmp_path / "cafe.sol"
    for args in (
        ["solve", "--verify", str(game), "-o", str(sol)],
        ["verify", str(game), str(sol)],
        ["stats", str(game)],
    ):
        done = subprocess.run([sys.executable, "-c", cli, *args], env=env, capture_output=True)
        assert (args[0], done.returncode, done.stderr) == (args[0], 0, b"")


class TestVerifyCommand:
    def test_roundtrip_ok(self, g1_path, tmp_path, capsys):
        sol_path = tmp_path / "g1.sol"
        main(["solve", str(g1_path), "-o", str(sol_path)])
        assert main(["verify", str(g1_path), str(sol_path)]) == 0

    def test_corrupted_solution_rejected(self, g1_path, tmp_path, capsys):
        sol_path = tmp_path / "g1.sol"
        sol_path.write_text("paritysol 1;\n0 0 0;\n1 0 0;\n")  # plays the losing loop
        assert main(["verify", str(g1_path), str(sol_path)]) == 1
        out = capsys.readouterr().out
        assert out.strip() != ""
        assert all(line for line in out.strip().splitlines())

    def test_unreadable(self, g1_path, tmp_path):
        assert main(["verify", str(g1_path), str(tmp_path / "none.sol")]) == 2


class TestGenCommand:
    def test_deterministic_output(self, capsys):
        assert main(["gen", "--n", "12", "--d", "3", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--n", "12", "--d", "3", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second
        game = pf.parse_pgsolver(first)
        assert game.n == 12

    def test_gen_solve_pipeline(self, tmp_path, capsys):
        game_path = tmp_path / "r.pg"
        assert main(["gen", "--n", "25", "--d", "4", "--seed", "9", "-o", str(game_path)]) == 0
        assert main(["solve", str(game_path), "--verify"]) == 0

    def test_invalid_params(self, capsys):
        assert main(["gen", "--n", "0", "--d", "3", "--seed", "1"]) == 3
        assert main(["gen", "--n", "5", "--d", "3", "--seed", "1", "--outdeg", "0", "2"]) == 3


class TestStatsCommand:
    def test_stats_output(self, g1_path, capsys):
        assert main(["stats", str(g1_path)]) == 0
        out = capsys.readouterr().out
        assert "n=2" in out and "edges=3" in out and "d=2" in out


class TestBenchCommand:
    HEADER = "game,solver,preprocess,time_s,outcome,n,edges,d,passes,additions,resets,freezes"

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [self.HEADER]

    def test_one_game_one_solver(self, g1_path, tmp_path, capsys):
        assert main(["bench", str(g1_path.parent), "--solvers", "dfi", "--repetitions", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 3  # preprocess on and off
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "g1.pg"
            assert cells[1] == "dfi"
            assert cells[4] == "solved"
            assert cells[5:8] == ["2", "3", "2"]
            assert cells[8] != ""  # dfi rows carry counters

    def test_multiple_solvers_and_repetitions(self, g1_path, capsys):
        code = main(
            ["bench", str(g1_path.parent), "--solvers", "dfi,zlk,bfl", "--repetitions", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3 * 2
        zlk_rows = [l for l in lines if l.split(",")[1] == "zlk"]
        assert all(r.split(",")[8] == "" for r in zlk_rows)  # no counters

    def test_timeout_row(self, tmp_path, capsys):
        game_path = tmp_path / "big.pg"
        main(["gen", "--n", "4000", "--d", "6", "--seed", "12", "-o", str(game_path)])
        capsys.readouterr()
        code = main(
            ["bench", str(tmp_path), "--solvers", "dfi", "--timeout", "0.0", "--repetitions", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # preprocessing may decide the whole game before any solver pass runs,
        # so only the no-preprocess row is guaranteed to hit the deadline
        nopre = [l.split(",") for l in lines[1:] if l.split(",")[2] == "0"]
        assert nopre, lines
        for cells in nopre:
            assert cells[4] == "timeout"
            assert float(cells[3]) == 0.0
            # the deadline passes at the first check, before any pass
            assert cells[8:] == ["0", "0", "0", "0"]

    def test_error_row_keeps_going(self, g1_path, tmp_path, capsys):
        (g1_path.parent / "broken.pg").write_text("not a game")
        assert main(["bench", str(g1_path.parent), "--repetitions", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        outcomes = {l.split(",")[0]: l.split(",")[4] for l in lines[1:]}
        assert outcomes["broken.pg"] == "error"
        assert outcomes["g1.pg"] == "solved"

    def test_each_file_parsed_once(self, g1_path, monkeypatch, capsys):
        (g1_path.parent / "broken.pg").write_text("not a game")
        calls = []
        parse = cli.parse_pgsolver
        monkeypatch.setattr(cli, "parse_pgsolver", lambda data: calls.append(data) or parse(data))
        flags = ["--solvers", "dfi,zlk,bfl", "--repetitions", "1"]
        assert main(["bench", str(g1_path.parent), *flags]) == 0
        assert len(calls) == 2
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 2 * 3 * 2
        broken = [row for row in rows if row[0] == "broken.pg"]
        assert [row[1:3] for row in broken] == [
            [s, p] for s in ("dfi", "zlk", "bfl") for p in ("1", "0")
        ]
        assert all(row[3:] == ["", "error"] + [""] * 7 for row in broken)

    def test_unknown_solver(self, g1_path):
        assert main(["bench", str(g1_path.parent), "--solvers", "zelda"]) == 3

    def test_missing_dir(self, tmp_path):
        assert main(["bench", str(tmp_path / "ghost")]) == 2

    @pytest.mark.parametrize(
        "flags", ["--repetitions 0", "--repetitions -2", "--timeout -1", "--timeout nan"]
    )
    def test_invalid_flags(self, g1_path, capsys, flags):
        assert main(["bench", str(g1_path.parent), *flags.split()]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "tier1.yml"


def _workflow_step_script(name: str) -> str:
    """The ``run: |`` block of the workflow step called ``name``, dedented."""
    lines = WORKFLOW.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    at = next(i for i in range(at + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[at]) - len(lines[at].lstrip()) + 2
    block = []
    for line in lines[at + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        block.append(line[indent:])
    return "\n".join(block) + "\n"


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "g.pg"
    src = str(Path(pf.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "parityfix", "gen", "--n", "30", "--d", "4", "--seed", "1", "-o", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert pf.parse_pgsolver(out.read_bytes()).n == 30


def test_workflow_console_script_step(tmp_path):
    # the CI step runs against an installed ``parityfix``; here a shim on
    # PATH runs this checkout's ``parityfix.cli.run`` instead, and
    # PYTHONPATH points ``python -m parityfix`` at this checkout
    script = _workflow_step_script("Installed console script")
    assert script.startswith("parityfix gen ")
    shim = tmp_path / "bin" / "parityfix"
    shim.parent.mkdir()
    src = str(Path(pf.__file__).parent.parent)
    shim.write_text(
        f"#!{sys.executable}\nimport sys\nsys.path.insert(0, {src!r})\n"
        "from parityfix.cli import run\nrun()\n"
    )
    shim.chmod(0o755)
    env = {
        **os.environ,
        "PATH": os.pathsep.join([str(shim.parent), os.environ.get("PATH", "")]),
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    done = subprocess.run(
        ["bash", "-e", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
