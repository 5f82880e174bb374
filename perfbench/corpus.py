"""Seeded workload corpora for the solve benchmark.

Every game comes from ``parityfix.random_game`` through ``SplitMix64``
streams, so the same seed always gives the same game texts.

How much work a game costs the solver core varies a lot from game to game
(at n=10k, d=6 on a 2-vCPU VM, from 1.5 s to 11 s), more than a run of a
few games can average out.  So ``core-10k`` draws its games from a fixed
stream and lets the workload seed only renumber the vertices, which also
reorders the records: every seed gives new texts and a new internal vertex
order, but the same solver work.  ``pipeline-100k`` costs about the same on
any game of its size, so its seed draws fresh games.

Run as a script it writes one workload's corpus to stdout as JSON.  The
benchmark times that process as its set-up, so generation never shares a
process (or a peak resident size) with solving.

    python3 perfbench/corpus.py --workload core-10k --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("pipeline-100k", "core-10k")

PIPELINE_N = 100_000
PIPELINE_DS = (2, 8)
CORE_N = 10_000
CORE_D = 6
CORE_GAMES = 2


def import_parityfix():
    """Import the package from the checkout's ``src`` tree, never an installed copy."""
    if not (SRC / "parityfix" / "__init__.py").is_file():
        raise SystemExit(f"error: no parityfix sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import parityfix

    return parityfix


def _stream(pf, key: str):
    digest = hashlib.sha256(key.encode()).digest()
    return pf.SplitMix64(int.from_bytes(digest[:8], "little"))


def relabel(pf, game, rng):
    """The same game with its vertex ids permuted (Fisher-Yates over ``rng``)."""
    ids = list(range(game.n))
    for i in range(game.n - 1, 0, -1):
        j = rng.below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    return pf.ParityGame(game.priority, game.owner, game.successors, original_id=ids)


def _scaled(n: int, scale: float) -> int:
    return max(4, round(n * scale))


def has_own_cycle(game) -> bool:
    """True when some player owns a cycle whose priorities all have that player's parity.

    Those cycles are exactly what the winner-controlled-cycle reduction
    decides, so a loop-free game without one reaches the solver whole.
    Checked here with Kahn's algorithm, independently of the package.
    """
    for beta in (0, 1):
        inside = [int(game.owner[v]) == beta and game.priority[v] & 1 == beta for v in range(game.n)]
        indeg = [0] * game.n
        for v in range(game.n):
            if inside[v]:
                for u in game.successors[v]:
                    if inside[u]:
                        indeg[u] += 1
        ready = [v for v in range(game.n) if inside[v] and indeg[v] == 0]
        removed = 0
        while ready:
            v = ready.pop()
            removed += 1
            for u in game.successors[v]:
                if inside[u]:
                    indeg[u] -= 1
                    if indeg[u] == 0:
                        ready.append(u)
        if removed < sum(inside):
            return True
    return False


def _core_games(pf, scale: float) -> list:
    """Loop-free games without an owned cycle of the owner's parity.

    Preprocessing decides nothing on them, so the solver core does the work.
    """
    rng = _stream(pf, "core-10k")
    games = []
    while len(games) < CORE_GAMES:
        params = pf.GenParams(n=_scaled(CORE_N, scale), max_priority=CORE_D, seed=rng.next_u64())
        game = pf.random_game(params)
        if not has_own_cycle(game):
            games.append(game)
    return games


def generate(workload: str, seed: int, scale: float = 1.0) -> list[dict]:
    """The workload's games as ``{"name", "text", "n", "edges", "d"}`` records."""
    pf = import_parityfix()
    rng = _stream(pf, f"{workload}:{seed}")
    if workload == "pipeline-100k":
        games = [
            pf.random_game(
                pf.GenParams(
                    n=_scaled(PIPELINE_N, scale),
                    max_priority=d,
                    self_loop_probability=0.1,
                    seed=rng.next_u64(),
                )
            )
            for d in PIPELINE_DS
        ]
    elif workload == "core-10k":
        games = [relabel(pf, game, rng) for game in _core_games(pf, scale)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        {
            "name": f"{workload}-{i:03d}",
            "text": pf.write_pgsolver(game),
            "n": game.n,
            "edges": game.edge_count,
            "d": game.max_priority,
        }
        for i, game in enumerate(games)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    json.dump(generate(args.workload, args.seed, args.scale), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
