"""Shared fixtures: the two golden games, seeded random-game helpers and
the import scan that keeps the oracles apart from the solve path."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import parityfix as pf

DATA = Path(__file__).parent / "data"


def build_g1() -> pf.ParityGame:
    """Two Even vertices: v0 (pr 1, loop + edge to v1), v1 (pr 2, edge back)."""
    return pf.ParityGame(
        priority=[1, 2],
        owner=[0, 0],
        successors=[[0, 1], [0]],
        original_id=[0, 1],
    )


def build_g2() -> pf.ParityGame:
    """Eight vertices named by their priorities; v1 is the only Odd vertex."""
    ids = [3, 18, 1, 2, 16, 5, 4, 17]
    succ_by_id = {
        3: [3, 16],
        18: [3],
        1: [18, 2],
        2: [1, 16],
        16: [5],
        5: [4],
        4: [5, 17],
        17: [2],
    }
    idx = {i: k for k, i in enumerate(ids)}
    return pf.ParityGame(
        priority=ids,
        owner=[0, 0, 1, 0, 0, 0, 0, 0],
        successors=[[idx[u] for u in succ_by_id[i]] for i in ids],
        original_id=ids,
    )


@pytest.fixture
def g1() -> pf.ParityGame:
    return build_g1()


@pytest.fixture
def g2() -> pf.ParityGame:
    return build_g2()


def seeded_game(
    seed: int,
    *,
    max_n: int = 40,
    max_d: int = 6,
    outdeg_hi: int = 4,
    self_loop: float = 0.1,
    min_n: int = 1,
) -> pf.ParityGame:
    """Small random game with size parameters derived from the seed."""
    rng = pf.SplitMix64(seed ^ 0x5EED5EED)
    n = min_n + rng.below(max_n - min_n + 1)
    d = rng.below(max_d + 1)
    params = pf.GenParams(
        n=n,
        max_priority=d,
        outdegree_lo=1,
        outdegree_hi=min(outdeg_hi, n),
        self_loop_probability=self_loop,
        seed=seed,
    )
    return pf.random_game(params)


def package_imports(module: ModuleType) -> set[str]:
    """The ``parityfix`` modules that ``module``'s source imports, by name
    within the package (``""`` for the package itself)."""
    tree = ast.parse(Path(module.__file__).read_text())
    package: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                package.update([node.module] if node.module else [a.name for a in node.names])
            elif node.module and node.module.split(".")[0] == "parityfix":
                package.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "parityfix":
                    package.add(alias.name.partition(".")[2])
    return package
