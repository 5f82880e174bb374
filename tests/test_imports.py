"""The oracles stay independent of the solve path."""

import importlib

import pytest

from conftest import package_imports


@pytest.mark.parametrize("name", ["game", "formats", "preprocess", "solver", "verifier"])
def test_solve_path_imports_no_oracle(name):
    # Zielonka, the BFL fixpoint and their graph helpers check the solve
    # path, so no module on it may share their code
    module = importlib.import_module(f"parityfix.{name}")
    assert not package_imports(module) & {"graphs", "zielonka", "fixpoint"}
