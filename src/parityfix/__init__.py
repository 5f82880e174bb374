"""Parity game solving via distraction fixpoint iteration.

Public surface: the game model, PGSolver-format I/O, the fixpoint solver
(region-only and strategy-computing variants), two independent oracle
solvers, a solution verifier, a preprocessing reduction, a seeded game
generator, and a CLI (``parityfix``).
"""

from .fixpoint import FixpointTrace, bfl_win0
from .formats import (
    DuplicateVertexIdError,
    ParseError,
    parse_pgsolver,
    parse_solution,
    write_pgsolver,
    write_solution,
)
from .game import (
    DanglingEdgeError,
    DuplicateEdgeError,
    GameStats,
    ParityGame,
    Player,
    SinkVertexError,
    Solution,
    SolveTimeoutError,
    ValidationError,
    game_stats,
    sort_by_priority,
)
from .generator import GenParams, InvalidParamsError, SplitMix64, random_game
from .graphs import attract
from .preprocess import (
    PartialSolution,
    apply_preprocessing,
    compose_solution,
    winner_controlled_cycles,
)
from .solver import (
    DfiOutcome,
    SolverOptions,
    SolverStats,
    solve,
    solve_basic,
    solve_detailed,
)
from .verifier import (
    EscapeEdge,
    LosingCycleWitness,
    MissingStrategy,
    StrategyLeavesRegion,
    VerificationReport,
    verify,
)
from .zielonka import solve_zielonka

__version__ = "0.1.0"

__all__ = [
    "ParityGame",
    "Player",
    "Solution",
    "GameStats",
    "ValidationError",
    "SinkVertexError",
    "DanglingEdgeError",
    "DuplicateEdgeError",
    "sort_by_priority",
    "game_stats",
    "ParseError",
    "DuplicateVertexIdError",
    "parse_pgsolver",
    "write_pgsolver",
    "write_solution",
    "parse_solution",
    "SolverOptions",
    "SolverStats",
    "DfiOutcome",
    "SolveTimeoutError",
    "solve",
    "solve_basic",
    "solve_detailed",
    "attract",
    "solve_zielonka",
    "FixpointTrace",
    "bfl_win0",
    "PartialSolution",
    "winner_controlled_cycles",
    "apply_preprocessing",
    "compose_solution",
    "VerificationReport",
    "EscapeEdge",
    "MissingStrategy",
    "StrategyLeavesRegion",
    "LosingCycleWitness",
    "verify",
    "GenParams",
    "InvalidParamsError",
    "SplitMix64",
    "random_game",
]
