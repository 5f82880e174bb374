"""Seeded random parity game generation.

Randomness comes from splitmix64, implemented here so that a seed produces
bit-identical games on every platform and Python version.  The per-vertex
draw order (priority, owner, outdegree, self-loop test, remaining targets)
and the rejection sampling used for bounded draws are part of the
determinism contract; changing any of it is a breaking change, since seeds
circulate in bug reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import ParityGame

_M64 = (1 << 64) - 1


class InvalidParamsError(ValueError):
    pass


class SplitMix64:
    """Minimal splitmix64 stream over python ints."""

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound), unbiased via rejection; ``bound``
        is at most 2**64, the range of one draw."""
        if not 1 <= bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2**64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def chance(self, threshold: int) -> bool:
        """True with probability threshold / 2**64."""
        return self.next_u64() < threshold

    def sample(self, m: int, k: int) -> list[int]:
        """k distinct values from range(m), in draw order (partial shuffle)."""
        swaps: dict[int, int] = {}
        out: list[int] = []
        for i in range(k):
            j = i + self.below(m - i)
            vi = swaps.get(i, i)
            vj = swaps.get(j, j)
            swaps[i] = vj
            swaps[j] = vi
            out.append(vj)
        return out


@dataclass(frozen=True)
class GenParams:
    n: int
    max_priority: int
    outdegree_lo: int = 1
    outdegree_hi: int = 3
    self_loop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParamsError("n must be >= 1")
        if not 0 <= self.max_priority < 2**63:
            raise InvalidParamsError("max_priority must be in 0..2**63-1")
        if self.outdegree_lo < 1:
            raise InvalidParamsError("outdegree lower bound must be >= 1")
        if self.outdegree_hi < self.outdegree_lo:
            raise InvalidParamsError("outdegree upper bound below lower bound")
        if self.outdegree_hi > self.n:
            raise InvalidParamsError("outdegree upper bound exceeds vertex count")
        if not 0.0 <= self.self_loop_probability <= 1.0:
            raise InvalidParamsError("self_loop_probability must be in [0, 1]")


def random_game(params: GenParams) -> ParityGame:
    """Generate one game, a pure function of the seed.

    Priorities and owners are uniform, outdegree is uniform over the given
    range, and targets are sampled without replacement.  With the given
    probability the first successor is a self-loop.  When the non-loop
    candidate pool runs dry (outdegree bounds close to n, or n is 1) the
    degree is clamped to the pool, falling back to a self-loop for n = 1.
    """
    rng = SplitMix64(params.seed)
    loop_threshold = min(1 << 64, int(params.self_loop_probability * float(1 << 64)))
    n = params.n
    span = params.outdegree_hi - params.outdegree_lo + 1
    priorities: list[int] = []
    owners: list[int] = []
    successors: list[list[int]] = []
    for v in range(n):
        priorities.append(rng.below(params.max_priority + 1))
        owners.append(rng.below(2))
        degree = params.outdegree_lo + rng.below(span)
        loop = rng.chance(loop_threshold)
        if n == 1:
            successors.append([0])
            continue
        if loop:
            others = rng.sample(n - 1, degree - 1)
            row = [v] + [u + 1 if u >= v else u for u in others]
        else:
            others = rng.sample(n - 1, min(degree, n - 1))
            row = [u + 1 if u >= v else u for u in others]
        successors.append(row)
    return ParityGame(priorities, owners, successors)
