"""Reproducible Brownian increments with dyadic coarsening.

Each sample path owns an independent counter-based random stream keyed by
(master seed, path index), so any contiguous block of paths can be
generated without touching the others and a blocked computation is bitwise
identical to a monolithic one.  Increments are stored at the finest
resolution; ``coarsen_array`` obtains coarser resolutions by summing
adjacent pairs, repeatedly, so that coarsening by 4 is exactly coarsening
by 2 twice.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidResolution

__all__ = [
    "BrownianPaths",
    "generate",
    "coarsen_array",
    "increment_block",
]


def _is_count(value, minimum):
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and value >= minimum


def _is_power_of_two(value):
    return _is_count(value, 1) and (value & (value - 1)) == 0


def increment_block(seed, path_start, path_stop, num_channels, base_steps, horizon):
    """Increments for paths [path_start, path_stop), shape (P, m, N).

    A pure function of (seed, absolute path index); blocks of any size
    partition the full array bitwise.
    """
    a, b = horizon
    h_base = (b - a) / base_steps
    scale = np.sqrt(h_base)
    out = np.empty((path_stop - path_start, num_channels, base_steps))
    for i, path in enumerate(range(path_start, path_stop)):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(path,))
        gen = np.random.Generator(np.random.Philox(ss))
        out[i] = gen.standard_normal((num_channels, base_steps)) * scale
    return out


@dataclass(frozen=True)
class BrownianPaths:
    """Brownian increments for an ensemble of paths at a dyadic resolution.

    A frozen record of the parameters that stores no increments.
    ``increments`` draws all paths, shape (num_paths, num_channels,
    base_steps), entries distributed N(0, (b - a) / base_steps), and
    ``block`` draws a range of paths; both return the same bits each call.
    """

    seed: int
    num_paths: int
    num_channels: int
    base_steps: int
    t0: float = 0.0
    t1: float = 1.0

    @property
    def h_base(self):
        return (self.t1 - self.t0) / self.base_steps

    @property
    def horizon(self):
        return (self.t0, self.t1)

    @property
    def increments(self):
        return self.block(0, self.num_paths)

    def block(self, path_start, path_stop):
        if not 0 <= path_start <= path_stop <= self.num_paths:
            raise ValueError("path block out of range")
        return increment_block(self.seed, path_start, path_stop, self.num_channels,
                               self.base_steps, self.horizon)


def generate(seed, num_paths, num_channels, base_steps, horizon=(0.0, 1.0)) -> BrownianPaths:
    """Create a replayable increment ensemble at a power-of-two resolution.

    ``num_paths`` paths of ``num_channels`` Wiener increments each over
    ``base_steps`` equal steps of ``horizon = (start, end)``.  Nothing is
    drawn here: ``BrownianPaths.block`` draws a range of paths on demand.
    Deterministic function of the seed: the same arguments always produce
    bitwise-identical increments.  Raises InvalidResolution when
    ``base_steps`` is not a power of two, and ValueError unless ``seed`` is
    an integer >= 0, ``num_paths`` one >= 1, ``num_channels`` one >= 0 and
    the horizon has finite ends with end > start.
    """
    if not _is_power_of_two(base_steps):
        raise InvalidResolution(f"base_steps must be a power of two, got {base_steps}")
    if not (_is_count(seed, 0) and _is_count(num_paths, 1) and _is_count(num_channels, 0)):
        raise ValueError(f"need integers seed >= 0, num_paths >= 1 and num_channels >= 0, "
                         f"got {seed!r}, {num_paths!r} and {num_channels!r}")
    t0, t1 = float(horizon[0]), float(horizon[1])
    if not (np.isfinite(t1 - t0) and t1 > t0):  # t1 - t0 is NaN or inf for a NaN or inf end
        raise ValueError(f"horizon needs finite ends with end > start, got {horizon!r}")
    return BrownianPaths(
        seed=int(seed),
        num_paths=int(num_paths),
        num_channels=int(num_channels),
        base_steps=int(base_steps),
        t0=t0,
        t1=t1,
    )


def coarsen_array(increments, factor):
    """Sum adjacent groups of ``factor`` increments along the last axis.

    Implemented as repeated pairwise summation so that
    coarsen_array(coarsen_array(x, 2), 2) is bitwise equal to
    coarsen_array(x, 4).
    """
    steps = increments.shape[-1]
    if not _is_power_of_two(factor):
        raise InvalidResolution(f"coarsening factor must be a power of two, got {factor}")
    if steps % factor != 0:
        raise InvalidResolution(f"factor {factor} does not divide {steps} steps")
    out = increments
    while factor > 1:
        out = out[..., 0::2] + out[..., 1::2]
        factor //= 2
    return out
