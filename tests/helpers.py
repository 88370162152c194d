"""Shared builders for the test suite."""

import numpy as np

from fracground import (
    Field,
    NonlinearitySpec,
    ProblemSpec,
    ScalarFunctionSpec,
    StatePair,
    make_grid,
)
from fracground.model import LADDER_POINTS


def constant_spec(value):
    return ScalarFunctionSpec(kind="constant", base_constant=value)


def constant_problem(
    dim=2,
    n=32,
    L=8.0,
    s=0.5,
    v1=1.0,
    v2=1.5,
    lam=0.5,
    nl_kind="log_power",
    gamma=1.0,
    p=4.0,
):
    """Coupled system with constant weights; the workhorse test problem."""
    grid = make_grid(dim, n, L)
    nl = NonlinearitySpec(kind=nl_kind, gamma=gamma, p=p)
    return ProblemSpec(
        grid=grid,
        s1=s,
        s2=s,
        V1=constant_spec(v1),
        V2=constant_spec(v2),
        coupling=constant_spec(lam),
        nl1=nl,
        nl2=nl,
    )


def count_ladder_evaluations(monkeypatch):
    """Record the nonlinearity of each nq evaluation on the audit's ladder
    (the only caller that takes nq on LADDER_POINTS samples); returns the
    list it appends to."""
    calls = []
    nq = NonlinearitySpec.nq

    def counted(self, t):
        if np.size(t) == LADDER_POINTS:
            calls.append(self)
        return nq(self, t)

    monkeypatch.setattr(NonlinearitySpec, "nq", counted)
    return calls


def smooth_field(grid, rng, offset=0.0):
    """Band-limited random field built with numpy's fft, independent of the
    library's spectral code path."""
    noise = rng.standard_normal(grid.shape)
    freqs = np.fft.fftn(noise)
    scale = (grid.box_length / 16.0) ** 2
    sq = np.zeros(grid.shape)
    for axis, w in enumerate(grid.wavenumbers):
        shape = [1] * grid.dim
        shape[axis] = grid.n_per_axis
        sq = sq + (w.reshape(shape)) ** 2
    field = np.fft.ifftn(np.exp(-scale * sq) * freqs).real
    return field + offset


def smooth_pair(problem, seed, positive=True):
    """Random smooth state pair; shifted upward when positivity is wanted."""
    rng = np.random.default_rng(seed)
    grid = problem.grid
    parts = []
    for _ in range(2):
        vals = smooth_field(grid, rng)
        if positive:
            vals = vals - vals.min() + 0.1
        parts.append(Field(grid, vals))
    return StatePair(u=parts[0], v=parts[1])


def full_symbol(grid, s):
    """|xi|^(2s) on the full complex FFT layout, built independently of the
    library's half-spectrum cache."""
    sq = np.zeros(grid.shape)
    for axis, w in enumerate(grid.wavenumbers):
        shape = [1] * grid.dim
        shape[axis] = grid.n_per_axis
        sq = sq + (w.reshape(shape)) ** 2
    return sq**s
