"""Periodic-box grids, fields, and Fourier-multiplier operators.

The spatial domain is the torus [0, L)^dim sampled on a uniform grid with a
power-of-two number of points per axis.  The fractional Laplacian of order
s is diagonal in the discrete Fourier basis with symbol |xi|^(2s), where the
wavenumbers are xi = 2*pi*k/L for integer k in the usual FFT layout.  All
operators here act on real fields and return real fields; quadrature is the
trapezoidal rule on the periodic grid (cell volume times the sample sum),
which is spectrally accurate for smooth periodic integrands.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as sfft

__all__ = [
    "Grid",
    "Field",
    "GridMismatch",
    "FieldFormatError",
    "make_grid",
    "apply_frac_laplacian",
    "hs_quadratic_form",
    "integrate",
    "lp_norm",
    "write_field",
    "read_field",
]


class GridMismatch(ValueError):
    """Operands live on different grids."""


class FieldFormatError(ValueError):
    """A field file violates the on-disk format."""


class _RuleError(ValueError):
    """A value breaks its owner's rule; ``field`` is the value's name there."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _check_order(s: float, field: str) -> None:
    """A fractional order lies in (0, 1]."""
    if not 0.0 < s <= 1.0:
        raise _RuleError(field, f"fractional order {field} must lie in (0, 1], got {s}")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^dim.

    dim is 1 to 3 and n_per_axis a power of two >= 8; box_length L is
    positive and finite, with L**dim, the cell volume and (L/n)**2 in the
    normal float range.  Instances are immutable: ``cell_volume``
    (L**dim / n**dim) is set on construction; wavenumbers, coordinates and
    |xi|^2 are computed on first use and kept.  Multiplier symbols and
    Parseval weights are computed per call: ProblemSpec keeps the ones of
    its orders.
    """

    dim: int
    n_per_axis: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise _RuleError("dim", f"dim must be 1, 2, or 3, got {self.dim}")
        dim = int(self.dim)
        n = int(self.n_per_axis)
        if n != self.n_per_axis or n < 8 or (n & (n - 1)) != 0:
            raise _RuleError(
                "n_per_axis", f"n_per_axis must be a power of two >= 8, got {self.n_per_axis}"
            )
        L = float(self.box_length)
        if not 0.0 < L < np.inf:
            raise _RuleError("box_length", f"box_length must be positive and finite, got {L}")
        # n is a power of two, so for a normal cell volume dividing by n**dim
        # and multiplying back is exact: cell_volume * npoints == L**dim.
        try:
            cell_volume = L**dim / n**dim
        except OverflowError:
            raise _RuleError(
                "box_length", f"box_length {L} gives a box volume L**{dim} beyond the float range"
            ) from None
        # squared lengths (a bump's r^2 / width^2) must not underflow either
        if min(cell_volume, (L / n) * (L / n)) < np.finfo(float).tiny:
            msg = f"box_length {L} gives a cell volume or (L/n)**2 below the normal float range"
            raise _RuleError("box_length", msg)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n_per_axis", n)
        object.__setattr__(self, "box_length", L)
        object.__setattr__(self, "cell_volume", cell_volume)

    @cached_property
    def wavenumbers(self) -> tuple:
        """Angular wavenumbers xi = 2*pi*k/L of each axis, in FFT layout."""
        n = self.n_per_axis
        return (2.0 * np.pi * sfft.fftfreq(n, d=self.box_length / n),) * self.dim

    @property
    def shape(self) -> tuple:
        return (self.n_per_axis,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n_per_axis**self.dim

    @property
    def spacing(self) -> float:
        return self.box_length / self.n_per_axis

    def axis_coordinates(self) -> np.ndarray:
        """Sample positions along one axis (identical for all axes)."""
        return np.arange(self.n_per_axis) * self.spacing

    @cached_property
    def _coordinates(self) -> tuple:
        axes = [self.axis_coordinates()] * self.dim
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def coordinates(self) -> tuple:
        """dim arrays of shape ``grid.shape`` with point coordinates."""
        return self._coordinates

    @cached_property
    def _sq_wavenumber(self) -> np.ndarray:
        k2 = np.zeros(self.shape[:-1] + (self.n_per_axis // 2 + 1,))
        for axis, w in enumerate(self.wavenumbers):
            if axis == self.dim - 1:
                # fftfreq puts mode n/2 at -n/2: the same square
                w = w[: self.n_per_axis // 2 + 1]
            shape = [1] * self.dim
            shape[axis] = w.size
            k2 = k2 + (w**2).reshape(shape)
        return k2

    def sq_wavenumber(self) -> np.ndarray:
        """|xi|^2 on the half spectrum of ``rfftn``: the last axis keeps
        modes 0..n/2."""
        return self._sq_wavenumber

    def symbol(self, s: float) -> np.ndarray:
        """Multiplier |xi|^(2s) on the half spectrum, a new array on each
        call; the zero mode maps to 0."""
        return self.sq_wavenumber() ** float(s)

    def parseval_weight(self, s: float) -> np.ndarray:
        """Weights w with int |(-Lap)^(s/2) u|^2 = cell_volume * sum(w x^2),
        x the real and imaginary parts of u's half spectrum (``rfftn``),
        interleaved as ``.view(float)`` lays them out (a flat array); a new
        array on each call.

        w is 2 |xi|^(2s) / npoints: the last axis's modes other than 0 and
        n/2 stand for conjugate pairs and count twice, those two columns
        once, so they carry half of it.
        """
        w = (2.0 / self.npoints) * self.symbol(s)
        w[..., 0] *= 0.5
        w[..., -1] *= 0.5
        return np.repeat(w, 2, axis=-1).ravel()


@dataclass(frozen=True)
class Field:
    """Real samples of a function on a grid, row-major layout, read-only.
    Every value must be finite: this is the one finiteness check, made
    where a state enters (a pair's fields, a read file, sampled weights).
    A Field keeps no transform; energy.StatePair is the one carrier of
    one."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            if vals.ndim == 1 and vals.size == self.grid.npoints:
                vals = vals.reshape(self.grid.shape)
            else:
                raise GridMismatch(
                    f"values shape {vals.shape} does not match grid shape "
                    f"{self.grid.shape}"
                )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        vals = vals.view()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def make_grid(dim: int, n_per_axis: int, box_length: float) -> Grid:
    """Build a periodic grid; :class:`Grid` holds the rules of its arguments."""
    return Grid(dim, n_per_axis, box_length)


def _check_same_grid(a: Field, b: Field) -> None:
    if a.grid != b.grid:
        raise GridMismatch("fields live on different grids")


def apply_frac_laplacian(u: Field, s: float) -> Field:
    """Apply (-Laplace)^s through the Fourier symbol |xi|^(2s).

    s must lie in (0, 1]; s = 1 reproduces the spectral classical
    Laplacian, fractional orders interpolate between identity-like and
    second-order behaviour per Fourier mode.  The field is real: its half
    spectrum, taken per call, is multiplied and transformed back.
    """
    _check_order(s, "s")
    g = u.grid
    return Field(g, sfft.irfftn(g.symbol(s) * sfft.rfftn(u.values), s=g.shape))


def integrate(w: Field) -> float:
    """Quadrature over the box: cell volume times the sample sum."""
    return w.grid.cell_volume * float(np.sum(w.values))


def lp_norm(u: Field, p: float) -> float:
    """L^p norm on the box, p >= 1; p = inf gives max |u|."""
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == np.inf:
        return float(np.max(np.abs(u.values)))
    return float(
        (u.grid.cell_volume * np.sum(np.abs(u.values) ** p)) ** (1.0 / p)
    )


def hs_quadratic_form(u: Field, s: float, V: Field) -> float:
    """Quadratic form int |(-Lap)^(s/2) u|^2 + V u^2 dx, order s in (0, 1].

    The half-order term is the Parseval sum of |xi|^(2s) |u_hat|^2 /
    npoints over the field's half spectrum, taken per call: one dot
    product of the squared real and imaginary parts with
    ``Grid.parseval_weight``.  The potential term is one dot product of V
    with u^2.  V is any sampled weight; positivity is checked elsewhere.
    """
    _check_order(s, "s")
    _check_same_grid(u, V)
    g, x = u.grid, sfft.rfftn(u.values).view(np.float64).ravel()
    kinetic = float(np.vdot(g.parseval_weight(s), x * x))
    potential = float(np.vdot(V.values, u.values * u.values))
    return g.cell_volume * (kinetic + potential)


def write_field(u: Field, path) -> None:
    """Write a field: 4-line ASCII header, then row-major little-endian f64."""
    g = u.grid
    header = f"dim={g.dim}\nn={g.n_per_axis}\nL={g.box_length!r}\ncount={g.npoints}\n"
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def _read_header_line(fh, key: str, lineno: int) -> str:
    raw = fh.readline(256)
    if not raw.endswith(b"\n"):
        raise FieldFormatError(f"header line {lineno} is not newline-terminated")
    try:
        text = raw[:-1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"header line {lineno} is not ASCII") from exc
    prefix = key + "="
    if not text.startswith(prefix):
        raise FieldFormatError(
            f"header line {lineno} must start with '{prefix}', got {text!r}"
        )
    return text[len(prefix):]


def read_field(path) -> Field:
    """Read a field written by :func:`write_field`; validates the header."""
    with open(path, "rb") as fh:
        try:
            dim = int(_read_header_line(fh, "dim", 1))
            n = int(_read_header_line(fh, "n", 2))
            L = float(_read_header_line(fh, "L", 3))
            count = int(_read_header_line(fh, "count", 4))
        except ValueError as exc:
            if isinstance(exc, FieldFormatError):
                raise
            raise FieldFormatError(f"malformed header value: {exc}") from exc
        try:
            grid = make_grid(dim, n, L)
        except ValueError as exc:
            raise FieldFormatError(f"header describes no valid grid: {exc}") from exc
        if count != grid.npoints:
            raise FieldFormatError(
                f"count={count} but a {dim}-d grid with n={n} has "
                f"{grid.npoints} points"
            )
        # the file size, not the header, bounds the read
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != 8 * count:
            raise FieldFormatError(f"expected exactly {8 * count} payload bytes, got {left}")
        payload = fh.read(left)
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return Field(grid, values.reshape(grid.shape))
