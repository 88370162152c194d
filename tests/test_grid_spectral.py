"""Grid construction, the spectral fractional operator, and field files."""

import numpy as np
import pytest

from fracground import (
    Field,
    FieldFormatError,
    GridMismatch,
    apply_frac_laplacian,
    hs_quadratic_form,
    integrate,
    lp_norm,
    make_grid,
    read_field,
    write_field,
)
from helpers import full_symbol, smooth_field


# ---------------------------------------------------------------------------
# grid construction


def test_grid_basic_quantities():
    g = make_grid(2, 64, 8.0)
    assert g.dim == 2
    assert g.n_per_axis == 64
    assert g.box_length == 8.0
    assert g.shape == (64, 64)
    assert g.npoints == 4096
    assert g.cell_volume == 0.015625
    assert g.spacing == 0.125


@pytest.mark.parametrize(
    "dim,n,L",
    [(1, 8, 1.0), (1, 256, 2.0 * np.pi), (2, 32, 8.0), (3, 16, 5.0), (2, 64, 0.3)],
)
def test_cell_volume_times_npoints_is_exact(dim, n, L):
    # n**dim is a power of two, so the quotient and the product round-trip
    # without any floating error at all.
    g = make_grid(dim, n, L)
    assert g.cell_volume * g.npoints == L**dim


def test_wavenumbers_unit_box():
    g = make_grid(1, 8, 1.0)
    expected = 2.0 * np.pi * np.array([0.0, 1, 2, 3, -4, -3, -2, -1])
    assert np.array_equal(g.wavenumbers[0], expected)
    mags = sorted(set(np.abs(g.wavenumbers[0])))
    assert mags == [0.0, 2 * np.pi, 4 * np.pi, 6 * np.pi, 8 * np.pi]
    # the Nyquist magnitude appears once, every other nonzero one twice
    assert np.count_nonzero(np.abs(g.wavenumbers[0]) == 8 * np.pi) == 1


@pytest.mark.parametrize(
    "dim,n,L,msg",
    [
        (0, 16, 1.0, "dim"),
        (4, 16, 1.0, "dim"),
        (2, 48, 1.0, "power of two"),
        (2, 4, 1.0, "power of two"),
        (2, 17, 1.0, "power of two"),
        (2, 16, 0.0, "positive"),
        (2, 16, -3.0, "positive"),
    ],
)
def test_make_grid_rejects_bad_arguments(dim, n, L, msg):
    with pytest.raises(ValueError, match=msg):
        make_grid(dim, n, L)


# ---------------------------------------------------------------------------
# the fractional operator


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 1.0])
@pytest.mark.parametrize(
    "dim,mode", [(1, (3,)), (2, (1, 0)), (2, (2, 3))]
)
def test_single_mode_eigenvalue(dim, mode, s):
    # plane waves are exact eigenfunctions: the operator multiplies
    # sin(2 pi k.x / L) by (|2 pi k / L|^2)^s
    g = make_grid(dim, 64, 8.0)
    phase = np.zeros(g.shape)
    for axis, (k, x) in enumerate(zip(mode, g.coordinates())):
        phase = phase + 2.0 * np.pi * k * x / g.box_length
    u = Field(g, np.sin(phase))
    eig = (sum((2.0 * np.pi * k / g.box_length) ** 2 for k in mode)) ** s
    out = apply_frac_laplacian(u, s)
    assert np.max(np.abs(out.values - eig * u.values)) <= 1e-12 * eig


def test_classical_limit_matches_laplacian():
    # s = 1 must reproduce -u'' for a smooth mode
    g = make_grid(1, 128, 2.0 * np.pi)
    x = g.axis_coordinates()
    u = Field(g, np.sin(3.0 * x))
    out = apply_frac_laplacian(u, 1.0)
    assert np.max(np.abs(out.values - 9.0 * u.values)) <= 1e-10


def test_operator_linearity():
    g = make_grid(2, 32, 8.0)
    rng = np.random.default_rng(11)
    a = smooth_field(g, rng)
    b = smooth_field(g, rng)
    alpha, beta = 1.7, -0.3
    lhs = apply_frac_laplacian(Field(g, alpha * a + beta * b), 0.6).values
    rhs = (
        alpha * apply_frac_laplacian(Field(g, a), 0.6).values
        + beta * apply_frac_laplacian(Field(g, b), 0.6).values
    )
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@pytest.mark.parametrize("s", [0.3, 0.7, 1.0])
def test_operator_self_adjoint(s):
    g = make_grid(2, 32, 8.0)
    rng = np.random.default_rng(7)
    u = Field(g, smooth_field(g, rng))
    v = Field(g, smooth_field(g, rng))
    left = integrate(Field(g, apply_frac_laplacian(u, s).values * v.values))
    right = integrate(Field(g, u.values * apply_frac_laplacian(v, s).values))
    assert abs(left - right) <= 1e-10 * max(abs(left), abs(right), 1.0)


@pytest.mark.parametrize("s", [0.4, 0.9])
def test_operator_semigroup_property(s):
    # applying the half-order operator twice equals one full application
    g = make_grid(1, 64, 5.0)
    rng = np.random.default_rng(3)
    u = Field(g, smooth_field(g, rng))
    once = apply_frac_laplacian(u, s).values
    twice = apply_frac_laplacian(apply_frac_laplacian(u, 0.5 * s), 0.5 * s).values
    scale = np.max(np.abs(once)) + 1.0
    assert np.max(np.abs(once - twice)) <= 1e-10 * scale


def test_apply_rejects_bad_order():
    g = make_grid(1, 16, 1.0)
    u = Field(g, np.ones(g.shape))
    for s in (0.0, -0.2, 1.0001, 2.0):
        with pytest.raises(ValueError):
            apply_frac_laplacian(u, s)


# ---------------------------------------------------------------------------
# quadrature and the quadratic form


def test_integrate_constant_and_norms():
    g = make_grid(2, 16, 2.0)
    c = Field(g, np.full(g.shape, 2.0))
    assert integrate(c) == pytest.approx(8.0, rel=1e-14)
    assert lp_norm(c, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert lp_norm(c, 1.0) == pytest.approx(8.0, rel=1e-14)
    with pytest.raises(ValueError):
        lp_norm(c, 0.5)


def test_quadratic_form_single_mode_value():
    # u = sin(x) on [0, 2 pi), V = 1, s = 1:
    # int (u')^2 = pi and int u^2 = pi, so the form equals 2 pi
    g = make_grid(1, 64, 2.0 * np.pi)
    u = Field(g, np.sin(g.axis_coordinates()))
    V = Field(g, np.ones(g.shape))
    q = hs_quadratic_form(u, 1.0, V)
    assert q == pytest.approx(2.0 * np.pi, rel=1e-12)


@pytest.mark.parametrize("s", [0.35, 0.5, 1.0])
def test_quadratic_form_matches_fourier_sum(s):
    # independent oracle: numpy fft Parseval sum of |xi|^(2s) |u_hat|^2
    g = make_grid(2, 32, 6.0)
    rng = np.random.default_rng(19)
    vals = smooth_field(g, rng)
    pot = np.abs(smooth_field(g, rng)) + 0.5
    u = Field(g, vals)
    V = Field(g, pot)

    uh = np.fft.fftn(vals)
    sq = np.zeros(g.shape)
    for axis, w in enumerate(g.wavenumbers):
        shape = [1] * g.dim
        shape[axis] = g.n_per_axis
        sq = sq + w.reshape(shape) ** 2
    kinetic = g.cell_volume / g.npoints * np.sum(sq**s * np.abs(uh) ** 2)
    potential = g.cell_volume * np.sum(pot * vals**2)
    expected = kinetic + potential

    q = hs_quadratic_form(u, s, V)
    assert q == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# fields


def test_field_reshapes_flat_input():
    g = make_grid(2, 16, 1.0)
    flat = np.arange(256, dtype=float)
    f = Field(g, flat)
    assert f.values.shape == (16, 16)
    assert f.values[1, 3] == 19.0


def test_field_rejects_bad_values():
    g = make_grid(2, 16, 1.0)
    with pytest.raises(ValueError):
        Field(g, np.ones((16, 15)))
    bad = np.ones((16, 16))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        Field(g, bad)


def test_grid_mismatch_detected_between_grids():
    a = make_grid(1, 16, 1.0)
    b = make_grid(1, 16, 2.0)
    assert a != b
    assert a == make_grid(1, 16, 1.0)


# ---------------------------------------------------------------------------
# field files


def test_field_file_round_trip(tmp_path):
    g = make_grid(2, 16, 4.0)
    rng = np.random.default_rng(5)
    f = Field(g, rng.standard_normal(g.shape))
    path = tmp_path / "state.field"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_field_file_layout(tmp_path):
    g = make_grid(2, 16, 4.0)
    f = Field(g, np.zeros(g.shape))
    path = tmp_path / "zero.field"
    write_field(f, path)
    raw = path.read_bytes()
    header = b"dim=2\nn=16\nL=4.0\ncount=256\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 8 * 256


def test_field_file_payload_is_little_endian_rows(tmp_path):
    g = make_grid(2, 8, 1.0)
    vals = np.arange(64, dtype=float).reshape(8, 8)
    path = tmp_path / "ramp.field"
    write_field(Field(g, vals), path)
    raw = path.read_bytes()
    payload = raw.split(b"count=64\n", 1)[1]
    decoded = np.frombuffer(payload, dtype="<f8").reshape(8, 8)
    assert np.array_equal(decoded, vals)


def _valid_file_bytes():
    g = make_grid(1, 8, 1.0)
    f = Field(g, np.linspace(0.0, 1.0, 8))
    header = b"dim=1\nn=8\nL=1.0\ncount=8\n"
    payload = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    return header + payload


@pytest.mark.parametrize(
    "mutate,msg",
    [
        (lambda b: b"Xim" + b[3:], "line 1"),
        (lambda b: b.replace(b"count=8", b"count=9"), "count"),
        (lambda b: b[:-8], "payload"),
        (lambda b: b + b"tail", "payload"),
        (lambda b: b.replace(b"n=8", b"n=7"), "power of two"),
    ],
)
def test_field_file_rejects_malformed_input(tmp_path, mutate, msg):
    path = tmp_path / "bad.field"
    path.write_bytes(mutate(_valid_file_bytes()))
    with pytest.raises(FieldFormatError, match=msg):
        read_field(path)


def test_field_file_rejects_non_ascii_header(tmp_path):
    raw = _valid_file_bytes().replace(b"L=1.0", b"L=1.\xc3\xa90")
    # keep the line length irrelevant: the reader must flag the bad byte
    path = tmp_path / "bad.field"
    path.write_bytes(raw)
    with pytest.raises(FieldFormatError):
        read_field(path)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.8, 1.0])
def test_frac_laplacian_real_transform_matches_complex_reference(dim, n, s):
    # the operator works on the half spectrum of a real transform; a full
    # complex transform with numpy's fft must give the same field
    g = make_grid(dim, n, 8.0)
    u = smooth_field(g, np.random.default_rng(dim * 10 + n), offset=0.3)
    ref = np.fft.ifftn(full_symbol(g, s) * np.fft.fftn(u)).real
    out = apply_frac_laplacian(Field(g, u), s).values
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
