"""The stencil module's contract and the check that guards its return map.

The stencils and elasticity maps write into preallocated outputs; they are
pinned here, bit for bit, to plain array expressions that apply the same
floating-point operations in the same order (scaling by reciprocals).
"""

import itertools

import numpy as np
import pytest

from stagdyn import checks, kernels
from stagdyn.grid import BC_KINDS, Grid, build


def test_get_backend_reports_numpy():
    # run records store this name next to every timing
    assert kernels.get_backend() == "numpy"


def test_check_suite_fails_on_wrong_return_map(monkeypatch):
    exact = kernels.radial_return
    monkeypatch.setattr(kernels, "radial_return",
                        lambda t, sy, f: 1.01 * exact(t, sy, f))
    lines = []
    checks.run_checks(out=lines.append)
    assert any(line.startswith("FAIL radial-return") for line in lines), lines


# ---------------------------------------------------------------------------
# bit-for-bit agreement with the plain array expressions
# ---------------------------------------------------------------------------

SQRT2 = np.sqrt(2.0)


def ref_grad_2d(vx, vy, h):
    exx = (vx[1:, :] - vx[:-1, :]) * (1.0 / h)
    eyy = (vy[:, 1:] - vy[:, :-1]) * (1.0 / h)
    # dvx_dy + dvy_dx with zero ghost velocities outside
    sxy = np.diff(np.pad(vx, ((0, 0), (1, 1))), axis=1)
    sxy[:-1, :] += vy
    sxy[1:, :] -= vy
    return exx, eyy, sxy * (1.0 / (SQRT2 * h))


def ref_grad_2d_t(wxx, wyy, wxy, h):
    r, q = 1.0 / h, 1.0 / (SQRT2 * h)
    gx = np.pad(wxx, ((1, 1), (0, 0)))
    vx = (gx[:-1, :] - gx[1:, :]) * r + (wxy[:, :-1] - wxy[:, 1:]) * q
    gy = np.pad(wyy, ((0, 0), (1, 1)))
    vy = (gy[:, :-1] - gy[:, 1:]) * r + (wxy[:-1, :] - wxy[1:, :]) * q
    return vx, vy


def ref_apply_E(d, v):
    if d.dim == 1:
        r, nx = 1.0 / d.h, v.shape[0]
        out = np.empty(nx + 1)
        out[0] = v[0] * r
        out[1:nx] = (v[1:] - v[:-1]) * r
        out[nx] = -v[nx - 1] * r
    else:
        parts = ref_grad_2d(d.vx_view(v), d.vy_view(v), d.h)
        out = np.concatenate([p.ravel() for p in parts])
    out[~d.s_active] = 0.0
    return out


def ref_apply_E_adjoint(d, s):
    sw = d.sweights * np.where(d.s_active, s, 0.0)
    if d.dim == 1:
        return (sw[:-1] - sw[1:]) * (1.0 / d.h)
    vx, vy = ref_grad_2d_t(d.sxx_view(sw), d.syy_view(sw), d.sxy_view(sw),
                           d.h)
    return np.concatenate([vx.ravel(), vy.ravel()])


def ref_apply_C(d, e):
    if d.dim == 1:
        return d.c_mod * e
    K, G = d.k_mod, d.g_mod
    exx, eyy = d.sxx_view(e), d.syy_view(e)
    return np.concatenate([((K + G) * exx + (K - G) * eyy).ravel(),
                           ((K - G) * exx + (K + G) * eyy).ravel(),
                           (2.0 * G * d.sxy_view(e)).ravel()])


def ref_apply_C_inv(d, s):
    if d.dim == 1:
        return s * (1.0 / d.c_mod)
    K, G = d.k_mod, d.g_mod
    p, q = (K + G) * (1.0 / (4.0 * K * G)), (K - G) * (1.0 / (4.0 * K * G))
    sxx, syy = d.sxx_view(s), d.syy_view(s)
    return np.concatenate([(p * sxx - q * syy).ravel(),
                           (p * syy - q * sxx).ravel(),
                           (d.sxy_view(s) * (1.0 / (2.0 * G))).ravel()])


def ref_radial_return(trial_norm, sigma_y, factor):
    excess = trial_norm - sigma_y
    safe = np.where(trial_norm > 0.0, trial_norm, 1.0)
    return np.where(excess > 0.0, excess / (factor * safe), 0.0)


def same_bits(a, b):
    """Equal shapes and equal bit patterns (signed zeros told apart)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def rough_field(rng, n, pinned=None):
    """Gaussian values with exact +0 and -0 entries mixed in; entries in
    ``pinned`` are +0, as the integrator keeps inactive DOFs."""
    f = rng.standard_normal(n)
    f[rng.random(n) < 0.15] = 0.0
    f[rng.random(n) < 0.1] = -0.0
    if pinned is not None:
        f[~pinned] = 0.0
    return f


# (nx, ny): square and not, with nx = 8 or ny = 8 (64-byte rows), and
# with nx = 7 or ny = 7, whose vertex rows and padded copies are 64 bytes
SHAPES_2D = [(8, 8), (8, 5), (5, 8), (11, 8), (2, 3), (9, 16), (7, 7),
             (7, 12), (12, 7)]
BCS_2D = list(itertools.product(BC_KINDS, repeat=4))
BCS_1D = list(itertools.product(BC_KINDS, repeat=2))


def discretizations(shape):
    if shape[1] == 0:
        for bc in BCS_1D:
            yield build(Grid(dim=1, nx=shape[0], h=0.3, bc=bc), 1.0,
                        {"modulus": 1.7})
        return
    for bc in BCS_2D:
        yield build(Grid(dim=2, nx=shape[0], ny=shape[1], h=0.3, bc=bc),
                    1.0, {"bulk_modulus": 1.3, "shear_modulus": 0.45})


def operator_cases(d, rng):
    """(operator, reference, input) for every stress-side map."""
    v = rough_field(rng, d.n_v)
    v_run = rough_field(rng, d.n_v, pinned=d.v_active)
    s = rough_field(rng, d.n_s)
    return [
        (d.apply_E, ref_apply_E, v),
        (d.apply_E, ref_apply_E, v_run),
        (d.apply_E_adjoint, ref_apply_E_adjoint, s),
        (d.apply_C, ref_apply_C, s),
        (d.apply_C_inv, ref_apply_C_inv, s),
    ]


def owned_arrays(d):
    return [a for a in vars(d).values() if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("shape", SHAPES_2D + [(2, 0), (8, 0), (9, 0)])
def test_operators_match_plain_expressions_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    for d in discretizations(shape):
        for op, ref, x in operator_cases(d, rng):
            kept = x.copy()
            got = op(x)
            assert same_bits(got, ref(d, kept)), (op.__name__, d.grid)
            assert same_bits(x, kept), f"{op.__name__} changed its input"


@pytest.mark.parametrize("shape", [(8, 8), (11, 8), (9, 0)])
def test_operators_return_fresh_arrays(shape):
    # two calls give distinct arrays that share no memory with each other
    # or with the discretization; editing one leaves the next call intact
    rng = np.random.default_rng(3)
    for d in discretizations(shape):
        for op, ref, x in operator_cases(d, rng):
            first = op(x)
            second = op(x)
            assert first is not second
            for other in [second] + owned_arrays(d):
                assert not np.shares_memory(first, other), op.__name__
            first[...] = 7.0
            second[...] = -7.0
            assert same_bits(op(x), ref(d, x)), op.__name__


@pytest.mark.parametrize("shape", [(8, 8), (7, 12)])
def test_2d_kernels_write_into_strided_outputs(shape):
    # outputs that are column slices of wider arrays get the same bits as
    # contiguous ones
    nx, ny = shape
    rng = np.random.default_rng(5)
    scratch = np.empty((nx + 1) * (ny + 1) + 1)
    vx, vy = [rough_field(rng, n * m).reshape(n, m)
              for n, m in [(nx + 1, ny), (nx, ny + 1)]]
    ws = [rough_field(rng, n * m).reshape(n, m)
          for n, m in [(nx, ny), (nx, ny), (nx + 1, ny + 1)]]
    for fn, args, shapes in [
            (kernels.grad_2d, (vx, vy, 0.3),
             [(nx, ny), (nx, ny), (nx + 1, ny + 1)]),
            (kernels.grad_2d_t, (*ws, 0.3), [(nx + 1, ny), (nx, ny + 1)])]:
        flat = [np.empty(s) for s in shapes]
        fn(*args, *flat, scratch)
        strided = [np.full((n, 2 * m + 1), 9.0)[:, 1::2] for n, m in shapes]
        fn(*args, *strided, scratch)
        for a, b in zip(flat, strided):
            assert not b.flags.c_contiguous and same_bits(a, b)


def test_radial_return_matches_plain_expression_bitwise():
    rng = np.random.default_rng(11)
    trial = np.abs(rough_field(rng, 500))
    trial[:20] = np.linspace(0.0, 0.2, 20)
    for sigma_y in (0.0, 0.1, 0.5):
        for factor in (0.7, 3.0):
            got = kernels.radial_return(trial, sigma_y, factor)
            assert same_bits(got, ref_radial_return(trial, sigma_y, factor))
            assert not np.shares_memory(got, trial)


def test_radial_return_edge_norms_match_plain_expression():
    # the unmasked quotient on the yield surface, at a zero norm with no
    # yield stress, and at infinite and NaN norms: the bits of the masked
    # expression, with NaN where it has NaN (inf / inf)
    trial = np.array([0.0, 0.1, 0.5, np.inf, -np.inf, np.nan, 2.0])
    for sigma_y in (0.0, 0.1, 0.5):
        for factor in (0.3, 3.0):
            with np.errstate(invalid="ignore", divide="ignore"):
                got = kernels.radial_return(trial, sigma_y, factor)
                ref = ref_radial_return(trial, sigma_y, factor)
            nan = np.isnan(ref)
            assert nan.any() and np.array_equal(np.isnan(got), nan)
            assert same_bits(got[~nan], ref[~nan])
    # |trial| = sigma_y = 0 forms no 0 / 0, at any factor
    with np.errstate(all="raise"):
        for factor in (1e-300, 0.3, 3.0):
            assert same_bits(kernels.radial_return(np.zeros(9), 0.0, factor),
                             np.zeros(9))
