"""Every step is checked for non-finite fields, through its ledger.

``advance`` scans the new fields only when the kinetic pair or the stored
energy of its ledger is not finite.  That is sound because of the contract
of ``MaterialModel.phi``: every entry of sigma and z enters the stored
energy with a finite nonzero factor, so one non-finite entry makes it
non-finite (a non-finite velocity entry does the same to the kinetic
pair).  These tests check the contract for every material, and that a NaN
or an infinity put into one entry of Sigma', z' or v' still raises
:class:`NonFiniteFieldError` with the message of the first non-finite
field in the order proto-stress, internal, velocity, and an
:class:`InstabilityError` at that step from ``run_simulation``.
"""

import math

import numpy as np
import pytest

from stagdyn import integrator
from stagdyn.errors import InstabilityError, NonFiniteFieldError
from stagdyn.grid import Grid, build
from stagdyn.integrator import (
    IntegratorConfig,
    advance,
    initial_state,
    no_loading,
    run_simulation,
)
from stagdyn.materials import (
    BiotMaterial,
    DamageMaterial,
    ElasticMaterial,
    PlasticCreepMaterial,
)

# the injected values overflow and cancel on purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

MATERIALS = {
    "elastic": ElasticMaterial,
    "maxwell": lambda: PlasticCreepMaterial(viscosity=0.5),
    "viscoplastic": lambda: PlasticCreepMaterial(
        viscosity=0.5, sigma_y=0.05, hardening=(0.3, 0.2)),
    "biot": lambda: BiotMaterial(biot_modulus=0.4, biot_coefficient=0.4,
                                 l_coefficient=0.1, zeta_eq=0.2,
                                 capillarity=0.02, mobility=0.5),
    "damage": lambda: DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4,
                                     viscosity=0.3),
    "healing": lambda: DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4,
                                      viscosity=0.3, mode="healing"),
}
VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
FIELD_NAMES = {"sigma": "proto-stress", "z": "internal", "v": "velocity"}
INJECT_AT = 2  # the state.k of the step whose new field is corrupted


def _disc(dim):
    # sides that leave inactive stress and velocity entries
    if dim == 1:
        return build(Grid(dim=1, nx=8, h=0.125, bc=("neumann", "traction")),
                     1.0, {"modulus": 1.0})
    return build(Grid(dim=2, nx=4, ny=3, h=0.2,
                      bc=("dirichlet", "neumann", "traction", "dirichlet")),
                 1.0, {"bulk_modulus": 1.0, "shear_modulus": 0.6})


def _state(disc, material):
    rng = np.random.default_rng(3)
    z = material.z_init(disc)
    if isinstance(material, DamageMaterial):
        z = rng.uniform(0.4, 1.0, z.size)
    elif z.size:
        z = z + 0.05 * rng.standard_normal(z.size)
    return initial_state(disc, material,
                         sigma=0.5 * rng.standard_normal(disc.n_s),
                         v=0.1 * rng.standard_normal(disc.n_v), z=z)


def _entries(n):
    return sorted({0, n // 2, n - 1})


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("material", MATERIALS)
def test_phi_is_not_finite_with_one_non_finite_entry(material, dim):
    # the contract advance relies on, for each entry of sigma and z, with
    # phi forming its gradients itself and taking the caller's
    d, m = _disc(dim), MATERIALS[material]()
    st = _state(d, m)
    assert math.isfinite(m.phi(d, st.sigma, st.z))
    for field in ("sigma", "z"):
        for i in range(getattr(st, field).size):
            for value in VALUES.values():
                sigma, z = st.sigma.copy(), st.z.copy()
                (sigma if field == "sigma" else z)[i] = value
                g = m.dphi_dsigma(d, sigma, z)
                for phi in (m.phi(d, sigma, z),
                            m.phi(d, sigma, z, g=g, s_true=d.apply_C(g))):
                    assert not math.isfinite(phi), (field, i, value)


def _inject(monkeypatch, field, entry, value):
    """Put ``value`` into entry ``entry`` of the new ``field`` on the step
    from a state at k = INJECT_AT: Sigma' and z' after the internal step,
    v' after the velocity step."""
    if field == "v":
        real = integrator.step_velocity

        def wrapped(state, *args):
            out = real(state, *args)
            if state.k == INJECT_AT:
                out[0][entry] = value
            return out

        monkeypatch.setattr(integrator, "step_velocity", wrapped)
        return
    real = integrator.step_internal

    def wrapped(state, sigma_next, *args):
        z_next, info = real(state, sigma_next, *args)
        if state.k == INJECT_AT:
            if field == "sigma":
                sigma_next[entry] = value
            else:
                z_next = z_next.copy()
                z_next[entry] = value
        return z_next, info

    monkeypatch.setattr(integrator, "step_internal", wrapped)


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("material, field", [
    (material, field) for material in MATERIALS for field in FIELD_NAMES
    if (material, field) != ("elastic", "z")])  # elastic has no z
def test_one_non_finite_entry_is_caught_on_its_step(monkeypatch, material,
                                                    field, dim, value):
    d, m = _disc(dim), MATERIALS[material]()
    st0 = _state(d, m)
    n = {"sigma": d.n_s, "z": st0.z.size, "v": d.n_v}[field]
    cfg = IntegratorConfig(tau=0.01, t_end=0.05, tau_max=np.inf)
    message = f"non-finite values in {FIELD_NAMES[field]}"
    for entry in _entries(n):
        with monkeypatch.context() as mp:
            _inject(mp, field, entry, VALUES[value])
            st = st0.copy()
            for _ in range(INJECT_AT):
                st, ledger = advance(st, d, m, no_loading(d), cfg)
                assert math.isfinite(ledger.total)
            with pytest.raises(NonFiniteFieldError) as ei:
                advance(st, d, m, no_loading(d), cfg)
            assert str(ei.value) == message
            with pytest.raises(InstabilityError) as ei:
                run_simulation(d, m, no_loading(d), cfg, st0.copy())
            assert ei.value.step == INJECT_AT
            assert str(ei.value) == (f"instability detected at step "
                                     f"{INJECT_AT}: {message}")
