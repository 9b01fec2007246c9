"""Values a run computes once: ledger inputs carried from the step, and the CFL bound.

The step hands the energy audit values it has already formed (the
midpoint stress gradients of this step and the previous one, and the
previous step's total energy); these tests pin that the ledgers built
from them equal, bit for bit, the ledgers an audit computes from scratch,
that the audit's closed forms agree with a full-evaluation reference
ledger to round-off, and that a run, and a convergence study, estimate
the stability bound once.
"""

import dataclasses

import numpy as np
import pytest

from stagdyn import checks, integrator
from stagdyn.cli import main
from stagdyn.grid import Discretization, Grid, build
from stagdyn.integrator import (
    IntegratorConfig,
    Loading,
    advance,
    energy_audit,
    initial_state,
    max_stable_timestep,
    step_internal,
)
from stagdyn.materials import (
    BiotMaterial,
    DamageMaterial,
    ElasticMaterial,
    PlasticCreepMaterial,
)
from stagdyn.oracle import ledger_defects, reference_ledger

STEPS = 20


def _disc_1d(bc):
    return build(Grid(dim=1, nx=30, h=1.0 / 30.0, bc=bc), 1.0,
                 {"modulus": 1.0})


def _disc_2d(bc):
    return build(Grid(dim=2, nx=6, ny=5, h=0.2, bc=bc), 1.0,
                 {"bulk_modulus": 1.0, "shear_modulus": 0.6})


def _random_stress(disc, amplitude):
    rng = np.random.default_rng(5)
    s = amplitude * rng.standard_normal(disc.n_s)
    s[~disc.s_active] = 0.0
    return s


# name -> (discretization, material, initial stress amplitude, traction side)
CASES = {
    "elastic_1d": (lambda: _disc_1d(("traction", "dirichlet")),
                   ElasticMaterial, 0.5, "left"),
    "elastic_2d": (
        lambda: _disc_2d(("neumann", "dirichlet", "traction", "dirichlet")),
        ElasticMaterial, 0.5, "bottom"),
    "maxwell_creep_1d": (lambda: _disc_1d(("dirichlet", "dirichlet")),
                         lambda: PlasticCreepMaterial(viscosity=0.5),
                         0.5, None),
    "viscoplastic_2d": (
        lambda: _disc_2d(("dirichlet", "neumann", "dirichlet", "traction")),
        lambda: PlasticCreepMaterial(viscosity=0.4, sigma_y=0.1,
                                     hardening=(0.2, 0.1)),
        0.5, "top"),
    "damage_1d": (lambda: _disc_1d(("dirichlet", "neumann")),
                  lambda: DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4,
                                         viscosity=0.3),
                  0.6, None),
    "biot_1d": (lambda: _disc_1d(("traction", "dirichlet")),
                lambda: BiotMaterial(biot_modulus=0.4, biot_coefficient=0.4,
                                     l_coefficient=0.1, capillarity=0.02,
                                     mobility=0.5),
                0.4, "left"),
    # the coupling sits on the trace of the 2D stress
    "biot_2d": (
        lambda: _disc_2d(("dirichlet", "neumann", "dirichlet", "traction")),
        lambda: BiotMaterial(biot_modulus=0.4, biot_coefficient=0.4,
                             l_coefficient=0.1, capillarity=0.02,
                             mobility=0.5),
        0.4, "top"),
}


def _setup(name):
    make_disc, make_mat, amp, side = CASES[name]
    d = make_disc()
    m = make_mat()
    body = np.where(d.v_active, 0.01, 0.0)
    if side is None:
        loading = Loading(body_force=body)
    else:
        loading = Loading(body_force=body,
                          traction=lambda t: 0.2 * np.sin(4.0 * t),
                          traction_pattern=d.traction_pattern(side))
    st = initial_state(d, m, sigma=_random_stress(d, amp))
    tau_max, _ = max_stable_timestep(d, m, st.z, 0.1)
    cfg = IntegratorConfig(tau=0.9 * tau_max, t_end=STEPS * 0.9 * tau_max)
    return d, m, loading, st, cfg


@pytest.mark.parametrize("name", sorted(CASES))
def test_carried_ledger_equals_from_scratch_audit(name):
    d, m, loading, st, cfg = _setup(name)
    for _ in range(STEPS):
        prev = st
        st, ledger = advance(prev, d, m, loading, cfg)
        assert st.energy is not None and st.dphi_mid is not None
        # same solver by-products as the step, nothing carried
        _, info = step_internal(prev, st.sigma, m, d, cfg)
        bare_prev, bare_next = prev.copy(), st.copy()
        assert bare_next.energy is None and bare_next.dphi_mid is None
        fresh = energy_audit(bare_prev, bare_next, d, m, loading, cfg,
                             step_info=info)
        assert dataclasses.asdict(ledger) == dataclasses.asdict(fresh)
        assert st.energy == fresh.total
    if CASES[name][3] is not None:
        assert ledger.external_work_step != 0.0


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledger_matches_full_evaluation_reference(name):
    # the closed forms change the arithmetic, not the ledger beyond
    # round-off
    d, m, loading, st, cfg = _setup(name)
    for _ in range(STEPS):
        prev = st
        st, ledger = advance(prev, d, m, loading, cfg)
        _, info = step_internal(prev, st.sigma, m, d, cfg)
        ref = reference_ledger(prev, st, d, m, loading, cfg.tau,
                               step_info=info)
        rel, res = ledger_defects(ledger, ref)
        assert rel <= 1e-13, (ledger, ref)
        assert res <= 1e-15, (ledger, ref)


def test_ledger_reference_check_fails_on_a_wrong_closed_form(monkeypatch):
    lines = []
    monkeypatch.setattr(checks, "ALL_CHECKS", [
        (name, fn) for name, fn in checks.ALL_CHECKS
        if name == "ledger-reference"])
    assert checks.run_checks(out=lines.append) == 0
    assert lines == ["PASS ledger-reference"]
    # a plastic shift with the wrong sign
    monkeypatch.setattr(PlasticCreepMaterial, "dphi_dsigma_shift",
                        lambda self, disc, dz: dz)
    lines.clear()
    assert checks.run_checks(out=lines.append) == 1
    assert len(lines) == 1 and lines[0].startswith("FAIL ledger-reference")


@pytest.mark.parametrize("name", ["viscoplastic_2d", "biot_1d", "biot_2d"])
def test_step_evaluates_stored_energy_once(monkeypatch, name):
    d, m, loading, st, cfg = _setup(name)
    calls = {"phi": 0, "dphi_dsigma": 0, "true_stress": 0}

    def counted(attr):
        fn = getattr(m, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in calls:
        monkeypatch.setattr(m, attr, counted(attr))
    st, _ = advance(st, d, m, loading, cfg)  # bootstrap computes afresh
    for _ in range(3):
        for attr in calls:
            calls[attr] = 0
        st, _ = advance(st, d, m, loading, cfg)
        # the velocity update's midpoint gradient is the only one: the
        # gradient is affine in z, so the audit shifts it to the end of
        # the step and forms the jump term from z alone
        assert calls == {"phi": 1, "dphi_dsigma": 1, "true_stress": 0}


@pytest.mark.parametrize("name", ["elastic_1d", "elastic_2d",
                                  "viscoplastic_2d", "biot_1d"])
def test_step_applies_E_adjoint_twice(monkeypatch, name):
    # after the bootstrap a step applies E* twice, elastic or not: to the
    # midpoint true stress in the velocity update and to the end-of-step
    # true stress in the stability coefficient; a ledger computed afresh
    # from copies of the states is the same
    d, m, loading, st, cfg = _setup(name)
    st, _ = advance(st, d, m, loading, cfg)  # bootstrap computes afresh
    calls = []
    real = Discretization.apply_E_adjoint

    def counted(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(Discretization, "apply_E_adjoint", counted)
    for _ in range(5):
        prev = st
        calls.clear()
        st, ledger = advance(prev, d, m, loading, cfg)
        assert len(calls) == 2
        _, info = step_internal(prev, st.sigma, m, d, cfg)
        fresh = energy_audit(prev.copy(), st.copy(), d, m, loading, cfg,
                             step_info=info)
        assert dataclasses.asdict(ledger) == dataclasses.asdict(fresh)


CLI_CFG = """
[grid]
dim = 1
nx = 40
h = 0.025

[material]
name = elastic
modulus = 1.0

[integrator]
tau = {tau}
eta = 0.1
t_end = 0.2
cfl_recheck_every = {every}

[loading]
initial = sine_stress

[output]
out_dir = {out}
"""


@pytest.fixture
def cfl_calls(monkeypatch):
    calls = []
    real = integrator.max_stable_timestep

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(integrator, "max_stable_timestep", counted)
    return calls


def _run(tmp_path, tau, every=0):
    path = tmp_path / "sim.cfg"
    path.write_text(CLI_CFG.format(tau=tau, every=every,
                                   out=tmp_path / "out"), encoding="utf-8")
    return main(["run", str(path), "--quiet"])


@pytest.mark.parametrize("tau", ["auto", "0.01"])
def test_run_estimates_bound_once(tmp_path, cfl_calls, tau):
    assert _run(tmp_path, tau) == 0
    assert len(cfl_calls) == 1


def test_fixed_tau_above_bound_exits_2_after_one_estimate(tmp_path,
                                                          cfl_calls):
    assert _run(tmp_path, "0.1") == 2
    assert len(cfl_calls) == 1


@pytest.mark.parametrize("tau", ["auto", "0.01"])
def test_recheck_reestimates_every_n_steps(tmp_path, cfl_calls, tau):
    assert _run(tmp_path, tau, every=3) == 0
    log = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    steps = len(log) - 1
    # one initial estimate plus one before every step k = 3, 6, ... < steps
    assert len(cfl_calls) == 1 + (steps - 1) // 3


DAMAGE_CLI_CFG = """
[grid]
dim = 1
nx = 24
h = 4.1666666666666664e-02
bc_left = dirichlet
bc_right = neumann

[material]
name = damage
modulus = 1.0
viscosity = 0.3
eps0 = 1.0
eps = 0.05
fracture_energy = 0.4

[integrator]
tau = {tau}
eta = 0.1
t_end = 0.1

[loading]
initial = bump_stress
initial_amplitude = 0.5
"""


@pytest.mark.parametrize("text", [CLI_CFG, DAMAGE_CLI_CFG],
                         ids=["oracle", "finest-grid"])
@pytest.mark.parametrize("tau, estimates", [("auto", 1), ("0.01", 1)])
def test_converge_estimates_bound_once(tmp_path, cfl_calls, capsys, text,
                                       tau, estimates):
    # with tau = auto the study reuses the config's estimate; with a fixed
    # tau it estimates the bound once for all of its levels
    path = tmp_path / "sim.cfg"
    path.write_text(text.format(tau=tau, every=0, out=tmp_path / "out"),
                    encoding="utf-8")
    assert main(["converge", str(path), "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("row,") == 3 and "excluded" not in out
    assert len(cfl_calls) == estimates
