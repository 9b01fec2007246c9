"""Values a run computes once: ledger inputs carried from the step, and the CFL bound.

The step hands the energy audit values it has already formed (the
midpoint stress gradients of this step and the previous one, the
previous step's total energy and, for damage, its end gradient); these
tests pin that the ledgers built from them equal, bit for bit, the
ledgers an audit computes from scratch, that the audit's closed forms
agree with a full-evaluation reference ledger to round-off, and that a
run, a convergence study and each case of the check suite estimate the
stability bound once.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from stagdyn import checks, integrator
from stagdyn.cli import main
from stagdyn.config import build_simulation, integrator_config, parse_config
from stagdyn.errors import CflViolationError
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
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    # without a yield stress the 2D trace creeps too
    "maxwell_creep_2d": (
        lambda: _disc_2d(("dirichlet", "neumann", "traction", "dirichlet")),
        lambda: PlasticCreepMaterial(viscosity=0.4), 0.5, "bottom"),
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
        # only a material without the closed-form shift carries its end
        # gradient for the next jump term
        assert (st.dphi_end is None) == (m.dphi_dsigma_shift is not None)
        # same solver by-products as the step, from the same previous
        # increment z^k - z^{k-1}; nothing carried
        _, info = step_internal(prev, st.sigma, m, d, cfg)
        bare_prev, bare_next = prev.copy(), st.copy()
        assert bare_next.energy is None and bare_next.dphi_mid is None
        assert bare_next.dphi_end is None
        fresh = energy_audit(bare_prev, bare_next, d, m, loading, cfg,
                             step_info=info)
        assert dataclasses.asdict(ledger) == dataclasses.asdict(fresh)
        assert st.energy == fresh.total
    if CASES[name][3] is not None:
        assert ledger.external_work_step != 0.0


def _damage_rounds(text, steps):
    """Active-set rounds of ``steps`` run steps of a damage config, as the
    run took them (from z^{k-1}) and as the same solves take from 0."""
    cfg = parse_config(text)
    d, m, loading, st = build_simulation(cfg)
    icfg = integrator_config(cfg, d, m, st)
    warm = cold = 0
    for _ in range(steps or int(round(icfg.t_end / icfg.tau))):
        prev = st
        st, _ = advance(prev, d, m, loading, icfg)
        z, info = step_internal(prev, st.sigma, m, d, icfg)
        assert z.tobytes() == st.z.tobytes()
        warm += info["rounds"]
        cold += m.internal_step(d, st.sigma, prev.z, icfg.tau)[1]["rounds"]
    assert np.any(st.z < 1.0)
    return warm, cold, d.n_s


def test_damage_step_starts_from_the_previous_increment():
    # the run path hands the step z^{k-1}: the step it took is the warm
    # solve bit for bit, and on the benchmark's nx = 256 damage_1d case it
    # takes fewer active-set rounds than the same solves started from 0
    # (109 against 178 over these 50 steps)
    text = (CONFIGS / "damage_1d.cfg").read_text(encoding="utf-8")
    text = text.replace("nx = 64", "nx = 256").replace("h = 0.015625",
                                                       "h = 0.00390625")
    warm, cold, n_s = _damage_rounds(text, 50)
    assert n_s == 257
    assert warm < 0.75 * cold


def test_shipped_damage_warm_start_takes_no_more_rounds_than_cold():
    # the start keeps the last increment only where the step still loads
    # (b < 0): a point that moved last step but is unloaded now would start
    # free and take a second round to return to the bound (61 against 66
    # rounds over the 34 steps; 71 when the whole increment was kept)
    text = (CONFIGS / "damage_1d.cfg").read_text(encoding="utf-8")
    warm, cold, _ = _damage_rounds(text, None)
    assert warm <= cold


@pytest.mark.parametrize("mode", ["unidirectional", "healing"])
def test_2d_damage_step_takes_no_start_point(mode):
    # 2D's projected CG ran slower from the previous increment, so a 2D
    # step gives the same bits with and without z_prev
    d = _disc_2d(("dirichlet",) * 4)
    m = DamageMaterial(eps0=1.0, eps=0.05, g_c=0.4, viscosity=0.3, mode=mode)
    sigma = _random_stress(d, 2.0)
    rng = np.random.default_rng(8)
    z_k = rng.uniform(0.3, 1.0, d.zs_n)
    z_prev = z_k + rng.uniform(0.0, 0.3, d.zs_n)
    cold, _ = m.internal_step(d, sigma, z_k, 0.02)
    warm, _ = m.internal_step(d, sigma, z_k, 0.02, z_prev=z_prev)
    assert np.any(cold < z_k) and cold.tobytes() == warm.tobytes()


def _ledgers_against_reference(d, m, loading, st, cfg):
    """Run STEPS steps; each ledger agrees with the full-evaluation
    reference to round-off.  Returns the ledgers."""
    ledgers = []
    for _ in range(STEPS):
        prev = st
        st, ledger = advance(prev, d, m, loading, cfg)
        _, info = step_internal(prev, st.sigma, m, d, cfg)
        ref = reference_ledger(prev, st, d, m, loading, cfg.tau,
                               step_info=info)
        rel, res = ledger_defects(ledger, ref)
        assert rel <= 1e-13, (ledger, ref)
        assert res <= 1e-15, (ledger, ref)
        ledgers.append(ledger)
    return ledgers


@pytest.mark.parametrize("name", sorted(CASES))
def test_ledger_matches_full_evaluation_reference(name):
    # the closed forms change the arithmetic, not the ledger beyond
    # round-off
    _ledgers_against_reference(*_setup(name))


@pytest.mark.parametrize("name", ["biot_1d", "damage_1d", "viscoplastic_2d"])
def test_zero_body_force_does_no_work(name):
    # the audit skips the work pass of a zero force and books exactly 0
    d, m, _, st, cfg = _setup(name)
    loading = Loading(body_force=d.zeros_v())
    for ledger in _ledgers_against_reference(d, m, loading, st, cfg):
        assert ledger.external_work_step == 0.0


def test_body_force_filled_in_place_does_work():
    # a force written into a Loading built with zeros is booked as work
    # (from the second step on: the run starts at rest)
    d, m, loading, st, cfg = _setup("viscoplastic_2d")
    filled = Loading(body_force=d.zeros_v())
    filled.body_force[:] = loading.body_force
    ledgers = _ledgers_against_reference(d, m, filled, st, cfg)
    assert all(ledger.external_work_step != 0.0 for ledger in ledgers[1:])


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


@pytest.mark.parametrize("name", ["viscoplastic_2d", "biot_1d", "biot_2d",
                                  "damage_1d"])
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
        # with a gradient affine in z the velocity update's midpoint
        # gradient is the only one: the audit shifts it to the end of the
        # step and forms the jump term from z alone.  Damage adds the end
        # gradient and dPhi_s(Sigma', z^k); its dPhi_s(Sigma, z^k) is the
        # previous step's end gradient, carried on the state
        assert calls == {"phi": 1, "dphi_dsigma": 3 if name == "damage_1d"
                         else 1, "true_stress": 0}


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


def _run(tmp_path, tau):
    path = tmp_path / "sim.cfg"
    path.write_text(CLI_CFG.format(tau=tau, out=tmp_path / "out"),
                    encoding="utf-8")
    return main(["run", str(path), "--quiet"])


@pytest.mark.parametrize("tau", ["auto", "0.01"])
def test_run_estimates_bound_once(tmp_path, cfl_calls, tau):
    assert _run(tmp_path, tau) == 0
    assert len(cfl_calls) == 1


def test_fixed_tau_above_bound_exits_2_after_one_estimate(tmp_path,
                                                          cfl_calls):
    assert _run(tmp_path, "0.1") == 2
    assert len(cfl_calls) == 1
    assert not (tmp_path / "out").exists()


def test_carried_bound_rejects_a_larger_tau_without_estimating(cfl_calls):
    # tau = auto carries the bound it measured; a larger tau put into the
    # same settings fails against that bound with no second estimate
    cfg = parse_config((CONFIGS / "maxwell_creep_1d.cfg").read_text(
        encoding="utf-8"))
    disc, material, loading, state = build_simulation(cfg)
    icfg = integrator_config(cfg, disc, material, state)
    assert len(cfl_calls) == 1 and icfg.tau_max == icfg.tau
    # the name imported here is the uncounted estimator
    _, lam = max_stable_timestep(disc, material, state.z, icfg.eta)
    cfl_calls.clear()
    larger = dataclasses.replace(icfg, tau=1.2 * icfg.tau)
    with pytest.raises(CflViolationError) as ei:
        integrator.run_simulation(disc, material, loading, larger, state)
    assert cfl_calls == []
    assert ei.value.tau_max == icfg.tau_max
    assert abs(ei.value.quotient - lam) <= 1e-12 * lam


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
    path.write_text(text.format(tau=tau, out=tmp_path / "out"),
                    encoding="utf-8")
    assert main(["converge", str(path), "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("row,") == 3 and "excluded" not in out
    assert len(cfl_calls) == estimates


@pytest.mark.parametrize("name, estimates", [("elastic-conservation", 1),
                                             ("energy-inequality", 3)])
def test_check_entries_estimate_each_bound_once(monkeypatch, cfl_calls,
                                                name, estimates):
    # each case measures its bound once and hands it to its run
    monkeypatch.setattr(checks, "max_stable_timestep",
                        integrator.max_stable_timestep)
    dict(checks.ALL_CHECKS)[name](np.random.default_rng(1234))
    assert len(cfl_calls) == estimates
