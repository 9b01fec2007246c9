"""Config grammar, output formats, CLI behavior and exit codes."""

import argparse
import ast
import functools
import os
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stagdyn import cli, integrator
from stagdyn import io as sdio
from stagdyn.cli import main
from stagdyn.config import (
    _SCHEMA,
    build_simulation,
    integrator_config,
    parse_config,
    serialize_config,
)
from stagdyn.errors import ConfigError, StagdynError
from stagdyn.materials import ElasticMaterial

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

MINIMAL_ELASTIC = """
[grid]
dim = 1
nx = 40
h = 0.025

[material]
name = elastic
modulus = 1.0

[integrator]
tau = auto
eta = 0.1
t_end = 0.2

[loading]

[output]
"""

DAMAGE_CFG = """
[grid]
dim = 1
nx = 24
h = 4.1666666666666664e-02
bc_left = dirichlet
bc_right = neumann

[material]
name = damage
rho = 1.0
modulus = 1.0
viscosity = 0.3
eps0 = 1.0
eps = 0.05
fracture_energy = 0.4
mode = unidirectional
strain_gradient = 0.015625

[integrator]
tau = auto
eta = 0.1
t_end = 0.1

[loading]
initial = bump_stress
initial_amplitude = 0.5
"""


def test_minimal_elastic_parses():
    cfg = parse_config(MINIMAL_ELASTIC)
    assert cfg.grid["nx"] == 40
    assert cfg.integrator["tau"] == "auto"
    assert cfg.material["name"] == "elastic"
    # defaults filled
    assert cfg.loading["traction"] == "none"


def test_auto_tau_requires_eta():
    text = MINIMAL_ELASTIC.replace("eta = 0.1\n", "")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location == "integrator.eta"


def test_unknown_key_is_hard_error(tmp_path):
    # cfl_recheck_every is unknown too: the bound at the initial state
    # holds for the whole run, so no setting re-estimates it
    for after, line, location in [
            ("nx = 40", "nnx = 3", "grid.nnx"),
            ("t_end = 0.2", "cfl_recheck_every = 3",
             "integrator.cfl_recheck_every")]:
        text = MINIMAL_ELASTIC.replace(after, f"{after}\n{line}")
        with pytest.raises(ConfigError) as ei:
            parse_config(text)
        assert ei.value.location == location
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, text), "--quiet",
                     "--out-dir", str(out)]) == 64
        assert not out.exists()


def test_type_mismatch_location():
    text = MINIMAL_ELASTIC.replace("h = 0.025", "h = smol")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location == "grid.h"


def test_missing_required_key():
    text = MINIMAL_ELASTIC.replace("modulus = 1.0", "")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert "material" in ei.value.location


def test_duplicate_key_rejected():
    text = MINIMAL_ELASTIC.replace("nx = 40", "nx = 40\nnx = 50")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_round_trip_identity():
    for text in (MINIMAL_ELASTIC, DAMAGE_CFG):
        cfg = parse_config(text)
        text2 = serialize_config(cfg)
        cfg2 = parse_config(text2)
        assert cfg2 == cfg
        # serialization is canonical (fixed point)
        assert serialize_config(cfg2) == text2


def test_2d_requires_ny_and_bcs():
    text = MINIMAL_ELASTIC.replace("dim = 1", "dim = 2").replace(
        "modulus = 1.0", "bulk_modulus = 1.0\nshear_modulus = 0.5")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location.startswith("grid.")


@pytest.mark.parametrize("key, value", [
    ("grid.ny", "4"), ("grid.bc_bottom", "neumann"), ("grid.bc_top", "neumann"),
    ("material.bulk_modulus", "1.0"), ("material.shear_modulus", "0.5"),
    ("material.hardening_bulk", "0.4"), ("material.hardening_shear", "0.4")])
def test_2d_key_in_1d_config_is_rejected(key, value):
    section, name = key.split(".")
    text = MINIMAL_ELASTIC.replace(f"[{section}]",
                                   f"[{section}]\n{name} = {value}")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location == key


@pytest.mark.parametrize("key, value", [
    ("material.modulus", "1.0"), ("material.hardening", "0.3")])
def test_1d_key_in_2d_config_is_rejected(key, value):
    text = (CONFIGS / "viscoplastic_2d.cfg").read_text(encoding="utf-8")
    name = key.split(".")[1]
    text = text.replace("[material]", f"[material]\n{name} = {value}")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location == key


@pytest.mark.parametrize("name, key, value", [
    ("elastic", "material.viscosity", "5.0"),
    ("plastic_creep", "material.capillarity", "3.0"),
    ("biot", "material.yield_stress", "0.2"),
    ("damage", "material.mobility", "2.0")])
def test_key_of_another_material_is_rejected(tmp_path, name, key, value):
    # each material's own required keys are set, so only the foreign key
    # can fail
    own = {"elastic": "",
           "plastic_creep": "viscosity = 0.5\n",
           "biot": "biot_modulus = 1.0\nbiot_coefficient = 0.5\n",
           "damage": "eps0 = 1.0\neps = 0.05\nfracture_energy = 0.4\n"
                     "viscosity = 0.3\n"}[name]
    text = MINIMAL_ELASTIC.replace("name = elastic", f"name = {name}\n{own}")
    parse_config(text)
    text = text.replace("[material]",
                        f"[material]\n{key.split('.')[1]} = {value}")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location == key
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, text), "--quiet",
                 "--out-dir", str(out)]) == 64
    assert not out.exists()


def test_hardening_defaults_follow_the_dimension():
    cfg1 = parse_config(MINIMAL_ELASTIC.replace(
        "name = elastic", "name = plastic_creep\nviscosity = 0.5"))
    assert cfg1.material["hardening"] == 0.0
    assert "hardening_bulk" not in cfg1.material
    text = (CONFIGS / "viscoplastic_2d.cfg").read_text(encoding="utf-8")
    cfg2 = parse_config(text.replace(
        "[material]", "[material]\nhardening_bulk = 0.4"))
    assert (cfg2.material["hardening_bulk"],
            cfg2.material["hardening_shear"]) == (0.4, 0.0)
    assert "hardening" not in cfg2.material
    assert parse_config(serialize_config(cfg2)) == cfg2


def test_body_force_dimension_check():
    text = MINIMAL_ELASTIC.replace("[loading]",
                                   "[loading]\nbody_force = 1.0 2.0")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location == "loading.body_force"


def test_build_simulation_elastic():
    cfg = parse_config(MINIMAL_ELASTIC)
    disc, material, loading, state = build_simulation(cfg)
    assert disc.n_v == 40
    assert material.name == "elastic"
    icfg = integrator_config(cfg, disc, material, state)
    assert icfg.tau > 0


# ---------------------------------------------------------------------------
# snapshot format
# ---------------------------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    path = tmp_path / "snap.bin"
    fields = {"v": np.linspace(0, 1, 7), "sigma": np.arange(5.0)}
    sdio.write_snapshot(path, fields, dim=1)
    got, dim = sdio.read_snapshot(path)
    assert dim == 1
    assert set(got) == {"v", "sigma"}
    assert_allclose(got["v"], fields["v"])
    assert_allclose(got["sigma"], fields["sigma"])


def test_snapshot_header_layout(tmp_path):
    path = tmp_path / "snap.bin"
    sdio.write_snapshot(path, {"ab": np.array([1.5, -2.0])}, dim=2)
    raw = path.read_bytes()
    magic, version, count, dim = struct.unpack("<4sIII", raw[:16])
    assert magic == b"STGD"
    assert (version, count, dim) == (1, 1, 2)
    (nlen,) = struct.unpack("<I", raw[16:20])
    assert raw[20:22] == b"ab"
    (n,) = struct.unpack("<Q", raw[22:30])
    assert n == 2
    assert np.frombuffer(raw[30:46], dtype="<f8").tolist() == [1.5, -2.0]


def test_snapshot_truncated_anywhere_raises(tmp_path):
    path = tmp_path / "snap.bin"
    sdio.write_snapshot(path, {"ab": np.array([1.5, -2.0]),
                               "cde": np.arange(3.0)}, dim=1)
    raw = path.read_bytes()
    # header boundaries: 16 | 4 name length | name | 8 count | data, twice
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(StagdynError, match="truncated"):
            sdio.read_snapshot(path)


def test_snapshot_size_past_the_end_raises_before_reading(tmp_path):
    # a count or name length asking for more bytes than the file has left
    # is truncation, found before a buffer of that size is asked for: a
    # count of 2^60 would overflow the read, a wide one exhaust memory
    path = tmp_path / "snap.bin"
    sdio.write_snapshot(path, {"ab": np.array([1.5, -2.0])}, dim=1)
    raw = path.read_bytes()
    for offset, fmt, value in [(22, "<Q", 2 ** 60), (22, "<Q", 3),
                               (16, "<I", len(raw) - 20 + 1)]:
        bad = bytearray(raw)
        struct.pack_into(fmt, bad, offset, value)
        path.write_bytes(bytes(bad))
        with pytest.raises(StagdynError, match="truncated"):
            sdio.read_snapshot(path)


@pytest.mark.parametrize("row", ["1,0.2,1,2", "1,0.2,1,2,3,4,x,0"])
def test_malformed_energy_log_row_names_its_line(tmp_path, row):
    path = tmp_path / "energy.csv"
    path.write_text(",".join(sdio.ENERGY_COLUMNS) + "\n"
                    + "0,0,1,2,0,0,1,0\n" + row + "\n", encoding="utf-8")
    with pytest.raises(StagdynError, match=f"line 3: .*{re.escape(row)}"):
        sdio.read_energy_log(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_cfg(tmp_path, text, name="sim.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run_cfg_text(tmp_path, out="out1"):
    return MINIMAL_ELASTIC.replace(
        "[loading]", "[loading]\ninitial = sine_stress") .replace(
        "[output]", f"[output]\nout_dir = {tmp_path}/{out}\n"
                    "snapshot_every = 20\nsnapshot_fields = v sigma")


def test_cli_run_elastic(tmp_path, capsys):
    path = write_cfg(tmp_path, run_cfg_text(tmp_path))
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "final energy" in out
    log = sdio.read_energy_log(os.path.join(tmp_path, "out1", "energy.csv"))
    # monotone-constant energy column for the conservative run
    total = log["kinetic"] + log["stored"]
    assert np.max(np.abs(total - total[0])) <= 1e-10 * max(1.0, total[0])
    snaps = sorted(os.listdir(os.path.join(tmp_path, "out1")))
    assert any(s.startswith("snapshot_") for s in snaps)


def test_cli_energy_log_reproducible(tmp_path):
    p1 = write_cfg(tmp_path, run_cfg_text(tmp_path, out="a"), "a.cfg")
    p2 = write_cfg(tmp_path, run_cfg_text(tmp_path, out="b"), "b.cfg")
    assert main(["run", p1, "--quiet"]) == 0
    assert main(["run", p2, "--quiet"]) == 0
    a = (tmp_path / "a" / "energy.csv").read_bytes()
    b = (tmp_path / "b" / "energy.csv").read_bytes()
    assert a == b


def test_energy_log_row_is_the_per_value_format(tmp_path):
    # one %-format per row gives the text of str(k) and format(v, ".17g")
    # value by value: signed zeros, inf, nan, subnormal-scale values,
    # numpy scalars and a large step index
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300,
                np.float64(0.1), 1.0 / 3.0, 5e-324, 1.7976931348623157e308]
    rng = np.random.default_rng(4)
    rows = [specials[i:i + 7] for i in range(0, len(specials) - 6)]
    rows += [list(rng.standard_normal(7) * 10.0 ** rng.integers(-20, 20, 7))
             for _ in range(20)]
    ledgers, expected = [], ""
    for k, vals in zip([0, 1, 2 ** 40 + 3] + list(range(3, 100)), rows):
        led = integrator.EnergyLedger(k, *vals, energy_prev=0.0)
        ledgers.append(led)
        fields = (led.time, led.kinetic, led.stored, led.dissipated_step,
                  led.external_work_step, led.stability_coeff, led.residual)
        expected += ",".join([str(k)] + [format(v, ".17g")
                                          for v in fields]) + "\n"
    path = tmp_path / "energy.csv"
    with sdio.EnergyLogWriter(path) as log:
        for led in ledgers:
            log.write(led)
    header = ",".join(sdio.ENERGY_COLUMNS) + "\n"
    assert path.read_bytes() == (header + expected).encode("utf-8")


def test_cli_run_of_no_steps_exits_64(tmp_path, capsys):
    # round(t_end / tau) = 0 would write a header-only log and no summary
    text = (CONFIGS / "elastic_wave_1d.cfg").read_text(
        encoding="utf-8").replace("t_end = 2.0", "t_end = 1e-6")
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, text), "--out-dir",
                 str(out)]) == 64
    assert "[integrator.t_end]" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unstable_run_exits_2(tmp_path):
    text = run_cfg_text(tmp_path).replace("tau = auto", "tau = 0.1")
    path = write_cfg(tmp_path, text)
    assert main(["run", path, "--quiet"]) == 2


def test_cli_cfl_prints_bound(tmp_path, capsys):
    path = write_cfg(tmp_path, MINIMAL_ELASTIC)
    assert main(["cfl", path]) == 0
    out = capsys.readouterr().out
    assert "tau_max" in out and "lambda" in out
    # the estimator reports its iteration count and final residual
    line = [l for l in out.splitlines() if l.startswith("estimate:")][0]
    iters = int(line.split()[1])
    residual = float(line.rsplit(" ", 1)[1])
    assert 0 < iters <= 41 and 0.0 <= residual <= 1e-6


@pytest.mark.parametrize("tau", ["auto", "0.01"])
def test_cli_run_reports_the_cfl_estimate(tmp_path, capsys, tau):
    # the run's summary reports the estimate it checked tau against, in
    # the words of `stagdyn cfl`, whether tau is auto or fixed
    path = write_cfg(tmp_path, run_cfg_text(tmp_path).replace(
        "tau = auto", f"tau = {tau}"))
    assert main(["cfl", path]) == 0
    cfl_lines = capsys.readouterr().out.splitlines()
    assert main(["run", path]) == 0
    run_lines = capsys.readouterr().out.splitlines()
    estimate = [l for l in cfl_lines if l.startswith("estimate:")]
    assert len(estimate) == 1 and estimate[0] in run_lines


def test_cli_cfl_matches_formula(tmp_path, capsys):
    # the classic 1D bound: tau_max ~ h sqrt(rho/C)
    text = MINIMAL_ELASTIC.replace("modulus = 1.0", "modulus = 4.0").replace(
        "eta = 0.1", "eta = 1e-9")
    path = write_cfg(tmp_path, text)
    assert main(["cfl", path]) == 0
    out = capsys.readouterr().out
    tau_max = float([l for l in out.splitlines()
                     if l.startswith("tau_max")][0].split(":")[1])
    assert abs(tau_max - 0.025 * np.sqrt(1.0 / 4.0)) <= 2e-3 * tau_max


def test_cli_unconverged_cfl_estimate_exits_3(tmp_path, monkeypatch,
                                               capsys):
    # running out of Lanczos iterations is a solver failure, not a
    # configuration error; both the auto-tau and the fixed-tau run see it
    short = functools.partial(integrator.max_stable_timestep, max_iter=3)
    monkeypatch.setattr(integrator, "max_stable_timestep", short)
    monkeypatch.setattr(cli, "max_stable_timestep", short)
    path = write_cfg(tmp_path, MINIMAL_ELASTIC)
    out = ["--out-dir", str(tmp_path / "out")]
    assert main(["cfl", path]) == 3
    assert main(["run", path, "--quiet"] + out) == 3
    fixed = write_cfg(tmp_path, MINIMAL_ELASTIC.replace("tau = auto",
                                                        "tau = 0.01"), "f.cfg")
    assert main(["run", fixed, "--quiet"] + out) == 3
    err = capsys.readouterr().err
    assert err.count("last residual") == 3
    assert not (tmp_path / "out").exists()


def test_cli_indefinite_cfl_probe_exits_64(tmp_path, monkeypatch):
    monkeypatch.setattr(ElasticMaterial, "dphi_dsigma",
                        lambda self, disc, sigma, z: -disc.apply_C_inv(sigma))
    path = write_cfg(tmp_path, MINIMAL_ELASTIC)
    assert main(["cfl", path]) == 64
    assert main(["run", path, "--quiet", "--out-dir",
                 str(tmp_path / "out")]) == 64
    assert not (tmp_path / "out").exists()


def test_cli_converge_elastic(tmp_path, capsys):
    text = MINIMAL_ELASTIC.replace("nx = 40", "nx = 8").replace(
        "h = 0.025", "h = 0.125").replace(
        "t_end = 0.2", "t_end = 0.5").replace(
        "[loading]", "[loading]\ninitial = sine_stress")
    path = write_cfg(tmp_path, text)
    assert main(["converge", path, "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "fitted order" in out
    order = float([l for l in out.splitlines()
                   if l.startswith("order,")][0].split(",")[1])
    assert order >= 1.8


# the dense oracle takes neither a boundary drive nor more than
# MAX_ORACLE_DOFS: such linear problems run the finest-grid study too
DRIVEN_ELASTIC = MINIMAL_ELASTIC.replace(
    "h = 0.025", "h = 0.025\nbc_left = traction").replace(
    "[loading]", "[loading]\ntraction = ramp\ntraction_rate = 1.0")
FINE_ELASTIC = (CONFIGS / "elastic_wave_1d.cfg").read_text(
    encoding="utf-8").replace("nx = 100\nh = 0.01",
                              "nx = 300\nh = 0.0033333333333333335").replace(
    "t_end = 2.0", "t_end = 0.05")


def test_cli_converge_finest_grid_damage(tmp_path, capsys):
    for name, text in [("damage", DAMAGE_CFG),
                       ("driven_elastic", DRIVEN_ELASTIC),
                       ("elastic_601_dofs", FINE_ELASTIC)]:
        path = write_cfg(tmp_path, text, f"{name}.cfg")
        assert main(["converge", path, "--levels", "3"]) == 0, name
        out = capsys.readouterr().out
        assert "finest-grid" in out, name


def test_cli_converge_uses_configured_eta(tmp_path, capsys):
    # the study's CFL bound is the config's: with eta = 0.05 the config's
    # auto tau is admissible at level 0, not excluded against eta = 0.1
    text = (CONFIGS / "maxwell_creep_1d.cfg").read_text(
        encoding="utf-8").replace("eta = 0.1", "eta = 0.05")
    path = write_cfg(tmp_path, text)
    assert main(["converge", path, "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("row,") == 3 and "excluded" not in out


def test_cli_cfl_and_run_share_the_admissibility_slack(tmp_path, capsys):
    # a fixed tau above tau_max by less than the round-off slack passes
    # both the cfl verdict and the run's check
    disc, material, _, state = build_simulation(parse_config(MINIMAL_ELASTIC))
    tau_max, _ = integrator.max_stable_timestep(disc, material, state.z, 0.1)
    tau = tau_max * (1.0 + 5e-13)
    assert tau > tau_max
    path = write_cfg(tmp_path, MINIMAL_ELASTIC.replace(
        "tau = auto", f"tau = {tau!r}"))
    assert main(["cfl", path]) == 0
    assert "-> OK" in capsys.readouterr().out
    assert main(["run", path, "--quiet", "--out-dir",
                 str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv", [
    ["cfl", "CFG", "--out-dir", "d"],
    ["run", "CFG", "--seed", "3"],
    ["--check"],
    ["run", "CFG", "--check"],
    ["--quiet", "run", "CFG"],
])
def test_cli_removed_flags_exit_64(tmp_path, argv):
    path = write_cfg(tmp_path, run_cfg_text(tmp_path))
    with pytest.raises(SystemExit) as ei:
        main([path if a == "CFG" else a for a in argv])
    assert ei.value.code == 64


def test_cli_parser_surface():
    # every option is declared once, on the subcommand that reads it
    def options(parser):
        return {o for a in parser._actions for o in a.option_strings
                if o not in ("-h", "--help")}

    parser = cli._build_parser()
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert len(subs) == 1
    assert options(parser) == set()
    assert {name: options(sp) for name, sp in subs[0].choices.items()} == {
        "run": {"--quiet", "--out-dir"},
        "cfl": set(),
        "converge": {"--levels"},
        "check": {"--seed", "--quiet"},
    }


def test_cli_check_runs(tmp_path, capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_check_fails_loudly_under_optimize():
    # python -O strips assert statements; a broken invariant must still
    # fail its check and give the check-suite exit code
    script = (
        "import sys\n"
        "import stagdyn.checks as checks\n"
        "from stagdyn.cli import main\n"
        "real = checks.dense_generalized_rayleigh\n"
        "checks.dense_generalized_rayleigh = "
        "lambda *a: 1.01 * real(*a)\n"
        "sys.exit(main(['check']))\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    fails = [l for l in proc.stdout.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL cfl-estimator")


def test_cli_usage_errors_exit_64(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 64
    assert main([]) == 64
    # config errors are usage errors
    bad = write_cfg(tmp_path, MINIMAL_ELASTIC.replace("nx = 40", "nx = oops"))
    assert main(["run", bad]) == 64


def test_cli_negative_hardening_exits_64_before_output(tmp_path):
    text = MINIMAL_ELASTIC.replace(
        "name = elastic", "name = plastic_creep\nviscosity = 0.5\n"
        "hardening = -1")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", path, "--quiet", "--out-dir", str(out)]) == 64
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("output.snapshot_every", "-2"), ("integrator.cfl_recheck_every", "-2"),
    ("integrator.energy_tolerance", "-1.0")])
def test_negative_count_or_tolerance_exits_64(tmp_path, key, value):
    # cfl_recheck_every is no longer a key: an old config that sets it is
    # refused as unknown, at the same location and with the same exit code
    section, name = key.split(".")
    text = MINIMAL_ELASTIC.replace(f"[{section}]",
                                   f"[{section}]\n{name} = {value}")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location == key
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, text), "--quiet",
                 "--out-dir", str(out)]) == 64
    assert not out.exists()


@pytest.mark.parametrize("config, key, value", [
    ("damage_1d", "material.fracture_energy", "-1.0"),
    ("damage_1d", "material.eps0", "-1.0"),
    ("damage_1d", "material.eps", "0.0"),
    ("biot_seepage_1d", "material.capillarity", "-0.02"),
    ("biot_seepage_1d", "material.l_coefficient", "-0.1"),
    ("viscoplastic_2d", "material.shear_modulus", "-0.6"),
    ("viscoplastic_2d", "material.bulk_modulus", "-1.0"),
    ("viscoplastic_2d", "material.hardening_bulk", "-1.0"),
    ("viscoplastic_2d", "material.hardening_shear", "-1.0"),
    ("maxwell_creep_1d", "material.hardening", "-1.0"),
    ("viscoplastic_2d", "material.shear_modulus", None),
    ("elastic_wave_1d", "grid.dim", None),
    ("elastic_wave_1d", "material.name", None),
    # non-finite numbers, refused where they are read
    ("elastic_wave_1d", "integrator.t_end", "inf"),
    ("elastic_wave_1d", "material.rho", "inf"),
    ("elastic_wave_1d", "grid.h", "inf"),
    ("elastic_wave_1d", "loading.initial_amplitude", "inf"),
    ("elastic_wave_1d", "integrator.energy_tolerance", "nan"),
    ("elastic_wave_1d", "integrator.tau", "inf"),
], ids=lambda v: str(v))
def test_config_error_names_its_key_exits_64(tmp_path, capsys, config, key,
                                             value):
    # value None deletes the key; otherwise the key is set to value
    section, name = key.split(".")
    lines = [line for line in (CONFIGS / f"{config}.cfg").read_text(
        encoding="utf-8").splitlines() if not line.startswith(f"{name} =")]
    if value is not None:
        lines.insert(lines.index(f"[{section}]") + 1, f"{name} = {value}")
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, "\n".join(lines)), "--quiet",
                 "--out-dir", str(out)]) == 64
    assert capsys.readouterr().err.startswith(f"config error: [{key}] ")
    assert not out.exists()


def config_error_locations():
    """(file, line, location) of every ConfigError raised in the package;
    a location built by an f-string becomes a pattern, and one held in a
    variable is None."""
    found = []
    for path in sorted((CONFIGS.parent / "src" / "stagdyn").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "ConfigError"):
                continue
            args = node.args[1:] + [k.value for k in node.keywords]
            loc = args[0] if args else None
            if isinstance(loc, ast.Constant):
                loc = re.escape(loc.value)
            elif isinstance(loc, ast.JoinedStr):
                loc = "".join(re.escape(part.value)
                              if isinstance(part, ast.Constant) else ".+"
                              for part in loc.values)
            else:
                loc = None
            found.append((path.name, node.lineno, loc))
    return found


# the errors that name no single key: the indefinite CFL probe, a zero
# mass entry, and a Grid given the wrong number of boundary kinds
NO_SINGLE_KEY = ("material", "grid", "grid.bc")


def test_every_config_error_location_is_a_key():
    keys = [f"{section}.{key}" for section, rows in _SCHEMA.items()
            for key in rows]
    allowed = [re.escape(loc) for loc in NO_SINGLE_KEY]
    found = [f for f in config_error_locations() if f[2] is not None]
    assert len(found) >= 30
    bad = [f for f in found if f[2] not in allowed
           and not any(re.fullmatch(f[2], key) for key in keys)]
    assert not bad
    # each exception is raised once, so the list cannot cover a new error
    assert sorted(f[2] for f in found if f[2] in allowed) == sorted(allowed)


@pytest.mark.parametrize("grid_keys, side", [
    ("dim = 1\nnx = 40\nh = 0.025\nbc_left = neumann", "left"),
    ("dim = 2\nnx = 4\nny = 4\nh = 0.25\nbc_bottom = traction\n"
     "bc_top = dirichlet", "right")], ids=["1d_neumann", "2d_dirichlet"])
def test_drive_on_a_side_that_is_not_traction_exits_64(tmp_path, grid_keys,
                                                      side):
    # the 1D neumann side masks the drive's stress row, and the 2D
    # dirichlet side is bc_right's default: either would drop the drive
    text = MINIMAL_ELASTIC.replace("dim = 1\nnx = 40\nh = 0.025", grid_keys)
    if "dim = 2" in grid_keys:
        text = text.replace("modulus = 1.0",
                            "bulk_modulus = 1.0\nshear_modulus = 0.6")
    text = text.replace("[loading]", "[loading]\ntraction = ramp\n"
                        f"traction_rate = 1.0\ntraction_side = {side}")
    with pytest.raises(ConfigError) as ei:
        parse_config(text)
    assert ei.value.location == "loading.traction_side"
    assert main(["run", write_cfg(tmp_path, text), "--quiet",
                 "--out-dir", str(tmp_path / "out")]) == 64
    driven = text.replace("bc_left = neumann", "bc_left = traction").replace(
        "bc_bottom = traction", "bc_right = traction\nbc_bottom = traction")
    assert parse_config(driven).loading["traction_side"] == side


def test_cli_missing_config_file_exits_5(tmp_path):
    with pytest.raises(SystemExit) as ei:
        main(["run", str(tmp_path / "nope.cfg")])
    assert ei.value.code == 5


def test_damage_config_round_trip_through_cli_paths(tmp_path):
    cfg = parse_config(DAMAGE_CFG)
    disc, material, loading, state = build_simulation(cfg)
    assert material.name == "damage"
    assert material.mode == "unidirectional"
    assert np.all(state.z == 1.0)


def test_cli_enforced_energy_violation_exits_4(tmp_path):
    # an absurd tolerance flags the (round-off) residual of a dissipative run
    text = run_cfg_text(tmp_path, out="strict").replace(
        "name = elastic", "name = plastic_creep\nviscosity = 0.5").replace(
        "[integrator]",
        "[integrator]\nenforce_energy_inequality = true\n"
        "energy_tolerance = 1e-30")
    path = write_cfg(tmp_path, text, "strict.cfg")
    assert main(["run", path, "--quiet"]) == 4


def test_cli_solver_failure_exits_3(tmp_path, monkeypatch):
    from stagdyn import cli as cli_mod
    from stagdyn.errors import SolverError

    def boom(*a, **kw):
        raise SolverError("forced failure")

    monkeypatch.setattr(cli_mod, "run_simulation", boom)
    path = write_cfg(tmp_path, run_cfg_text(tmp_path, out="x"), "x.cfg")
    assert main(["run", path, "--quiet"]) == 3


@pytest.mark.parametrize("name", [
    "elastic_wave_1d", "maxwell_creep_1d", "viscoplastic_2d",
    "biot_seepage_1d", "damage_1d"])
def test_shipped_configs_round_trip(name):
    text = (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg


SHIPPED_CONFIGS = sorted(CONFIGS.glob("*.cfg"))


def test_cli_run_loads_neither_checks_nor_oracle(tmp_path):
    # `stagdyn run` imports the check suite and the dense oracles only
    # for the subcommands that use them, and no numpy.random (which loads
    # OpenSSL)
    script = (
        "import sys\n"
        "from stagdyn.cli import main\n"
        f"rc = main(['run', {str(CONFIGS / 'damage_1d.cfg')!r}, '--quiet',"
        f" '--out-dir', {str(tmp_path)!r}])\n"
        "print(rc, [m for m in ('stagdyn.checks', 'stagdyn.oracle',"
        " 'numpy.random') if m in sys.modules])\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert (tmp_path / "energy.csv").exists()


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_snapshots_after_initial_state(path):
    # a snapshot interval longer than the run writes only the initial state
    cfg = parse_config(path.read_text(encoding="utf-8"))
    every = cfg.output["snapshot_every"]
    disc, material, _, state = build_simulation(cfg)
    icfg = integrator_config(cfg, disc, material, state)
    assert every == 0 or every <= round(icfg.t_end / icfg.tau)
