"""Simulation configuration: parse, validate, serialize, assemble.

The config grammar is a flat INI-like document with exactly the five
sections [grid], [material], [integrator], [loading], [output], ``key =
value`` lines, ``#`` comments and blank lines.  Unknown keys and unknown
sections are hard errors (no silent typos); every error carries its
``section.key`` location.  ``parse(serialize(cfg)) == cfg`` for every
valid config.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grid import Grid, build
from .integrator import IntegratorConfig, Loading, initial_state
from .materials import (
    BiotMaterial,
    DamageMaterial,
    ElasticMaterial,
    PlasticCreepMaterial,
)

SECTIONS = ("grid", "material", "integrator", "loading", "output")

_BOOLS = {"true": True, "false": False, "yes": True, "no": False,
          "on": True, "off": False, "1": True, "0": False}


def _parse_float(raw, loc):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", loc)


def _parse_int(raw, loc):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", loc)


def _parse_bool(raw, loc):
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {raw!r}", loc)


def _parse_vector(raw, loc):
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError("expected one or more numbers", loc)
    return tuple(_parse_float(p, loc) for p in parts)


def _parse_enum(options):
    def conv(raw, loc):
        val = raw.strip().lower()
        if val not in options:
            raise ConfigError(f"expected one of {sorted(options)}, got {raw!r}",
                              loc)
        return val
    return conv


def _parse_str(raw, loc):
    return raw.strip()


def _parse_tau(raw, loc):
    val = raw.strip().lower()
    if val == "auto":
        return "auto"
    x = _parse_float(val, loc)
    if not x > 0:
        raise ConfigError("tau must be > 0 or 'auto'", loc)
    return x


def _parse_fields(raw, loc):
    names = tuple(p.strip() for p in raw.replace(",", " ").split())
    allowed = {"u", "v", "sigma", "z"}
    for n in names:
        if n not in allowed:
            raise ConfigError(f"unknown snapshot field {n!r}", loc)
    return names


_BC = _parse_enum({"dirichlet", "neumann", "traction"})

# key -> (converter, default); default None marks a required key,
# _OMIT marks an optional key with no default value
_OMIT = object()

_SCHEMA = {
    "grid": {
        "dim": (_parse_int, None),
        "nx": (_parse_int, None),
        "ny": (_parse_int, _OMIT),
        "h": (_parse_float, None),
        "bc_left": (_BC, "dirichlet"),
        "bc_right": (_BC, "dirichlet"),
        "bc_bottom": (_BC, _OMIT),
        "bc_top": (_BC, _OMIT),
    },
    "material": {
        "name": (_parse_enum({"elastic", "plastic_creep", "biot", "damage"}),
                 None),
        "rho": (_parse_float, 1.0),
        "modulus": (_parse_float, _OMIT),
        "bulk_modulus": (_parse_float, _OMIT),
        "shear_modulus": (_parse_float, _OMIT),
        "viscosity": (_parse_float, _OMIT),
        "yield_stress": (_parse_float, 0.0),
        "hardening": (_parse_float, _OMIT),
        "hardening_bulk": (_parse_float, _OMIT),
        "hardening_shear": (_parse_float, _OMIT),
        "biot_modulus": (_parse_float, _OMIT),
        "biot_coefficient": (_parse_float, _OMIT),
        "l_coefficient": (_parse_float, 0.0),
        "zeta_eq": (_parse_float, 0.0),
        "capillarity": (_parse_float, 0.0),
        "mobility": (_parse_float, 1.0),
        "eps0": (_parse_float, _OMIT),
        "eps": (_parse_float, _OMIT),
        "fracture_energy": (_parse_float, _OMIT),
        "mode": (_parse_enum({"unidirectional", "healing"}), "unidirectional"),
        "strain_gradient": (_parse_float, 0.0),
    },
    "integrator": {
        "tau": (_parse_tau, None),
        "eta": (_parse_float, _OMIT),
        "t_end": (_parse_float, None),
        "cfl_recheck_every": (_parse_int, 0),
        "enforce_energy_inequality": (_parse_bool, False),
        "energy_tolerance": (_parse_float, 1e-9),
    },
    "loading": {
        "body_force": (_parse_vector, _OMIT),
        "traction": (_parse_enum({"none", "ramp", "sine"}), "none"),
        "traction_rate": (_parse_float, 0.0),
        "traction_amplitude": (_parse_float, 0.0),
        "traction_frequency": (_parse_float, 1.0),
        "traction_side": (_parse_enum({"left", "right", "bottom", "top"}),
                          "left"),
        "initial": (_parse_enum({"rest", "sine_stress", "bump_stress"}),
                    "rest"),
        "initial_amplitude": (_parse_float, 1.0),
        "initial_modes": (_parse_int, 1),
        "initial_internal": (_parse_float, _OMIT),
    },
    "output": {
        "energy_log": (_parse_str, "energy.csv"),
        "snapshot_every": (_parse_int, 0),
        "snapshot_fields": (_parse_fields, ("v", "sigma")),
        "out_dir": (_parse_str, "out"),
    },
}


@dataclass
class SimConfig:
    """Typed, validated configuration (one dict per section)."""

    grid: dict = field(default_factory=dict)
    material: dict = field(default_factory=dict)
    integrator: dict = field(default_factory=dict)
    loading: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def section(self, name):
        return getattr(self, name)


def parse_config(text):
    """Parse and validate a config document into a :class:`SimConfig`."""
    raw = {name: {} for name in SECTIONS}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in SECTIONS:
                raise ConfigError(f"unknown section [{name}] (line {lineno})",
                                  name)
            section = name
            continue
        if section is None:
            raise ConfigError(f"key outside any section (line {lineno})",
                              stripped.split("=")[0].strip())
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value' (line {lineno})",
                              section)
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key (line {lineno})",
                              f"{section}.{key}")
        if key in raw[section]:
            raise ConfigError(f"duplicate key (line {lineno})",
                              f"{section}.{key}")
        conv, _ = _SCHEMA[section][key]
        raw[section][key] = conv(value, f"{section}.{key}")

    cfg = SimConfig()
    for name in SECTIONS:
        out = cfg.section(name)
        for key, (conv, default) in _SCHEMA[name].items():
            if key in raw[name]:
                out[key] = raw[name][key]
            elif default is None:
                raise ConfigError("missing required key", f"{name}.{key}")
            elif default is not _OMIT:
                out[key] = default
    _validate(cfg)
    return cfg


def serialize_config(cfg):
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for name in SECTIONS:
        lines.append(f"[{name}]")
        for key in _SCHEMA[name]:
            if key not in cfg.section(name):
                continue
            val = cfg.section(name)[key]
            if isinstance(val, tuple):
                val = " ".join(repr(float(x)) if isinstance(x, float) else str(x)
                               for x in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


# keys a config of the other dimension would ignore, and the hardening
# keys that default to 0, per dimension
_OTHER_DIM_KEYS = {1: ("grid.ny", "grid.bc_bottom", "grid.bc_top",
                       "material.bulk_modulus", "material.shear_modulus",
                       "material.hardening_bulk", "material.hardening_shear"),
                   2: ("material.modulus", "material.hardening")}
_HARDENING = {1: ("hardening",), 2: ("hardening_bulk", "hardening_shear")}


def _validate(cfg):
    g = cfg.grid
    if g["dim"] not in (1, 2):
        raise ConfigError("dim must be 1 or 2", "grid.dim")
    if g["dim"] == 2:
        for key in ("ny", "bc_bottom", "bc_top"):
            if key not in g:
                raise ConfigError("required in 2D", f"grid.{key}")
    for loc in _OTHER_DIM_KEYS[g["dim"]]:
        section, key = loc.split(".")
        if key in cfg.section(section):
            raise ConfigError(f"not used in {g['dim']}D", loc)
    for key in _HARDENING[g["dim"]]:
        cfg.material.setdefault(key, 0.0)
    it = cfg.integrator
    if it["tau"] == "auto" and "eta" not in it:
        raise ConfigError("tau = auto requires eta", "integrator.eta")
    it.setdefault("eta", 0.1)
    name = cfg.material["name"]
    needed = {
        "elastic": (),
        "plastic_creep": ("viscosity",),
        "biot": ("biot_modulus", "biot_coefficient"),
        "damage": ("eps0", "eps", "fracture_energy", "viscosity"),
    }[name]
    for key in needed:
        if key not in cfg.material:
            raise ConfigError(f"required for material {name!r}",
                              f"material.{key}")
    if g["dim"] == 1 and "modulus" not in cfg.material:
        raise ConfigError("1D materials need 'modulus'", "material.modulus")
    if g["dim"] == 2 and ("bulk_modulus" not in cfg.material
                          or "shear_modulus" not in cfg.material):
        raise ConfigError("2D materials need bulk_modulus and shear_modulus",
                          "material.bulk_modulus")
    for loc in ("output.snapshot_every", "integrator.cfl_recheck_every",
                "integrator.energy_tolerance"):
        section, key = loc.split(".")
        if cfg.section(section)[key] < 0:
            raise ConfigError("must be >= 0", loc)
    ld = cfg.loading
    side = ld["traction_side"]
    if ld["traction"] != "none" and g.get(f"bc_{side}") != "traction":
        raise ConfigError(f"the drive needs bc_{side} = traction",
                          "loading.traction_side")
    ld.setdefault("body_force", (0.0,) * g["dim"])
    if len(ld["body_force"]) != g["dim"]:
        raise ConfigError(f"body_force needs {g['dim']} component(s)",
                          "loading.body_force")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def build_grid(cfg):
    g = cfg.grid
    if g["dim"] == 1:
        bc = (g["bc_left"], g["bc_right"])
        return Grid(dim=1, nx=g["nx"], h=g["h"], bc=bc)
    bc = (g["bc_left"], g["bc_right"], g["bc_bottom"], g["bc_top"])
    return Grid(dim=2, nx=g["nx"], ny=g["ny"], h=g["h"], bc=bc)


def build_material(cfg):
    m = cfg.material
    dim = cfg.grid["dim"]
    if dim == 1:
        moduli = {"modulus": m["modulus"]}
    else:
        moduli = {"bulk_modulus": m["bulk_modulus"],
                  "shear_modulus": m["shear_modulus"]}
    name = m["name"]
    if name == "elastic":
        mat = ElasticMaterial()
    elif name == "plastic_creep":
        hard = m["hardening"] if dim == 1 else (m["hardening_bulk"],
                                                m["hardening_shear"])
        mat = PlasticCreepMaterial(viscosity=m["viscosity"],
                                   sigma_y=m["yield_stress"], hardening=hard)
    elif name == "biot":
        mat = BiotMaterial(biot_modulus=m["biot_modulus"],
                           biot_coefficient=m["biot_coefficient"],
                           l_coefficient=m["l_coefficient"],
                           zeta_eq=m["zeta_eq"],
                           capillarity=m["capillarity"],
                           mobility=m["mobility"])
    else:
        mat = DamageMaterial(eps0=m["eps0"], eps=m["eps"],
                             g_c=m["fracture_energy"],
                             viscosity=m["viscosity"], mode=m["mode"],
                             strain_gradient=m["strain_gradient"])
    return mat, m["rho"], moduli


def build_loading(cfg, disc):
    ld = cfg.loading
    bf = np.zeros(disc.n_v)
    # config gives force density; the covector weights by cell volume
    vols = disc.mass / disc.rho
    if disc.dim == 1:
        bf = ld["body_force"][0] * vols
    else:
        bf[disc._vx_sl] = ld["body_force"][0] * vols[disc._vx_sl]
        bf[disc._vy_sl] = ld["body_force"][1] * vols[disc._vy_sl]
    bf[~disc.v_active] = 0.0
    kind = ld["traction"]
    if kind == "none":
        return Loading(body_force=bf)
    pattern = disc.traction_pattern(ld["traction_side"])
    if kind == "ramp":
        rate = ld["traction_rate"]
        fn = lambda t: rate * t
    else:
        amp = ld["traction_amplitude"]
        freq = ld["traction_frequency"]
        fn = lambda t: amp * np.sin(2.0 * np.pi * freq * t)
    return Loading(body_force=bf, traction=fn, traction_pattern=pattern)


def build_initial_state(cfg, disc, material):
    ld = cfg.loading
    amp = ld["initial_amplitude"]
    modes = ld["initial_modes"]
    sigma = disc.zeros_s()
    if ld["initial"] == "sine_stress":
        if disc.dim == 1:
            x = np.linspace(0.0, 1.0, disc.n_s)
            sigma = amp * np.sin(np.pi * modes * x)
        else:
            nx, ny = disc.shape_c
            xc = (np.arange(nx) + 0.5) / nx
            yc = (np.arange(ny) + 0.5) / ny
            pat = amp * np.outer(np.sin(np.pi * modes * xc),
                                 np.sin(np.pi * modes * yc))
            disc.sxx_view(sigma)[:] = pat
            disc.syy_view(sigma)[:] = pat
    elif ld["initial"] == "bump_stress":
        if disc.dim == 1:
            x = np.linspace(0.0, 1.0, disc.n_s)
            sigma = amp * np.exp(-60.0 * (x - 0.45) ** 2)
        else:
            nx, ny = disc.shape_c
            xc = (np.arange(nx) + 0.5) / nx
            yc = (np.arange(ny) + 0.5) / ny
            pat = amp * np.exp(-30.0 * ((xc[:, None] - 0.45) ** 2
                                        + (yc[None, :] - 0.55) ** 2))
            disc.sxx_view(sigma)[:] = pat
            disc.syy_view(sigma)[:] = pat
    z = None
    if "initial_internal" in ld:
        z = np.full(material.z_size(disc), ld["initial_internal"])
    return initial_state(disc, material, sigma=sigma, z=z)


def build_simulation(cfg):
    """Assemble (disc, material, loading, state0)."""
    grid = build_grid(cfg)
    material, rho, moduli = build_material(cfg)
    disc = build(grid, rho, moduli)
    loading = build_loading(cfg, disc)
    state = build_initial_state(cfg, disc, material)
    return disc, material, loading, state


def integrator_config(cfg, disc, material, state):
    """Integrator settings of a config.

    With tau = auto, tau is the bound estimated at the initial state, so
    the run's initial CFL check is skipped rather than estimated again;
    ``cfl_recheck_every`` rechecks still run.
    """
    from .integrator import max_stable_timestep

    it = cfg.integrator
    auto = it["tau"] == "auto"
    if auto:
        tau, _ = max_stable_timestep(disc, material, state.z, it["eta"])
    else:
        tau = it["tau"]
    return IntegratorConfig(
        tau=tau, t_end=it["t_end"], eta=it["eta"],
        cfl_recheck_every=it["cfl_recheck_every"],
        enforce_energy_inequality=it["enforce_energy_inequality"],
        energy_tol=it["energy_tolerance"], skip_cfl_check=auto)
