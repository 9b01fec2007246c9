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
from .grid import SIDES, Grid, build
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
        val = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", loc)
    if not np.isfinite(val):
        raise ConfigError(f"expected a finite number, got {raw!r}", loc)
    return val


def _parse_int(raw, loc):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", loc)


def _parse_dim(raw, loc):
    dim = _parse_int(raw, loc)
    if dim not in (1, 2):
        raise ConfigError("dim must be 1 or 2", loc)
    return dim


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
_MATERIALS = ("elastic", "plastic_creep", "biot", "damage")

# a config reads a key when its dim is in the row's dims and its material
# in the row's materials; default None marks a key such a config must set,
# _OMIT an optional key with no default value
_OMIT = object()
_PLASTIC, _BIOT, _DAMAGE = ("plastic_creep",), ("biot",), ("damage",)


def _key(conv, default, dims=(1, 2), materials=_MATERIALS):
    return conv, default, dims, materials


_SCHEMA = {
    "grid": {
        "dim": _key(_parse_dim, None),
        "nx": _key(_parse_int, None),
        "ny": _key(_parse_int, None, dims=(2,)),
        "h": _key(_parse_float, None),
        "bc_left": _key(_BC, "dirichlet"),
        "bc_right": _key(_BC, "dirichlet"),
        "bc_bottom": _key(_BC, None, dims=(2,)),
        "bc_top": _key(_BC, None, dims=(2,)),
    },
    "material": {
        "name": _key(_parse_enum(set(_MATERIALS)), None),
        "rho": _key(_parse_float, 1.0),
        "modulus": _key(_parse_float, None, dims=(1,)),
        "bulk_modulus": _key(_parse_float, None, dims=(2,)),
        "shear_modulus": _key(_parse_float, None, dims=(2,)),
        "viscosity": _key(_parse_float, None, materials=_PLASTIC + _DAMAGE),
        "yield_stress": _key(_parse_float, 0.0, materials=_PLASTIC),
        "hardening": _key(_parse_float, 0.0, (1,), _PLASTIC),
        "hardening_bulk": _key(_parse_float, 0.0, (2,), _PLASTIC),
        "hardening_shear": _key(_parse_float, 0.0, (2,), _PLASTIC),
        "biot_modulus": _key(_parse_float, None, materials=_BIOT),
        "biot_coefficient": _key(_parse_float, None, materials=_BIOT),
        "l_coefficient": _key(_parse_float, 0.0, materials=_BIOT),
        "zeta_eq": _key(_parse_float, 0.0, materials=_BIOT),
        "capillarity": _key(_parse_float, 0.0, materials=_BIOT),
        "mobility": _key(_parse_float, 1.0, materials=_BIOT),
        "eps0": _key(_parse_float, None, materials=_DAMAGE),
        "eps": _key(_parse_float, None, materials=_DAMAGE),
        "fracture_energy": _key(_parse_float, None, materials=_DAMAGE),
        "mode": _key(_parse_enum({"unidirectional", "healing"}),
                     "unidirectional", materials=_DAMAGE),
        "strain_gradient": _key(_parse_float, 0.0, materials=_DAMAGE),
    },
    "integrator": {
        "tau": _key(_parse_tau, None),
        "eta": _key(_parse_float, _OMIT),
        "t_end": _key(_parse_float, None),
        "enforce_energy_inequality": _key(_parse_bool, False),
        "energy_tolerance": _key(_parse_float, 1e-9),
    },
    "loading": {
        "body_force": _key(_parse_vector, _OMIT),
        "traction": _key(_parse_enum({"none", "ramp", "sine"}), "none"),
        "traction_rate": _key(_parse_float, 0.0),
        "traction_amplitude": _key(_parse_float, 0.0),
        "traction_frequency": _key(_parse_float, 1.0),
        "traction_side": _key(_parse_enum(set(SIDES)), "left"),
        "initial": _key(_parse_enum({"rest", "sine_stress", "bump_stress"}),
                        "rest"),
        "initial_amplitude": _key(_parse_float, 1.0),
        "initial_modes": _key(_parse_int, 1),
        "initial_internal": _key(_parse_float, _OMIT),
    },
    "output": {
        "energy_log": _key(_parse_str, "energy.csv"),
        "snapshot_every": _key(_parse_int, 0),
        "snapshot_fields": _key(_parse_fields, ("v", "sigma")),
        "out_dir": _key(_parse_str, "out"),
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
        conv = _SCHEMA[section][key][0]
        raw[section][key] = conv(value, f"{section}.{key}")

    # the dimension and the material decide which keys the config reads
    for loc in ("grid.dim", "material.name"):
        section, key = loc.split(".")
        if key not in raw[section]:
            raise ConfigError("missing required key", loc)
    dim, name = raw["grid"]["dim"], raw["material"]["name"]
    cfg = SimConfig()
    for section in SECTIONS:
        out = cfg.section(section)
        for key, (_, default, dims, materials) in _SCHEMA[section].items():
            loc = f"{section}.{key}"
            read = dim in dims and name in materials
            if key in raw[section]:
                if not read:
                    raise ConfigError(f"not read by a {dim}D {name} config", loc)
                out[key] = raw[section][key]
            elif read and default is None:
                raise ConfigError("missing required key", loc)
            elif read and default is not _OMIT:
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


def _validate(cfg):
    """The rules that depend on other values."""
    g = cfg.grid
    it = cfg.integrator
    if it["tau"] == "auto" and "eta" not in it:
        raise ConfigError("tau = auto requires eta", "integrator.eta")
    it.setdefault("eta", 0.1)
    for loc in ("output.snapshot_every", "integrator.energy_tolerance"):
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
    bc = tuple(g[f"bc_{side}"] for side in SIDES[:2 * g["dim"]])
    return Grid(dim=g["dim"], nx=g["nx"], ny=g.get("ny", 0), h=g["h"], bc=bc)


def build_material(cfg):
    m = cfg.material
    # the config holds the moduli and hardening keys of its dimension only
    moduli = {key: m[key] for key in ("modulus", "bulk_modulus",
                                      "shear_modulus") if key in m}
    name = m["name"]
    if name == "elastic":
        mat = ElasticMaterial()
    elif name == "plastic_creep":
        hard = (m["hardening"] if "hardening" in m
                else (m["hardening_bulk"], m["hardening_shear"]))
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
        disc.vx_view(bf)[:] = ld["body_force"][0] * disc.vx_view(vols)
        disc.vy_view(bf)[:] = ld["body_force"][1] * disc.vy_view(vols)
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

    The bound is estimated at the initial state, and the config carries it
    as ``tau_max`` with the estimate's iterations and residual, so neither
    the run nor a convergence study estimates it again.  With tau = auto,
    tau is that bound.
    """
    from .integrator import max_stable_timestep

    it = cfg.integrator
    info = {}
    tau_max, _ = max_stable_timestep(disc, material, state.z, it["eta"],
                                     info=info)
    return IntegratorConfig(
        tau=tau_max if it["tau"] == "auto" else it["tau"],
        t_end=it["t_end"], eta=it["eta"],
        enforce_energy_inequality=it["enforce_energy_inequality"],
        energy_tol=it["energy_tolerance"], tau_max=tau_max,
        cfl_iters=info["iters"], cfl_residual=info["residual"])
