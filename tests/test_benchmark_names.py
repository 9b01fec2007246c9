"""The names the benchmark under ``perfbench/`` reads from the package.

``perfbench/layers.py`` wraps functions and methods by module and name for
its per-layer trace (``--trace 1``), and ``perfbench/run.py`` reads a few
more names to run a case and describe the environment.  A rename here
would only show when the benchmark runs; these tests show it at once.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import stagdyn
import stagdyn.cli
from stagdyn import kernels
from stagdyn.grid import Grid, build
from stagdyn.integrator import run_simulation
from stagdyn.materials import PlasticCreepMaterial

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    layers = load_layers()
    assert layers.WRAPPED
    for name, module_name, owner, attr, _, _ in layers.WRAPPED:
        target = importlib.import_module(module_name)
        if owner is not None:
            target = getattr(target, owner)
        assert callable(getattr(target, attr, None)), name
    wrapped = {entry[0] for entry in layers.WRAPPED}
    assert set(layers.REQUIRED) <= wrapped


def test_run_path_names_resolve():
    # the run-mode environment line and the stencil ladder
    assert isinstance(stagdyn.kernels.get_backend(), str)
    assert callable(stagdyn.build) and callable(stagdyn.cli.main)
    # layers.Probe stamps each step through this hook
    assert "on_step" in inspect.signature(run_simulation).parameters
    d = stagdyn.build(stagdyn.Grid(dim=2, nx=4, ny=4, h=0.25,
                                   bc=("dirichlet",) * 4),
                      rho=1.0, moduli={"bulk_modulus": 1.0,
                                       "shear_modulus": 0.6})
    assert d.apply_E(np.zeros(d.n_v)).shape == (d.n_s,)
    assert d.apply_E_adjoint(np.zeros(d.n_s)).shape == (d.n_v,)


@pytest.mark.parametrize("dim", [1, 2])
def test_kernels_are_called_through_the_module(monkeypatch, dim):
    # the trace replaces kernels.<name>; a caller holding its own
    # reference would bypass the tally and read zero calls
    calls = []
    for name in ("grad_1d", "grad_1d_t", "grad_2d", "grad_2d_t",
                 "radial_return"):
        real = getattr(kernels, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)
    if dim == 1:
        d = build(Grid(dim=1, nx=6, h=0.2, bc=("dirichlet",) * 2), 1.0,
                  {"modulus": 1.0})
    else:
        d = build(Grid(dim=2, nx=4, ny=3, h=0.25, bc=("dirichlet",) * 4),
                  1.0, {"bulk_modulus": 1.0, "shear_modulus": 0.6})
    d.apply_E(np.ones(d.n_v))
    d.apply_E_adjoint(np.ones(d.n_s))
    m = PlasticCreepMaterial(viscosity=0.5, sigma_y=0.1)
    m.internal_step(d, np.ones(d.n_s), np.zeros(d.n_s), 0.1)
    grads = ["grad_1d", "grad_1d_t"] if dim == 1 else ["grad_2d", "grad_2d_t"]
    assert calls[:2] == grads
    assert "radial_return" in calls[2:]
