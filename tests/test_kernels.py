"""The stencil module's contract and the check that guards its return map."""

from stagdyn import checks, kernels


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
