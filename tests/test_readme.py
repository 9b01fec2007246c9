"""The README against the code: its library example runs, and every
config key, check, test and exit code it states exists as stated."""

import ast
import contextlib
import io
import math
import pathlib
import re

from stagdyn import checks, cli, config

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CHECK_NAMES = {name for name, _ in checks.ALL_CHECKS}


def section(title):
    """The text under the README heading ``## title``."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_has_at_most_400_lines():
    assert len(README.splitlines()) <= 400


def test_library_example_prints_a_finite_residual():
    code = section("Library use").split("```python\n", 1)[1].split("```")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert math.isfinite(float(out.getvalue()))


def test_every_config_key_is_named():
    text = section("Configuration")
    named = (set(re.findall(r"`([a-z0-9_]+)`", text))
             | set(re.findall(r"^([a-z0-9_]+) =", text, re.M)))
    missing = [f"{name}.{key}" for name, keys in config._SCHEMA.items()
               for key in keys if key not in named]
    assert not missing


def test_each_guarantee_names_existing_checks_or_tests():
    held = []
    for item in section("Guarantees").split("\n- ")[1:]:
        assert "Held by" in item, item
        holders = re.findall(r"`([^`]+)`", item.split("Held by", 1)[1])
        assert holders, item
        for h in holders:
            assert h in CHECK_NAMES or h.startswith("tests/"), h
        held += holders
    # every check entry holds a documented guarantee
    assert CHECK_NAMES <= set(held)


def test_cited_check_names_and_tests_exist():
    # check names are the hyphenated code spans; the one without a
    # hyphen, adjointness, is held to the Guarantees test above
    cited = set(re.findall(r"`([a-z0-9]+(?:-[a-z0-9]+)+)`", README))
    assert cited <= CHECK_NAMES
    for ref in set(re.findall(r"`(tests/[^`\s]+)`", README)):
        path, _, func = ref.partition("::")
        assert (ROOT / path).is_file(), ref
        if func:
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            assert func in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}, ref


def test_exit_codes_equal_the_cli_constants():
    rows = re.findall(r"^\| (\d+) +\| `(EXIT_[A-Z_]+)` +\|", section("CLI"),
                      re.M)
    assert {name: int(code) for code, name in rows} == {
        name: value for name, value in vars(cli).items()
        if name.startswith("EXIT_")}


def test_quoted_cfl_iteration_count_is_measured():
    # the estimator note quotes the Lanczos iterations of tau = auto on
    # viscoplastic_2d refined to 256^2: a fresh estimate must make as many
    from stagdyn.integrator import max_stable_timestep

    quoted = re.search(r"\((\d+) Lanczos iterations on `viscoplastic_2d`\s+"
                       r"at 256²", README)
    text = (ROOT / "configs" / "viscoplastic_2d.cfg").read_text(
        encoding="utf-8")
    for key, value in (("nx", 256), ("ny", 256), ("h", 1.0 / 256.0)):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value!r}", text, flags=re.M)
    cfg = config.parse_config(text)
    disc, material, _, state = config.build_simulation(cfg)
    info = {}
    max_stable_timestep(disc, material, state.z, cfg.integrator["eta"],
                        info=info)
    assert disc.shape_c == (256, 256)
    assert int(quoted.group(1)) == info["iters"]
