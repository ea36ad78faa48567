"""What importing the package and running each command loads.

The package resolves its public names on first access, and the CLI imports
the simulator and ``hashlib`` only in the commands that use them, and numpy
only in the commands that read or simulate a series. Modules accumulate in a
process, so every check starts its own child interpreter.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import gammachain
from helpers import subprocess_env, write_file

README = Path(__file__).resolve().parent.parent / "README.md"
SIMULATOR = {"gammachain.network", "gammachain._kernels", "hashlib"}
# the analytic commands' cold start: the value classes need no dataclasses (nor the inspect it loads), and
# only the simulating commands record the platform
COLD = {"numpy", "dataclasses", "inspect", "platform"}


def child_modules(code, *args):
    """Run ``code`` in a fresh interpreter; return the modules it left loaded."""
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    child = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return set(child.stdout.splitlines()[-1].split())


# command line -> (modules it must load, modules it must not load)
COMMANDS = {
    "compare": (["compare"], set(), SIMULATOR | COLD),
    "model-kernel": (["model", "--kind", "kernel"], set(), SIMULATOR | COLD),
    "analyze-series": (["analyze", "--series", "{series}"], set(), SIMULATOR),
    "simulate": (["simulate", "--steps", "5"], SIMULATOR, set()),
    "pipeline": (["pipeline", "--steps", "5"], SIMULATOR, set()),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_layers(command, tmp_path):
    argv, loaded, absent = COMMANDS[command]
    series = write_file(tmp_path, "time,gamma\n0.0,0.1\n1.0,0.7\n2.0,0.9\n")
    argv = [arg.format(series=series) for arg in argv]
    code = (
        "import sys\n"
        "from gammachain import cli\n"
        "assert cli.main([*sys.argv[2:], '--out', sys.argv[1]]) == 0\n"
    )
    modules = child_modules(code, tmp_path / "out", *argv)
    assert loaded <= modules, sorted(loaded - modules)
    assert not modules & absent, sorted(modules & absent)
    # numpy is the only runtime dependency: no command may load any scipy module
    assert not [m for m in modules if m.partition(".")[0] == "scipy"]


def test_flag_rules_load_no_simulator():
    # every flag's rule lives in _frozen, so parsing a simulating command's flags loads neither numpy nor the simulator
    code = (
        "from gammachain import cli\n"
        "cli.build_parser().parse_args(['pipeline', '--dropout', '0.5', '--activation', '0.5',"
        " '--length-scale', '0.5', '--nodes', '4', '--seed', '1', '--steps', '3'])\n"
    )
    modules = child_modules(code)
    assert not modules & {"numpy", "gammachain.network"}, sorted(modules & {"numpy", "gammachain.network"})


def test_comparing_analytic_values_loads_no_numpy():
    code = (
        "from gammachain import default_partition, model1_transition_matrix\n"
        "matrix = model1_transition_matrix(default_partition())\n"
        "assert matrix == model1_transition_matrix(default_partition()) and matrix != object()\n"
        "assert hash(matrix) == hash(model1_transition_matrix(default_partition()))\n"
    )
    assert "numpy" not in child_modules(code)


def test_package_import_loads_no_layer():
    modules = child_modules("import gammachain")
    assert not [m for m in modules if m.startswith("gammachain.")]


def test_every_public_name_is_its_modules_object():
    for name in set(gammachain.__all__) - {"__version__"}:
        value = getattr(gammachain, name)
        assert value.__module__.startswith("gammachain."), name
        assert vars(sys.modules[value.__module__])[name] is value, name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from gammachain import *", namespace)
    assert set(gammachain.__all__) <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'gammachain' has no attribute 'nope'"):
        gammachain.nope


def test_dir_lists_every_public_name():
    assert set(gammachain.__all__) <= set(dir(gammachain))


def test_readme_library_snippet_runs_from_a_fresh_interpreter():
    text = README.read_text(encoding="utf-8")
    snippet = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "from gammachain import" in snippet
    child_modules(snippet)
