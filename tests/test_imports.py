"""Tests for the import boundary: only the Monte-Carlo route loads numpy, it
takes nothing from the exact route, no route loads the incomplete gamma
(ouexit.special, which only the tests and the benchmark harness use), and
the README's library example imports only public names."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ouexit
import ouexit.cli
from ouexit import simulate

_SIMULATE_NAMES = ("McConfig", "McEstimate", "PathRecord", "Scheme", "estimate_mfet", "record_path")


def test_exact_route_loads_no_numpy_or_scipy():
    code = (
        "import sys\n"
        "import ouexit\n"
        "from ouexit import cli, selftest\n"
        "p = ouexit.ExitProblem(ouexit.OupParams(theta=0.5, sigma=1.0, d=4), L=4.0, x=0.0)\n"
        "ouexit.mfet_exact(p)\n"
        "ouexit.mfet_bounds(p)\n"
        "ouexit.avp_residual(p, x_eval=2.0)\n"
        "for theta in ('0.5', '-0.5'):\n"
        "    assert cli.main(['mfet', '--d', '4', '--L', '4', '--x', '0', '--sigma', '1',\n"
        "                     '--theta', theta, '--format', 'json']) == 0\n"
        "assert cli.main(['drift-ratio', '--theta', '0.7']) == 0\n"
        "checks = dict(selftest.CHECKS)\n"
        "for name in ('reference-values', 'bound-chain'):\n"
        "    assert checks[name]()[0], name\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}\n"
        "             | set(sys.modules) & {'ouexit.special'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_reference_check_runs_on_the_standard_library(tmp_path):
    # selftest imports numpy only inside mc-determinism; with numpy blocked,
    # as on an interpreter without it, the reference table still checks,
    # selftest fails mc-determinism by name and the simulating commands are
    # usage errors that write nothing
    code = (
        "import os, sys\n"
        "sys.modules['numpy'] = None\n"
        "from ouexit import cli, selftest\n"
        "ok, detail = selftest.check_reference_values()\n"
        "assert ok, detail\n"
        "assert cli.main(['selftest']) == 1\n"
        "for command in ('trajectories', 'scaling'):\n"
        "    out = os.path.join(sys.argv[1], command + '.csv')\n"
        "    assert cli.main([command, '--output', out]) == 2\n"
        "    assert not os.listdir(sys.argv[1])\n"
        "print('ouexit.simulate' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["FAILED: mc-determinism", "False"]
    assert "raised ModuleNotFoundError" in proc.stdout
    assert proc.stderr.splitlines() == ["error: this command simulates, which needs numpy: "
                                        "import of numpy halted; None in sys.modules"] * 2


def test_cli_binds_record_path_on_first_access(tmp_path):
    # what a benchmark wrapper relies on: the name resolves in a fresh
    # interpreter, importing simulate only then, and a wrapper set on the
    # module is what ``trajectories`` calls
    code = (
        "import sys\n"
        "from ouexit import cli\n"
        "assert 'ouexit.simulate' not in sys.modules\n"
        "engine = cli.record_path\n"
        "assert engine is sys.modules['ouexit.simulate'].record_path\n"
        "calls = []\n"
        "def wrapper(*args):\n"
        "    calls.append(args[0].params.theta)\n"
        "    return engine(*args)\n"
        "cli.record_path = wrapper\n"
        "assert cli.main(['trajectories', '--d', '2', '--output', sys.argv[1]]) == 0\n"
        "print(calls)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "traces.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0.7, 0.0]"


@pytest.mark.parametrize("module,name", [
    *((ouexit, name) for name in _SIMULATE_NAMES),
    *((ouexit.cli, name) for name in ("McConfig", "estimate_mfet", "record_path")),
])
def test_simulate_names_are_the_engines_own(module, name):
    assert getattr(module, name) is getattr(simulate, name)


def test_monte_carlo_takes_nothing_from_the_exact_route():
    # the three routes stay independent: simulate imports no name of mfet
    tree = ast.parse(Path(simulate.__file__).read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not [pair for pair in imported if "mfet" in pair]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ouexit import *", namespace)
    assert len(ouexit.__all__) == 22
    assert all(namespace[name] is getattr(ouexit, name) for name in ouexit.__all__)


@pytest.mark.parametrize("module", [ouexit, ouexit.cli])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def _check_commented(value, comment):
    """Compare ``value`` with the README's comment on it: a number (a trailing
    '...' marks a prefix, otherwise the value rounds to it), or
    ``Type(field=number, ...)``.  Returns the number of values compared."""
    call = re.match(r"(\w+)\((.*)\)$", comment)
    if call:
        assert type(value).__name__ == call[1]
        return sum(_check_commented(getattr(value, name), number)
                   for name, number in re.findall(r"(\w+)=([-\d.]+)", call[2]))
    number, dots = re.match(r"([-\d.]+?)(\.\.\.)?(?:\s|$)", comment).groups()
    if dots:
        assert repr(value).startswith(number)
    else:
        assert round(value, len(number.partition(".")[2])) == float(number)
    return 1


def test_readme_library_block_runs_as_written():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S)[1]
    lines = block.splitlines()
    namespace = {}
    checked = 0
    statements = ast.parse(block).body
    for node, after in zip(statements, statements[1:] + [None]):
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        end = after.lineno - 1 if after else len(lines)
        comment = " ".join(line.partition("#")[2].strip() for line in lines[node.lineno - 1:end])
        checked += _check_commented(value, comment)
    # 66.228493..., the four bounds and 4.0
    assert checked == 6
