"""Tests for the import boundary: only the Monte-Carlo route loads numpy and scipy."""

import subprocess
import sys

import pytest

import ouexit
import ouexit.cli
from ouexit import simulate

_SIMULATE_NAMES = ("McConfig", "McEstimate", "PathRecord", "Scheme", "estimate_mfet", "record_path")


def test_exact_route_loads_no_numpy_or_scipy():
    code = (
        "import sys\n"
        "import ouexit\n"
        "from ouexit import cli\n"
        "p = ouexit.ExitProblem(ouexit.OupParams(theta=0.5, sigma=1.0, d=4), L=4.0, x=0.0)\n"
        "ouexit.mfet_exact(p)\n"
        "ouexit.mfet_bounds(p)\n"
        "assert cli.main(['mfet', '--d', '4', '--L', '4', '--x', '0', '--sigma', '1',\n"
        "                 '--theta', '0.5', '--format', 'json']) == 0\n"
        "assert cli.main(['drift-ratio', '--theta', '0.7']) == 0\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("module,name", [
    *((ouexit, name) for name in _SIMULATE_NAMES),
    *((ouexit.cli, name) for name in ("McConfig", "estimate_mfet", "record_path")),
])
def test_simulate_names_are_the_engines_own(module, name):
    assert getattr(module, name) is getattr(simulate, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ouexit import *", namespace)
    assert len(ouexit.__all__) == 29
    assert all(namespace[name] is getattr(ouexit, name) for name in ouexit.__all__)


@pytest.mark.parametrize("module", [ouexit, ouexit.cli])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
