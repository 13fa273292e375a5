"""Which ``histq`` modules each subcommand loads, each case in a fresh interpreter.

``histq`` resolves its public names on first use and ``histq.cli`` imports a
subcommand's modules when that subcommand runs.  These tests pin the result:
the set-up a benchmark times (``import histq.cli`` plus ``load_scenario``)
loads exactly what a whole ``decohere`` call loads, ``decohere`` loads no
numpy module that ``import numpy`` does not, and the other subcommands add
only what they run.  They import whichever ``histq`` this test process
imports, so they also check an installed package.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import histq
from histq.cli import bundled_scenario_path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_PARENT = str(Path(histq.__file__).resolve().parents[1])

DECOHERE_MODULES = {"histq", "histq.cli", "histq.core", "histq.histories",
                    "histq.decoherence", "histq.scenario", "histq.report"}

# Run in a new interpreter: prints the sorted histq modules loaded after
# ``import histq.cli`` plus ``load_scenario``, and after ``main(argv)`` too
# when argv is not empty, and the numpy modules that ``import numpy`` alone
# does not load.
PROBE = """
import json, sys
import numpy
bare = set(sys.modules)
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "histq")
import histq.cli
from histq.scenario import load_scenario
scenario, argv = sys.argv[1], json.loads(sys.argv[2])
load_scenario(scenario)
setup = loaded()
code = histq.cli.main(argv) if argv else None
print(json.dumps({"setup": setup, "run": loaded(), "code": code,
                  "numpy": sorted(m for m in set(sys.modules) - bare if m.startswith("numpy"))}))
"""


def _fresh(code: str, *args: str) -> str:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_PARENT,
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def _modules(scenario: Path, argv: list[str]) -> dict:
    result = json.loads(_fresh(PROBE, str(scenario), json.dumps(argv)))
    assert result["code"] in (None, 0)
    return {key: set(result[key]) for key in ("setup", "run", "numpy")}


@pytest.fixture(scope="module")
def decohere_qubit7(tmp_path_factory):
    """The ``decohere-qubit7`` benchmark scenario at seed 1."""
    spec = importlib.util.spec_from_file_location("bench_scenarios",
                                                  ROOT / "bench" / "scenarios.py")
    scenarios = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = scenarios  # its dataclass looks it up
    try:
        spec.loader.exec_module(scenarios)
        path = tmp_path_factory.mktemp("scenario") / "decohere-qubit7.json"
        return scenarios.write_scenario(path, "decohere-qubit7", 1)
    finally:
        del sys.modules[spec.name]


def test_bare_import_loads_no_submodule():
    assert json.loads(_fresh(
        "import json, sys, histq; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('histq'))))"
    )) == ["histq"]


def test_the_chain_kernel_loads_only_its_module():
    # ``histq.chains`` resolves by importing the one module that defines it
    assert json.loads(_fresh(
        "import json, sys; from histq import chains; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('histq'))))"
    )) == ["histq", "histq.core", "histq.histories"]


def test_decohere_loads_what_the_set_up_loads(decohere_qubit7, tmp_path):
    modules = _modules(decohere_qubit7, ["decohere", "--scenario", str(decohere_qubit7),
                                         "--out", str(tmp_path)])
    assert modules["setup"] == modules["run"] == DECOHERE_MODULES
    # nothing of numpy beyond its bare import, such as the numpy.ma that
    # np.unique loads: heisenberg finds its distinct times with a dict
    assert modules["numpy"] == set()


def test_diverge_adds_only_divergence(tmp_path):
    scenario = bundled_scenario_path()
    modules = _modules(scenario, ["diverge", "--max-n", "8", "--out", str(tmp_path)])
    assert modules["run"] == DECOHERE_MODULES | {"histq.divergence"}


@pytest.mark.parametrize("subcommand", ["windows", "entropy"])
def test_window_subcommands_skip_the_property_suite(subcommand, tmp_path):
    scenario = bundled_scenario_path()
    modules = _modules(scenario, [subcommand, "--out", str(tmp_path)])
    assert DECOHERE_MODULES < modules["run"]
    assert not modules["run"] & {"histq.verify", "histq.sampling", "histq.divergence"}
