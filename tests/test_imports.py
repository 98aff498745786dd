"""The import contract: no module of the package loads scipy when it is
imported, and :data:`cavens.config.EXPERIMENTS` names every scipy module an
experiment's solvers use, so that ``build_config`` imports them at set-up
and the solve imports none."""

import ast
import json
import os
import subprocess
import sys

import pytest

import cavens
from cavens.config import EXPERIMENTS, build_config
from cavens.experiments import _RUNNERS, run_experiment

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cavens.__file__)))
PACKAGE = os.path.join(SRC, "cavens")

IDENTICAL = """
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 6000
decoherence.gamma_d_hz = 600
ensemble.kind = identical
ensemble.n_ions = 4
ensemble.g_hz = 35e6
"""

LINE = """
cavity.kappa_hz = 44e9
cavity.kappa_c_hz = 8.8e9
decoherence.gamma_s_hz = 600
decoherence.gamma_d_hz = 6000
ensemble.kind = lorentzian
ensemble.n_ions = 1000
ensemble.delta_inh_hz = 150e6
ensemble.g_hz = 140.7e6
"""

# five distinct emitters: 4^5 = 1024 rows, above DENSE_DIM_MAX, so the
# trace runs on Krylov expm_multiply
DISTINCT = IDENTICAL.replace("ensemble.kind = identical\nensemble.n_ions = 4\n"
                             "ensemble.g_hz = 35e6\n",
                             "ensemble.kind = explicit\nensemble.file = em.csv\n")
EMITTERS = "detuning_hz,g_hz\n" + "".join(f"{k}e6,35e6\n" for k in range(5))

# small runs like those of test_cli.py, by case name: every experiment has one
CASES = {
    "reflection-spectrum": LINE + """
experiment = reflection-spectrum
grid.freq.start_hz = -80e6
grid.freq.stop_hz = 80e6
grid.freq.num = 41
drive.mu = 3e-7
""",
    "cit-power-sweep": LINE + """
experiment = cit-power-sweep
grid.freq.start_hz = -90e6
grid.freq.stop_hz = 90e6
grid.freq.num = 121
grid.power.start_w = 2e-14
grid.power.stop_w = 3e-13
grid.power.num = 5
grid.power.scale = log
""",
    "emission-trace": DISTINCT + """
experiment = emission-trace
drive.mu = 1e-6
drive.pulse_length_s = 1e-6
grid.time.start_s = 0.5e-6
grid.time.stop_s = 2e-6
grid.time.num = 4
""",
    "s-curve": IDENTICAL + """
experiment = s-curve
grid.power.start_w = 1e-15
grid.power.stop_w = 1e-11
grid.power.num = 3
grid.power.scale = log
drive.pulse_length_s = 5e-6
""",
    "s-curve-binned": IDENTICAL.replace("ensemble.kind = identical",
                                        "ensemble.kind = lorentzian") + """
ensemble.delta_inh_hz = 150e6
experiment = s-curve
bins.n = 3
bins.width_hz = 50e6
drive.pulse_length_s = 5e-6
grid.power.start_w = 1e-13
grid.power.stop_w = 1e-11
grid.power.num = 2
grid.power.scale = log
""",
    "dicke-populations": IDENTICAL + """
experiment = dicke-populations
drive.pulse_length_s = 5e-6
drive.power_w = 1e-13
""",
    "rate-map": IDENTICAL + "experiment = rate-map\n",
    "beat-note": IDENTICAL + """
experiment = beat-note
ensemble.detuning_hz = 5e6
drive.pulse_length_s = 5e-6
drive.power_w = 1e-13
drive.lo_offset_hz = 5e6
grid.time.start_s = 0
grid.time.stop_s = 20e-6
grid.time.num = 401
""",
    "phase-map": IDENTICAL + """
experiment = phase-map
grid.freq.start_hz = -10e6
grid.freq.stop_hz = 10e6
grid.freq.num = 21
""",
}

NUMPY_ONLY = {"reflection-spectrum", "rate-map", "phase-map"}

# the scipy modules loaded after `import cavens.cli`, after `load_config`
# and after `run_experiment`, as one JSON line
PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import cavens.cli
seen = {"import": scipy_modules()}
from cavens.config import load_config
from cavens.experiments import run_experiment
cfg = load_config(sys.argv[1])
seen["config"] = scipy_modules()
run_experiment(cfg)
seen["run"] = scipy_modules()
print(json.dumps(seen))
"""


def _probe(tmp_path, text: str) -> dict:
    (tmp_path / "em.csv").write_text(EMITTERS)
    (tmp_path / "run.cfg").write_text(text)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "run.cfg")],
                         cwd=tmp_path, env=env, check=True, timeout=300,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_every_experiment_has_a_case_and_a_runner():
    assert set(EXPERIMENTS) == set(_RUNNERS)
    assert {text.split("experiment = ")[1].split("\n")[0] for text in CASES.values()} \
        == set(EXPERIMENTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_imports_no_scipy(tmp_path, case):
    """``import cavens.cli`` loads no scipy, and the run loads none that the
    config did not; the numpy-only experiments load none at all."""
    seen = _probe(tmp_path, CASES[case])
    assert seen["import"] == []
    assert sorted(set(seen["run"]) - set(seen["config"])) == []
    if case in NUMPY_ONLY:
        assert seen["run"] == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_cells_are_python_scalars(tmp_path, case):
    """Every cell is a Python int, float or str, so the CSV writer's ``str``
    is ``repr`` for a float (a numpy float's depends on the numpy version)."""
    (tmp_path / "em.csv").write_text(EMITTERS)
    result = run_experiment(build_config(CASES[case], base_dir=str(tmp_path)))
    cells = {type(v) for table in result.tables for row in table.rows for v in row}
    assert cells and cells <= {int, float, str}


def _imports_at_import_time(tree: ast.Module):
    """Import statements that run when the module is imported: those not in
    a function body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def _names(node) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return [alias.name for alias in node.names]


@pytest.mark.parametrize("path", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_no_module_level_scipy_import(path):
    """A scipy import that runs when a module is imported puts its cost into
    the start-up of every run, the numpy-only experiments' too; import it in
    the function that uses it and list it in config.EXPERIMENTS."""
    with open(os.path.join(PACKAGE, path), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    bad = [f"line {node.lineno}: {name}" for node in _imports_at_import_time(tree)
           for name in _names(node) if name == "scipy" or name.startswith("scipy.")]
    assert bad == []
