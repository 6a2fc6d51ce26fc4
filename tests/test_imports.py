"""Every top-level import of the package is used in its module, every
function parameter is read in its function, every module-level private
name is referenced somewhere in the package, and importing the CLI, fitting
decays, taking a gate's logarithm, sampling a Raman gate stroboscopically
or stepping a Lindbladian loads no scipy.

No linter ships with the project, so this parses the sources with ``ast``.
A name counts as used when the module reads it, lists it in ``__all__``
(a re-export), or names it inside a quoted annotation.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "darkqubit"


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                names[name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


# Parameters no body reads, each with the reason it stays.
INERT_PARAMETERS = {
    ("noise.py", "evolve_noisy", "threads"):
        "bench/jobs.py passes threads=1",
    ("cli.py", "run_scenario", "threads"):
        "bench/jobs.py passes threads=1",
}


def _unread_parameters(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [arg.arg for arg in (args.posonlyargs + args.args
                                      + args.kwonlyargs
                                      + [args.vararg, args.kwarg])
                  if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        for param in params:
            if param not in read:
                yield path.name, name, param


def test_every_parameter_is_read():
    unread = {key for path in sorted(SRC.glob("*.py"))
              for key in _unread_parameters(path)}
    assert unread <= set(INERT_PARAMETERS), \
        f"parameters never read: {sorted(unread - set(INERT_PARAMETERS))}"
    assert set(INERT_PARAMETERS) <= unread, \
        f"allowlisted but read: {sorted(set(INERT_PARAMETERS) - unread)}"


def _private_definitions(tree: ast.Module):
    """Module-level private names a module binds: functions, classes and
    assignment targets whose names start with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads, attributes it takes and names it imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_name_has_a_reference():
    # a private table or helper that nothing in the package reads is dead
    # code: its callers went away and it stayed
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*map(_references, trees.values()))
    orphans = sorted(f"{name}:{private}" for name, tree in trees.items()
                     for private in _private_definitions(tree)
                     if private not in referenced)
    assert not orphans, f"private names nothing references: {orphans}"


def _scipy_loaded_by(code: str) -> list[str]:
    """scipy modules a fresh interpreter holds after running code."""
    code += ("\nimport sys\nprint(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy():
    # scipy is imported only inside the function that calls DOP853: a
    # run that never integrates with it skips the import.  A fresh
    # interpreter, so nothing else has loaded scipy.
    assert _scipy_loaded_by("import darkqubit, darkqubit.cli") == []


# Criterion 10's call sequence: OU ensembles whose relaxation fit_decay
# fits.
CRITERION_10_CALLS = """
import math
import numpy as np
from darkqubit.dynamics import fit_decay
from darkqubit.noise import NoiseProcess, evolve_noisy
omega0 = 5.0
sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
h = np.diag([omega0 / 2.0, -omega0 / 2.0]).astype(complex)
for x, sigma, n_traj in ((0.1, 1.2, 384), (1.0, 0.4, 512), (10.0, 0.25, 384)):
    tau = x / omega0
    proc = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau, seed=23)
    rate = sigma ** 2 * tau / (1.0 + x ** 2)
    dt = min(tau / 8.0, 2.0 * math.pi / omega0 / 8.0)
    times = np.linspace(0.0, 1.2 / rate, int(math.ceil(1.2 / rate / dt)) + 1)
    rho = evolve_noisy(h, np.array([1.0, 0.0], complex), proc, sx, times,
                       n_traj=n_traj, threads=1)
    fit_decay(times, 2.0 * rho[:, 0, 0].real - 1.0, "exponential",
              p0=(1.0, 1.0 / rate, 0.0))
"""
# Criterion 4's call sequence: the Lindblad decay of a dark state that
# fit_decay fits.
CRITERION_4_CALLS = """
import numpy as np
from darkqubit.driving import compact_construction
from darkqubit.dynamics import evolve_lindblad, fit_decay
from darkqubit.gates import protected_report
from darkqubit.levels import ca40_dp
gamma, delta_b = 0.1, 0.05
scheme = ca40_dp(gamma=gamma)
con = compact_construction(scheme, 0.3, 1.0)
dark = protected_report(con).dark_states[0]
t1_pred = 1.0 / (gamma * (12.0 / 25.0) * delta_b ** 2)
times = np.linspace(0.0, 2.0 * t1_pred, 40)
rho = evolve_lindblad(con.ip.static + delta_b * scheme.zeeman_generator(),
                      np.outer(dark, dark.conj()),
                      scheme.all_collapse_operators(), times)
survival = np.einsum("i,tij,j->t", dark.conj(), rho, dark).real
fit_decay(times, survival, "exponential")
"""
CONSTRUCTION = """
scheme:
  preset: ca40_dp
construction:
  kind: compact
  omega: 1.0
  b: 0.3
"""
CLI_RUNS = {
    "compare": "protocol: compare" + CONSTRUCTION + """
noise:
  kind: quasi-static-gaussian
  sigma: 5e-4
compare:
  n_traj: 8
  horizon_in_bare_t2: 20
""",
    "gates": "protocol: gates" + CONSTRUCTION + """
gates:
  gate: microwave
  omega_g: 0.05
""",
    "raman-gates": "protocol: gates" + CONSTRUCTION + """
gates:
  gate: raman
  omega_g: 0.05
  delta_r: 20.0
""",
}
LIBRARY_CALLS = {"criterion-10": CRITERION_10_CALLS,
                 "criterion-4": CRITERION_4_CALLS}


def _run_code(tmp_path, run: str) -> str:
    """Python code making a library call sequence or one CLI run."""
    if run in LIBRARY_CALLS:
        return LIBRARY_CALLS[run]
    scenario = tmp_path / f"{run}.yaml"
    scenario.write_text(CLI_RUNS[run])
    protocol = run.split("-")[-1]
    return ("from darkqubit.cli import main\n"
            f"assert main([{protocol!r}, '--scenario', {str(scenario)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0")


@pytest.mark.parametrize("run", ["criterion-10", "compare", "gates"])
def test_fits_and_gate_logarithms_load_no_scipy(tmp_path, run):
    # decay fits (variable projection) and the 2x2 gate logarithm are
    # numpy only, so noise ensembles, compare and microwave gate runs
    # never pay scipy's import
    assert _scipy_loaded_by(_run_code(tmp_path, run)) == []


@pytest.mark.parametrize("run", ["raman-gates", "criterion-4"])
def test_raman_gates_and_lindblad_steps_load_no_scipy(tmp_path, run):
    # the stroboscopic eigenbasis (eig + QR) and the Lindblad step (Pade
    # expm) are numpy only, so Raman gate runs and Lindblad decays never
    # pay scipy's import either
    assert _scipy_loaded_by(_run_code(tmp_path, run)) == []
