"""Decay fits by variable projection, checked against scipy's fitters.

The reference is scipy.optimize.least_squares at xtol = ftol = gtol =
1e-15 from the same start.  On large residuals it stops where the cost no
longer changes beyond rounding, up to about 1e-8 short of the minimum, so
its end point is finished by a root solve of the normal equations
J^T r = 0, which reaches the minimum to rounding.
"""

from __future__ import annotations

import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit, least_squares, root

from darkqubit import dynamics
from darkqubit.driving import compact_construction
from darkqubit.dynamics import NumericalError, evolve_lindblad, fit_decay
from darkqubit.gates import protected_report
from darkqubit.levels import ca40_dp
from darkqubit.noise import NoiseProcess, evolve_noisy

EPS = np.finfo(float).eps


def _exponential(t, amp, tau, off):
    return amp * np.exp(-t / tau) + off


def _exponential_jac(t, amp, tau, off):
    col = np.exp(-t / tau)
    return np.column_stack([col, amp * col * t / tau ** 2, np.ones_like(t)])


MODELS = {"exponential": (_exponential, _exponential_jac)}


def _start(t, y, model, p0):
    """The fit's own start: its guess of tau, best linear parameters."""
    tau = p0[1] if p0 is not None else dynamics._guess_tau(t, y)
    fn, _ = MODELS[model]
    basis = np.column_stack([fn(t, 1.0, tau, 0.0), np.ones_like(t)])
    amp, off = np.linalg.lstsq(basis, y, rcond=None)[0]
    return np.array([amp, tau, off])


def _reference(t, y, model, p0):
    """(least_squares result, its end point polished to the minimum)."""
    fn, jac = MODELS[model]
    ls = least_squares(lambda p: fn(t, *p) - y, _start(t, y, model, p0),
                       jac=lambda p: jac(t, *p), method="lm",
                       xtol=1e-15, ftol=1e-15, gtol=1e-15)
    polished = root(lambda p: jac(t, *p).T @ (fn(t, *p) - y), ls.x,
                    method="hybr", options={"xtol": 1e-15})
    return ls, polished.x


@pytest.fixture(scope="module")
def benchmark_shapes() -> dict[str, tuple]:
    """One dataset per kind of fit the benchmark makes."""
    shapes = {}
    # criterion 10: transverse OU relaxation at x = 0.1, 1, 10, seed 23
    omega0 = 5.0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex) / 2.0
    h = np.diag([omega0 / 2.0, -omega0 / 2.0]).astype(complex)
    for x, sigma, n_traj in ((0.1, 1.2, 384), (1.0, 0.4, 512),
                             (10.0, 0.25, 384)):
        tau = x / omega0
        proc = NoiseProcess("ornstein-uhlenbeck", sigma=sigma, tau_c=tau,
                            seed=23)
        rate = sigma ** 2 * tau / (1.0 + x ** 2)
        dt = min(tau / 8.0, 2.0 * math.pi / omega0 / 8.0)
        times = np.linspace(0.0, 1.2 / rate,
                            int(math.ceil(1.2 / rate / dt)) + 1)
        rho = evolve_noisy(h, np.array([1.0, 0.0], complex), proc, sx,
                           times, n_traj=n_traj, threads=1)
        shapes[f"criterion-10-x{x:g}"] = (
            times, 2.0 * rho[:, 0, 0].real - 1.0, "exponential",
            (1.0, 1.0 / rate, 0.0))

    # criterion 4: Lindblad decay of a dark state at delta_b = 0.05
    scheme = ca40_dp(gamma=0.1)
    lind = compact_construction(scheme, 0.3, 1.0)
    dark = protected_report(lind).dark_states[0]
    t1_pred = 1.0 / (0.1 * (12.0 / 25.0) * 0.05 ** 2)
    times = np.linspace(0.0, 2.0 * t1_pred, 40)
    rho = evolve_lindblad(lind.ip.static + 0.05 * scheme.zeeman_generator(),
                          np.outer(dark, dark.conj()),
                          scheme.all_collapse_operators(), times)
    shapes["lindblad-t1"] = (
        times, np.einsum("i,tij,j->t", dark.conj(), rho, dark).real,
        "exponential", None)
    return shapes


SHAPES = ["criterion-10-x0.1", "criterion-10-x1", "criterion-10-x10",
          "lindblad-t1"]


@pytest.mark.parametrize("name", SHAPES)
def test_fit_matches_least_squares_on_benchmark_shapes(benchmark_shapes,
                                                       name):
    times, values, model, p0 = benchmark_shapes[name]
    fit = fit_decay(times, values, model, p0=p0)
    got = np.array(list(fit.params.values()))
    ls, minimum = _reference(times, values, model, p0)
    assert got == pytest.approx(minimum, rel=1e-9)
    # and no worse a fit than least_squares' own end point
    fn, _ = MODELS[model]
    ssq = np.sum((fn(times, *got) - values) ** 2)
    assert ssq <= 2.0 * ls.cost * (1.0 + 1e-12)
    assert fit.rms_residual == pytest.approx(
        math.sqrt(ssq / times.size), rel=1e-9)
    # stderr is curve_fit's, up to where curve_fit stops
    _, pcov = curve_fit(fn, times, values, p0=_start(times, values, model,
                                                     p0))
    want = np.sqrt(np.diag(pcov))
    assert np.array(list(fit.stderr.values())) == pytest.approx(want,
                                                                 rel=1e-3)


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from(sorted(MODELS)),
       points=st.integers(40, 3000),
       amp=st.floats(0.2, 2.0),
       negative=st.booleans(),
       offset=st.floats(-1.0, 1.0),
       lifetimes=st.floats(1.0, 5.0),
       noise=st.floats(0.0, 0.02),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fit_ends_where_the_gradient_is_rounding(model, points, amp, negative,
                                                 offset, lifetimes, noise,
                                                 seed):
    # at the returned point each column of the Jacobian is orthogonal to
    # the residual up to the rounding of the residual itself; the data
    # span 1-5 lifetimes with up to 2% noise, enough for a minimum at
    # finite tau
    rng = np.random.default_rng(seed)
    amp = -amp if negative else amp
    t = np.linspace(0.0, 10.0, points)
    fn, jac = MODELS[model]
    y = fn(t, amp, 10.0 / lifetimes, offset) + noise * abs(amp) * rng.normal(size=points)
    fit = fit_decay(t, y, model)
    params = np.array(list(fit.params.values()))
    resid = y - fn(t, *params)
    cols = jac(t, *params)
    level = 64.0 * EPS * np.linalg.norm(cols, axis=0) * np.linalg.norm(y)
    assert np.all(np.abs(cols.T @ resid) <= level)


def test_fit_rejects_non_finite_data():
    t = np.linspace(0.0, 5.0, 50)
    y = np.exp(-t)
    for bad_t, bad_y in ((t, np.where(t > 2.0, np.nan, y)),
                         (np.where(t > 2.0, np.inf, t), y)):
        with pytest.raises(ValueError, match="finite"):
            fit_decay(bad_t, bad_y, "exponential")


def _best_rms(message: str) -> float:
    return float(re.search(r"best rms ([0-9.e+-]+)", message).group(1))


@pytest.mark.parametrize("model, shape, reason", [
    ("exponential", "line", "singular basis"),
    ("exponential", "constant", "no amplitude"),
])
def test_fit_of_data_that_do_not_decay_is_numerical_error(model, shape,
                                                          reason):
    # a straight line: tau runs off until the column and the offset are
    # one; a constant: the amplitude is zero and tau undetermined.  The
    # best attempt's residual is reported.
    t = np.linspace(0.0, 5.0, 50)
    y = {"line": 0.3 + 0.01 * t, "constant": np.full(t.size, 0.3)}[shape]
    with pytest.raises(NumericalError, match=reason) as info:
        fit_decay(t, y, model)
    assert "show no" in str(info.value)
    start = _start(t, y, model, None)
    fn, _ = MODELS[model]
    guess_rms = math.sqrt(np.mean((fn(t, *start) - y) ** 2))
    assert _best_rms(str(info.value)) <= guess_rms + 1e-15


def test_fit_that_does_not_converge_is_numerical_error(monkeypatch):
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 10.0, 200)
    y = 0.8 * np.exp(-t / 2.5) + 0.1 + 0.01 * rng.normal(size=t.size)
    monkeypatch.setattr(dynamics, "FIT_MAX_EVALS", 3)
    with pytest.raises(NumericalError, match="did not converge") as info:
        fit_decay(t, y, "exponential")
    start = _start(t, y, "exponential", None)
    guess_rms = math.sqrt(np.mean((_exponential(t, *start) - y) ** 2))
    # two evaluations downhill of the guess
    assert _best_rms(str(info.value)) < guess_rms


# Criterion 10's x = 0.1 ensemble has 16,835 points to fit; OpenBLAS
# splits a dot product of more than 10,000 across its threads.
_THREAD_COUNT_FIT = """
import numpy as np
from darkqubit.dynamics import fit_decay
rng = np.random.default_rng(7)
times = np.linspace(0.0, 60.8, 16835)
values = np.exp(-times / 50.7) + 0.02 * rng.standard_normal(times.size)
fit = fit_decay(times, values, "exponential", p0=(1.0, 50.0, 0.0))
print(repr(fit.params), repr(fit.stderr))
"""


def test_fit_does_not_depend_on_the_blas_thread_count():
    # each thread count added the long sums in its own order, so the
    # fits differed in their last digits
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        outputs.add(subprocess.run(
            [sys.executable, "-c", _THREAD_COUNT_FIT], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert len(outputs) == 1
