"""Seeded scenario generation for the three benchmark workloads.

Each workload keeps one scenario per stratum for every seed; the seed only
fixes the draws inside each stratum, so the amount of work stays comparable
across seeds.  A workload is a list of :class:`Command` values, run in order
by a single closed-loop client.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("dephasing_bath", "gksl_dense", "collisional_grid")


@dataclass(frozen=True)
class Scenario:
    """One generated scenario file."""

    name: str
    path: Path


@dataclass(frozen=True)
class Command:
    """One ``decohere`` invocation with the exit code a correct program
    gives for it."""

    kind: str  # "run", "check-cp" or "sweep"
    scenario: Scenario
    expected_exit: int = 0
    extra: tuple[str, ...] = ()
    # Scenario dicts whose CSVs a sweep writes, keyed by CSV path.
    sweep_variants: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        return [self.kind, str(self.scenario.path), *self.extra]


def _write(workdir: Path, name: str, doc: dict) -> Scenario:
    doc = dict(doc)
    doc["output"] = {
        "csv_path": f"out/{name}.csv",
        "report_path": f"out/{name}_report.json",
    }
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return Scenario(name, path)


def suffixed(path: str, suffix: str) -> str:
    """``out/a.csv`` -> ``out/a_<suffix>.csv``, as the CLI names sweep outputs."""
    p = Path(path)
    return str(p.with_name(f"{p.stem}_{suffix}{p.suffix}"))


def _u(rng, lo, hi) -> float:
    """Uniform draw rounded so the scenario file stays readable."""
    return round(float(rng.uniform(lo, hi)), 4)


# ----------------------------------------------------------------------
# dephasing_bath
# ----------------------------------------------------------------------


def _dephasing_doc(omega0, coupling, s, omega_c, beta, t_max, n_points) -> dict:
    return {
        "model": "dephasing",
        "parameters": {
            "omega0": omega0,
            "spectral": {"coupling": coupling, "s": s, "omega_c": omega_c},
            "bath": {"beta": beta},
        },
        "time": {"t_max": t_max, "n_points": n_points},
    }


def dephasing_bath(rng, workdir: Path, repo: Path) -> list[Command]:
    # Draws stay within +-2 % of each stratum's centre: quadrature work
    # depends strongly on s, beta and t_max.
    ohmic = _write(
        workdir,
        "ohmic_t0",
        _dephasing_doc(0.0, _u(rng, 0.98, 1.02), 1.0, _u(rng, 0.98, 1.02), "inf", 5.0, 51),
    )
    sub = _write(
        workdir,
        "subohmic_hot",
        _dephasing_doc(
            _u(rng, 0.98, 1.02), _u(rng, 0.098, 0.102), _u(rng, 0.49, 0.51),
            _u(rng, 0.98, 1.02), _u(rng, 0.49, 0.51), 1.0, 11,
        ),
    )
    sup = _write(
        workdir,
        "superohmic_warm",
        _dephasing_doc(
            _u(rng, 0.49, 0.51), _u(rng, 0.98, 1.02), _u(rng, 2.94, 3.06),
            _u(rng, 0.98, 1.02), _u(rng, 4.9, 5.1), 3.0, 21,
        ),
    )
    commands = [Command("run", sc) for sc in (ohmic, sub, sup)]
    commands += [Command("check-cp", sc) for sc in (ohmic, sub, sup)]
    # Integer exponents keep the sweep's quadrature work the same for
    # every seed; s = 3 at T = 0 adds a second negative-rate flood.
    commands.append(_sweep_s(ohmic, ["1", "2", "3"]))
    return commands


def _sweep_s(scenario: Scenario, values: list[str]) -> Command:
    """A ``sweep`` over ``spectral.s`` plus the variant scenarios it should
    run, built the way the CLI documents: one copy per value, outputs
    suffixed with the value."""
    base = json.loads(scenario.path.read_text())
    variants = {}
    for text in values:
        doc = json.loads(json.dumps(base))
        doc["parameters"]["spectral"]["s"] = json.loads(text)
        doc["output"] = {key: suffixed(path, f"spectral_s_{text}")
                         for key, path in base["output"].items()}
        variants[doc["output"]["csv_path"]] = doc
    return Command("sweep", scenario, 0, ("--param", "spectral.s", "--values", ",".join(values)),
                   variants)


# ----------------------------------------------------------------------
# gksl_dense
# ----------------------------------------------------------------------


def _encode(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _ginibre(rng, d) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2 * d)


def _superop_norm1(h, ops, a) -> float:
    """1-norm of the generator's column-stacking superoperator matrix."""
    eye = np.eye(h.shape[0])
    s = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for j, lj in enumerate(ops):
        for k, lk in enumerate(ops):
            lk_lj = lk.conj().T @ lj
            s += a[j, k] * (np.kron(lk.conj(), lj)
                            - 0.5 * (np.kron(eye, lk_lj) + np.kron(lk_lj.T, eye)))
    return float(np.abs(s).sum(axis=0).max())


def _random_gksl_doc(rng, d: int, n_ops: int, t_max: float, n_points: int) -> dict:
    """Random Hamiltonian, Lindblad operators with non-unit norms, a
    random PSD Kossakowski matrix and a random mixed initial state.

    H and the Kossakowski matrix are rescaled together so that the
    superoperator's 1-norm is drawn from [15, 20]: exp(t L) then stays
    inside the matrix_exp guard at every default check-cp time, and the
    number of squarings, hence the work, hardly varies between seeds."""
    x = _ginibre(rng, d)
    h = x + x.conj().T
    ops = [_u(rng, 0.3, 2.0) * _ginibre(rng, d) for _ in range(n_ops)]
    b = _ginibre(rng, n_ops)
    a = b @ b.conj().T
    scale = _u(rng, 15.0, 20.0) / _superop_norm1(h, ops, a)
    h, a = scale * h, scale * a
    w = _ginibre(rng, d)
    rho = w @ w.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return {
        "model": "gksl",
        "parameters": {
            "hamiltonian": _encode(h),
            "lindblad_ops": [_encode(op) for op in ops],
            "kossakowski": _encode(a),
            "rho0": _encode(rho),
        },
        "time": {"t_max": t_max, "n_points": n_points},
    }


def _damped_qubit_doc(rng) -> dict:
    """Qubit amplitude damping at rate >= 40: exp(10 L) is a valid CPTP
    map, but the superoperator's 1-norm at t = 10 exceeds 700."""
    rate = _u(rng, 40.0, 60.0)
    omega = _u(rng, 0.5, 1.5)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return {
        "model": "gksl",
        "parameters": {
            "hamiltonian": _encode(np.diag([omega, -omega])),
            "lindblad_ops": [_encode(lower)],
            "kossakowski": [[[rate, 0.0]]],
            "rho0": _encode(np.array([[0.0, 0.0], [0.0, 1.0]])),
        },
        "time": {"t_max": 0.5, "n_points": 11},
    }


GKSL_DIMS = (2, 4, 8, 12)


def gksl_dense(rng, workdir: Path, repo: Path) -> list[Command]:
    scenarios = [
        _write(workdir, f"random_d{d}", _random_gksl_doc(rng, d, min(d, 3), 1.0, 11))
        for d in GKSL_DIMS
    ]
    scenarios.append(_write(workdir, "damped_qubit", _damped_qubit_doc(rng)))
    invalid = workdir / "invalid_kossakowski.json"
    shutil.copyfile(repo / "scenarios" / "invalid_kossakowski.json", invalid)
    commands = [Command("run", sc) for sc in scenarios]
    commands += [Command("check-cp", sc) for sc in scenarios]
    commands.append(Command("run", Scenario("invalid_kossakowski", invalid), 2))
    return commands


# ----------------------------------------------------------------------
# collisional_grid
# ----------------------------------------------------------------------


def _grid(rng, n: int, length: float) -> list[float]:
    """Ascending positions from 0 to ``length``: a jittered uniform grid."""
    step = length / (n - 1)
    jitter = rng.uniform(-0.2, 0.2, n) * step
    jitter[0] = jitter[-1] = 0.0
    return [round(float(x), 6) for x in np.linspace(0.0, length, n) + jitter]


COLLISIONAL_SIZES = (16, 24, 32)


def _collisional_doc(rate, law, grid, n_q=None, t_max=1.0, n_points=51) -> dict:
    params = {"rate": rate, "law": law, "grid": grid}
    if n_q is not None:
        params["n_q"] = n_q
    return {"model": "collisional", "parameters": params,
            "time": {"t_max": t_max, "n_points": n_points}}


def collisional_grid(rng, workdir: Path, repo: Path) -> list[Command]:
    # sigma_q times the grid span stays at most 10, as in the shipped
    # scenario: well beyond that, 64 kick nodes no longer resolve Phi at the
    # extreme separation and the run reports its own discretization
    # residual as a violation.
    scenarios = [
        _write(
            workdir,
            f"gaussian_n{n}",
            _collisional_doc(
                _u(rng, 0.9, 1.1),
                {"kind": "gaussian", "sigma_q": _u(rng, 0.9, 1.0)},
                _grid(rng, n, _u(rng, 8.0, 10.0)),
                n_q=64,
            ),
        )
        for n in COLLISIONAL_SIZES
    ]
    scenarios.append(
        _write(
            workdir,
            "two_point_n8",
            _collisional_doc(_u(rng, 0.9, 1.1), {"kind": "two_point", "q0": _u(rng, 0.5, 1.5)},
                             _grid(rng, 8, _u(rng, 8.0, 10.0))),
        )
    )
    commands = [Command("run", sc) for sc in scenarios]
    # check-cp is defined for gksl and dephasing only: asking it for a
    # collisional scenario is a documented usage error (exit 2).
    commands.append(Command("check-cp", scenarios[0], 2))
    return commands


GENERATORS = {
    "dephasing_bath": dephasing_bath,
    "gksl_dense": gksl_dense,
    "collisional_grid": collisional_grid,
}


def generate(workload: str, seed: int, workdir: Path, repo: Path) -> list[Command]:
    """Write the workload's scenario files into ``workdir``; return its
    commands in run order."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](rng, workdir, repo)
