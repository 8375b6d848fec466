"""Independent checks on the numbers ``decohere`` writes.

The closed forms here do not go through the package: zero-temperature
Ohmic-family rates and decoherence functions, and the collisional
coherence decay.  Each check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import math

# The CLI's own violation threshold: any residual above it is an error.
THRESHOLD = 1e-6


def parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    lines = data.decode().splitlines()
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def ohmic_t0_gamma(coupling: float, s: float, wc: float, t: float) -> float:
    """gamma(t) at zero temperature for J = coupling w^s wc^(1-s) e^(-w/wc)."""
    return (coupling * wc * math.gamma(s) * (1 + (wc * t) ** 2) ** (-s / 2)
            * math.sin(s * math.atan(wc * t)))


def ohmic_t0_decoherence(coupling: float, s: float, wc: float, t: float) -> float:
    """Gamma(t), the time integral of gamma, at zero temperature."""
    x = 1 + (wc * t) ** 2
    if s == 1.0:
        return 0.5 * coupling * math.log(x)
    return coupling * math.gamma(s - 1) * (
        1 - x ** ((1 - s) / 2) * math.cos((1 - s) * math.atan(wc * t)))


def _compare(label: str, got: float, want: float, t: float) -> list[str]:
    if abs(got - want) <= THRESHOLD:
        return []
    return [f"{label}(t={t:g}) = {got!r}, closed form {want!r}"]


def check_dephasing_csv(doc: dict, data: bytes) -> list[str]:
    """gamma and Gamma columns against the closed forms (T = 0 only)."""
    p = doc["parameters"]
    if p["bath"]["beta"] != "inf":
        return []
    sp = p["spectral"]
    header, rows = parse_csv(data)
    i_gamma, i_big = header.index("gamma"), header.index("Gamma")
    problems = []
    for row in rows:
        t = row[0]
        problems += _compare("gamma", row[i_gamma],
                             ohmic_t0_gamma(sp["coupling"], sp["s"], sp["omega_c"], t), t)
        problems += _compare("Gamma", row[i_big],
                             ohmic_t0_decoherence(sp["coupling"], sp["s"], sp["omega_c"], t), t)
    return problems


def check_collisional_csv(doc: dict, data: bytes) -> list[str]:
    """offdiag_abs against exp(-rate (1 - Phi(dx)) t) / N for the extreme
    grid pair of the equal superposition."""
    p = doc["parameters"]
    grid = p["grid"]
    dx = grid[-1] - grid[0]
    law = p["law"]
    if law["kind"] == "gaussian":
        phi = math.exp(-0.5 * law["sigma_q"] ** 2 * dx * dx)
    else:
        phi = math.cos(law["q0"] * dx)
    header, rows = parse_csv(data)
    col = header.index("offdiag_abs")
    problems = []
    for row in rows:
        t = row[0]
        want = math.exp(-p["rate"] * (1.0 - phi) * t) / len(grid)
        problems += _compare("offdiag_abs", row[col], want, t)
    return problems


def check_csv(doc: dict, data: bytes) -> list[str]:
    if doc["model"] == "dephasing":
        return check_dephasing_csv(doc, data)
    if doc["model"] == "collisional":
        return check_collisional_csv(doc, data)
    return []
