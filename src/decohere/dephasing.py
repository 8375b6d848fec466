"""Exactly solvable two-level dephasing driven by a bosonic bath.

The bath enters only through an Ohmic-family spectral density

    J(omega) = coupling * omega^s * omega_c^(1-s) * exp(-omega/omega_c)

and an inverse temperature beta (beta = +inf replaces coth(beta*omega/2)
by 1 analytically).  The model is the two-level system H = omega0 * sigma_z
with pure-dephasing coupling along sigma_z, whose exact solution fixes the
populations and multiplies the coherence by exp(-Gamma(t)) times a phase.

Conventions (pinned here, used consistently everywhere):

* Basis index 0 is the sigma_z eigenvector with eigenvalue +1, index 1 the
  one with eigenvalue -1; "the coherence" is matrix[0, 1].
* The commutator -i[H, rho] with H = omega0 * sigma_z rotates the
  coherence by exp(-2i*omega0*t); the factor 2 is the sigma_z eigenvalue
  gap.  Only the magnitude exp(-Gamma(t)) is convention independent.
* The master-equation rate is half the dephasing rate gamma(t): the
  dissipator gamma/2 * (sigma_z rho sigma_z - rho) multiplies the
  coherence by exp(-integral of gamma) = exp(-Gamma), consistent with the
  exact solution and with gamma(t) = integral of J(w) coth(beta w/2)
  sin(w t)/w dw.

The spectral integrals gamma, Gamma and the real and imaginary parts of
the bath correlation alpha differ only in their weight, J or J coth, and
their kernel k(w, t); each is one entry of ``_KERNELS``, which both the
panel rule and its QUADPACK fallback read on (0, cutoff); at zero coupling each is 0.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import NegativeFrequencyError, NegativeRateWarning, ValidationError
from .gksl import SIGMA_Z, DensityMatrix, GkslGenerator, Superoperator, integrate_time_dependent
from .numcore import (
    DEFAULT_QUADRATURE,
    OdeSpec,
    PanelRule,
    QuadratureSpec,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_panels,
    panel_layout,
)
from .schema import REQUIRED, complex_entry, number, obj, positive

# Outer spec for the nested time-domain cross-check integrals: tight
# relative tolerance so the check stays meaningful for large hot-bath
# values of Gamma.
_CROSS_CHECK_SPEC = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-11)

# log of the largest float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _from_zero(t: float, integral) -> float:
    """integral(), for a quantity of t >= 0 that vanishes at t = 0."""
    if t < 0:
        raise ValidationError("t must be >= 0")
    return 0.0 if t == 0.0 else integral()


def _half_angle(a, w, t):
    # (1 - cos(w t))/w^2 = 2 (sin(w t/2)/w)^2, free of cancellation
    half = np.sin(0.5 * t * w) / w
    return a * 2.0 * half * half


# Every spectral integral is the integral over w in (0, inf) of a weight,
# J(w) coth(beta w/2) (thermal) or J(w), times a kernel k(w, t), as
# kind: (thermal, kernel, (trig, m)).  kernel(a, w, t) multiplies the
# weight a by k(w, t) without cancellation at w > 0; (trig, m) is the same
# k as trig(w t) / w^m, the form integrate_oscillatory takes.
_KERNELS = {
    "gamma": (True, lambda a, w, t: a * np.sin(t * w) / w, ("sin", 1)),
    "Gamma": (True, _half_angle, ("1-cos", 2)),
    "Re alpha": (True, lambda a, w, t: a * np.cos(t * w), ("cos", 0)),
    "Im alpha": (False, lambda a, w, t: a * np.sin(t * w), ("sin", 0)),
}


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic family with exponential cutoff; s < 1 sub-Ohmic, s = 1 Ohmic,
    s > 1 super-Ohmic."""

    coupling: float
    s: float = 1.0
    omega_c: float = 1.0

    def __post_init__(self):
        if not (self.coupling >= 0):
            raise ValidationError("coupling must be >= 0")
        if not (self.s > 0):
            raise ValidationError("exponent s must be > 0")
        if not (self.omega_c > 0):
            raise ValidationError("cutoff omega_c must be > 0")
        try:  # J(w) = prefactor * w^s * exp(-w/omega_c), computed once
            prefactor = self.coupling * self.omega_c ** (1.0 - self.s)
        except OverflowError:
            prefactor = math.inf
        if not math.isfinite(prefactor):
            raise ValidationError("spectral prefactor coupling * omega_c^(1 - s) overflows")
        if prefactor == 0.0 and self.coupling > 0:
            raise ValidationError("spectral prefactor coupling * omega_c^(1 - s) underflows to 0")
        # coupling * omega_c^2 * Gamma(s + 1), the integral of J, sizes the panel sums
        if self.coupling > 0 and (math.log(self.coupling) + 2.0 * math.log(self.omega_c)
                                  + math.lgamma(self.s + 1.0) > _LOG_FLOAT_MAX):
            raise ValidationError("spectral weight coupling * omega_c^2 * Gamma(s + 1) overflows")
        object.__setattr__(self, "_prefactor", prefactor)

    def __call__(self, omega: float) -> float:
        if omega < 0:
            raise NegativeFrequencyError(f"spectral density needs omega >= 0, got {omega}")
        if omega == 0.0:
            return 0.0
        return (
            self.coupling
            * omega**self.s
            * self.omega_c ** (1.0 - self.s)
            * math.exp(-omega / self.omega_c)
        )


@dataclass(frozen=True)
class BathSpec:
    """Inverse temperature; beta = math.inf is the zero-temperature bath."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValidationError("beta must be > 0 (use math.inf for T = 0)")

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta)

    def thermal_factor(self, omega: float) -> float:
        """coth(beta*omega/2), or 1 exactly at zero temperature; the pole
        of coth gives +inf at omega = 0."""
        if self.zero_temperature:
            return 1.0
        if omega == 0.0:
            return math.inf
        return 1.0 / math.tanh(0.5 * self.beta * omega)

    def thermal_weight(self, omega: np.ndarray) -> np.ndarray:
        """omega * coth(beta*omega/2) on an array, taking its limit 2/beta
        at omega = 0 (omega itself at zero temperature)."""
        omega = np.asarray(omega, dtype=float)
        if self.zero_temperature:
            return omega
        x = 0.5 * self.beta * omega
        ratio = np.divide(x, np.tanh(x), out=np.ones_like(x), where=x != 0)
        return (2.0 / self.beta) * ratio


def _cutoff(spectral: SpectralDensity, bath: BathSpec, tol: float) -> float:
    """max(40 omega_c, U_tol): U_tol = x omega_c, x > s, is the smallest U at which
    coth(beta U/2) max(1, 1/U, 2/U^2) coupling omega_c^2 x^s e^(-x) x/(x - s) <= tol.
    Beyond U these factors bound coth(beta w/2), |kernel| and the tail of J,
    coupling omega_c^2 Gamma(s + 1, x), so every integral's tail; they fall with x."""
    s, wc = spectral.s, spectral.omega_c

    def too_short(x):  # for x > s
        log_u, half = math.log(x) + math.log(wc), 0.5 * bath.beta * x * wc
        log_coth = (-math.log(math.tanh(half)) if half > 1e-8  # else coth(h) ~ 1/h
                    else math.log(2.0) - math.log(bath.beta) - log_u)
        log_kernel = max(0.0, -log_u, math.log(2.0) - 2.0 * log_u)
        return (math.log(spectral.coupling) + 2.0 * math.log(wc) + log_coth + log_kernel
                + s * math.log(x) - x + math.log(x / (x - s)) > math.log(tol))

    if spectral.coupling == 0 or (s < 40.0 and not too_short(40.0)):
        return 40.0 * wc
    lo, hi = max(40.0, s), 2.0 * max(40.0, s)
    while too_short(hi):  # the bound falls as e^(-x): a few doublings
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # bisect to adjacent floats
        lo, hi = (mid, hi) if too_short(mid) else (lo, mid)
    return hi * wc


@dataclass(frozen=True)
class DephasingModel:
    """Two-level pure dephasing: free frequency, spectral density, bath, and
    the quadrature spec of its spectral integrals, over (0, :func:`_cutoff`)."""

    omega0: float
    spectral: SpectralDensity
    bath: BathSpec
    quadrature: QuadratureSpec = DEFAULT_QUADRATURE
    cutoff: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.omega0):
            raise ValidationError("omega0 must be finite")
        # Gauss rules for the integrands' power law at w = 0: J(w) coth(beta w/2)
        # ~ w^(s-1) at finite temperature, J(w) ~ w^s at T = 0.  Built here, so
        # an s whose s - 1 rounds to -1 is rejected before any integral runs.
        try:
            rule = PanelRule(self.spectral.s - (0.0 if self.bath.zero_temperature else 1.0))
        except ValidationError as exc:
            raise ValidationError(f"spectral exponent s = {self.spectral.s} is too small "
                                  f"at finite temperature: {exc}") from exc
        object.__setattr__(self, "_panel_rule", rule)
        object.__setattr__(self, "cutoff",
                           _cutoff(self.spectral, self.bath, self.quadrature.abs_tol))

    def _thermal(self, w: float) -> float:
        """J(w) * coth(beta w / 2), the temperature-dressed spectral weight."""
        return self.spectral(w) * self.bath.thermal_factor(w)

    # -- spectral integrals ------------------------------------------------
    #
    # Each integral over w reads one _KERNELS entry, through the panel rule
    # with the weight as an array or, on fallback, integrate_oscillatory
    # with the scalar weight, on the one range (0, cutoff).
    # The panels are no wider than pi/t, so that each holds at most half a
    # period of the kernel; their width is wc / 2^k, which changes only
    # when t doubles, so a model builds each layout, with its nodes,
    # weights and the t-independent panel weight at its nodes, once.

    @cached_property
    def _layouts(self) -> dict:
        """(thermal, k) -> (PanelLayout, its panel weight) for panels of
        width wc / 2^k; filled by :meth:`_panel_layout`."""
        return {}

    def _panel_weight(self, w: np.ndarray, thermal: bool) -> np.ndarray:
        """J(w) coth(beta w/2) / w^p (thermal) or J(w) / w^p for the panel
        rule's power p, smooth on [0, inf)."""
        j = self.spectral
        envelope = j._prefactor * np.exp(w * (-1.0 / j.omega_c))
        if self.bath.zero_temperature:
            return envelope
        return envelope * (self.bath.thermal_weight(w) if thermal else w)

    def _panel_layout(self, thermal: bool, t: float, head_width: float):
        """(layout, panel weight at its nodes) for the integrals at t, with
        panels of width wc / 2^k for the smallest k >= 0 that keeps them no
        wider than pi/t; (None, None) when no layout fits max_subdivisions.
        When that width needs too many panels but pi/t does not, the pi/t
        layout is built for this call alone."""
        wc = self.spectral.omega_c
        limit = math.pi / t if t > 0 else math.inf
        k = 0
        while wc / 2**k > limit:
            k += 1
        key = (thermal, k)
        if key not in self._layouts:
            budget = self.quadrature.max_subdivisions
            layout = panel_layout(self._panel_rule, self.cutoff, wc / 2**k, budget,
                                  head_width=head_width)
            if layout is None:  # too many panels: pi/t may need fewer, for this call alone
                exact = panel_layout(self._panel_rule, self.cutoff, limit, budget,
                                     head_width=head_width) if k else None
                return exact, None if exact is None else self._panel_weight(exact.nodes, thermal)
            self._layouts[key] = (layout, self._panel_weight(layout.nodes, thermal))
        return self._layouts[key]

    def _spectral_integral(self, kind: str, t: float) -> float:
        """The integral ``kind`` of :data:`_KERNELS` at t >= 0, by the panel
        rule, or by one QUADPACK route when the rule's estimate misses
        :attr:`quadrature`."""
        if self.spectral.coupling == 0:  # J = 0, and so is every integral of it
            return 0.0
        thermal, kernel, (trig, m) = _KERNELS[kind]
        weight = self._thermal if thermal else self.spectral
        spec = self.quadrature
        # coth(beta w/2) has poles at w = 2 pi i k / beta
        pole_scale = math.inf if self.bath.zero_temperature else 2 * math.pi / self.bath.beta
        layout, panel_weight = self._panel_layout(thermal, t, pole_scale)
        value, _ = integrate_panels(  # g is called only at layout.nodes
            lambda w: kernel(panel_weight, w, t), layout, spec,
            fallback=lambda: integrate_oscillatory(
                lambda w: weight(w) / w**m, trig, t, self.cutoff, spec,
                head=lambda w: kernel(weight(w), w, t), breakpoints=(pole_scale,),
            ),
        )
        return value

    def _tau_integral(self, f, t: float) -> float:
        """Integral of f(tau) over (0, t): the outer integral of the
        two-form cross-checks."""
        return _from_zero(t, lambda: integrate_adaptive(f, 0.0, t, _CROSS_CHECK_SPEC)[0])

    # -- bath correlation function -------------------------------------

    def bath_correlation(self, t: float) -> complex:
        """alpha(t): real part integral of J(w) coth(beta w/2) cos(w t),
        imaginary part -integral of J(w) sin(w t), over w in (0, inf).
        Even real part, odd imaginary part in t."""
        if not math.isfinite(t):
            raise ValidationError("t must be finite")
        real = self._spectral_integral("Re alpha", abs(t))
        imag = self._spectral_integral("Im alpha", abs(t))
        return complex(real, -imag if t > 0 else imag)

    # -- dephasing rate gamma(t) ----------------------------------------

    def dephasing_rate(self, t: float) -> float:
        """gamma(t) = integral of J(w) coth(beta w/2) sin(w t)/w dw."""
        return _from_zero(t, lambda: self._spectral_integral("gamma", t))

    def dephasing_rate_from_correlation(self, t: float) -> float:
        """Independent route: integral of Re alpha(tau) for tau in (0, t)."""
        return self._tau_integral(lambda tau: self._spectral_integral("Re alpha", tau), t)

    # -- decoherence function Gamma(t) ----------------------------------

    def decoherence_function(self, t: float) -> float:
        """Gamma(t) = integral of J(w) coth(beta w/2) (1 - cos(w t))/w^2 dw."""
        return _from_zero(t, lambda: self._spectral_integral("Gamma", t))

    def decoherence_function_from_rate(self, t: float) -> float:
        """Independent route: integral of gamma(tau) for tau in (0, t)."""
        return self._tau_integral(self.dephasing_rate, t)

    # -- exact solution ---------------------------------------------------

    def coherence(self, rho0: DensityMatrix, t: float, big_gamma: float | None = None) -> complex:
        """Predicted matrix[0, 1] element at time t: the initial coherence
        damped by exp(-Gamma(t)) and rotated by exp(-2i*omega0*t).  A caller
        that already holds Gamma(t) passes it as ``big_gamma``."""
        if rho0.dim != 2:
            raise ValidationError("dephasing coherence needs a 2x2 state")
        if t < 0:
            raise ValidationError("t must be >= 0")
        c0 = complex(rho0.matrix[0, 1])
        if c0 == 0:
            return 0.0j
        if big_gamma is None:
            big_gamma = self.decoherence_function(t)
        return c0 * math.exp(-big_gamma) * np.exp(-2j * self.omega0 * t)

    def channel(self, t: float) -> Superoperator:
        """Exact (time-ordered) dephasing channel at time t as a superoperator:
        populations fixed, coherence multiplied by exp(-Gamma(t) - 2i omega0 t)."""
        f = math.exp(-self.decoherence_function(t)) * np.exp(-2j * self.omega0 * t)
        return Superoperator(np.diag([1.0, np.conj(f), f, 1.0]))

    @cached_property
    def generator_parts(self) -> tuple[GkslGenerator, GkslGenerator]:
        """(L0, L1) with d rho/dt = (L0 + gamma(t) L1) rho: H = omega0 sigma_z,
        and sigma_z at rate 1/2 (see module docstring for the factor of two)."""
        return (GkslGenerator(self.omega0 * SIGMA_Z),
                GkslGenerator(np.zeros((2, 2)), (SIGMA_Z,), [[0.5]]))

    def generator_at(self, t: float) -> GkslGenerator:
        """The generator L0 + gamma(t) L1 of :attr:`generator_parts` at time t."""
        gamma = self.dephasing_rate(t)
        if gamma < 0:
            warnings.warn(
                f"dephasing rate is negative at t = {t}: the generator is "
                "not GKSL at this instant",
                NegativeRateWarning,
                stacklevel=2,
            )
        fixed, varying = self.generator_parts
        return GkslGenerator(fixed.hamiltonian, varying.lindblad_ops,
                             gamma * varying.kossakowski, validate_psd=gamma >= 0)


def _beta(value, path):
    """Inverse temperature; the string "inf" encodes beta = +inf."""
    if value == "inf":
        return math.inf
    return number(value, path, exclusive_minimum=0.0)


# A scenario's parameters block; build runs SpectralDensity's checks (a
# finite, nonzero prefactor and a finite total weight) at parse time
PARAMETERS = obj({
    "omega0": (number, REQUIRED),
    "spectral": (obj({
        "coupling": (partial(number, minimum=0.0), REQUIRED),
        "s": (positive, REQUIRED),
        "omega_c": (positive, REQUIRED),
    }), REQUIRED),
    "bath": (obj({"beta": (_beta, REQUIRED)}), REQUIRED),
    "initial_population_upper": (partial(number, minimum=0.0, maximum=1.0), 0.5),
    "initial_coherence": (complex_entry, [0.5, 0.0]),
}, name="parameters")


def build(p, quadrature) -> DephasingModel:
    return DephasingModel(p["omega0"], SpectralDensity(**p["spectral"]), BathSpec(**p["bath"]),
                          quadrature)


def initial_state(p) -> DensityMatrix:
    pop, coh = p["initial_population_upper"], p["initial_coherence"]
    return DensityMatrix(np.array([[pop, coh], [coh.conjugate(), 1.0 - pop]], dtype=complex))


def channel(model: DephasingModel):
    """check-cp's map: t -> the exact channel at t."""
    return model.channel


# CSV columns of a dephasing run, between "t" and "trace_drift"
COLUMNS = ("gamma", "Gamma", "coherence_re", "coherence_im", "coherence_abs",
           "coherence_abs_numeric")


def run(model: DephasingModel, rho0: DensityMatrix, t_grid, ode: OdeSpec | None):
    """Integrate the master equation along t_grid; yield per time the state,
    the :data:`COLUMNS` values and the residuals against the exact solution."""
    # the Runge-Kutta stages with a negative rate, reported as one warning
    negative_at = []

    def rate(t):
        gamma = model.dephasing_rate(t)
        if gamma < 0:
            negative_at.append(t)
        return gamma

    trajectory = integrate_time_dependent(*model.generator_parts, rate, rho0, t_grid, ode)
    if negative_at:
        warnings.warn(
            f"dephasing rate was negative at {len(negative_at)} Runge-Kutta "
            f"stages, first at t = {min(negative_at)}: the generator is "
            "not GKSL there",
            NegativeRateWarning,
        )

    for i, (t, state) in enumerate(zip(t_grid, trajectory)):
        t, m = float(t), state.matrix
        gamma = model.dephasing_rate(t)
        big_gamma = model.decoherence_function(t)
        coh = model.coherence(rho0, t, big_gamma)
        residuals = {
            "coherence_abs_analytic_vs_ode": abs(abs(coh) - abs(m[0, 1])),
            "coherence_complex_analytic_vs_ode": abs(coh - m[0, 1]),
            "population_drift": float(np.abs(np.diag(m) - np.diag(rho0.matrix)).max()),
        }
        if i == len(t_grid) - 1:  # the two routes to gamma and Gamma, once
            residuals["gamma_two_forms"] = abs(
                gamma - model.dephasing_rate_from_correlation(t))
            residuals["decoherence_function_two_forms"] = abs(
                big_gamma - model.decoherence_function_from_rate(t))
        yield state, (gamma, big_gamma, coh.real, coh.imag, abs(coh), abs(m[0, 1])), residuals
