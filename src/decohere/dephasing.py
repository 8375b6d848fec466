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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NegativeFrequencyError, NegativeRateWarning, ValidationError
from .gksl import SIGMA_Z, DensityMatrix, GkslGenerator, Superoperator
from .numcore import (
    DEFAULT_QUADRATURE,
    OSC_THRESHOLD,
    PanelRule,
    QuadratureSpec,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_panels,
)

# Outer spec for the nested time-domain cross-check integrals: tight
# relative tolerance so the check stays meaningful for large hot-bath
# values of Gamma.
_CROSS_CHECK_SPEC = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-11)


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


@dataclass(frozen=True)
class DephasingModel:
    """Two-level pure dephasing: free frequency, spectral density, bath."""

    omega0: float
    spectral: SpectralDensity
    bath: BathSpec

    def __post_init__(self):
        if not math.isfinite(self.omega0):
            raise ValidationError("omega0 must be finite")

    def _thermal(self, w: float) -> float:
        """J(w) * coth(beta w / 2), the temperature-dressed spectral weight."""
        return self.spectral(w) * self.bath.thermal_factor(w)

    # -- spectral integrals ------------------------------------------------
    #
    # Each integral over w runs first through the Gauss panel rule, on the
    # same truncated range the QUADPACK route uses, and falls back to that
    # route when the rule's error estimate misses the tolerance.

    @cached_property
    def _panel_rule(self) -> PanelRule:
        """Gauss rules for the integrands' power law at w = 0:
        J(w) coth(beta w/2) ~ w^(s-1) at finite temperature, J(w) ~ w^s at
        T = 0.  Built once per model."""
        return PanelRule(self.spectral.s - (0.0 if self.bath.zero_temperature else 1.0))

    def _envelope(self, w: np.ndarray) -> np.ndarray:
        j = self.spectral
        return (j.coupling * j.omega_c ** (1.0 - j.s)) * np.exp(w * (-1.0 / j.omega_c))

    def _bare(self, w: np.ndarray) -> np.ndarray:
        """J(w) / w^p for the panel rule's power p, smooth on [0, inf)."""
        if self.bath.zero_temperature:
            return self._envelope(w)
        return self._envelope(w) * w

    def _dressed(self, w: np.ndarray) -> np.ndarray:
        """J(w) coth(beta w/2) / w^p for the panel rule's power p."""
        if self.bath.zero_temperature:
            return self._envelope(w)
        return self._envelope(w) * self.bath.thermal_weight(w)

    def _spectral_integral(self, g, t: float, quad: QuadratureSpec | None,
                           fallback) -> float:
        """Integral over w of w^p g(w), for g oscillating like sin/cos(w t),
        by the panel rule, or fallback() when its estimate misses quad."""
        spec = quad or DEFAULT_QUADRATURE
        wc = self.spectral.omega_c
        bath = self.bath
        value, _ = integrate_panels(
            g,
            self._panel_rule,
            spec.tail_cutoff_multiplier * wc,
            min(math.pi / t, wc) if t > 0 else wc,
            spec,
            # coth(beta w/2) has poles at w = 2 pi i k / beta
            head_width=math.inf if bath.zero_temperature else 2 * math.pi / bath.beta,
            fallback=fallback,
        )
        return value

    # -- bath correlation function -------------------------------------

    def bath_correlation(self, t: float, quad: QuadratureSpec | None = None) -> complex:
        """alpha(t): real part integral of J(w) coth(beta w/2) cos(w t),
        imaginary part -integral of J(w) sin(w t), over w in (0, inf).
        Even real part, odd imaginary part in t."""
        if not math.isfinite(t):
            raise ValidationError("t must be finite")
        wc = self.spectral.omega_c
        if t == 0.0:
            real = self._spectral_integral(
                self._dressed, 0.0, quad,
                lambda: integrate_adaptive(self._thermal, 0.0, math.inf, quad, scale=wc),
            )
            return complex(real, 0.0)

        abs_t = abs(t)
        real = self._spectral_integral(
            lambda w: self._dressed(w) * np.cos(abs_t * w), abs_t, quad,
            lambda: integrate_oscillatory(
                self._thermal, "cos", abs_t, 0.0, math.inf, quad, scale=wc
            ),
        )
        imag = self._spectral_integral(
            lambda w: self._bare(w) * np.sin(abs_t * w), abs_t, quad,
            lambda: integrate_oscillatory(
                self.spectral, "sin", abs_t, 0.0, math.inf, quad, scale=wc
            ),
        )
        return complex(real, -math.copysign(1.0, t) * imag)

    # -- dephasing rate gamma(t) ----------------------------------------

    def dephasing_rate(self, t: float, quad: QuadratureSpec | None = None) -> float:
        """gamma(t) = integral of J(w) coth(beta w/2) sin(w t)/w dw."""
        if t < 0:
            raise ValidationError("t must be >= 0")
        if t == 0.0:
            return 0.0
        # The rule's nodes are > 0, where sin(w t)/w is accurate as written.
        return self._spectral_integral(
            lambda w: self._dressed(w) * np.sin(t * w) / w, t, quad,
            lambda: self._rate_by_quadpack(t, quad),
        )

    def _rate_by_quadpack(self, t: float, quad: QuadratureSpec | None) -> tuple[float, float]:
        return integrate_oscillatory(
            lambda w: self._thermal(w) / w,
            "sin",
            t,
            0.0,
            math.inf,
            quad,
            scale=self.spectral.omega_c,
            head=lambda w: self._thermal(w) * t * np.sinc(w * t / math.pi),
        )

    def dephasing_rate_from_correlation(
        self, t: float, quad: QuadratureSpec | None = None
    ) -> float:
        """Independent route: Re integral of alpha(tau) for tau in (0, t)."""
        if t < 0:
            raise ValidationError("t must be >= 0")
        if t == 0.0:
            return 0.0
        value, _ = integrate_adaptive(
            lambda tau: self.bath_correlation(tau, quad).real,
            0.0,
            t,
            _CROSS_CHECK_SPEC,
        )
        return value

    # -- decoherence function Gamma(t) ----------------------------------

    def decoherence_function(self, t: float, quad: QuadratureSpec | None = None) -> float:
        """Gamma(t) = integral of J(w) coth(beta w/2) (1 - cos(w t))/w^2 dw."""
        if t < 0:
            raise ValidationError("t must be >= 0")
        if t == 0.0:
            return 0.0
        def g(w):
            # (1 - cos(w t))/w^2 = 2 (sin(w t/2)/w)^2, free of cancellation
            # at the rule's nodes (all > 0).
            half = np.sin(0.5 * t * w) / w
            return self._dressed(w) * 2.0 * half * half

        return self._spectral_integral(
            g, t, quad, lambda: self._decoherence_by_quadpack(t, quad)
        )

    def _decoherence_by_quadpack(
        self, t: float, quad: QuadratureSpec | None
    ) -> tuple[float, float]:
        def integrand(w):
            # (1 - cos x)/x^2 = (sin(x/2)/(x/2))^2 / 2, cancellation-free
            half_sinc = np.sinc(w * t / (2.0 * math.pi))
            return self._thermal(w) * 0.5 * t * t * half_sinc * half_sinc

        spec = quad or DEFAULT_QUADRATURE
        upper = spec.tail_cutoff_multiplier * self.spectral.omega_c
        if t * upper <= OSC_THRESHOLD:
            return integrate_adaptive(integrand, 0.0, upper, quad, breakpoints=(1.0 / t,))

        # Fast oscillation: keep the infrared stretch [0, 1/t] as the full
        # regularized integrand, then split 1 - cos into a smooth tail and
        # a weighted-oscillatory tail (each finite away from w = 0).
        split = 1.0 / t
        envelope = lambda w: self._thermal(w) / (w * w)  # noqa: E731
        head, head_err = integrate_adaptive(integrand, 0.0, split, quad)
        smooth, smooth_err = integrate_adaptive(envelope, split, upper, quad)
        oscillating, osc_err = integrate_oscillatory(envelope, "cos", t, split, upper, quad)
        return head + smooth - oscillating, head_err + smooth_err + osc_err

    def decoherence_function_from_rate(
        self, t: float, quad: QuadratureSpec | None = None
    ) -> float:
        """Independent route: integral of gamma(tau) for tau in (0, t)."""
        if t < 0:
            raise ValidationError("t must be >= 0")
        if t == 0.0:
            return 0.0
        value, _ = integrate_adaptive(
            lambda tau: self.dephasing_rate(tau, quad),
            0.0,
            t,
            _CROSS_CHECK_SPEC,
        )
        return value

    # -- exact solution ---------------------------------------------------

    def coherence(
        self, rho0: DensityMatrix, t: float, quad: QuadratureSpec | None = None
    ) -> complex:
        """Predicted matrix[0, 1] element at time t: the initial coherence
        damped by exp(-Gamma(t)) and rotated by exp(-2i*omega0*t)."""
        if rho0.dim != 2:
            raise ValidationError("dephasing coherence needs a 2x2 state")
        if t < 0:
            raise ValidationError("t must be >= 0")
        if rho0.matrix[0, 1] == 0:
            return 0.0j
        return self._coherence_from(rho0, t, self.decoherence_function(t, quad))

    def _coherence_from(self, rho0: DensityMatrix, t: float, gamma_int: float) -> complex:
        """:meth:`coherence` given Gamma(t), for callers that already hold it."""
        c0 = complex(rho0.matrix[0, 1])
        if c0 == 0:
            return 0.0j
        return c0 * math.exp(-gamma_int) * np.exp(-2j * self.omega0 * t)

    def channel(self, t: float, quad: QuadratureSpec | None = None) -> Superoperator:
        """Exact (time-ordered) dephasing channel at time t as a superoperator:
        populations fixed, coherence multiplied by exp(-Gamma(t) - 2i omega0 t)."""
        f = math.exp(-self.decoherence_function(t, quad)) * np.exp(-2j * self.omega0 * t)
        return Superoperator(np.diag([1.0, np.conj(f), f, 1.0]))

    def generator_at(self, t: float, quad: QuadratureSpec | None = None) -> GkslGenerator:
        """Generator of the time-local master equation at time t:
        H = omega0 sigma_z, single Lindblad operator sigma_z, rate
        gamma(t)/2 (see module docstring for the factor of two)."""
        rate = 0.5 * self.dephasing_rate(t, quad)
        if rate < 0:
            warnings.warn(
                f"dephasing rate is negative at t = {t}: the generator is "
                "not GKSL at this instant",
                NegativeRateWarning,
                stacklevel=2,
            )
        return GkslGenerator(
            self.omega0 * SIGMA_Z,
            (SIGMA_Z,),
            np.array([[rate]], dtype=complex),
            validate_psd=rate >= 0,
        )
