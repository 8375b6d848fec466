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

The spectral integrals gamma, Gamma and the real part of the bath
correlation alpha share the weight J coth and differ only in their kernel
k(w, t); each is one entry of ``_KERNELS``, which both the panel rule and
its QUADPACK fallback read on (0, cutoff); at zero coupling each is 0.  The
imaginary part of alpha, the integral of J alone, does not depend on the
temperature and is taken from its closed form.
The panel rule folds the weight and the kernel's t-independent factor into
its Gauss weights once per layout, so each integral costs one sin or cos
per node.  The integrals take an array of t, and the t that share a layout
are summed in one numpy pass: a run evaluates its grid's gamma and Gamma
columns in one call each, the rates of each Runge-Kutta step in one call
over its stage times, and each Gauss-Kronrod rule of the two-form
cross-checks (gamma = integral of Re alpha, Gamma = integral of gamma over
tau) in one call over its taus.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import NegativeRateWarning, ValidationError
from .gksl import SIGMA_Z, DensityMatrix, GkslGenerator, Superoperator, integrate_time_dependent
from .numcore import (
    DEFAULT_QUADRATURE,
    OdeSpec,
    PanelRule,
    QuadratureSpec,
    integrate_gauss_kronrod,
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


# Every spectral integral is the integral over w in (0, inf) of the weight
# J(w) coth(beta w/2) times a kernel k(w, t) = c o(w, t) / w^m, as
# kind: (c, o, (trig, m)).
# The panel rule folds c / w^m into its weights once per layout and
# evaluates only o, one sin or cos per node, at each t; the head of the
# QUADPACK fallback evaluates the whole kernel, and (trig, m) is the same
# k as trig(w t) / w^m, the form integrate_oscillatory takes.  No o
# cancels at w > 0: 1 - cos(w t) is written as 2 sin(w t/2)^2.
_KERNELS = {
    "gamma": (1.0, lambda w, t: np.sin(t * w), ("sin", 1)),
    "Gamma": (2.0, lambda w, t: np.sin(0.5 * t * w) ** 2, ("1-cos", 2)),
    "Re alpha": (1.0, lambda w, t: np.cos(t * w), ("cos", 0)),
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
        """J(w) * coth(beta w / 2) at one w > 0, the weight of the QUADPACK
        fallback (coth is 1 at T = 0)."""
        j, beta = self.spectral, self.bath.beta
        density = j.coupling * w**j.s * j.omega_c ** (1.0 - j.s) * math.exp(-w / j.omega_c)
        return density * (1.0 if self.bath.zero_temperature else 1.0 / math.tanh(0.5 * beta * w))

    # -- spectral integrals ------------------------------------------------
    #
    # Each integral over w reads one _KERNELS entry, through the panel rule
    # with the weight folded into the layout or, on fallback,
    # integrate_oscillatory with the scalar weight, on the one range
    # (0, cutoff).
    #
    # The panels are as wide as the 12-node Gauss-Legendre rule reaches.
    # On a panel of length L its remainder is L^25 (12!)^4 / (25 (24!)^3)
    # max|f^(24)|, 8.8e-39 L^25 max|f^(24)|.  For f = e^(i t w) and
    # L = 2 pi/t, one period of the kernel, that is (2 pi)^24 8.8e-39 =
    # 1.3e-19 of L; for f = e^(-w/wc) and L = 4 wc it is 4^24 8.8e-39 =
    # 2.5e-24 of L, and for their product on L <= min(2 pi/t, 4 wc),
    # |i t - 1/wc| L <= (4 pi^2 + 16)^(1/2) gives 7.5e-18 of L.  So panels
    # are at most 2 pi/t and 4 wc wide: 4 wc / 2^k for the smallest k >= 0
    # that keeps them at most 2 pi/t.  That width changes only when t
    # doubles, so a model builds each layout, its nodes, and each kernel's
    # t-independent factors folded into its weights, once.

    @cached_property
    def _layouts(self) -> dict:
        """k -> {kind: folded PanelLayout} for panels of width
        4 wc / 2^k, or None where they would outnumber max_subdivisions;
        filled by :meth:`_panel_layout`."""
        return {}

    @cached_property
    def _pole_scale(self) -> float:
        """2 pi/beta, the spacing of the poles of coth(beta w/2) at w = 2 pi
        i k/beta (inf at T = 0): the head width of every layout."""
        return math.inf if self.bath.zero_temperature else 2 * math.pi / self.bath.beta

    def _panel_weight(self, w: np.ndarray) -> np.ndarray:
        """J(w) coth(beta w/2) / w^p for the panel rule's power p, smooth
        on [0, inf)."""
        j = self.spectral
        envelope = j._prefactor * np.exp(w * (-1.0 / j.omega_c))
        if self.bath.zero_temperature:
            return envelope
        return envelope * self.bath.thermal_weight(w)

    def _folded_layouts(self, kinds, width: float) -> dict | None:
        """{kind: layout} on panels no wider than ``width``, with the
        weight J coth / w^p and the kernel's c w^(-m) folded into the Gauss
        weights; None when the panels would outnumber max_subdivisions."""
        layout = panel_layout(self._panel_rule, self.cutoff, width,
                              self.quadrature.max_subdivisions, head_width=self._pole_scale)
        if layout is None:
            return None
        weighted = layout.folded(self._panel_weight(layout.nodes))
        folded = {}
        for kind in kinds:
            c, _, (_, m) = _KERNELS[kind]
            folded[kind] = weighted.folded(c / layout.nodes**m)
        return folded

    def _layout_keys(self, t: np.ndarray) -> np.ndarray:
        """For each t >= 0, the smallest k >= 0 with 4 wc / 2^k <= 2 pi/t,
        compared in floats.  With 4 wc = m 2^e and 2 pi/t = n 2^f, m and n
        in [0.5, 1), the comparison holds from k = e - f + (m > n) on; a
        2 pi/t past the largest float (t = 0 among them) gives k = 0."""
        m, e = math.frexp(4.0 * self.spectral.omega_c)
        with np.errstate(divide="ignore", over="ignore"):
            n, f = np.frexp(np.minimum(2 * math.pi / t, sys.float_info.max))
        return np.maximum(0, e - f + (m > n))

    def _panel_layout(self, kind: str, k: int):
        """The folded layout of ``kind`` on panels of width 4 wc / 2^k,
        built once for every kind; None when it would need more than
        max_subdivisions panels."""
        if k not in self._layouts:
            self._layouts[k] = self._folded_layouts(_KERNELS, 4.0 * self.spectral.omega_c / 2**k)
        folded = self._layouts[k]
        return None if folded is None else folded[kind]

    def _spectral_integral(self, kind: str, t):
        """The integral ``kind`` of :data:`_KERNELS` at t >= 0, a float or
        an array (the result has its shape).  At t = 0 a kernel that
        vanishes there is 0 at every node, so its integral is exactly 0.

        The t that share a cached layout are integrated in one numpy pass.
        Where that layout would need more than max_subdivisions panels but
        panels 2 pi/t wide do not, a t gets a layout of its own; a t with
        neither, or whose estimate misses :attr:`quadrature`, takes one
        QUADPACK route alone."""
        times = np.asarray(t, dtype=float)
        flat = times.reshape(-1)
        if not (flat >= 0).all():
            raise ValidationError("t must be >= 0")
        if np.isinf(flat).any():
            raise ValidationError("t must be finite")
        out = np.zeros(flat.shape)
        if self.spectral.coupling == 0:  # J = 0, and so is every integral of it
            return out.reshape(times.shape) if times.ndim else 0.0
        keys = self._layout_keys(flat)
        for k in np.unique(keys).tolist():
            rows = keys == k
            layout = self._panel_layout(kind, k)
            if layout is not None:
                out[rows] = self._panel_integrals(kind, layout, flat[rows])
                continue
            for i in np.flatnonzero(rows):  # too many panels: 2 pi/t may need fewer, for this t alone
                exact = self._folded_layouts([kind], 2 * math.pi / flat[i]) if k else None
                layout = None if exact is None else exact[kind]
                out[i] = self._panel_integrals(kind, layout, flat[i:i + 1])[0]
        return out.reshape(times.shape) if times.ndim else float(out[0])

    def _panel_integrals(self, kind: str, layout, times: np.ndarray) -> np.ndarray:
        """The integral ``kind`` at each of ``times`` by the panel rule on
        ``layout``, or by QUADPACK for each t whose estimate misses (for
        every t when the layout is None)."""
        c, oscillation, (trig, m) = _KERNELS[kind]
        spec = self.quadrature

        def quadpack(rows=None):
            pairs = [integrate_oscillatory(
                lambda w: self._thermal(w) / w**m, trig, t, self.cutoff, spec,
                head=lambda w, t=t: c * self._thermal(w) * oscillation(w, t) / w**m,
                breakpoints=(self._pole_scale,),
            ) for t in (times if rows is None else times[rows]).tolist()]
            return np.array(pairs).reshape(-1, 2).T

        # g is called only at the layout's nodes
        return integrate_panels(lambda w: oscillation(w, times[:, None, None]), layout, spec,
                                fallback=quadpack)[0]

    def _tau_integral(self, f, t: float) -> float:
        """Integral of f(tau) over (0, t): the outer integral of the
        two-form cross-checks, by Gauss-Kronrod bisection that hands f the
        42 taus of each bisected interval as one array."""
        if t < 0:
            raise ValidationError("t must be >= 0")
        return integrate_gauss_kronrod(f, 0.0, t, _CROSS_CHECK_SPEC)[0]

    # -- bath correlation function -------------------------------------

    def bath_correlation(self, t: float) -> complex:
        """alpha(t): real part integral of J(w) coth(beta w/2) cos(w t),
        imaginary part -integral of J(w) sin(w t), over w in (0, inf).
        Even real part, odd imaginary part in t.  The imaginary part has
        the closed form -coupling wc^2 Gamma(s+1) (1 + x^2)^(-(s+1)/2)
        sin((s+1) atan x) at x = wc t, whose factors are summed in logs
        because each alone may overflow."""
        if not math.isfinite(t):
            raise ValidationError("t must be finite")
        real = self._spectral_integral("Re alpha", abs(t))
        j, x = self.spectral, self.spectral.omega_c * abs(t)
        imag = 0.0
        if j.coupling > 0:
            imag = math.exp(math.log(j.coupling) + 2.0 * math.log(j.omega_c)
                            + math.lgamma(j.s + 1.0) - 0.5 * (j.s + 1.0) * math.log1p(x * x)
                            ) * math.sin((j.s + 1.0) * math.atan(x))
        return complex(real, -imag if t > 0 else imag)

    # -- dephasing rate gamma(t) ----------------------------------------

    def dephasing_rate(self, t):
        """gamma(t) = integral of J(w) coth(beta w/2) sin(w t)/w dw, at a
        float t or at each t of an array."""
        return self._spectral_integral("gamma", t)

    def dephasing_rate_from_correlation(self, t: float) -> float:
        """Independent route: integral of Re alpha(tau) for tau in (0, t)."""
        return self._tau_integral(lambda tau: self._spectral_integral("Re alpha", tau), t)

    # -- decoherence function Gamma(t) ----------------------------------

    def decoherence_function(self, t):
        """Gamma(t) = integral of J(w) coth(beta w/2) (1 - cos(w t))/w^2 dw,
        at a float t or at each t of an array."""
        return self._spectral_integral("Gamma", t)

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

    def rate(times):
        gamma = model.dephasing_rate(times)
        negative_at.extend(times[gamma < 0].tolist())
        # a step evaluates its rhs twice at the last of its stage times,
        # t + h: as its sixth stage and as the derivative at its end
        if times.size > 1 and gamma[-1] < 0:
            negative_at.append(float(times[-1]))
        return gamma

    trajectory = integrate_time_dependent(*model.generator_parts, rate, rho0, t_grid, ode)
    if negative_at:
        warnings.warn(
            f"dephasing rate was negative at {len(negative_at)} Runge-Kutta "
            f"stages, first at t = {min(negative_at)}: the generator is "
            "not GKSL there",
            NegativeRateWarning,
        )

    t_grid = np.asarray(t_grid, dtype=float)
    columns = zip(t_grid.tolist(), trajectory, model.dephasing_rate(t_grid).tolist(),
                  model.decoherence_function(t_grid).tolist())
    for i, (t, state, gamma, big_gamma) in enumerate(columns):
        m = state.matrix
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
