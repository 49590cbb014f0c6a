"""Thermal reservoir kernels: damping rates and level-shift constants.

For each transition frequency ``w`` of the system, the reservoir enters the
reduced dynamics only through a pair of constants per coupling pair (i, j):

* an emission constant, whose real part
  ``pi * j(w) * conj(g_i(w)) * g_j(w) * (N(w) + 1)`` is the golden-rule
  damping rate of the downward channel, and
* an absorption constant with thermal weight ``N(w)`` in place of
  ``N(w) + 1``.

Both real parts vanish for ``w <= 0``: only channels that can deposit a
positive frequency into the reservoir are damped.  The imaginary parts are
principal-value integrals over the reservoir density and produce pure level
shifts; they can be non-zero even at frequencies whose damping rate is zero
(a shift without decay).  Shift evaluation is off by default and requires the
quadrature kernel with an ultraviolet cutoff.

Conventions: hbar = k_B = 1, temperature enters as beta.  The mode-density
factor ``j(w)`` is ``4*pi*w`` by default ("paper" normalisation, linear
dispersion in three dimensions with the solid angle absorbed), or
``4*pi*w**2`` with ``dos="physical"``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .operators import BohrSet

__all__ = [
    "BathConfigurationError",
    "BathDomainError",
    "BathSpec",
    "CorrelationTable",
    "correlation_table",
    "emission_rate",
    "absorption_rate",
    "high_temperature_limit",
    "pv_lamb_shift",
    "filtered_density",
    "principal_value_integral",
]


class BathConfigurationError(ValueError):
    """Inconsistent reservoir specification (bad kernel/flag combination)."""


class BathDomainError(ValueError):
    """Reservoir quantity requested outside its domain of definition."""


@dataclass
class BathSpec:
    """Reservoir model parameters.

    Attributes:
        beta: inverse temperature; ``math.inf`` means the vacuum state.
        kernel: ``"analytic"`` for the closed-form linear-dispersion kernel,
            ``"quadrature"`` for tabulated/quadrature evaluation (required
            for level shifts).
        dos: mode-density convention, ``"paper"`` (4*pi*w) or ``"physical"``
            (4*pi*w**2).
        form_factors: radial coupling profiles g_i(rho), one per coupling;
            ``None`` means every coupling has the flat profile g == 1.
        mode_density: ``"thermal"`` for the Planck density
            ``1/(exp(beta*rho)-1)``, or a callable rho -> N(rho).
        filter_max: if set, the engineered pass band (0, filter_max): the
            mode density is forced to zero outside it.  The "+1" spontaneous
            part of the emission weight is deliberately not filtered.
        uv_cutoff: upper integration limit for shift integrals.
        lamb_shift: evaluate the principal-value shift constants (imag parts).
        spontaneous_emission: when False, the emission weight N+1 is replaced
            by N, disabling decay through channels with an empty reservoir.
    """

    beta: float
    kernel: str = "analytic"
    dos: str = "paper"
    form_factors: Sequence[Callable[[float], complex]] | None = None
    mode_density: str | Callable[[float], float] = "thermal"
    filter_max: float | None = None
    uv_cutoff: float | None = None
    lamb_shift: bool = False
    spontaneous_emission: bool = True

    def __post_init__(self) -> None:
        if not (self.beta == math.inf or self.beta > 0):
            raise BathConfigurationError(f"beta must be positive or inf, got {self.beta}")
        if self.kernel not in ("analytic", "quadrature"):
            raise BathConfigurationError(f"unknown kernel {self.kernel!r}")
        if self.dos not in ("paper", "physical"):
            raise BathConfigurationError(f"unknown dos convention {self.dos!r}")
        if self.filter_max is not None and self.filter_max <= 0:
            raise BathConfigurationError("filter_max must be positive")
        if self.lamb_shift:
            if self.kernel != "quadrature":
                raise BathConfigurationError(
                    "lamb_shift requires the quadrature kernel"
                )
            if self.uv_cutoff is None:
                raise BathConfigurationError(
                    "lamb_shift requires a finite uv_cutoff"
                )
        if self.uv_cutoff is not None and self.uv_cutoff <= 0:
            raise BathConfigurationError("uv_cutoff must be positive")

    # -- elementary factors -------------------------------------------------

    def dos_factor(self, omega: float) -> float:
        """Mode-density factor j(omega)."""
        if self.dos == "paper":
            return 4.0 * math.pi * omega
        return 4.0 * math.pi * omega * omega

    def form_factor(self, i: int, rho: float) -> complex:
        if self.form_factors is None:
            return 1.0
        return self.form_factors[i](rho)

    def n_form_factors(self) -> int | None:
        return None if self.form_factors is None else len(self.form_factors)

    def raw_density(self, rho: float) -> float:
        """Unfiltered occupation density N(rho) for rho > 0."""
        if callable(self.mode_density):
            return float(self.mode_density(rho))
        if self.beta == math.inf:
            return 0.0
        x = self.beta * rho
        if x > 700.0:
            return 0.0
        return 1.0 / math.expm1(x)


def filtered_density(bath: BathSpec, rho: float) -> float:
    """Occupation density with the engineered pass band applied.

    Returns ``N(rho)`` for ``0 < rho < filter_max`` and 0 outside the band
    (or everywhere the raw density if no filter is configured).
    """
    if rho <= 0:
        return 0.0
    if bath.filter_max is not None and rho >= bath.filter_max:
        return 0.0
    return bath.raw_density(rho)


def _emission_weight(bath: BathSpec, rho: float) -> float:
    spont = 1.0 if bath.spontaneous_emission else 0.0
    return filtered_density(bath, rho) + spont


@dataclass(eq=False)
class CorrelationTable:
    """Reservoir constants per transition frequency.

    ``minus[k]`` and ``plus[k]`` are complex (n, n) matrices over coupling
    indices for ``frequencies[k]``: Hermitian parts are the half-rates of
    the emission/absorption channels, anti-Hermitian parts the level-shift
    constants.  (For real form factors these are just the entrywise real
    and imaginary parts.)
    """

    frequencies: np.ndarray
    minus: tuple
    plus: tuple
    match_tol: float

    def index_of(self, omega: float) -> int:
        hits = np.nonzero(np.abs(self.frequencies - omega) <= self.match_tol)[0]
        if not hits.size:
            raise BathDomainError(
                f"frequency {omega} is not in the tabulated transition set"
            )
        return int(hits[0])

    def minus_at(self, omega: float) -> np.ndarray:
        return self.minus[self.index_of(omega)]

    def plus_at(self, omega: float) -> np.ndarray:
        return self.plus[self.index_of(omega)]

    def gamma_minus(self, omega: float) -> np.ndarray:
        """Emission rate matrix: twice the Hermitian part of the minus constants."""
        m = self.minus_at(omega)
        return m + m.conj().T

    def gamma_plus(self, omega: float) -> np.ndarray:
        """Absorption rate matrix: twice the Hermitian part of the plus constants."""
        p = self.plus_at(omega)
        return p + p.conj().T

    def shift_minus(self, omega: float) -> np.ndarray:
        """Hermitian level-shift matrix of the emission branch."""
        m = self.minus_at(omega)
        return (m - m.conj().T) / 2j

    def shift_plus(self, omega: float) -> np.ndarray:
        """Hermitian level-shift matrix of the absorption branch."""
        p = self.plus_at(omega)
        return (p - p.conj().T) / 2j


def _shell_open(bath: BathSpec, omega: float) -> bool:
    # the delta shell at omega carries weight only for positive frequencies
    # below the ultraviolet cutoff (if any)
    return omega > 0 and (bath.uv_cutoff is None or omega < bath.uv_cutoff)


def emission_rate(bath: BathSpec, omega: float, i: int = 0) -> float:
    """Golden-rule rate of one downward channel at a single frequency.

    ``2*pi*j(omega)*|g_i(omega)|^2*(N(omega)+1)``; exactly zero for
    ``omega <= 0`` or at/above the uv cutoff.  Scalar companion of
    :func:`correlation_table` for kinetic models that only need the
    diagonal (single-coupling) rates.
    """
    if not _shell_open(bath, omega):
        return 0.0
    g2 = abs(bath.form_factor(i, omega)) ** 2
    return 2.0 * math.pi * bath.dos_factor(omega) * g2 * _emission_weight(bath, omega)


def absorption_rate(bath: BathSpec, omega: float, i: int = 0) -> float:
    """Golden-rule rate of one upward channel: thermal weight N in place of N+1."""
    if not _shell_open(bath, omega):
        return 0.0
    g2 = abs(bath.form_factor(i, omega)) ** 2
    return 2.0 * math.pi * bath.dos_factor(omega) * g2 * filtered_density(bath, omega)


def correlation_table(
    bath: BathSpec, bohr: BohrSet, n_couplings: int = 1
) -> CorrelationTable:
    """Tabulate the reservoir constants on a transition-frequency set.

    Hermitian parts follow the delta-shell closed form; with ``lamb_shift``
    on, the anti-Hermitian parts are computed by principal-value quadrature,
    once per unordered coupling pair: the shift of (j, i) is the complex
    conjugate of that of (i, j).
    A non-finite constant raises :class:`BathDomainError` naming the
    frequency and the coupling pair.
    """
    nf = bath.n_form_factors()
    if nf is not None and nf != n_couplings:
        raise BathConfigurationError(
            f"{n_couplings} couplings but {nf} form factors configured"
        )
    minus, plus = [], []
    for w in bohr.frequencies:
        m = np.zeros((n_couplings, n_couplings), dtype=complex)
        p = np.zeros((n_couplings, n_couplings), dtype=complex)
        if _shell_open(bath, w):
            shell = math.pi * bath.dos_factor(w)
            for i in range(n_couplings):
                for j in range(n_couplings):
                    gg = np.conj(bath.form_factor(i, w)) * bath.form_factor(j, w)
                    m[i, j] = shell * gg * _emission_weight(bath, w)
                    p[i, j] = shell * gg * filtered_density(bath, w)
        if bath.lamb_shift and _shell_open(bath, w):
            for c, branch in ((m, "minus"), (p, "plus")):
                for i, j in combinations_with_replacement(range(n_couplings), 2):
                    s = pv_lamb_shift(bath, w, (i, j), branch=branch)
                    c[i, j] += 1j * s
                    if i != j:
                        c[j, i] += 1j * np.conj(s)
        for name, c in (("minus", m), ("plus", p)):
            bad = np.argwhere(~np.isfinite(c))
            if bad.size:
                i, j = bad[0]
                raise BathDomainError(
                    f"{name} constant of coupling pair ({i}, {j}) at omega={float(w)!r} "
                    f"is {c[i, j]}: mode density and form factors must be finite"
                )
        minus.append(m)
        plus.append(p)
    return CorrelationTable(
        frequencies=np.array(bohr.frequencies),
        minus=tuple(minus),
        plus=tuple(plus),
        match_tol=bohr.match_tol,
    )


def high_temperature_limit(bath: BathSpec, omega: float) -> float:
    """Classical limit of both damping rates: ``4*pi**2 / beta``.

    For ``beta*omega -> 0`` the emission and absorption real parts approach
    this common value (flat form factor, analytic kernel).  Reference value
    for limit checks; requires a finite temperature.
    """
    if bath.kernel != "analytic":
        raise BathConfigurationError(
            "high_temperature_limit is defined for the analytic kernel"
        )
    if bath.beta == math.inf:
        raise BathDomainError("high-temperature limit undefined at zero temperature")
    return 4.0 * math.pi**2 / bath.beta


def principal_value_integral(
    f: Callable[[float], float],
    a: float,
    b: float,
    pole: float,
    excision: float | None = None,
) -> float:
    """Cauchy principal value of ``f(x)/(x - pole)`` over (a, b).

    For ``a < pole < b`` the pole is subtracted:
    ``P int_a^b f/(x-c) = int_a^b (f(x)-f(c))/(x-c) dx + f(c) ln((b-c)/(c-a))``.
    The logarithm is exact; the bounded quotient takes one adaptive
    quadrature with the pole as a break point, which it never samples.  A
    jump of ``f`` at the pole diverges (:class:`BathDomainError`).  A pole
    outside (a, b) leaves plain adaptive quadrature of ``f(x)/(x - pole)``.
    ``excision`` is accepted for compatibility and ignored.
    """
    return _principal_value(f, a, b, pole, nodes=())


def _principal_value(f, a, b, pole, nodes) -> float:
    # ``nodes`` are kinks or jumps of the numerator; those inside (a, b) are
    # handed to quad as break points, together with an interior pole, so
    # that it neither mistakes them for roundoff nor samples the pole.
    from scipy import integrate

    def quad(g, points) -> float:
        inner = sorted({x for x in points if a < x < b})
        opts = dict(limit=200 + len(inner), epsabs=1e-11, epsrel=1e-11)
        if inner:
            opts["points"] = inner
        return integrate.quad(g, a, b, **opts)[0]

    if not (a < pole < b):
        return quad(lambda x: f(x) / (x - pole), nodes)
    f_pole = f(pole)

    def quotient(x: float) -> float:
        if x == pole:
            # quad bisects down to the pole only when f jumps there
            raise BathDomainError(f"principal value diverges: f jumps at {pole}")
        return (f(x) - f_pole) / (x - pole)

    regular = quad(quotient, (*nodes, pole))
    return regular + f_pole * math.log((b - pole) / (pole - a))


def pv_lamb_shift(
    bath: BathSpec,
    omega: float,
    pair: tuple[int, int] = (0, 0),
    branch: str = "minus",
) -> complex:
    """Level-shift constant of one reservoir branch.

    ``-P.V. integral_0^uv j(rho) conj(g_i(rho)) g_j(rho) W(rho) / (rho - omega)``
    with ``W = N + 1`` on the emission branch and ``W = N`` on the absorption
    branch (filtered density, spontaneous part subject to the emission flag).
    The sign convention makes the shift Hamiltonian Hermitian and is fixed by
    the product-rule identity of the generator module.

    Diagonal pairs give a plain float; cross pairs of complex form factors
    get a complex constant, integrated leg by leg.  Each leg is one
    pole-subtracted quadrature (:func:`principal_value_integral`) with break
    points at the pole, the ``rho`` nodes of tabulated profiles and
    ``filter_max``.  Frequencies at or above the cutoff are a domain error;
    so is a divergent integral: an infrared divergence, or a numerator that
    jumps at ``omega`` (a frequency on ``filter_max``).
    """
    from scipy import integrate

    if bath.kernel != "quadrature":
        raise BathConfigurationError("level shifts require the quadrature kernel")
    if bath.uv_cutoff is None:
        raise BathConfigurationError("level shifts require a finite uv_cutoff")
    if omega >= bath.uv_cutoff:
        raise BathDomainError(
            f"frequency {omega} is not below the uv cutoff {bath.uv_cutoff}"
        )
    if branch not in ("minus", "plus"):
        raise ValueError(f"unknown branch {branch!r}")
    i, j = pair

    def numerator(rho: float) -> complex:
        gg = np.conj(bath.form_factor(i, rho)) * bath.form_factor(j, rho)
        weight = (
            _emission_weight(bath, rho)
            if branch == "minus"
            else filtered_density(bath, rho)
        )
        return complex(bath.dos_factor(rho) * gg * weight)

    legs = [lambda x: numerator(x).real]
    if i != j and bath.form_factors is not None:
        legs.append(lambda x: numerator(x).imag)
    # tabulated profiles (``config.TabulatedProfile``) are piecewise linear
    # between their ``rho`` nodes
    profiles = [bath.mode_density]
    if bath.form_factors is not None:
        profiles += [bath.form_factors[i], bath.form_factors[j]]
    nodes = {float(x) for f in profiles for x in getattr(f, "rho", ())}
    if bath.filter_max is not None:
        nodes.add(float(bath.filter_max))

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            vals = [
                _principal_value(leg, 0.0, float(bath.uv_cutoff), float(omega), nodes)
                for leg in legs
            ]
        except integrate.IntegrationWarning as exc:
            raise BathDomainError(
                f"shift integral did not converge at frequency {omega} "
                f"(infrared-divergent integrand?): {exc}"
            ) from exc
    if len(vals) == 1:
        return -vals[0]
    return -(vals[0] + 1j * vals[1])
