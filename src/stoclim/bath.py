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

Every principal value takes one rule: cells graded geometrically (ratio 6,
down to 1e-6 of the interval) towards its ends and both sides of each kink or
jump of the numerator (``rho`` nodes, ``filter_max``), the pole as an edge, and
a 20-point Gauss-Legendre value with a 14-point check per cell.  Cells whose
two values differ by more than their share of 1e-12 of the integral of
|integrand| are bisected, for at most 100 rounds; an integral still unresolved
is a :class:`BathDomainError`.  Form factors and a callable mode density get
whole node arrays; one that does not accept arrays is mapped over them.

Conventions: hbar = k_B = 1, temperature enters as beta.  The mode-density
factor ``j(w)`` is ``4*pi*w`` by default ("paper" normalisation, linear
dispersion in three dimensions with the solid angle absorbed), or
``4*pi*w**2`` with ``dos="physical"``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
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
                raise BathConfigurationError("lamb_shift requires the quadrature kernel")
            if self.uv_cutoff is None:
                raise BathConfigurationError("lamb_shift requires a finite uv_cutoff")
        if self.uv_cutoff is not None and self.uv_cutoff <= 0:
            raise BathConfigurationError("uv_cutoff must be positive")

    def dos_factor(self, omega: float) -> float:
        """Mode-density factor j(omega)."""
        if self.dos == "paper":
            return 4.0 * math.pi * omega
        return 4.0 * math.pi * omega * omega

    def form_factor(self, i: int, rho: float) -> complex:
        """g_i(rho); elementwise on an array (see :func:`_elementwise`)."""
        if self.form_factors is None:
            return 1.0
        return _elementwise(self.form_factors[i], rho)

    def n_form_factors(self) -> int | None:
        return None if self.form_factors is None else len(self.form_factors)

    def raw_density(self, rho: float) -> float:
        """Unfiltered occupation density N(rho) for rho > 0; elementwise on an array."""
        if callable(self.mode_density):
            n = _elementwise(self.mode_density, rho)
            return n.astype(float) if np.ndim(rho) else float(n)
        if self.beta == math.inf:
            return 0.0 * rho
        x = self.beta * rho
        if np.ndim(x):
            return 1.0 / np.expm1(np.minimum(x, 700.0))
        return 0.0 if x > 700.0 else 1.0 / math.expm1(x)


def filtered_density(bath: BathSpec, rho: float) -> float:
    """Occupation density with the engineered pass band applied.

    Returns ``N(rho)`` for ``0 < rho < filter_max`` and 0 outside the band
    (or everywhere the raw density if no filter is configured); elementwise
    on an array, where the density is evaluated inside the band only.
    """
    band = rho > 0 if bath.filter_max is None else (rho > 0) & (rho < bath.filter_max)
    if not np.ndim(rho):
        return bath.raw_density(rho) if band else 0.0
    if band.all():
        return bath.raw_density(rho)
    out = np.zeros(rho.shape)
    out[band] = bath.raw_density(rho[band])
    return out


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
            raise BathDomainError(f"frequency {omega} is not in the tabulated transition set")
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
    # the delta shell at omega has weight only for 0 < omega < uv cutoff (if any)
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


def correlation_table(bath: BathSpec, bohr: BohrSet, n_couplings: int = 1) -> CorrelationTable:
    """Tabulate the reservoir constants on a transition-frequency set.

    Hermitian parts follow the delta-shell closed form; with ``lamb_shift``
    on, the anti-Hermitian parts are principal values, one per unordered
    coupling pair: the shift of (j, i) is the conjugate of that of (i, j).  A
    non-finite constant raises :class:`BathDomainError` naming the frequency
    and the coupling pair.
    """
    nf = bath.n_form_factors()
    if nf is not None and nf != n_couplings:
        raise BathConfigurationError(f"{n_couplings} couplings but {nf} form factors configured")
    minus, plus = [], []
    for w in bohr.frequencies:
        m, p = np.zeros((2, n_couplings, n_couplings), dtype=complex)
        if _shell_open(bath, w):
            g = np.array([bath.form_factor(i, w) for i in range(n_couplings)])
            shell = math.pi * bath.dos_factor(w) * np.outer(g.conj(), g)
            m[:] = shell * _emission_weight(bath, w)
            p[:] = shell * filtered_density(bath, w)
        if bath.lamb_shift and _shell_open(bath, w):
            for c, branch in ((m, "minus"), (p, "plus")):
                for i, j in combinations_with_replacement(range(n_couplings), 2):
                    s = pv_lamb_shift(bath, w, (i, j), branch=branch)
                    c[i, j] += 1j * s
                    if i != j:
                        c[j, i] += 1j * np.conj(s)
        for name, c in (("minus", m), ("plus", p)):
            if not np.isfinite(c).all():
                i, j = np.argwhere(~np.isfinite(c))[0]
                raise BathDomainError(
                    f"{name} constant of coupling pair ({i}, {j}) at omega={float(w)!r} "
                    f"is {c[i, j]}: mode density and form factors must be finite"
                )
        minus.append(m)
        plus.append(p)
    return CorrelationTable(np.array(bohr.frequencies), tuple(minus), tuple(plus), bohr.match_tol)


def high_temperature_limit(bath: BathSpec, omega: float) -> float:
    """Classical limit of both damping rates: ``4*pi**2 / beta``.

    For ``beta*omega -> 0`` the emission and absorption real parts approach
    this common value (flat form factor, analytic kernel).  Reference value
    for limit checks; requires a finite temperature.
    """
    if bath.kernel != "analytic":
        raise BathConfigurationError("high_temperature_limit is defined for the analytic kernel")
    if bath.beta == math.inf:
        raise BathDomainError("high-temperature limit undefined at zero temperature")
    return 4.0 * math.pi**2 / bath.beta


def _elementwise(f: Callable, x):
    """``f(x)``; on an array ``x``, a callable that rejects arrays (or returns
    a value of another shape) is mapped over the elements instead."""
    if not np.ndim(x):
        return f(x)
    try:
        y = np.asarray(f(x))
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


# the rule of the module docstring; at most _MAX_CELLS cells are bisected at once
_ORDERS, _GROWTH, _FINEST, _RTOL = (20, 14), 6.0, 1e-6, 1e-12
_MAX_ROUNDS, _MAX_CELLS = 100, 1000


@lru_cache(maxsize=32)
def _rule(a: float, b: float, nodes: tuple) -> tuple:
    # edges graded towards a, b and both sides of each node (a pole next to a jump
    # leaves a near-singular quotient beyond it); both orders' nodes on (0, 1)
    n = math.ceil(math.log(0.5 / _FINEST) / math.log(_GROWTH))
    s = (b - a) * np.append(0.0, np.geomspace(_FINEST, 0.5, n + 1))
    graded = [a + s, b - s[:-1], *(x + sign * s for x in nodes for sign in (1, -1))]
    (x_hi, w_hi), (x_lo, w_lo) = (np.polynomial.legendre.leggauss(k) for k in _ORDERS)
    weights = 0.5 * np.array([np.append(w_hi, 0 * w_lo), np.append(0 * w_hi, w_lo)]).T
    edges = np.unique(np.clip(np.concatenate(graded), a, b)).tolist()
    return edges, 0.5 + 0.5 * np.append(x_hi, x_lo), weights


def principal_value_integral(
    f: Callable, a: float, b: float, pole: float, excision: float | None = None, nodes=()
) -> float:
    """Cauchy principal value of ``f(x)/(x - pole)`` over (a, b).

    For ``a < pole < b`` the pole is subtracted:
    ``P int_a^b f/(x-c) = int_a^b (f(x)-f(c))/(x-c) dx + f(c) ln((b-c)/(c-a))``.
    The logarithm is exact; the quotient takes the graded rule of the module
    docstring, with the pole and ``nodes`` (kinks or jumps of ``f``) as cell
    edges.  A pole outside (a, b) leaves the same rule on ``f(x)/(x - pole)``;
    a jump of ``f`` at the pole diverges.  ``f`` is called on node arrays.
    ``excision`` is accepted and ignored.
    """
    edges, t, weights = _rule(a, b, tuple(sorted({x for x in nodes if a < x < b})))
    pole = float(pole)
    inside, k = a < pole < b, bisect_left(edges, pole)
    edges = np.array(edges[:k] + [pole] + edges[k:] if inside and edges[k] != pole else edges)
    lo, hi = edges[:-1], edges[1:]
    total, tol, f_pole = 0.0, None, 0.0
    for _ in range(_MAX_ROUNDS):
        # distances to the pole are offsets from a cell edge: the difference of
        # a rounded node would divide its rounding by a small distance
        width = hi - lo
        step = width[:, None] * t
        x, d = lo[:, None] + step, (lo - pole)[:, None] + step
        if tol is None and inside:
            y = _elementwise(f, np.concatenate((x.ravel(), [pole])))
            f_pole, y = y[-1], y[:-1].reshape(x.shape)
        else:
            y = _elementwise(f, x)
        value, check = (width[:, None] * np.dot((y - f_pole) / d, weights)).T
        err = np.abs(value - check)
        if tol is None:
            log = f_pole * math.log((b - pole) / (pole - a)) if inside else 0.0
            tol = _RTOL * (np.abs(value).sum() + abs(log)) / lo.size
            total += log
        bad = ~(err <= tol)  # a NaN counts as unresolved
        if not bad.any():
            return total + value.sum()
        total += value[~bad].sum()
        lo, hi = lo[bad], hi[bad]
        # a cell within 1e4 ulps of its ends is not bisected further
        if lo.size > _MAX_CELLS or np.any(hi - lo < 2e-12 * np.maximum(-lo, hi)):
            break
        lo, hi = np.append(lo, 0.5 * (lo + hi)), np.append(0.5 * (lo + hi), hi)
    if inside and np.all((lo == pole) | (hi == pole)):
        raise BathDomainError(f"principal value diverges: f jumps at {pole}")
    raise BathDomainError(f"integrand divergent or not finite on ({lo.min()}, {hi.max()})")


def pv_lamb_shift(
    bath: BathSpec, omega: float, pair: tuple[int, int] = (0, 0), branch: str = "minus"
) -> complex:
    """Level-shift constant of one reservoir branch.

    ``-P.V. integral_0^uv j(rho) conj(g_i(rho)) g_j(rho) W(rho) / (rho - omega)``
    with ``W = N + 1`` on the emission branch and ``W = N`` on the absorption
    branch (filtered density, spontaneous part subject to the emission flag).
    The sign convention makes the shift Hamiltonian Hermitian and is fixed by
    the product-rule identity of the generator module.

    Diagonal pairs give a plain float, cross pairs of complex form factors a
    complex constant: one :func:`principal_value_integral` whose nodes are the
    ``rho`` nodes of tabulated profiles and ``filter_max``.  Frequencies at or
    above the cutoff are a domain error, and so is a divergent integral: an
    infrared divergence, or a numerator that jumps at ``omega``.
    """
    if bath.kernel != "quadrature":
        raise BathConfigurationError("level shifts require the quadrature kernel")
    if bath.uv_cutoff is None:
        raise BathConfigurationError("level shifts require a finite uv_cutoff")
    if omega >= bath.uv_cutoff:
        raise BathDomainError(f"frequency {omega} is not below the uv cutoff {bath.uv_cutoff}")
    if branch not in ("minus", "plus"):
        raise ValueError(f"unknown branch {branch!r}")
    i, j = pair
    weight = _emission_weight if branch == "minus" else filtered_density

    def numerator(rho: np.ndarray) -> np.ndarray:
        jw = bath.dos_factor(rho) * weight(bath, rho)
        if bath.form_factors is None:
            return jw
        return np.conj(bath.form_factor(i, rho)) * bath.form_factor(j, rho) * jw

    # tabulated profiles (``config.TabulatedProfile``) are piecewise linear
    # between their ``rho`` nodes
    profiles = (bath.mode_density, *(bath.form_factors or ()))
    nodes = [float(x) for f in profiles for x in getattr(f, "rho", ())]
    nodes += [] if bath.filter_max is None else [float(bath.filter_max)]
    try:
        val = principal_value_integral(numerator, 0.0, bath.uv_cutoff, omega, nodes=nodes)
    except BathDomainError as exc:
        raise BathDomainError(f"shift integral at frequency {omega}: {exc}") from None
    return -float(val.real) if i == j or bath.form_factors is None else -complex(val)
