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
(a shift without decay).  They are taken at ``0 < w < uv_cutoff`` only: at
``w <= 0`` the table holds no shift either.  Shift evaluation is off by
default and requires an ultraviolet cutoff.  ``BathSpec.kernel`` is
validated but selects nothing.

The generator reads the table at its Bohr frequencies and drops every
frequency at or below the Bohr set's ``match_tol``, ``w = 0`` included, so
the finite ``w -> 0+`` limit of the rates (``8*pi**2/beta`` under the
``paper`` density, 0 under ``physical``) gives no channel: no pure
dephasing, and an energy-neutral spin flip has rate exactly 0.

The table is a stack over the whole frequency array: form factors, weights
and delta shells are evaluated on all open-shell frequencies at once, and
the shifts of the whole table are one principal value over an array of poles
and a stack of numerators, both branches of every coupling pair.

Every principal value takes one rule: cells graded geometrically (ratio 6,
down to 1e-6 of the interval) towards its ends and both sides of each kink or
jump of the numerator (``rho`` nodes, ``filter_max``), the pole as an edge, and
a 20-point Gauss-Legendre value with a 14-point check per cell.  Cells whose
two values differ by more than their share of 1e-12 of the integral of
|integrand| are bisected, for at most 100 rounds; an integral still unresolved
is a :class:`BathDomainError`.  Poles and numerators share the graded cells,
so each profile is evaluated on them once, and only the cell a pole cuts in
two, the pole itself and later bisections per pole; each numerator keeps its
own tolerance and takes a cell in the round it would alone.  Form factors and
a callable mode density get whole node arrays; one that does not accept
arrays is mapped over them.

Conventions: hbar = k_B = 1, temperature enters as beta.  The mode-density
factor ``j(w)`` is ``4*pi*w`` by default ("paper" normalisation, linear
dispersion in three dimensions with the solid angle absorbed), or
``4*pi*w**2`` with ``dos="physical"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .operators import BohrSet, _first_within, _unique

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
    """Inconsistent reservoir specification (bad option or flag combination)."""


class BathDomainError(ValueError):
    """Reservoir quantity requested outside its domain of definition."""


@dataclass
class BathSpec:
    """Reservoir model parameters.

    Attributes:
        beta: inverse temperature; ``math.inf`` means the vacuum state.
        kernel: ``"analytic"`` or ``"quadrature"``; validated and kept for
            configurations that name it, but it selects nothing: every
            kernel takes the same closed-form rates and, with
            ``lamb_shift``, the same principal-value shifts.
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
        if self.filter_max is not None and not self.filter_max > 0:
            raise BathConfigurationError(f"filter_max must be positive, got {self.filter_max}")
        if self.lamb_shift and self.uv_cutoff is None:
            raise BathConfigurationError("lamb_shift requires a finite uv_cutoff")
        if self.uv_cutoff is not None and not 0 < self.uv_cutoff < math.inf:
            raise BathConfigurationError(
                f"uv_cutoff must be positive and finite, got {self.uv_cutoff}"
            )

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
            return np.where(x > 700.0, 0.0, 1.0 / np.expm1(np.minimum(x, 700.0)))
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

    ``minus`` and ``plus`` are complex (F, n, n) stacks over the F
    ``frequencies``: ``minus[k]`` and ``plus[k]`` are matrices over coupling
    indices for ``frequencies[k]``.  Hermitian parts are the half-rates of
    the emission/absorption channels, anti-Hermitian parts the level-shift
    constants.  (For real form factors these are just the entrywise real
    and imaginary parts.)  Sequences of matrices are stacked on construction.
    """

    frequencies: np.ndarray
    minus: np.ndarray
    plus: np.ndarray
    match_tol: float

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.minus = np.asarray(self.minus, dtype=complex)
        self.plus = np.asarray(self.plus, dtype=complex)

    def index_of(self, omega):
        """Position of the lowest tabulated frequency within ``match_tol`` of
        ``omega``; elementwise on an array, whose first miss is named."""
        order = np.argsort(self.frequencies, kind="stable")
        hit = _first_within(self.frequencies[order], omega, self.match_tol)
        if np.any(hit < 0):
            miss = np.ravel(omega)[np.argmax(np.ravel(hit) < 0)]
            raise BathDomainError(f"frequency {miss} is not in the tabulated transition set")
        return order[hit] if np.ndim(hit) else int(order[hit])

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
    # the delta shell at omega has weight only for 0 < omega < uv cutoff (if
    # any); elementwise on an array
    cutoff = math.inf if bath.uv_cutoff is None else bath.uv_cutoff
    return (omega > 0) & (omega < cutoff)


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

    Hermitian parts follow the delta-shell closed form, evaluated on the
    whole array of open-shell frequencies (``0 < w < uv_cutoff``); with
    ``lamb_shift`` on, the anti-Hermitian parts are principal values from one
    pass over the open-shell frequencies and the numerators of both branches
    and each unordered coupling pair (one pair without form factors); the
    shift of (j, i) is the conjugate of (i, j).  Each entry is that of
    :func:`pv_lamb_shift` bit for bit, unless real and complex form factors
    mix: the real pairs then take complex arithmetic, a rounding apart.  At
    ``w <= 0`` both constants are exactly 0, shifts included, so such
    frequencies add nothing to the shift Hamiltonian.  A non-finite constant
    raises :class:`BathDomainError` naming the lowest such frequency and its
    coupling pair (emission branch first).
    """
    nf = bath.n_form_factors()
    if nf is not None and nf != n_couplings:
        raise BathConfigurationError(f"{n_couplings} couplings but {nf} form factors configured")
    freqs = np.array(bohr.frequencies, dtype=float)
    is_open = _shell_open(bath, freqs)
    w = freqs[is_open]
    g = np.array([np.broadcast_to(bath.form_factor(i, w), w.shape) for i in range(n_couplings)]).T
    shell = (math.pi * bath.dos_factor(w))[:, None, None] * (g.conj()[:, :, None] * g[:, None, :])
    minus, plus = np.zeros((2, len(freqs), n_couplings, n_couplings), dtype=complex)
    minus[is_open] = shell * _emission_weight(bath, w)[:, None, None]
    plus[is_open] = shell * filtered_density(bath, w)[:, None, None]
    if bath.lamb_shift and w.size:
        # flat couplings share one numerator; the (j, i) shift is the conjugate of (i, j)
        k = n_couplings if bath.form_factors else 1
        i, j = np.triu_indices(k)
        s = _shift_pass(bath, w, list(zip(i, j)), ("minus", "plus")).reshape(2, len(i), -1)
        shift = np.zeros((2, k, k, len(w)), dtype=s.dtype)
        shift[:, j, i] = s.conj()
        shift[:, i, j] = np.where((i == j)[:, None], s.real, s)
        minus[is_open] += 1j * np.moveaxis(shift[0], -1, 0)
        plus[is_open] += 1j * np.moveaxis(shift[1], -1, 0)
    bad = ~np.isfinite(np.stack((minus, plus), axis=1))
    if bad.any():
        k, branch, i, j = np.argwhere(bad)[0]
        c = (minus, plus)[branch][k, i, j]
        raise BathDomainError(
            f"{('minus', 'plus')[branch]} constant of coupling pair ({i}, {j}) at "
            f"omega={float(freqs[k])!r} is {c}: mode density and form factors must be finite"
        )
    return CorrelationTable(freqs, minus, plus, bohr.match_tol)


def high_temperature_limit(bath: BathSpec, omega: float) -> float:
    """Classical limit of both damping rates: ``4*pi**2 / beta``.

    For ``beta*omega -> 0`` the emission and absorption real parts approach
    this common value (flat form factor, ``paper`` density).  Reference
    value for limit checks; requires a finite temperature.
    """
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


# the rule of the module docstring; at most _MAX_CELLS cells of one pole are
# bisected at once, and the poles are taken in chunks of about _CHUNK_NODES nodes
_ORDERS, _GROWTH, _FINEST, _RTOL = (20, 14), 6.0, 1e-6, 1e-12
_MAX_ROUNDS, _MAX_CELLS, _CHUNK_NODES = 100, 1000, 2**15


class _PoleError(BathDomainError):
    """A principal value that failed, with its pole."""

    def __init__(self, message: str, pole: float) -> None:
        super().__init__(message)
        self.pole = pole


@lru_cache(maxsize=32)
def _rule(a: float, b: float, nodes: tuple) -> tuple:
    # edges graded towards a, b and both sides of each node (a pole next to a jump
    # leaves a near-singular quotient beyond it); both orders' nodes on (0, 1)
    n = math.ceil(math.log(0.5 / _FINEST) / math.log(_GROWTH))
    s = (b - a) * np.append(0.0, np.geomspace(_FINEST, 0.5, n + 1))
    graded = [a + s, b - s[:-1], *(x + sign * s for x in nodes for sign in (1, -1))]
    (x_hi, w_hi), (x_lo, w_lo) = (np.polynomial.legendre.leggauss(k) for k in _ORDERS)
    weights = 0.5 * np.array([np.append(w_hi, 0 * w_lo), np.append(0 * w_hi, w_lo)]).T
    edges = _unique(np.clip(np.concatenate(graded), a, b))
    return edges, 0.5 + 0.5 * np.append(x_hi, x_lo), weights


def _owner_sum(owner: np.ndarray, values: np.ndarray, n: int, take: np.ndarray) -> np.ndarray:
    m = len(values)
    bins, values = (owner + n * np.arange(m)[:, None])[take], values[take]
    out = np.bincount(bins, values.real, m * n)
    out = out + 1j * np.bincount(bins, values.imag, m * n) if np.iscomplexobj(values) else out
    return out.reshape(m, n)


def _unresolved(pole: float, inside: bool, lo: np.ndarray, hi: np.ndarray) -> str:
    if inside and np.all((lo == pole) | (hi == pole)):
        return f"principal value diverges: f jumps at {pole}"
    return f"integrand divergent or not finite on ({lo.min()}, {hi.max()})"


def _principal_values(f: Callable, a: float, b: float, poles: np.ndarray, nodes: tuple):
    """The rule on ``f(x)/(x - pole)`` for the 1-d ``poles`` (chunks of about
    2**15 rule nodes) and the m numerators ``f`` stacks (``f(x)`` is (m,
    *x.shape)): (m, poles).  A cell is bisected while any numerator leaves it
    unresolved; a numerator takes it in the round it would alone, by a product
    over its own cells, so each row is bit for bit its own pass.  A failed
    (numerator, pole) is dropped; the first raises :class:`_PoleError` at the end."""
    edges, t, weights = _rule(a, b, tuple(sorted({x for x in nodes if a < x < b})))
    chunk = max(1, _CHUNK_NODES // (len(edges) * len(t)))
    if len(poles) > chunk:
        parts = [poles[k : k + chunk] for k in range(0, len(poles), chunk)]
        return np.concatenate([_principal_values(f, a, b, part, nodes) for part in parts], axis=1)
    n, inside = len(poles), (a < poles) & (poles < b)

    def sums(lo, hi, y_pole, pole, y=None):
        # (value, check) per cell; distances to the pole are offsets from a
        # cell edge: the difference of a rounded node would divide its
        # rounding by a small distance
        step = (hi - lo)[..., None] * t
        quotient = (f(lo[..., None] + step) if y is None else y) - y_pole[..., None]
        quotient /= (lo - pole)[..., None] + step
        return np.moveaxis((hi - lo)[..., None] * (quotient @ weights), -1, 0)

    # every pole shares the rule's cells, so f is evaluated on them once; an
    # inner pole that is not an edge cuts its cell into two cells of its own
    lo, hi = edges[:-1], edges[1:]
    x = lo[:, None] + (hi - lo)[:, None] * t
    y = f(np.append(x, poles[inside]))
    m = len(y)
    f_pole = np.zeros((m, n), dtype=y.dtype)
    y, f_pole[:, inside] = np.split(y, [x.size], axis=1)
    k = np.searchsorted(edges, poles)
    cut = np.flatnonzero(inside & (edges[np.minimum(k, len(edges) - 1)] != poles))
    keep = np.ones((n, len(lo)), dtype=bool)
    keep[cut, k[cut] - 1] = False
    owner, cell = np.nonzero(keep)
    own, own_lo, own_hi = np.tile(cut, 2), lo[k[cut] - 1], hi[k[cut] - 1]
    own_lo, own_hi = np.append(own_lo, poles[cut]), np.append(poles[cut], own_hi)
    shared = sums(lo, hi, f_pole[:, :, None], poles[:, None], y.reshape(m, 1, *x.shape))
    shared = shared.reshape(2, m, -1).compress(keep.ravel(), axis=2)
    value, check = np.append(shared, sums(own_lo, own_hi, f_pole[:, own], poles[own]), axis=2)
    lo, hi, owner = np.append(lo[cell], own_lo), np.append(hi[cell], own_hi), np.append(owner, own)
    active = np.ones(value.shape, dtype=bool)
    total = np.zeros(f_pole.shape, dtype=value.dtype)
    total[:, inside] = f_pole[:, inside] * np.log((b - poles[inside]) / (poles[inside] - a))
    tol = _owner_sum(owner, np.abs(value), n, active) + np.abs(total)
    tol *= _RTOL / np.bincount(owner, minlength=n)
    failed = {}
    for rounds in range(_MAX_ROUNDS):
        if rounds:
            y = f(lo[:, None] + (hi - lo)[:, None] * t)
            value, check = np.zeros((2, *active.shape), dtype=total.dtype)
            for r, on in enumerate(active):
                at = owner[on]
                value[r, on], check[r, on] = sums(lo[on], hi[on], f_pole[r, at], poles[at], y[r, on])
        bad = ~(np.abs(value - check) <= tol[:, owner])  # a NaN counts as unresolved
        total += _owner_sum(owner, value, n, active & ~bad)
        active &= bad
        if not active.any():
            break
        # a pole with too many unresolved cells, or one within 1e4 ulps of its
        # ends, is not bisected further for that numerator
        narrow = hi - lo < 2e-12 * np.maximum(-lo, hi)
        stop = _owner_sum(owner, active, n, active) > _MAX_CELLS
        stop |= _owner_sum(owner, active & narrow, n, active) > 0
        for r, p in zip(*np.nonzero(stop)):
            at = active[r] & (owner == p)
            failed[r, p] = _unresolved(poles[p], inside[p], lo[at], hi[at])
        active &= ~stop[:, owner]
        live = active.any(axis=0)
        lo, hi, owner, active = lo[live], hi[live], owner[live], active[:, live]
        mid = 0.5 * (lo + hi)
        lo, hi, owner, active = np.append(lo, mid), np.append(mid, hi), np.tile(owner, 2), np.tile(active, 2)
    for r, p in zip(*np.nonzero(_owner_sum(owner, active, n, active))):
        at = active[r] & (owner == p)
        failed[r, p] = _unresolved(poles[p], inside[p], lo[at], hi[at])
    if failed:
        r, p = min(failed)
        raise _PoleError(failed[r, p], poles[p])
    return total


def principal_value_integral(f: Callable, a: float, b: float, pole, nodes=()):
    """Cauchy principal value of ``f(x)/(x - pole)`` over (a, b).

    For ``a < pole < b`` the pole is subtracted:
    ``P int_a^b f/(x-c) = int_a^b (f(x)-f(c))/(x-c) dx + f(c) ln((b-c)/(c-a))``.
    The logarithm is exact; the quotient takes the graded rule of the module
    docstring, with the pole and ``nodes`` (kinks or jumps of ``f``) as cell
    edges.  A pole outside (a, b) leaves the same rule on ``f(x)/(x - pole)``;
    a jump of ``f`` at the pole diverges.  ``f`` is called on node arrays.

    ``pole`` may be an array, giving an array of the same shape: every pole
    keeps its own cells, tolerance and bisection, but the poles share the
    rule's cells, on which ``f`` is evaluated once per chunk of about 2**15
    nodes.  The error of a failed integral is that of the first pole that
    fails.
    """
    poles = np.asarray(pole, dtype=float)
    values = _principal_values(lambda x: _elementwise(f, x)[np.newaxis], a, b, poles.ravel(), nodes)
    return values[0].reshape(poles.shape) if poles.ndim else values[0, 0].item()


def _shift_pass(bath: BathSpec, omega, pairs: list, branches: tuple) -> np.ndarray:
    """The shift constants of :func:`pv_lamb_shift` of ``branches`` x ``pairs``: one
    principal-value pass over the stacked numerators, each form factor evaluated once."""
    if bath.uv_cutoff is None:
        raise BathConfigurationError("level shifts require a finite uv_cutoff")
    omegas = np.asarray(omega, dtype=float)
    above = omegas.ravel() >= bath.uv_cutoff
    if above.any():
        w = omegas.ravel()[np.argmax(above)]
        raise BathDomainError(f"frequency {w} is not below the uv cutoff {bath.uv_cutoff}")
    couplings = {i for pair in pairs for i in pair}

    def numerators(rho: np.ndarray) -> np.ndarray:
        # j W with W = N + 1 (emission) or N (absorption), as _emission_weight gives it
        g = {i: bath.form_factor(i, rho) for i in couplings}
        dos, density = bath.dos_factor(rho), filtered_density(bath, rho)
        emitted = density + float(bath.spontaneous_emission)
        jw = [dos * (emitted if branch == "minus" else density) for branch in branches]
        return np.array([np.conj(g[i]) * g[j] * x for x in jw for i, j in pairs])

    # tabulated profiles (``config.TabulatedProfile``) are piecewise linear
    # between their ``rho`` nodes
    profiles = (bath.mode_density, *(bath.form_factors or ()))
    nodes = [float(x) for f in profiles for x in getattr(f, "rho", ())]
    nodes += [] if bath.filter_max is None else [float(bath.filter_max)]
    try:
        values = _principal_values(numerators, 0.0, bath.uv_cutoff, omegas.ravel(), nodes)
    except _PoleError as exc:
        raise BathDomainError(f"shift integral at frequency {exc.pole}: {exc}") from None
    return -values.reshape(-1, *omegas.shape)


def pv_lamb_shift(
    bath: BathSpec, omega, pair: tuple[int, int] = (0, 0), branch: str = "minus"
):
    """Level-shift constant of one reservoir branch.

    ``-P.V. integral_0^uv j(rho) conj(g_i(rho)) g_j(rho) W(rho) / (rho - omega)``
    with ``W = N + 1`` on the emission branch and ``W = N`` on the absorption
    branch (filtered density, spontaneous part subject to the emission flag).
    The sign convention makes the shift Hamiltonian Hermitian and is fixed by
    the product-rule identity of the generator module.

    Diagonal pairs give a plain float, cross pairs of complex form factors a
    complex constant: one principal value by the rule of
    :func:`principal_value_integral`, with the ``rho`` nodes of tabulated
    profiles and ``filter_max`` as nodes.  An array
    ``omega`` is one such integral over an array of poles and gives an
    array.  Frequencies at or above the cutoff are a domain error, and so is
    a divergent integral: an infrared divergence, or a numerator that jumps
    at ``omega``.  The error names the first frequency concerned.
    """
    if branch not in ("minus", "plus"):
        raise ValueError(f"unknown branch {branch!r}")
    val = _shift_pass(bath, omega, [tuple(pair)], (branch,))[0]
    val = val.real if pair[0] == pair[1] else val
    return val if np.ndim(omega) else val.item()
