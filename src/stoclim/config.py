"""JSON run configurations tying systems, reservoirs and runs together.

One file describes a run: a system block -- either an explicit Hamiltonian
with its coupling operators, or the spin-chain shorthand -- plus an
optional reservoir block and an optional run block of command defaults.

Complex matrices are nested lists whose entries are [re, im] pairs; plain
numbers are accepted for real entries.  Form factors and non-thermal mode
densities come as two-column CSV tables (rho, value) and are linearly
interpolated, clamping outside the tabulated range; a third column
supplies imaginary parts.  Validation failures raise :class:`ConfigError`
whose message names the dotted path of the offending field.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .bath import BathConfigurationError, BathSpec
from .glauber import SpinChainSpec, ising_system
from .operators import SpectralData, spectral_decompose, validate_hermitian

__all__ = [
    "ConfigError",
    "RunConfig",
    "TabulatedProfile",
    "load_config",
    "parse_config",
]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the field path."""


_TOP_KEYS = {"hamiltonian", "couplings", "cluster_tol", "spin", "bath", "run"}
_SPIN_KEYS = {"sites", "J", "boundary"}
_BATH_KEYS = {
    "beta",
    "kernel",
    "dos",
    "filter",
    "lamb_shift",
    "uv_cutoff",
    "spontaneous_emission",
    "form_factors",
    "mode_density",
}


@dataclass(eq=False)
class TabulatedProfile:
    """Tabulated (rho, value) profile with linear interpolation."""

    rho: np.ndarray
    values: np.ndarray

    def __call__(self, x: float) -> complex:
        """Interpolated value: a float (a complex if any value is) for a scalar
        ``x``, an array of the shape of ``x`` for an array."""
        value = np.interp(x, self.rho, self.values.real)
        if np.any(self.values.imag):
            value = np.array(value, dtype=complex)
            value.imag = np.interp(x, self.rho, self.values.imag)
        if np.ndim(x):
            return value
        return complex(value) if np.iscomplexobj(value) else float(value)


@dataclass(eq=False)
class RunConfig:
    """Parsed run configuration."""

    hamiltonian: np.ndarray | None
    couplings: list
    cluster_tol: float | None
    spin: SpinChainSpec | None
    bath: BathSpec | None
    run: dict

    def system(self) -> tuple[SpectralData, list]:
        """Spectral data and coupling operators of the configured system."""
        if self.spin is not None:
            h, couplings = ising_system(self.spin)
            return spectral_decompose(h, self.cluster_tol), couplings
        spec = spectral_decompose(self.hamiltonian, self.cluster_tol)
        return spec, list(self.couplings)

    def require_bath(self) -> BathSpec:
        if self.bath is None:
            raise ConfigError("bath: block required for this command")
        return self.bath


def _complex_entry(node, path: str) -> complex:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(float(node), 0.0)
    if (
        isinstance(node, list)
        and len(node) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        return complex(float(node[0]), float(node[1]))
    raise ConfigError(f"{path}: expected a number or [re, im] pair, got {node!r}")


def _complex_matrix(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{path}: expected a non-empty list of rows")
    size = len(node)
    rows = []
    for a, row in enumerate(node):
        if not isinstance(row, list) or len(row) != size:
            raise ConfigError(f"{path}[{a}]: matrix rows must have length {size}")
        rows.append(
            [_complex_entry(x, f"{path}[{a}][{b}]") for b, x in enumerate(row)]
        )
    return np.array(rows, dtype=complex)


# the largest finite float; the comparisons with it are exact for integers too,
# so an integer too large for a float is refused instead of overflowing
_FLOAT_MAX = float(np.finfo(float).max)


def _positive_real(node, path: str) -> float:
    """A finite number > 0; booleans, non-numbers, NaN and infinities are refused."""
    if isinstance(node, bool) or not isinstance(node, (int, float)) or not 0 < node <= _FLOAT_MAX:
        raise ConfigError(f"{path}: expected a finite positive number, got {node!r}")
    return float(node)


def _load_profile(name, path: str, base_dir: str) -> TabulatedProfile:
    if not isinstance(name, str):
        raise ConfigError(f"{path}: expected a CSV file name, got {name!r}")
    full = name if os.path.isabs(name) else os.path.join(base_dir, name)
    if not os.path.exists(full):
        raise ConfigError(f"{path}: file not found: {full}")
    try:
        data = np.loadtxt(full, delimiter=",", ndmin=2, comments="#")
    except ValueError as exc:
        raise ConfigError(f"{path}: could not read CSV {full}: {exc}") from exc
    if data.shape[1] not in (2, 3):
        raise ConfigError(
            f"{path}: table {full} needs 2 or 3 columns, has {data.shape[1]}"
        )
    order = np.argsort(data[:, 0])
    rho = data[order, 0]
    values = data[order, 1].astype(complex)
    if data.shape[1] == 3:
        values = values + 1j * data[order, 2]
    return TabulatedProfile(rho=rho, values=values)


def _check_fields(node, path: str, known) -> None:
    """``node`` is an object whose keys are all in ``known``."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(node) - set(known))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")


def _parse_spin(node, path: str) -> SpinChainSpec:
    _check_fields(node, path, _SPIN_KEYS)
    if "sites" not in node:
        raise ConfigError(f"{path}.sites: required")
    sites = node["sites"]
    if isinstance(sites, bool) or not isinstance(sites, int):
        raise ConfigError(f"{path}.sites: expected an integer, got {sites!r}")
    coupling = node.get("J", 1.0)
    values = coupling if isinstance(coupling, list) else [coupling]
    if any(isinstance(j, bool) or not isinstance(j, (int, float)) for j in values):
        raise ConfigError(f"{path}.J: expected a number or a list of numbers, got {coupling!r}")
    boundary = node.get("boundary", "open")
    try:
        return SpinChainSpec(n_sites=sites, coupling=coupling, boundary=boundary)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_bath(node, path: str, base_dir: str) -> BathSpec:
    _check_fields(node, path, _BATH_KEYS)
    if "beta" not in node:
        raise ConfigError(f"{path}.beta: required")
    beta = node["beta"]
    if beta == "inf":
        beta = math.inf
    elif isinstance(beta, bool) or not isinstance(beta, (int, float)):
        raise ConfigError(f'{path}.beta: expected a number or "inf", got {beta!r}')
    filter_max = None
    if "filter" in node:
        filt = node["filter"]
        if not isinstance(filt, dict) or set(filt) != {"omega_max"}:
            raise ConfigError(f'{path}.filter: expected {{"omega_max": value}}')
        filter_max = _positive_real(filt["omega_max"], f"{path}.filter.omega_max")
    form_factors = None
    if "form_factors" in node:
        ffs = node["form_factors"]
        if not isinstance(ffs, list) or not ffs:
            raise ConfigError(f"{path}.form_factors: expected a list of CSV files")
        form_factors = tuple(
            _load_profile(name, f"{path}.form_factors[{k}]", base_dir)
            for k, name in enumerate(ffs)
        )
    mode_density = node.get("mode_density", "thermal")
    if mode_density != "thermal":
        profile = _load_profile(mode_density, f"{path}.mode_density", base_dir)
        # the density is real: an imaginary column is ignored
        mode_density = TabulatedProfile(profile.rho, profile.values.real.astype(complex))
    uv_cutoff = node.get("uv_cutoff")
    if uv_cutoff is not None:
        uv_cutoff = _positive_real(uv_cutoff, f"{path}.uv_cutoff")
    for key in ("lamb_shift", "spontaneous_emission"):
        if key in node and not isinstance(node[key], bool):
            raise ConfigError(f"{path}.{key}: expected true or false")
    try:
        return BathSpec(
            beta=float(beta),
            kernel=node.get("kernel", "analytic"),
            dos=node.get("dos", "paper"),
            form_factors=form_factors,
            mode_density=mode_density,
            filter_max=filter_max,
            uv_cutoff=uv_cutoff,
            lamb_shift=node.get("lamb_shift", False),
            spontaneous_emission=node.get("spontaneous_emission", True),
        )
    except BathConfigurationError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _run_t_max(node, path: str) -> float:
    """A finite t_max > 0; booleans and non-numbers are refused."""
    if isinstance(node, bool) or not isinstance(node, (int, float)) or not 0 < node <= _FLOAT_MAX:
        raise ConfigError(f"{path}: need a finite t_max > 0, got {node!r}")
    return float(node)


def _run_points(node, path: str) -> int:
    """At least 2 points, an integral number (20 or 20.0), never truncated."""
    if isinstance(node, bool) or not isinstance(node, (int, float)) or not (
        2 <= node <= _FLOAT_MAX and node == int(node)
    ):
        raise ConfigError(f"{path}: expected an integer >= 2, got {node!r}")
    return int(node)


def _run_initial(node, path: str) -> str | int:
    """'mixed', 'gibbs' or a basis index (an integer or its decimal string)."""
    if isinstance(node, str) and re.fullmatch(r"-?[0-9]+", node):
        node = int(node)
    if node not in ("mixed", "gibbs") and (isinstance(node, bool) or not isinstance(node, int)):
        raise ConfigError(f"{path}: expected 'mixed', 'gibbs' or a basis index, got {node!r}")
    return node


# the run block's checks, which the command-line flags go through too
_RUN_FIELDS = {"t_max": _run_t_max, "points": _run_points, "initial": _run_initial}


def parse_config(doc: dict, base_dir: str = ".") -> RunConfig:
    """Validate a configuration document and build the runtime objects."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown field")
    has_h = "hamiltonian" in doc
    has_spin = "spin" in doc
    if has_h == has_spin:
        raise ConfigError(
            "exactly one of 'hamiltonian' and 'spin' must be present"
        )
    cluster_tol = None
    if "cluster_tol" in doc:
        cluster_tol = _positive_real(doc["cluster_tol"], "cluster_tol")
    hamiltonian = None
    couplings: list = []
    spin = None
    if has_h:
        hamiltonian = _complex_matrix(doc["hamiltonian"], "hamiltonian")
        try:
            hamiltonian = validate_hermitian(hamiltonian)
        except ValueError as exc:
            raise ConfigError(f"hamiltonian: {exc}") from exc
        for k, node in enumerate(doc.get("couplings", [])):
            mat = _complex_matrix(node, f"couplings[{k}]")
            if mat.shape != hamiltonian.shape:
                raise ConfigError(
                    f"couplings[{k}]: shape {mat.shape} does not match the "
                    f"hamiltonian {hamiltonian.shape}"
                )
            try:
                couplings.append(validate_hermitian(mat))
            except ValueError as exc:
                raise ConfigError(f"couplings[{k}]: {exc}") from exc
    else:
        if "couplings" in doc:
            raise ConfigError(
                "couplings: not allowed with the spin shorthand "
                "(sigma^x couplings are implied)"
            )
        spin = _parse_spin(doc["spin"], "spin")
    bath = _parse_bath(doc["bath"], "bath", base_dir) if "bath" in doc else None
    run = doc.get("run", {})
    _check_fields(run, "run", _RUN_FIELDS)
    run = {key: _RUN_FIELDS[key](value, f"run.{key}") for key, value in run.items()}
    return RunConfig(
        hamiltonian=hamiltonian,
        couplings=couplings,
        cluster_tol=cluster_tol,
        spin=spin,
        bath=bath,
        run=run,
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON configuration file."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return parse_config(doc, base_dir=os.path.dirname(os.path.abspath(path)))
