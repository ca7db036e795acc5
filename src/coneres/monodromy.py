"""Leading-order transfer matrix over directed geodesic edges.

For a spectral parameter lambda in the lower half plane the matrix entry
receiving edge f into edge e (allowed only when f terminates where e
emanates) is

    M[e, f] = C(e, f) * lambda^{-1/2} * exp(i * lambda * ell_f),

where C(e, f) is the cone's diffraction coefficient at the turning angle
theta_from(e) - theta_to(f) and ell_f is the length of the incoming edge.
The power lambda^{-1/2} is the paper's lambda^{-(n-1)/2} for surfaces
(n = 2), on the principal branch.  Resonances of the model are
the zeros of det(I - M).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NotAdjacent, NoConvergence
from .diffraction import DiffractionEvaluator, diffraction_coefficient
from .geometry import ConeSurfaceSpec


@dataclass(frozen=True)
class MonodromyVector:
    lam: complex
    components: np.ndarray     # unit norm, indexed like edge_index
    edge_index: tuple[str, ...]
    residual: float            # |(I - M) v|

    def null_mass(self) -> dict[str, float]:
        return {eid: float(abs(c) ** 2)
                for eid, c in zip(self.edge_index, self.components)}


def coupling_coefficient(spec: ConeSurfaceSpec, e_id: str, f_id: str) -> complex:
    """Diffraction coefficient C(e, f) at the cone point joining f to e."""
    e = spec.edge(e_id)
    f = spec.edge(f_id)
    if f.to_point != e.from_point:
        raise NotAdjacent(f"edge {f_id!r} does not feed edge {e_id!r}")
    point = spec.cone_point(f.to_point)
    ev = DiffractionEvaluator(point.cone_angle)
    return diffraction_coefficient(ev, e.theta_from - f.theta_to)


def transfer_entry(spec: ConeSurfaceSpec, e_id: str, f_id: str,
                   lam: complex) -> complex:
    """Entry M[e, f] for the adjacency f -> e: CharFunction's reference."""
    f = spec.edge(f_id)
    c = coupling_coefficient(spec, e_id, f_id)
    lam = complex(lam)
    return c * lam ** -0.5 * np.exp(1j * lam * f.length)


class CharFunction:
    """Vectorised det(I - M(lambda)) with its analytic derivative.

    Couplings are lambda-independent, so they are computed once; matrix
    assembly, determinant (stacked LU) and the Jacobi-formula derivative
    all run over batches of lambda values.  Evaluation counts are kept for
    workload accounting.
    """

    def __init__(self, spec: ConeSurfaceSpec):
        self.edge_index = tuple(e.id for e in spec.edges)
        pos = {eid: i for i, eid in enumerate(self.edge_index)}
        rows, cols, coeffs, lengths = [], [], [], []
        for f, e in spec.adjacent_pairs():
            rows.append(pos[e.id])
            cols.append(pos[f.id])
            coeffs.append(coupling_coefficient(spec, e.id, f.id))
            lengths.append(f.length)
        self._rows = np.asarray(rows, dtype=int)
        self._cols = np.asarray(cols, dtype=int)
        self._coeffs = np.asarray(coeffs, dtype=complex)
        self._lengths = np.asarray(lengths, dtype=float)
        self.size = len(self.edge_index)
        self.n_evals = 0

    def matrices(self, lam: np.ndarray) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        m = np.zeros((lam.size, self.size, self.size), dtype=complex)
        if self._rows.size:
            vals = (self._coeffs[None, :]
                    * lam[:, None] ** -0.5
                    * np.exp(1j * lam[:, None] * self._lengths[None, :]))
            m[:, self._rows, self._cols] = vals
        return m

    def values(self, lam) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        self.n_evals += lam.size
        a = -self.matrices(lam)
        idx = np.arange(self.size)
        a[:, idx, idx] += 1.0
        return np.linalg.det(a)

    def values_and_derivs(self, lam) -> tuple[np.ndarray, np.ndarray]:
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        idx = np.arange(self.size)
        for _ in range(2):
            self.n_evals += lam.size
            m = self.matrices(lam)
            a = -m
            a[:, idx, idx] += 1.0
            det = np.linalg.det(a)
            # d/dlam of an entry multiplies it by (i*ell_f - 1/(2 lam))
            dm = np.zeros_like(m)
            if self._rows.size:
                factor = (1j * self._lengths[None, :]
                          - 0.5 / lam[:, None])
                dm[:, self._rows, self._cols] = m[:, self._rows, self._cols] * factor
            try:
                x = np.linalg.solve(a, -dm)
            except np.linalg.LinAlgError:
                # exactly singular batch member: nudge once off the zero
                lam = lam * (1.0 + 1e-15) + 1e-300
                continue
            return det, det * np.einsum("bii->b", x)
        raise NoConvergence("I - M stays exactly singular after a nudge off the zero")


@functools.lru_cache(maxsize=64)
def _char_cached(spec: ConeSurfaceSpec) -> CharFunction:
    return CharFunction(spec)


def char_function(spec: ConeSurfaceSpec) -> CharFunction:
    """Shared CharFunction for a spec (specs are immutable, so cacheable)."""
    return _char_cached(spec)


def null_vector(spec: ConeSurfaceSpec, lam: complex,
                residual_threshold: float = 1e-6,
                seed: int = 7) -> MonodromyVector:
    """Near-null direction of I - M(lambda) at a refined resonance.

    Two steps of inverse iteration from a deterministic random start; the
    caller vouches for lam being near a zero of the determinant via
    ``residual_threshold``.
    """
    cf = char_function(spec)
    value = abs(cf.values(np.asarray([complex(lam)]))[0])
    if value > residual_threshold:
        raise NoConvergence(
            f"|det(I-M)| = {value:.3e} exceeds {residual_threshold:.3e}; "
            "refine lambda before requesting a null vector"
        )
    a = np.eye(cf.size, dtype=complex) - cf.matrices(np.asarray([lam]))[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(cf.size) + 1j * rng.standard_normal(cf.size)
    v /= np.linalg.norm(v)
    for _ in range(2):
        try:
            w = np.linalg.solve(a, v)
        except np.linalg.LinAlgError:
            a = a + np.eye(cf.size) * 1e-14
            w = np.linalg.solve(a, v)
        v = w / np.linalg.norm(w)
    residual = float(np.linalg.norm(a @ v))
    return MonodromyVector(lam=complex(lam), components=v,
                           edge_index=cf.edge_index, residual=residual)
