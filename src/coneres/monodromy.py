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

Since M = A D(lambda) with lambda-independent couplings A and
D = diag(lambda^{-1/2} e^{i lambda ell_f}), the determinant is the
exponential polynomial

    det(I - M) = sum_S (-1)^|S| det A[S, S] lambda^{-|S|/2} e^{i lambda ell_S}

over edge subsets S, with ell_S the summed lengths.  CharFunction holds
the couplings as the dense E x E matrix A and the edge lengths ell, both
built once per surface.  CharFunction.values evaluates this sum, with
the minors taken from A; the Newton derivative, the matrices and null
vectors keep the stacked LU of I - M.
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


# Above this many edges the 2^E-subset sum stops paying: on a 2-vCPU Xeon
# with one BLAS thread, at batches of 22 to 2000, a hexagon double (E = 12,
# 65 terms) took 3.8-3.9 against 5.6-6.7 us per point for the LU of I - M,
# a heptagon double (E = 14, 129 terms) 7.3-7.8 against 7.0-7.9, with
# 2^14 minors to build.
MAX_SUM_EDGES = 12


class CharFunction:
    """Vectorised det(I - M(lambda)) with its analytic derivative.

    Couplings are lambda-independent, so they are computed once and held
    as the dense coupling matrix ``A`` (E x E, zero where f does not feed
    e), with the edge lengths ``ell``: M = A D(lambda).  ``values``
    evaluates the determinant as the exponential sum over the principal
    minors of ``A`` (module docstring), with the terms grouped by (|S|, ell_S) once here; above MAX_SUM_EDGES edges,
    where the 2^E minors cost more per point than an LU, it takes the LU
    determinant.  ``values_and_derivs`` keeps the LU determinant and its
    Jacobi-formula derivative: Newton runs on them, and a closed-form
    derivative of the sum would move the last bits of every refined zero.
    ``matrices`` is the dense M that null vectors factor and that the sum
    is tested against.  Everything runs over batches of lambda values, and
    ``n_evals`` counts every point; a scan runs in one process, so its
    count is exact whatever ``jobs`` says.
    """

    def __init__(self, spec: ConeSurfaceSpec):
        self.edge_index = tuple(e.id for e in spec.edges)
        pos = {eid: i for i, eid in enumerate(self.edge_index)}
        self.size = len(self.edge_index)
        self.A = np.zeros((self.size, self.size), dtype=complex)
        for f, e in spec.adjacent_pairs():
            self.A[pos[e.id], pos[f.id]] = coupling_coefficient(spec, e.id, f.id)
        self.ell = np.asarray([e.length for e in spec.edges], dtype=float)
        self.n_evals = 0
        self._terms = (self._exponential_sum()
                       if self.size <= MAX_SUM_EDGES else None)

    def _exponential_sum(self):
        """(-|S|/2, ell_S, coefficient) of every nonzero (|S|, ell_S) group.

        All 2^E principal minors come from one stacked determinant: the
        minor of S is the determinant of A with the rows and columns
        outside S replaced by those of the identity.
        """
        n = self.size
        inside = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        masked = self.A * (inside[:, :, None] * inside[:, None, :])
        idx = np.arange(n)
        masked[:, idx, idx] += 1 - inside
        k = inside.sum(axis=1)
        coeff = (-1.0) ** k * np.linalg.det(masked)
        ell_s = np.zeros(1 << n)
        for j in np.argsort(self.ell):   # ascending, so equal multisets sum equal
            ell_s += inside[:, j] * self.ell[j]
        groups: dict[tuple[int, float], complex] = {}
        for i in np.flatnonzero(coeff):
            key = (int(k[i]), float(ell_s[i]))
            groups[key] = groups.get(key, 0.0) + coeff[i]
        kept = [(size, length, c) for (size, length), c in groups.items()
                if c != 0]
        size, length, c = (np.array(column) for column in zip(*kept))
        return -0.5 * size, length, c

    def matrices(self, lam: np.ndarray) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))[:, None, None]
        # column f of M is column f of A times lam^-1/2 e^{i lam ell_f}
        return self.A * lam ** -0.5 * np.exp(1j * lam * self.ell)

    def _lu(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M, I - M and det(I - M) by stacked LU."""
        m = self.matrices(lam)
        a = -m
        idx = np.arange(self.size)
        a[:, idx, idx] += 1.0
        return m, a, np.linalg.det(a)

    def values(self, lam) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        self.n_evals += lam.size
        if self._terms is None:
            return self._lu(lam)[2]
        power, ell, coeff = self._terms
        # lam^{-k/2} e^{i lam ell} as one exponential, principal branch;
        # einsum sums each row in one fixed order (a matmul's order depends
        # on the batch), so a point's value does not depend on its batch
        terms = np.exp(np.multiply.outer(np.log(lam), power)
                       + np.multiply.outer(1j * lam, ell))
        return np.einsum("ij,j->i", terms, coeff)

    def values_and_derivs(self, lam) -> tuple[np.ndarray, np.ndarray]:
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        for _ in range(2):
            self.n_evals += lam.size
            m, a, det = self._lu(lam)
            # d/dlam of an entry multiplies it by (i*ell_f - 1/(2 lam))
            dm = m * (1j * self.ell - 0.5 / lam[:, None, None])
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
    out = null_vectors(spec, [lam], residual_threshold, seed)[0]
    if isinstance(out, NoConvergence):
        raise out
    return out


def null_vectors(spec: ConeSurfaceSpec, lams, residual_threshold: float = 1e-6,
                 seed: int = 7) -> list:
    """null_vector at every lambda of ``lams`` in one pass.

    One values call gates every lambda; the matrices of those that pass
    are built and solved as one stack, falling back to one matrix at a
    time when a member is exactly singular.  Returns the MonodromyVector,
    or the NoConvergence of a failed gate, of each lambda.
    """
    cf = char_function(spec)
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    out: list = [None] * lams.size
    if not lams.size:
        return out
    value = np.abs(cf.values(lams))
    for i in np.flatnonzero(value > residual_threshold):
        out[i] = NoConvergence(
            f"|det(I-M)| = {value[i]:.3e} exceeds {residual_threshold:.3e}; "
            "refine lambda before requesting a null vector"
        )
    ok = np.flatnonzero(~(value > residual_threshold))
    a = np.eye(cf.size, dtype=complex) - cf.matrices(lams[ok])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(cf.size) + 1j * rng.standard_normal(cf.size)
    v /= np.linalg.norm(v)
    try:
        vs, residuals = _inverse_iteration(a, np.tile(v, (ok.size, 1)))
    except np.linalg.LinAlgError:
        vs, residuals = zip(*(_nudged_inverse_iteration(m, v) for m in a))
    for i, components, residual in zip(ok, vs, residuals):
        out[i] = MonodromyVector(lam=complex(lams[i]), components=components,
                                 edge_index=cf.edge_index, residual=residual)
    return out


def _inverse_iteration(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, list]:
    """Two inverse-iteration steps on the stack a from the rows of v.

    Returns the unit vectors and their residuals |a v|.  Norms go row by
    row through np.linalg.norm, as for one matrix, so each row matches
    _nudged_inverse_iteration bit for bit.
    """
    for _ in range(2):
        w = np.linalg.solve(a, v[..., None])[..., 0]
        v = w / np.array([np.linalg.norm(row) for row in w])[:, None]
    return v, [float(np.linalg.norm(r)) for r in (a @ v[..., None])[..., 0]]


def _nudged_inverse_iteration(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """_inverse_iteration of one matrix, nudged off exact singularity."""
    for _ in range(2):
        try:
            w = np.linalg.solve(a, v)
        except np.linalg.LinAlgError:
            a = a + np.eye(len(a)) * 1e-14
            w = np.linalg.solve(a, v)
        v = w / np.linalg.norm(w)
    return v, float(np.linalg.norm(a @ v))
