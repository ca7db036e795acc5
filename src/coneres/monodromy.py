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

over edge subsets S, with ell_S the summed lengths.  Each ell_S is a sum
of the distinct edge lengths u_l with multiplicities m_{S,l}, so a term
is a monomial in lambda^{-1/2} and the e^{i lambda u_l}:

    lambda^{-|S|/2} e^{i lambda ell_S}
        = (lambda^{-1/2})^{|S|} prod_l (e^{i lambda u_l})^{m_{S,l}}.

CharFunction holds the couplings as the dense E x E matrix A and the
edge lengths ell, both built once per surface.  CharFunction.values
evaluates this sum from one square root and one exponential per
distinct length, with the minors taken from A; the Newton derivative,
the matrices and null vectors keep the stacked LU of I - M.
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


# Above this many edges the 2^E-subset sum stops paying.  On a 2-vCPU Xeon
# with one BLAS thread, in us per point at batches of 22 / 200 / 2000, the
# sum against the LU of I - M took 6.1 / 0.87 / 0.40 against 4.3 / 3.8 /
# 4.4 on a hexagon double (E = 12, 65 terms), and 10.8 / 1.7 / 0.75
# against 5.7 / 5.6 / 6.3 on a heptagon double (E = 14, 129 terms), whose
# CharFunction, with its 2^14 minors, takes 98 ms to build (hexagon 21 ms).
# At one point a call the sum's chain of products costs 150 and 300 us,
# the LU 17 and 21.
MAX_SUM_EDGES = 12


@dataclass(frozen=True)
class ExponentialSum:
    """det(I - M) as sum_g coeff[g] lam^{-size[g]/2} e^{i lam ell[g]}.

    One entry per group g of edge subsets S with the same size |S| and
    the same multiset of edge lengths, so the same term; ``coeff`` sums
    (-1)^|S| det A[S, S] over the group, and groups summing to zero are
    dropped.  ``lengths`` are the distinct edge lengths u_l, ascending,
    and ``mult[g, l]`` counts the edges of length u_l in S, so
    ``ell[g] = sum_l mult[g, l] * lengths[l]`` and
    ``size[g] = sum_l mult[g, l]``.
    """
    lengths: np.ndarray    # (L,) float
    size: np.ndarray       # (G,) int, |S|
    ell: np.ndarray        # (G,) float, ell_S
    coeff: np.ndarray      # (G,) complex
    mult: np.ndarray       # (G, L) int, m_{S,l}


@functools.lru_cache(maxsize=64)
def _product_plan(keys: tuple[tuple[int, ...], ...], dim: int):
    """Products building the monomial of every exponent vector in ``keys``.

    Slot j < dim holds base factor j, and step i writes slot dim + i as
    the product of two earlier slots.  A key is one product of two built
    keys where there is such a pair, else the square of its half where
    it is even, else its largest built divisor times the rest (built
    first).  Returns the steps and each key's slot, None for the zero
    key.  Surfaces of one combinatorial type, such as all scalene
    triangle doubles, mostly share their keys, hence the cache.
    """
    built = {tuple(int(j == i) for j in range(dim)): i for i in range(dim)}
    steps: list[tuple[int, int]] = []

    def build(key: tuple[int, ...]) -> int:
        if key in built:
            return built[key]
        for part, a in built.items():
            b = built.get(_minus(key, part))
            if b is not None:
                break
        else:
            if all(k % 2 == 0 for k in key):
                a = b = build(tuple(k // 2 for k in key))
            else:
                part = max((p for p in built
                            if all(x <= k for x, k in zip(p, key))), key=sum)
                a, b = built[part], build(_minus(key, part))
        built[key] = dim + len(steps)
        steps.append((a, b))
        return built[key]

    slots = tuple(build(key) if any(key) else None for key in keys)
    return tuple(steps), slots


def _minus(key: tuple[int, ...], part: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k - p for k, p in zip(key, part))


class CharFunction:
    """Vectorised det(I - M(lambda)) with its analytic derivative.

    Couplings are lambda-independent, so they are computed once and held
    as the dense coupling matrix ``A`` (E x E, zero where f does not feed
    e), with the edge lengths ``ell``: M = A D(lambda).  Up to
    MAX_SUM_EDGES edges, ``terms`` is the exponential sum over the
    principal minors of ``A`` (module docstring) as an ExponentialSum,
    and ``values`` evaluates it from one lam^{-1/2} and one
    e^{i lam u_l} per distinct edge length: each term's monomial
    (lam^{-1/2})^{|S|} prod_l (e^{i lam u_l})^{m_{S,l}} is a fixed chain
    of products shared between terms, and the terms are summed in one
    fixed order, so a point's value does not depend on its batch.  Above
    the cap, where the 2^E minors cost more per point than an LU,
    ``terms`` is None and ``values`` takes the LU determinant.
    ``values_and_derivs`` keeps the LU determinant and its Jacobi-formula
    derivative: Newton runs on them, and a closed-form derivative of the
    sum would move the last bits of every refined zero.  ``matrices`` is
    the dense M that null vectors factor and that the sum is tested
    against.  Everything runs over batches of lambda values, and
    ``n_evals`` counts every point.
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
        self.terms = (self._exponential_sum()
                      if self.size <= MAX_SUM_EDGES else None)
        if self.terms is not None:
            keys = tuple((k, *m) for k, m in zip(self.terms.size.tolist(),
                                                 self.terms.mult.tolist()))
            self._steps, slots = _product_plan(keys, 1 + len(self.terms.lengths))
            self._sum = [(complex(c), slot)
                         for c, slot in zip(self.terms.coeff, slots)]

    def _exponential_sum(self) -> ExponentialSum:
        """The nonzero groups of subsets with equal |S| and length multiset.

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
        lengths = np.array(sorted(set(self.ell.tolist())))
        mult = (inside[:, :, None] * (self.ell[:, None] == lengths)).sum(axis=1)
        groups: dict[tuple[int, ...], list] = {}
        for i in np.flatnonzero(coeff):
            group = groups.setdefault((int(k[i]), *map(int, mult[i])), [i, 0.0])
            group[1] += coeff[i]
        kept = [(i, c) for i, c in groups.values() if c != 0]
        first = np.array([i for i, _ in kept], dtype=int)
        return ExponentialSum(lengths=lengths, size=k[first],
                              ell=(inside[first] * self.ell).sum(axis=1),
                              coeff=np.array([c for _, c in kept]),
                              mult=mult[first])

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
        if self.terms is None:
            return self._lu(lam)[2]
        # slots: lam^{-1/2} (principal), e^{i lam u_l}, then the products
        slots = [1.0 / np.sqrt(lam),
                 *np.exp(np.multiply.outer(self.terms.lengths, 1j * lam))]
        for a, b in self._steps:
            slots.append(slots[a] * slots[b])
        total = np.zeros(lam.shape, dtype=complex)
        for c, slot in self._sum:
            total += c if slot is None else c * slots[slot]
        return total

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
                # nudge the exactly singular members once off the zero, or
                # every member when no LU determinant reads exactly 0
                hit = det == 0
                lam = np.where(hit | ~hit.any(), lam * (1.0 + 1e-15) + 1e-300, lam)
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

    One values call gates every lambda, passing those with |det(I - M)|
    at most residual_threshold (so not a NaN); the matrices of those that
    pass are built and solved as one stack, in which an exactly singular
    member is nudged by 1e-14 I alone (_inverse_iteration).  Returns the
    MonodromyVector, or the NoConvergence of a failed gate, of each lambda.
    """
    cf = char_function(spec)
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    out: list = [None] * lams.size
    if not lams.size:
        return out
    value = np.abs(cf.values(lams))
    passed = value <= residual_threshold
    for i in np.flatnonzero(~passed):
        out[i] = NoConvergence(
            f"|det(I-M)| = {value[i]:.3e} exceeds {residual_threshold:.3e}; "
            "refine lambda before requesting a null vector"
        )
    ok = np.flatnonzero(passed)
    a = cf._lu(lams[ok])[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(cf.size) + 1j * rng.standard_normal(cf.size)
    v /= np.linalg.norm(v)
    vs, residuals = _inverse_iteration(a, np.tile(v, (ok.size, 1)))
    for i, components, residual in zip(ok, vs, residuals):
        out[i] = MonodromyVector(lam=complex(lams[i]), components=components,
                                 edge_index=cf.edge_index, residual=residual)
    return out


def _inverse_iteration(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, list]:
    """Two inverse-iteration steps on the stack a from the rows of v.

    Returns the unit vectors and their residuals |a v|.  When the stacked
    solve meets an exactly singular member, the members whose LU
    determinant is exactly 0 get 1e-14 I added in place, for good, and
    the stack is solved again; the others keep their bits.  Norms go row
    by row through np.linalg.norm, as for one matrix.
    """
    for _ in range(2):
        try:
            w = np.linalg.solve(a, v[..., None])[..., 0]
        except np.linalg.LinAlgError:
            hit = np.linalg.det(a) == 0
            a[hit] = a[hit] + np.eye(a.shape[-1]) * 1e-14
            w = np.linalg.solve(a, v[..., None])[..., 0]
        v = w / np.array([np.linalg.norm(row) for row in w])[:, None]
    return v, [float(np.linalg.norm(r)) for r in (a @ v[..., None])[..., 0]]
