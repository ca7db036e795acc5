"""Stationary phase expansion for oscillatory integrals with quadratic phase.

Model integral over R^n:

    I(h) = integral a(x) * chi(x) * exp(i * (w/h) * <Q x, x> / 2) dx

with a polynomial amplitude a, a smooth radial cutoff chi that is 1 on
|x| <= R/2 and 0 outside |x| <= R (the one-exponential glue
1/(1 + exp(1/(1-u) - 1/u)) in u = 2|x|/R - 1), and a nondegenerate
symmetric Q.  The expansion around the stationary point x = 0 is

    I(h) ~ (2 pi h / w)^{n/2} e^{i pi sgn(Q)/4} |det Q|^{-1/2}
           * sum_k (1/k!) (i/2)^k (h/w)^k (L^k a)(0),
    L = sum_{j,l} (Q^{-1})_{jl} d_j d_l,

with remainder O(h^{order + n/2}) after `order` terms.  A brute-force
panelled Gauss-Legendre quadrature serves as the independent check; in
two dimensions it sums a tensor grid in the eigen-coordinates of Q,
where the phase factor splits into two 1-d vectors and the polynomial
amplitude into Vandermonde products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyvander

from .errors import CostBudgetExceeded, InsufficientData
from . import tolerances as tol_mod


@dataclass(frozen=True)
class QuadraticPhase:
    """Symmetric nondegenerate quadratic form, stored row-major."""
    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        a = self.array
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("quadratic form must be a square matrix")
        # `inverse` reads the whole matrix, `eigvalsh` and `eigh` one
        # triangle: symmetric to rounding, relative to the largest entry
        if not np.allclose(a, a.T, rtol=0.0,
                           atol=1e-12 * np.max(np.abs(a), initial=0.0)):
            raise ValueError("quadratic form must be symmetric")
        if np.min(np.abs(np.linalg.eigvalsh(a))) < 1e-8:
            raise ValueError("quadratic form is (nearly) degenerate")

    @classmethod
    def from_array(cls, a) -> "QuadraticPhase":
        arr = np.asarray(a, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        return cls(tuple(tuple(float(x) for x in row) for row in arr))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def signature(self) -> int:
        eigs = np.linalg.eigvalsh(self.array)
        return int(np.sum(eigs > 0) - np.sum(eigs < 0))

    @property
    def abs_det(self) -> float:
        return float(np.abs(np.prod(np.linalg.eigvalsh(self.array))))

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.array)

    @property
    def norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.array))))


@dataclass(frozen=True)
class StatPhaseProblem:
    """One concrete oscillatory integral: amplitude, phase, scales.

    amplitude_coeffs follows the numpy polynomial convention: in one
    dimension coeffs[i] multiplies x^i; in n dimensions the nested array
    C[i, j, ...] multiplies x^i y^j ...
    """
    quadratic: QuadraticPhase
    amplitude_coeffs: tuple
    w: float = 1.0
    h: float = 0.05
    cutoff_radius: float = 3.0

    def __post_init__(self):
        if self.w == 0:
            raise ValueError("frequency w must be nonzero")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.cutoff_radius <= 0:
            raise ValueError("cutoff radius must be positive")
        c = self.amplitude_array
        if c.ndim != self.quadratic.n:
            raise ValueError(
                f"amplitude coefficient array has {c.ndim} axes, "
                f"phase has {self.quadratic.n} variables"
            )

    @property
    def amplitude_array(self) -> np.ndarray:
        return np.asarray(self.amplitude_coeffs, dtype=float)

    @property
    def n(self) -> int:
        return self.quadratic.n


# ---------------------------------------------------------------------------
# the expansion


def _poly_deriv(c: np.ndarray, axis: int) -> np.ndarray:
    """d/dx_axis on an nd coefficient array (low-to-high degree per axis).

    The result has the shape of ``c``, its top coefficient along ``axis``
    0, so derivatives of one array add without padding.
    """
    out = np.zeros_like(c)
    k = np.arange(1, c.shape[axis]).reshape((-1,) + (1,) * (c.ndim - 1))
    np.moveaxis(out, axis, 0)[:-1] = np.moveaxis(c, axis, 0)[1:] * k
    return out


def _apply_transport(c: np.ndarray, qinv: np.ndarray) -> np.ndarray:
    """One application of L = sum (Q^{-1})_{jl} d_j d_l to the coefficients."""
    n = qinv.shape[0]
    return sum(qinv[j, l] * _poly_deriv(_poly_deriv(c, j), l)
               for j in range(n) for l in range(n))


def quadratic_expansion_terms(problem: StatPhaseProblem,
                              order: int) -> np.ndarray:
    """Terms 0..order-1 of the expansion, each a complex number.

    Term k already carries the overall prefactor and (h/w)^k, so the sum
    of the returned array approximates I(h) to O(h^{order + n/2}).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    q = problem.quadratic
    n = q.n
    hw = problem.h / problem.w
    pref = ((2.0 * math.pi * hw) ** (n / 2.0)
            * np.exp(1j * math.pi * q.signature / 4.0)
            / math.sqrt(q.abs_det))
    qinv = q.inverse
    c = problem.amplitude_array.astype(complex)
    terms = np.empty(order, dtype=complex)
    fact = 1.0
    for k in range(order):
        if k > 0:
            c = _apply_transport(c, qinv)
            fact *= k
        at_zero = c[(0,) * n]
        terms[k] = pref * (0.5j * hw) ** k * at_zero / fact
    return terms


def quadratic_expansion(problem: StatPhaseProblem, order: int) -> complex:
    return complex(np.sum(quadratic_expansion_terms(problem, order)))


# ---------------------------------------------------------------------------
# the quadrature oracle


def _bump_profile(u: np.ndarray) -> np.ndarray:
    """Smooth step: 1 at u<=0, 0 at u>=1.

    The standard exp(-1/u) glue g/(f+g), f = exp(-1/u), g = exp(-1/(1-u)),
    written as 1/(1 + exp(1/(1-u) - 1/u)): one exponential, and the
    infinities at the clipped ends give exactly 1 and 0.
    """
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (1.0 + np.exp(1.0 / (1.0 - u) - 1.0 / u))


def radial_cutoff(x: np.ndarray, radius: float) -> np.ndarray:
    """1 on |x| <= radius/2, 0 outside |x| <= radius, smooth between.

    x has shape (..., n) or (...,) for one dimension.
    """
    if x.ndim == 1:
        r = np.abs(x)
    else:
        r = np.sqrt(np.sum(x * x, axis=-1))
    return _bump_profile(2.0 * r / radius - 1.0)


def _panel_nodes(lo: float, hi: float, max_width: float,
                 per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    npanels = max(8, int(math.ceil((hi - lo) / max_width)))
    edges = np.linspace(lo, hi, npanels + 1)
    xg, wg = leggauss(per_panel)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _binomial_power(a: float, b: float, k: int) -> np.ndarray:
    """Coefficients of (a u + b v)^k: entry r multiplies u^r v^(k-r)."""
    return np.array([math.comb(k, r) * a ** r * b ** (k - r)
                     for r in range(k + 1)])


def _compose_rotation(c: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Coefficients in (u, v) of the 2-d polynomial c at (x, y) = rot (u, v).

    c[i, j] multiplies x^i y^j.  x^i y^j is homogeneous of degree i + j in
    (u, v), so its coefficients are the convolution of those of the two
    binomial powers, laid on the anti-diagonal p + q = i + j of the result.
    """
    d = c.shape[0] + c.shape[1] - 2
    out = np.zeros((d + 1, d + 1))
    for i, j in zip(*np.nonzero(c)):
        prod = np.convolve(_binomial_power(rot[0, 0], rot[0, 1], i),
                           _binomial_power(rot[1, 0], rot[1, 1], j))
        p = np.arange(i + j + 1)
        out[p, i + j - p] += c[i, j] * prod
    return out


def quadrature_oracle(problem: StatPhaseProblem,
                      tol: tol_mod.Tolerances = tol_mod.DEFAULT,
                      amplitude=None) -> complex:
    """Brute-force evaluation of I(h) by panelled Gauss-Legendre quadrature.

    Panel width tracks the local oscillation wavelength so each panel sees
    about one period.  Supports n = 1 and n = 2; guards a point budget and
    a smallest usable h.  `amplitude`, when given, replaces the polynomial
    (it still gets multiplied by the cutoff); it is called on points of
    shape (..., n) in the original coordinates ((...,) when n = 1).

    For n = 2 the tensor grid lies in the eigen-coordinates u of Q,
    x = P u with Q = P diag(lam) P^T.  P is orthogonal, so the Jacobian is
    1 and the radial cutoff keeps its form, and the phase splits into the
    1-d factors e_k = weights * exp(i (w/h) lam_k u_k^2 / 2).  The
    polynomial amplitude is composed with P once, to coefficients C', and
    the grid sum is e_u^T ((V_u C' V_v^T) o chi) e_v with V the Vandermonde
    matrices of the nodes: per chunk of rows one real cutoff block and two
    matrix products, no complex exponential over the grid.
    """
    if problem.h < tol.quad_min_h:
        raise InsufficientData(
            f"h={problem.h} below the oracle floor {tol.quad_min_h}"
        )
    q = problem.quadratic
    n = q.n
    if n not in (1, 2):
        raise ValueError("the quadrature oracle handles n = 1 and n = 2 only")
    R = problem.cutoff_radius
    freq = abs(problem.w) / problem.h * q.norm * R   # max |phase gradient|
    width = min(2.0 * math.pi / freq if freq > 0 else R, R / 8.0)
    nodes, weights = _panel_nodes(-R, R, width, tol.quad_points_per_panel)
    npts = nodes.size ** n
    if npts > tol.quad_budget_points:
        raise CostBudgetExceeded(
            f"oracle would need {npts:.2e} points "
            f"(budget {tol.quad_budget_points:.2e})"
        )
    qa = q.array
    scale = 1j * problem.w / problem.h * 0.5
    coeffs = problem.amplitude_array

    if n == 1:
        x = nodes
        if amplitude is None:
            amp = np.polynomial.polynomial.polyval(x, coeffs)
        else:
            amp = amplitude(x)
        vals = (amp * radial_cutoff(x, R)
                * np.exp(scale * qa[0, 0] * x * x))
        return complex(np.sum(vals * weights))

    lam, rot = np.linalg.eigh(qa)
    v2 = nodes * nodes
    e_u, e_v = weights * np.exp(scale * np.multiply.outer(lam, v2))
    e_v = np.stack([e_v.real, e_v.imag], axis=1)   # real, so one real product
    if amplitude is None:
        c_rot = _compose_rotation(coeffs, rot)
        cv = c_rot @ polyvander(nodes, c_rot.shape[1] - 1).T
    total = 0.0 + 0.0j
    chunk = max(1, int(2 ** 19 // nodes.size))
    for start in range(0, nodes.size, chunk):
        us = nodes[start:start + chunk]
        r = np.sqrt((us * us)[:, None] + v2[None, :])
        chi = _bump_profile(2.0 * r / R - 1.0)
        if amplitude is None:
            amp = polyvander(us, c_rot.shape[0] - 1) @ cv
        else:
            amp = amplitude(us[:, None, None] * rot[:, 0]
                            + nodes[None, :, None] * rot[:, 1])
        g = (amp * chi) @ e_v
        total += e_u[start:start + chunk] @ (g[:, 0] + 1j * g[:, 1])
    return complex(total)


# ---------------------------------------------------------------------------
# empirical order checks


@dataclass(frozen=True)
class OrderCheckReport:
    n: int
    order: int
    slope: float
    slope_expected: float
    h_grid: tuple[float, ...]
    errors: tuple[float, ...]

    def passed(self, margin: float = 0.3) -> bool:
        return abs(self.slope - self.slope_expected) <= margin

    def to_text(self) -> str:
        status = "ok" if self.passed() else "OFF"
        return (f"n={self.n} order={self.order}: remainder slope "
                f"{self.slope:.3f} vs expected {self.slope_expected:.2f} "
                f"[{status}]")


def order_check(make_problem, order: int, h_grid,
                tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> OrderCheckReport:
    """Empirical remainder order: slope of log|I - expansion| vs log h.

    make_problem maps h to a StatPhaseProblem; the expected slope is
    order + n/2.  Points at the oracle noise floor are dropped.
    """
    hs = sorted(float(h) for h in h_grid)
    errs, used = [], []
    n = None
    for h in hs:
        p = make_problem(h)
        n = p.n
        exact = quadrature_oracle(p, tol)
        approx = quadratic_expansion(p, order)
        err = abs(exact - approx)
        if err < 1e-11:
            continue   # below quadrature accuracy, slope would be garbage
        errs.append(err)
        used.append(h)
    if len(used) < 3:
        raise InsufficientData("too few usable h points for a slope")
    slope = float(np.polyfit(np.log(used), np.log(errs), 1)[0])
    return OrderCheckReport(
        n=int(n), order=order, slope=slope,
        slope_expected=order + n / 2.0,
        h_grid=tuple(used), errors=tuple(errs),
    )


def nonstationary_decay(h_grid, center: float = 1.2, radius: float = 0.4,
                        w: float = 1.0,
                        tol: tol_mod.Tolerances = tol_mod.DEFAULT) -> float:
    """Decay exponent of a 1-d integral whose amplitude avoids x = 0.

    With no stationary point under the support the integral decays faster
    than any power of h; the returned log-log slope should be large (the
    acceptance bar is > 3, any honest run lands far above).
    """
    if center - radius <= 0:
        raise ValueError("support must stay away from the stationary point")

    def amp(x):
        u = np.abs(x - center) / radius
        return _bump_profile(2.0 * u - 1.0)

    vals = []
    hs = sorted(float(h) for h in h_grid)
    for h in hs:
        prob = StatPhaseProblem(
            quadratic=QuadraticPhase.from_array([[2.0]]),
            amplitude_coeffs=(1.0,),
            w=w, h=h, cutoff_radius=center + radius,
        )
        val = abs(quadrature_oracle(prob, tol, amplitude=amp))
        vals.append(max(val, 1e-300))
    return float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
