"""Carleman weight family: sign-changing space profile, time blow-up factor,
and underflow-safe evaluation of the exponential weights.

The space profile psi integrates y/a(y) upward from 0 on the left of the
inner observation window and downward from its right edge beyond the window,
with a polynomial bridge joining the two branches twice-differentiably.  The
integrals are numpy Gauss-Legendre panels; the integrable singularity of
y/a(y) at the degenerate endpoint x = 0 is summed over halving intervals and
closed with a geometric tail.  The time factor blows up at both ends of
(0, T), so every weighted integrand vanishes there to machine precision.

The weighted space-time integrals fold each weight grid, built once per sweep
point (:meth:`CarlemanWeights.shared_grids`), with their quadrature
(:class:`_WeightedQuadrature`) and contract it in row blocks (:func:`_integrals`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .coefficients import DegeneracyCoefficient
from .pde_solver import _clipped_cell_lengths, _clipped_node_quadrature, trapezoid_time_weights

__all__ = [
    "PsiFunction",
    "CarlemanWeights",
    "build_weights",
    "time_factor",
    "default_omega_prime",
]

# Exponents below this underflow double precision; the weighted integrands are
# zero there to machine accuracy anyway.
UNDERFLOW_EXPONENT = -700.0

# The refusal of a coefficient vanishing at the right end, which the profile
# integrates up to
A_ONE_VANISHES = ("coefficient: a(1) = 0, so the weight profile's integral of "
                  "y/a(y) diverges at x = 1")

# The grid kernels (weight build, fold, contraction) work in row blocks of
# about this many bytes, so a block and its scratch stay in a core's L2 cache
# and a desk-size grid (129 x 129) is one block.
BLOCK_BYTES = 1 << 18


def block_rows(n_cols: int) -> int:
    """Rows per block of a float grid with ``n_cols`` columns."""
    return max(1, BLOCK_BYTES // (8 * max(n_cols, 1)))


# Gauss-Legendre nodes per panel of the profile integrals
QUAD_POINTS = 12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(QUAD_POINTS)


def _segment_integrals(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integral of f over each [lo_i, hi_i] (vectorized)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return half * (vals @ _GL_WEIGHTS)


# Smallest halving interval of the singular first gap.  Below it the geometric
# tail takes over; a(y) > y**2 stays a normal double there for every
# coefficient with K < 2.
_SINGULAR_FLOOR = 1e-150


def _singular_gap(f, b: float) -> float:
    """Integral of f over (0, b] with an integrable singularity at 0.

    Gauss panels on the halving intervals (b/2^(k+1), b/2^k] run down to
    about 1e-150, and the geometric tail I_K r/(1 - r), with
    r = I_K/I_(K-1), closes the sum.  The tail is exact for f = c y^p, and
    for f ~ c y^p once the panels reach the floor (the bisection sequence
    QUADPACK's QAGS extrapolates).  A non-finite panel, or a ratio r outside
    (0, 1) or within rounding of 1 (a 1/y singularity), is not integrable.
    """
    hi = b * 0.5 ** np.arange(max(2, math.ceil(math.log2(b / _SINGULAR_FLOOR))) + 1)
    half = 0.25 * hi
    with np.errstate(all="ignore"):
        pts = (0.75 * hi)[:, None] + half[:, None] * _GL_NODES
        vals = f(pts.ravel()).reshape(pts.shape)
        # the rule as 2 f_0 + sum_i w_i (f_i - f_0): its weights sum to 2
        # exactly, so a constant integrand (a = x) gives b to the last bit
        panels = half * (2.0 * vals[:, 0] + (vals - vals[:, :1]) @ _GL_WEIGHTS)
        r = panels[-1] / panels[-2]
    if not (np.all(np.isfinite(panels)) and 0.0 < r < 1.0 - 1e-12):
        raise ValueError("integrand not integrable near the degenerate endpoint")
    return math.fsum(panels) + float(panels[-1] * r / (1.0 - r))


def _cumulative_from(f, start: float, xs: np.ndarray, singular_start: bool):
    """Cumulative integral of f from `start` to each sorted abscissa in xs.

    Every gap is a Gauss-Legendre panel, except a leading gap with an
    integrable singularity at `start` = 0, which is summed over halving
    intervals by :func:`_singular_gap`.
    """
    out = np.zeros_like(xs)
    if xs.size == 0:
        return out
    first = 0.0
    if xs[0] > start:
        if singular_start:
            first = _singular_gap(f, float(xs[0]))
        else:
            first = float(_segment_integrals(f, np.array([start]), xs[:1])[0])
    out[0] = first
    if xs.size > 1:
        segs = _segment_integrals(f, xs[:-1], xs[1:])
        out[1:] = first + np.cumsum(segs)
    return out


def _hermite_bridge(v0, d0, s0, v1, d1, s1, degree: int = 5) -> np.ndarray:
    """Coefficients (ascending) of the polynomial on [0, 1] matching value,
    first and second derivative at both ends.

    Degree 5 is the minimal deterministic choice; degree 7 additionally
    forces a vanishing third derivative at both ends and serves as the
    alternative joining rule for robustness checks.
    """
    if degree == 5:
        conds = 3
    elif degree == 7:
        conds = 4
    else:
        raise ValueError(f"bridge degree must be 5 or 7, got {degree}")
    n = degree + 1
    A = np.zeros((n, n))
    b = np.zeros(n)
    b[:3] = (v0, d0, s0)
    b[conds : conds + 3] = (v1, d1, s1)
    k = np.arange(n, dtype=float)
    row = np.ones(n)
    for d in range(conds):
        # derivative d at xi = 0 picks the single coefficient d! * c_d
        A[d, d] = math.factorial(d)
        # derivative d at xi = 1 sums the falling factorials
        A[conds + d] = row
        row = row * (k - d)
    return np.linalg.solve(A, b)


class PsiFunction:
    """Sign-changing space profile of the weight family.

    Left of ``alpha_prime`` the profile is the running integral of y/a(y)
    from 0; right of ``beta_prime`` it is the negative running integral from
    ``beta_prime``; a polynomial bridge (quintic by default) joins the
    branches with matching value and two derivatives, so the profile is
    positive near 0, crosses zero at ``beta_prime`` and is negative up to
    x = 1.
    """

    # the fixed panel order; perfbench's tracer keys weight grids by it
    quad_points = QUAD_POINTS

    def __init__(
        self,
        coef: DegeneracyCoefficient,
        alpha_prime: float,
        beta_prime: float,
        bridge_degree: int = 5,
    ):
        if not 0.0 < alpha_prime < beta_prime < 1.0:
            raise ValueError(
                f"need 0 < alpha_prime < beta_prime < 1, got ({alpha_prime}, {beta_prime})"
            )
        if np.asarray(coef.eval(np.array([1.0])), dtype=float)[0] == 0.0:
            raise ValueError(A_ONE_VANISHES)
        self.coef = coef
        self.alpha_prime = float(alpha_prime)
        self.beta_prime = float(beta_prime)
        self.bridge_degree = int(bridge_degree)
        self._span = self.beta_prime - self.alpha_prime
        self._value_cache: dict = {}

        def integrand(y):
            return y / np.asarray(coef.eval(y), dtype=float)

        self._integrand = integrand

        joints = np.array([self.alpha_prime, self.beta_prime])
        if np.any(np.asarray(coef.eval(joints), dtype=float) <= 0):
            raise ValueError("coefficient must be positive at the window edges")

        self.psi_alpha = float(self._running_integral(np.array([alpha_prime]), 0.0)[0])
        # branch derivatives at the joints: alpha' ends the left branch and
        # beta' starts the right one, so no bridge is read
        (d1_l, d1_r), (d2_l, d2_r) = self.d1(joints), self.d2(joints)
        L = self._span
        bridge = _hermite_bridge(
            self.psi_alpha, L * d1_l, L * L * d2_l, 0.0, L * d1_r, L * L * d2_r,
            degree=self.bridge_degree,
        )
        # the bridge polynomial and its first three derivatives in xi
        self._bridge = [P.polyder(bridge, k) for k in range(4)]

        xi = np.linspace(0.0, 1.0, 2001)
        bridge_vals = P.polyval(xi, bridge)
        self.psi_one = float(self.value(np.array([1.0]))[0])
        branch_mag = max(abs(self.psi_alpha), abs(self.psi_one), 1e-300)
        if np.max(np.abs(bridge_vals)) > 10.0 * branch_mag:
            raise ValueError(
                "bridge overshoot: the joining polynomial exceeds 10x the branch "
                "magnitudes (window placement is pathological)"
            )

        # Sup norm by dense sampling plus the branch endpoint values; the left
        # branch is increasing and the right branch decreasing, so their
        # extremes sit at the joints and at x = 1.
        dense = np.linspace(0.0, 1.0, 10001)
        vals = self.value(dense)
        self.psi_sup = float(
            max(np.max(np.abs(vals)), abs(self.psi_alpha), abs(self.psi_one))
        )
        if not (self.psi_alpha > 0.0 and self.psi_one < 0.0):
            raise ValueError("profile lost its sign structure; coefficient inadmissible")

    # -- branch dispatch --------------------------------------------------------
    def _masks(self, x: np.ndarray):
        left = x <= self.alpha_prime
        right = x >= self.beta_prime
        mid = ~(left | right)
        return left, mid, right

    def _xi(self, x: np.ndarray) -> np.ndarray:
        return (x - self.alpha_prime) / self._span

    def _running_integral(self, xs: np.ndarray, start: float) -> np.ndarray:
        """Integral of y/a(y) from ``start`` (0, the singular end, or
        ``beta_prime``) to each entry of xs, in any order.  Repeated entries
        share one value: a zero-width panel at 0 would evaluate 0/a(0)."""
        uniq, inverse = np.unique(xs, return_inverse=True)
        return _cumulative_from(self._integrand, start, uniq, start == 0.0)[inverse]

    def _derivative(self, x, k: int, branch) -> np.ndarray:
        """k-th derivative: ``branch(x, a, a', ...)`` (the coefficient and its
        first k-1 derivatives) left of the window, its negative right of it,
        and the bridge's k-th derivative over span**k inside."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        coef = self.coef
        out = np.empty_like(x)
        left, mid, right = self._masks(x)
        with np.errstate(all="ignore"):
            derivs = (coef.eval, coef.eval_deriv, coef.eval_deriv2)[:k]
            core = branch(x, *(np.asarray(f(x), dtype=float) for f in derivs))
            out[left] = core[left]
            out[right] = -core[right]
        if np.any(mid):
            out[mid] = P.polyval(self._xi(x[mid]), self._bridge[k]) / self._span**k
        return out

    # -- evaluators --------------------------------------------------------------
    def value(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        key = x.tobytes()
        cached = self._value_cache.get(key)
        if cached is not None:
            return cached.copy()
        out = np.empty_like(x)
        left, mid, right = self._masks(x)
        if np.any(left):
            out[left] = self._running_integral(x[left], 0.0)
        if np.any(right):
            out[right] = -self._running_integral(x[right], self.beta_prime)
        if np.any(mid):
            out[mid] = P.polyval(self._xi(x[mid]), self._bridge[0])
        if len(self._value_cache) > 64:
            self._value_cache.clear()
        self._value_cache[key] = out.copy()
        return out

    def d1(self, x) -> np.ndarray:
        """First derivative; on the branches this is +-x/a(x) (x > 0)."""
        return self._derivative(x, 1, lambda x, a: x / a)

    def d2(self, x) -> np.ndarray:
        return self._derivative(x, 2, lambda x, a, da: (a - x * da) / a**2)

    def d3(self, x) -> np.ndarray:
        if self.coef.eval_deriv2 is None:
            raise ValueError(
                f"coefficient {self.coef.label!r} has no second derivative; "
                "third profile derivative unavailable"
            )
        return self._derivative(
            x, 3, lambda x, a, da, d2a: (-x * d2a * a - 2.0 * da * (a - x * da)) / a**3
        )


def time_factor(ts, T: float):
    """(theta, theta', theta'') on the time grid ts, with theta = 1/[t(T-t)]^4;
    exactly zero wherever t is not in (0, T).  A horizon T at which theta
    underflows to zero or a factor overflows on the grid is a ValueError
    naming T."""
    ts = np.asarray(ts, dtype=float)
    th, th1, th2 = np.zeros((3,) + ts.shape)
    inner = (ts > 0.0) & (ts < T)
    t = ts[inner]
    with np.errstate(all="ignore"):  # checked below
        g = t * (T - t)
        gp = T - 2.0 * t
        th[inner] = g**-4
        th1[inner] = -4.0 * gp * g**-5
        th2[inner] = 20.0 * gp * gp * g**-6 + 8.0 * g**-5
    if not (np.all(th[inner] > 0.0) and np.all(np.isfinite((th, th1, th2)))):
        raise ValueError(
            f"theta = [t(T-t)]**-4 and its first two time derivatives are not "
            f"representable in double precision on the time grid at T={T:g}"
        )
    return th, th1, th2


def default_omega_prime(omega) -> tuple[float, float]:
    """Inner window compactly contained in the control region: trim a quarter
    of the width from each side."""
    a, b = omega
    q = 0.25 * (b - a)
    return (a + q, b - q)


def _check_s(s: float) -> None:
    """Refuse by name an s that is not a positive finite number."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")


def _grid_args(ts, xs, s: float, k: float) -> tuple:
    """(ts, xs) as 1-d float arrays, after refusing by name an s that is not
    positive and finite or a negative k."""
    _check_s(s)
    if k < 0.0:
        raise ValueError(f"k must be >= 0, got {k}")
    return np.atleast_1d(np.asarray(ts, dtype=float)), np.atleast_1d(np.asarray(xs, dtype=float))


class CarlemanWeights:
    """Weight bundle for fixed profile, lambda and horizon.

    Exposes the space factor eta = exp(lam*(sup+psi)) and, on tensor grids,
    the underflow-safe product exp(2*s*phi)*sigma**k, where sigma =
    theta*eta, phi = theta*(eta - exp(3*lam*sup)) and theta is
    :func:`time_factor`.
    """

    def __init__(self, psi: PsiFunction, lam: float, T: float):
        if not lam > 0.0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if not T > 0.0:
            raise ValueError(f"T must be positive, got {T}")
        self.psi = psi
        self.lam = float(lam)
        self.T = float(T)
        self.coef = psi.coef
        self.psi_sup = psi.psi_sup
        with np.errstate(over="ignore"):
            self.c3 = float(np.exp(3.0 * self.lam * self.psi_sup))
        if not math.isfinite(self.c3):
            raise ValueError(
                f"exp(3*lambda*sup psi) overflows double precision at lambda={self.lam:g}"
            )
        self._shared: dict | None = None

    # -- space factor --------------------------------------------------------------
    def eta(self, x) -> np.ndarray:
        return np.exp(self.lam * (self.psi_sup + self.psi.value(x)))

    # -- weight grids --------------------------------------------------------------
    def weight_grid(self, ts, xs, s: float, k: float) -> np.ndarray:
        """exp(2*s*phi + k*log(sigma)) on the tensor grid ts x xs.

        Rows with t in {0, T} are exactly zero (the limit of the product), and
        exponents below -700 flush to zero.
        """
        ts, xs = _grid_args(ts, xs, s, k)
        return self._memo(
            ("weight", float(s), float(k), ts.tobytes(), xs.tobytes()),
            lambda: self._build_grid(ts, xs, s, k),
        )

    @contextmanager
    def shared_grids(self):
        """Build each distinct grid once while the block is open.

        Inside the block :meth:`weight_grid` returns one read-only array per
        distinct (ts, xs, s, k), and :meth:`_memo` keeps one value per key,
        so callers that evaluate the same integrals for many samples share
        the grids instead of rebuilding them.  The block keeps nothing when
        it closes: a grid lives as long as something references it.  A block
        opened inside another one has its own memo and restores the outer
        one on exit.
        """
        outer, self._shared = self._shared, {}
        try:
            yield self
        finally:
            self._shared = outer

    def _memo(self, key, build):
        """``build()``, kept under ``key`` while :meth:`shared_grids` is open.

        Inside the block the first request of a key builds the value and
        every later one returns it; an array value is made read-only.
        Outside the block every request builds afresh.
        """
        if self._shared is None:
            return build()
        value = self._shared.get(key)
        if value is None:
            value = self._shared[key] = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return value

    def visible_rows(self, ts, xs, s: float, k: float) -> np.ndarray:
        """The indices into ts of the rows on which :meth:`weight_grid` of
        (ts, xs, s, k) can be nonzero, after the same refusals: the rows it
        builds.  Every other row of that grid is exactly zero."""
        return self._visible(*_grid_args(ts, xs, s, k), s, k)[0]

    def _visible(self, ts: np.ndarray, xs: np.ndarray, s: float, k: float) -> tuple:
        """(rows, live, factors): the grid rows that may be nonzero, their
        positions among the interior rows (t in (0, T)) and the factors the
        build forms them from, (theta, eta - c3, -4*log(g), log(eta)) on the
        interior rows and the columns (None for the logs at k = 0; no
        factors when no row is interior).

        A row whose largest exponent lies below the clamp (less a unit
        margin) is zero, and one whose exponential overflows is refused by
        name.  That exponent comes from the same rounded operations on the
        row's largest space factors, eta's largest entry and so eta - c3's;
        rounding is monotone, so it is exact.
        """
        rows = np.flatnonzero((ts > 0.0) & (ts < self.T))
        if rows.size == 0:
            return rows, rows, None
        ti = ts[rows]
        # g stays here rather than coming from time_factor: k*log(sigma) adds
        # -4*log(g), which rounds differently from log(g**-4)
        g = ti * (self.T - ti)
        eta = self.eta(xs)
        em = eta - self.c3
        two_s = 2.0 * s
        # the largest |2*s*theta*(eta - c3)| by the grid's rounded operations on
        # its extreme factors, in Python floats, which raise or reach inf silently
        try:
            reach = float(g.min()) ** -4 * float(-em.min()) * float(two_s)
        except (OverflowError, ZeroDivisionError):
            reach = math.inf
        if reach == math.inf:
            raise ValueError(
                f"the weight exponent 2*s*theta*(eta - c3) overflows double precision "
                f"at s={s:g}, lambda={self.lam:g}"
            )
        theta = g**-4
        top = theta * em.max() * two_s
        log_g = log_eta = None
        if k > 0.0:
            log_g = -4.0 * np.log(g)
            log_eta = np.log(eta)
            top += (log_g + log_eta.max()) * k
            try:  # math.exp raises where np.exp would reach inf
                math.exp(float(top.max()))
            except OverflowError:
                raise ValueError(
                    f"the weight exp(2*s*phi)*sigma**k overflows double precision "
                    f"at s={s:g}, lambda={self.lam:g}, k={k:g}"
                ) from None
        live = (~(top < UNDERFLOW_EXPONENT - 1.0)).nonzero()[0]
        return rows[live], live, (theta, em, log_g, log_eta)

    def _build_grid(self, ts: np.ndarray, xs: np.ndarray, s: float, k: float) -> np.ndarray:
        """exp(2*s*phi + k*log(sigma)), built in row blocks with the
        operations, and so the bits, of
        exp(2*s*outer(theta, eta - c3) + k*log(sigma)) clamped at -700, on
        the rows of :meth:`_visible`; the others are zero.
        """
        out = np.empty((ts.size, xs.size))
        # the grid rows to build, and their positions in theta
        rows, live, factors = self._visible(ts, xs, s, k)
        if factors is None:
            out[...] = 0.0
            return out
        theta, em, log_g, log_eta = factors
        two_s = 2.0 * s
        step = block_rows(xs.size)
        mask = np.empty((min(step, rows.size), xs.size), dtype=bool)
        if k > 0.0:
            scratch = np.empty(mask.shape)
        # runs of rows consecutive in the grid; the rows before each run and
        # after the last are zero
        cuts = []
        if rows.size and rows[-1] - rows[0] + 1 != rows.size:
            cuts = ((rows[1:] - rows[:-1] != 1).nonzero()[0] + 1).tolist()
        done = 0
        for j0, j1 in zip([0, *cuts], [*cuts, rows.size]):
            if j0 == j1:
                continue
            first, p0 = int(rows[j0]), int(live[j0])
            out[done:first] = 0.0
            done = first + j1 - j0
            for a in range(0, j1 - j0, step):
                n = min(step, j1 - j0 - a)
                o = out[first + a : first + a + n]
                p = p0 + a
                np.multiply(theta[p : p + n, None], em, out=o)
                o *= two_s
                if k > 0.0:
                    t = scratch[:n]
                    np.add(log_g[p : p + n, None], log_eta, out=t)
                    t *= k
                    o += t
                keep = np.greater(o, UNDERFLOW_EXPONENT, out=mask[:n])
                np.exp(o, out=o, where=keep)
                np.copyto(o, 0.0, where=np.logical_not(keep, out=keep))
        out[done:] = 0.0
        return out

    def exp_s_phi_grid(self, ts, xs, s: float) -> np.ndarray:
        """exp(s*phi) on the tensor grid, zero at t in {0, T} and below underflow:
        the weight grid of s/2 and k = 0."""
        ts, xs = _grid_args(ts, xs, s, 0.0)
        return self._build_grid(ts, xs, 0.5 * s, 0.0)

    # -- branch-safe space composites ----------------------------------------------
    def space_composites(self, xs) -> dict:
        """Pointwise x-factors entering the weighted-operator identities.

        Every entry has a finite limit at x = 0 (taken explicitly):

        * ``eta``  : exp(lam*(sup+psi))
        * ``c1``   : a*psi', equal to +-x on the branches
        * ``c1p``  : (a*psi')'
        * ``c1pp`` : (a*psi')''
        * ``c2``   : a*psi'**2 = x**2/a on the branches
        * ``c3x``  : a*(a*psi'**2)'
        * ``c4``   : a'*(a*psi') = +-x*a'(x)
        * ``c5``   : (a*psi')*(a*psi'**2)'
        * ``a``, ``ap`` : the coefficient and its derivative
        """
        psi = self.psi
        coef = self.coef
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        n = xs.size
        eta = self.eta(xs)
        a = np.asarray(coef.eval(xs), dtype=float)
        pos = xs > 0.0
        left, mid, _ = psi._masks(xs)
        # +1 on the left branch and -1 on the right, where a*psi' = sign*x;
        # the bridge entries and the x = 0 limits are overwritten below
        sign = np.where(left, 1.0, -1.0)
        c1pp = np.zeros(n)
        ap = np.zeros(n)
        with np.errstate(all="ignore"):
            ap[pos] = np.asarray(coef.eval_deriv(xs[pos]), dtype=float)
            c1 = sign * xs
            c1p = sign.copy()
            c2 = xs**2 / a
            # a*(x^2/a)' = x*(2a - x a')/a = x*(2 - x a'/a)
            q = 2.0 - xs * ap / a
            c3x = xs * q
            c4 = c1 * ap
            # (a psi')(a psi'^2)' = sign*(x^2/a)*(2 - x a'/a)
            c5 = (sign * c2) * q
            if np.any(mid):
                xm = xs[mid]
                am = a[mid]
                apm = ap[mid]
                p1 = psi.d1(xm)
                p2 = psi.d2(xm)
                p3 = psi.d3(xm) if coef.eval_deriv2 is not None else None
                a2m = (
                    np.asarray(coef.eval_deriv2(xm), dtype=float)
                    if coef.eval_deriv2 is not None
                    else None
                )
                c1[mid] = am * p1
                c1p[mid] = apm * p1 + am * p2
                if p3 is not None:
                    c1pp[mid] = a2m * p1 + 2.0 * apm * p2 + am * p3
                else:
                    c1pp[mid] = np.nan
                c2[mid] = am * p1 * p1
                c3x[mid] = am * (apm * p1 * p1 + 2.0 * am * p1 * p2)
                c4[mid] = apm * am * p1
                c5[mid] = (am * p1) * (apm * p1 * p1 + 2.0 * am * p1 * p2)
        # x = 0 limits: the degenerate factor kills every composite
        at0 = ~pos
        for arr in (c1, c2, c3x, c4, c5):
            arr[at0] = 0.0
        c1p[at0] = 1.0
        c1pp[at0] = 0.0
        ap[at0] = np.where(np.isfinite(ap[at0]), ap[at0], 0.0)
        return {
            "eta": eta,
            "a": a,
            "ap": ap,
            "c1": c1,
            "c1p": c1p,
            "c1pp": c1pp,
            "c2": c2,
            "c3x": c3x,
            "c4": c4,
            "c5": c5,
        }


def build_weights(
    coef: DegeneracyCoefficient,
    lam: float,
    T: float,
    alpha_prime: float,
    beta_prime: float,
    bridge_degree: int = 5,
) -> CarlemanWeights:
    """Build the full weight bundle for one coefficient and window."""
    return CarlemanWeights(PsiFunction(coef, alpha_prime, beta_prime, bridge_degree), lam, T)


class _Abscissae(NamedTuple):
    """The time levels and their trapezoid weights, the nodes and the faces
    of a trajectory grid, the step level ``first`` of its first time row,
    and ``key``, the hashable part of every quadrature key on it."""

    mesh: object
    ts: np.ndarray
    tw: np.ndarray
    faces: np.ndarray
    first: int
    key: tuple


def _abscissae(traj, weights: CarlemanWeights, stack: bool = False) -> _Abscissae:
    """The abscissae of the trajectory grid of ``traj`` on [0, T], the
    horizon of ``weights``: one trajectory ``(M+1, N+1)``, or with ``stack``
    a stack ``(S, M+1, N+1)``; another shape is refused by name.  The time
    levels and their weights are those of the whole horizon cut to the
    trajectory's window of levels (see :class:`~carleman_lab.pde_solver.Trajectory`),
    so a window's weights are bit for bit the whole trajectory's.

    Built once per open :meth:`CarlemanWeights.shared_grids` block, so the
    quadrature requests of every sample at one sweep point share one time
    grid and one key, whose bytes are hashed once.
    """
    mesh, T, shape = traj.mesh, traj.T, np.shape(traj.values)
    if len(shape) != 2 + stack or shape[-1] != mesh.nodes.size:
        want = "a stack (S, M+1, N+1)" if stack else "one trajectory (M+1, N+1)"
        raise ValueError(f"the values must be {want}, N+1 = {mesh.nodes.size}; got shape {shape}")
    if abs(T - weights.T) > 1e-12 * max(1.0, weights.T):
        raise ValueError("trajectory and weights disagree on the horizon")
    M, first, stop = traj.M, traj.first, traj.first + shape[-2]
    if not 0 <= first <= stop <= M + 1:
        raise ValueError(f"the rows must be step levels within 0..{M}; got {first}..{stop - 1}")
    key = (float(T), M, first, stop, mesh.nodes.tobytes())

    def build():
        ts = np.linspace(0.0, T, M + 1)[first:stop]
        tw = trapezoid_time_weights(T, M)[first:stop]
        faces = mesh.faces
        ts.flags.writeable = tw.flags.writeable = faces.flags.writeable = False
        return _Abscissae(mesh, ts, tw, faces, first, key)

    return weights._memo(("abscissae",) + key, build)


class _WeightedQuadrature:
    """The sample-independent half of a weighted space-time integral.

    Folds the trapezoid time weights ``tw``, the clipped space quadrature
    ``xw`` of ``interval`` (None: [0, 1]) and the weight grid ``w`` =
    exp(2*s*phi)*sigma**k for one (s, k) into one grid
    G[m, i] = tw[m]*w[m, i]*xw[i] on the
    abscissae of the integrand: nodes, or faces for ``a_vx_sq``, whose
    ``xw`` also absorbs a/h**2.  G is cut to the box ``rows`` x ``cols`` of
    its nonzero entries (the time endpoints, the underflow clamp and the
    outside of the interval drop out), and an integral is sum(G*u*u) over
    the box (see :func:`_integrals`), where u is the trajectory's values or,
    for ``a_vx_sq``, their face differences.  A ``time_constant``
    quadrature, of ``v_sq`` only, keeps only the column sums of G and
    integrates the first row of a field that does not depend on time.  While
    :meth:`CarlemanWeights.shared_grids` is open, each folded grid is built
    once per (s, k, integrand, interval) and shared.  ``grid`` is the
    :func:`_abscissae` of the trajectories, which callers build once for all
    the requests of one call.
    """

    def __init__(
        self,
        grid: _Abscissae,
        weights: CarlemanWeights,
        s: float,
        k: float,
        integrand: str,
        interval: Optional[tuple] = None,
        time_constant: bool = False,
    ):
        lo, hi = (0.0, 1.0) if interval is None else interval
        mesh = grid.mesh
        nodes = mesh.nodes
        if integrand not in ("v_sq", "a_vx_sq"):
            raise ValueError(f"unknown integrand {integrand!r}")
        faces = integrand == "a_vx_sq"
        if faces and time_constant:
            raise ValueError("a time-constant quadrature integrates v_sq only")
        self.integrand = integrand
        self.time_constant = time_constant
        self.first = grid.first
        wgrid = weights.weight_grid(grid.ts, grid.faces if faces else nodes, s, k)

        def fold():
            if faces:
                a_faces = np.asarray(weights.coef.eval(grid.faces), dtype=float)
                xw = _clipped_cell_lengths(nodes, lo, hi) * a_faces / mesh.spacings**2
            else:
                xw = _clipped_node_quadrature(nodes, lo, hi)
            return _fold(wgrid, grid.tw, xw, time_constant)

        key = ("quadrature", integrand, float(s), float(k), float(lo), float(hi),
               time_constant) + grid.key
        self.rows, self.cols, self.grid = weights._memo(key, fold)

    def integral(self, vals) -> float:
        return _integrals(vals, (self,), self.first)[0]


def _integrals(vals, quads, first: int = 0) -> list:
    """sum(G*u*u) over the box of each of ``quads`` against one field's values.

    The plane quadratures are integrated in one pass over row blocks of
    ``vals``: per block, the values are squared once for all ``v_sq``
    quadratures and the face differences once for all ``a_vx_sq`` ones, and
    each folded grid meets its squares in one two-operand contraction; the
    block sums add up in row order.  A block's face differences are one
    flat difference of its contiguous values, seen as rows of N + 1
    entries: the last entry of a row pairs its last value with the next
    row's first, and no face column reads it.  Blocks start at step levels
    that are multiples of one block height, the first row of ``vals`` being
    level ``first``, and the squares of a block are taken whatever box reads
    them, so each integral has the same bits whichever quadratures share
    the pass and whichever window of levels holds the box.  A time-constant
    quadrature integrates the first row's nodal values alone, as the sum of
    G*u*u.
    """
    vals = np.ascontiguousarray(vals, dtype=float)
    sums = [0.0] * len(quads)
    # per integrand (False: nodes, True: faces): the first and last + 1 row
    # of its boxes, then (index, first row, last row + 1, cols, G) of each
    spans: dict = {}
    for j, q in enumerate(quads):
        r0, r1 = q.rows.start, q.rows.stop
        if r0 == r1:
            continue
        if q.time_constant:
            u = vals[0, q.cols]
            sums[j] = float(np.einsum("i,i,i->", q.grid, u, u))
        else:
            span = spans.setdefault(q.integrand == "a_vx_sq", [r0, r1])
            span[0], span[1] = min(span[0], r0), max(span[1], r1)
            span.append((j, r0, r1, q.cols, q.grid))
    if not spans:
        return sums
    n_cols = vals.shape[1]
    step = block_rows(n_cols)
    # the first block's start, as a row of vals
    start = (min(span[0] for span in spans.values()) + first) // step * step - first
    last = max(span[1] for span in spans.values())
    scratch = np.empty(min(step, last - start) * n_cols)
    for b0 in range(start, last, step):
        b1 = b0 + step
        for faces, (r0, r1, *group) in spans.items():
            a, b = max(b0, r0), min(b1, r1)
            if a >= b:
                continue
            flat = scratch[: (b - a) * n_cols]
            if faces:
                v = vals[a:b].reshape(-1)
                np.subtract(v[1:], v[:-1], out=flat[:-1])
                np.square(flat[:-1], out=flat[:-1])
            else:
                np.square(vals[a:b].reshape(-1), out=flat)
            sq = flat.reshape(b - a, n_cols)
            for j, q0, q1, cols, grid in group:
                qa, qb = max(a, q0), min(b, q1)
                if qa < qb:
                    sums[j] += float(
                        np.einsum("mi,mi->", grid[qa - q0 : qb - q0], sq[qa - a : qb - a, cols])
                    )
    return sums


def _fold(wgrid: np.ndarray, tw: np.ndarray, xw: np.ndarray, time_constant: bool):
    """(rows, cols, G) with G = tw[:, None]*wgrid*xw[None, :] on the box
    rows x cols of its nonzero entries, or G's column sums over that box.
    The box is that of wgrid's nonzero entries in
    the columns where xw is nonzero: the trapezoid weights are positive, and
    the weight grid is exactly zero on the levels t = 0 and t = T.

    Both passes over ``wgrid`` (finding the box, then folding it) go in row
    blocks; G is formed as (wgrid*tw)*xw and the column sums add the rows in
    order, so the bits are those of the whole-grid expressions.
    """
    n_rows, n_cols = wgrid.shape
    step = block_rows(n_cols)
    live_x = xw != 0.0
    live_rows = np.empty(n_rows, dtype=bool)
    live_cols = np.zeros(n_cols, dtype=bool)
    mask = np.empty((min(step, n_rows), n_cols), dtype=bool)
    for a in range(0, n_rows, step):
        b = min(a + step, n_rows)
        live = np.not_equal(wgrid[a:b], 0.0, out=mask[: b - a])
        live &= live_x
        live.any(axis=1, out=live_rows[a:b])
        live_cols |= live.any(axis=0)
    rows = np.flatnonzero(live_rows)
    cols = np.flatnonzero(live_cols)
    if rows.size == 0:
        rows = cols = slice(0, 0)
    else:
        rows = slice(rows[0], rows[-1] + 1)
        cols = slice(cols[0], cols[-1] + 1)
    n_box = cols.stop - cols.start
    step = block_rows(n_box)

    def fold_rows(a, b, out):
        np.multiply(wgrid[a:b, cols], tw[a:b, None], out=out)
        out *= xw[None, cols]

    if not time_constant:
        grid = np.empty((rows.stop - rows.start, n_box))
        for a in range(rows.start, rows.stop, step):
            b = min(a + step, rows.stop)
            fold_rows(a, b, grid[a - rows.start : b - rows.start])
    else:
        grid = np.empty((n_box,))
        # the first row of every block after the first carries the sum so far
        block = np.empty((min(step, rows.stop - rows.start) + 1, n_box))
        carry = 0
        for a in range(rows.start, rows.stop, step):
            b = min(a + step, rows.stop)
            fold_rows(a, b, block[carry : carry + b - a])
            np.add.reduce(block[: carry + b - a], axis=0, out=grid)
            block[0] = grid
            carry = 1
    grid.flags.writeable = False
    return rows, cols, grid


# The Carleman chain loads as one unit: the process that imports the weights,
# which a weight-building run does when its config is validated, holds
# functionals and carleman too from then on.  So no pass of such a run
# imports a module, and whatever lists the package's modules before the run
# (the benchmark's tracer) finds all three.
from . import carleman, functionals  # noqa: E402,F401
