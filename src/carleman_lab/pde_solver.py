"""Flux-form finite differences for the forward and backward degenerate
diffusion problems, with an adjoint solver that is the exact discrete
transpose of the forward step map.

The left boundary either pins the value to zero (weak band) or imposes a
vanishing flux (strong band); the right boundary always pins the value.
Time marching is Crank-Nicolson with implicit-Euler half-step startup at both
ends of the schedule (keeping it palindromic, hence self-adjoint for c = 0),
or plain backward Euler.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import DegeneracyCoefficient, HypothesisReport, Regime

# numpy's wheel ships its OpenBLAS here, and importing numpy has loaded it
_NUMPY_LIBS = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs")


def _load_lapack(where: str = _NUMPY_LIBS) -> tuple:
    """LAPACK's ``dgttrf`` and ``dgttrs`` from the OpenBLAS in ``where``.

    By default that is the library numpy already runs on, so the marches add
    no second BLAS to the process.  Its LAPACK is built with 64-bit integers
    and exports the Fortran routines as ``scipy_<name>_64_``: every argument
    goes by reference, the integers (pivots included) as int64.
    """
    found = sorted(glob.glob(os.path.join(where, "libscipy_openblas64_*.so")))
    if not found:
        raise ImportError(f"numpy's OpenBLAS libscipy_openblas64_*.so not found in {where}")
    # a solve takes microseconds: keep the interpreter lock through the call
    # rather than release and retake it around each one
    lib = ctypes.PyDLL(found[0])
    trf, trs = lib.scipy_dgttrf_64_, lib.scipy_dgttrs_64_
    trf.restype = trs.restype = None
    return trf, trs


_trf, _trs = _load_lapack()
# solve with L itself, not its transpose; TRANS is declared one character
# long, so the length Fortran may append for it is never read, nor passed
_TRANS = ctypes.byref(ctypes.c_char(b"N"))


def _int(value: int):
    """A Fortran integer argument: a reference to an int64."""
    return ctypes.byref(ctypes.c_int64(value))


def _ref(a: np.ndarray):
    """A Fortran array argument: a reference to the memory of the C-contiguous
    array a, whose buffer it holds.  Taken once and passed as is, it costs a
    call no conversion."""
    return ctypes.byref((ctypes.c_char * 0).from_buffer(a))


__all__ = [
    "Mesh",
    "WeightedNorms",
    "LeftBoundary",
    "Scheme",
    "ProblemSpec",
    "Trajectory",
    "DiffusionOperator",
    "build_mesh",
    "assemble_diffusion",
    "boundary_regime_for",
    "solve_forward",
    "solve_adjoint",
    "energy_report",
    "substep_times",
    "trapezoid_time_weights",
    "omega_node_mask",
    "trajectory_to_binary",
    "trajectory_from_binary",
]

# an energy below this is taken as zero: the ratios and states built on it
# are refused or excluded rather than divided by
DEGENERATE_DENOMINATOR = 1e-300

@dataclass(frozen=True)
class Mesh:
    """Graded 1-d mesh on [0, 1] clustering nodes at the degenerate endpoint."""

    nodes: np.ndarray
    grading_exponent: float = 1.0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("mesh needs at least 3 nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1

    @property
    def faces(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def volumes(self) -> np.ndarray:
        """Trapezoid/control-volume weights per node (the discrete measure)."""
        h = self.spacings
        w = np.empty(self.nodes.size)
        w[0] = 0.5 * h[0]
        w[-1] = 0.5 * h[-1]
        w[1:-1] = 0.5 * (h[:-1] + h[1:])
        return w


class WeightedNorms:
    """Discrete norms built on the degenerate coefficient: the squared plain
    norm, the squared face-weighted gradient seminorm and the flux Laplacian.

    The squared forms reduce along the last axis, so a stack of nodal
    vectors gets one value per row, each with the bits of that row alone.
    """

    def __init__(self, mesh, coef: DegeneracyCoefficient):
        self.mesh = mesh
        self.coef = coef
        self.a_faces = np.asarray(coef.eval(mesh.faces), dtype=float)
        self.volumes = mesh.volumes
        self.spacings = mesh.spacings

    def l2_sq(self, u: np.ndarray):
        u = np.asarray(u, dtype=float)
        return np.sum(self.volumes * u * u, axis=-1)

    def h1a_semi_sq(self, u: np.ndarray):
        grad = np.diff(np.asarray(u, dtype=float), axis=-1) / self.spacings
        return np.sum(self.a_faces * grad * grad * self.spacings, axis=-1)

    def flux_laplacian(self, u: np.ndarray) -> np.ndarray:
        """Interior values of (a u_x)_x along the last axis of u (one nodal
        vector or a stack of them); boundary entries are zero-padded."""
        u = np.asarray(u, dtype=float)
        flux = self.a_faces * np.diff(u) / self.spacings
        out = np.zeros_like(u)
        out[..., 1:-1] = np.diff(flux) / self.volumes[1:-1]
        return out


def build_mesh(N: int, grading_exponent: float = 2.0) -> Mesh:
    """Nodes (i/N)**g, clustering at x = 0 for g > 1."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not 1.0 <= grading_exponent <= 4.0:
        raise ValueError(f"grading_exponent must lie in [1, 4], got {grading_exponent}")
    i = np.arange(N + 1, dtype=float)
    return Mesh((i / N) ** grading_exponent, grading_exponent)


class LeftBoundary(Enum):
    """Left boundary condition; the right boundary always pins the value to 0."""

    DIRICHLET_ZERO = "dirichlet_zero"
    ZERO_FLUX = "zero_flux"


def boundary_regime_for(hypothesis: HypothesisReport) -> LeftBoundary:
    """Conventional pairing: value condition for the weak band, flux condition
    for the strong band."""
    if hypothesis.regime is Regime.WDC:
        return LeftBoundary.DIRICHLET_ZERO
    if hypothesis.regime is Regime.SDC:
        return LeftBoundary.ZERO_FLUX
    raise ValueError("cannot choose a boundary regime for an inadmissible coefficient")


class Scheme(Enum):
    BACKWARD_EULER = "backward_euler"
    CRANK_NICOLSON = "crank_nicolson"


@dataclass
class ProblemSpec:
    """Everything needed to march one trajectory.

    Given a ``hypothesis`` (the coefficient's certified band), the spec
    checks that ``regime`` is the band's conventional boundary condition;
    without one, any regime is taken as given.
    """

    T: float
    coef: DegeneracyCoefficient
    regime: LeftBoundary
    mesh: Mesh
    time_steps: int
    omega: tuple[float, float]
    c: Union[float, np.ndarray] = 0.0  # potential c(x): a number or one per mesh node
    scheme: Scheme = Scheme.CRANK_NICOLSON
    hypothesis: Optional[HypothesisReport] = None

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.time_steps < 1:
            raise ValueError("need at least one time step")
        c = np.array(np.nan if callable(self.c) else self.c, dtype=float)
        if c.shape not in ((), self.mesh.nodes.shape) or not np.all(np.isfinite(c)):
            got = f"shape {c.shape}" if c.ndim else repr(self.c)
            raise ValueError(
                f"potential c must be a finite number or {self.mesh.nodes.size} finite values, "
                f"one per mesh node, constant in time; got {got}"
            )
        # keep a read-only copy of what was checked: the caller's array may change
        c.flags.writeable = False
        self.c = c if c.ndim else float(c)
        a, b = self.omega
        if not 0.0 < a < b < 1.0:
            raise ValueError(f"omega must satisfy 0 < a < b < 1, got {self.omega}")
        band = self.hypothesis
        if band is not None and boundary_regime_for(band) is not self.regime:
            raise ValueError(
                f"boundary regime {self.regime.value} conflicts with the certified "
                f"band {band.regime.value}; leave hypothesis unset to keep it"
            )

    @property
    def dt(self) -> float:
        return self.T / self.time_steps


@dataclass
class Trajectory:
    """Space-time field on the uniform grid of the M + 1 step levels of
    [0, T], boundary rows included.

    ``values`` holds all M + 1 levels by default, and M is read off its
    shape.  A window holds only the consecutive levels ``first``,
    ``first + 1``, ... of a march of M steps, and carries both numbers:
    ``carleman_sweep`` keeps only the levels on which its weights can be
    nonzero and hands each sample's window to ``carleman_sides``.
    """

    values: np.ndarray  # (M+1, N+1), or (S, M+1, N+1) for a stack of samples
    mesh: Mesh
    T: float
    first: int = 0  # the step level of the first row of values
    M: Optional[int] = None  # the steps of the horizon; None: all levels are rows

    def __post_init__(self):
        if self.M is None and np.ndim(self.values) >= 2:
            self.M = self.first + np.shape(self.values)[-2] - 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)[self.first : self.first + self.values.shape[-2]]


class DiffusionOperator:
    """Symmetric stiffness of the flux-form operator -(a u_x)_x on the unknown
    nodes, together with the node measure.

    The operator acting on nodal vectors is W^{-1} S, self-adjoint and
    positive semidefinite in the measure-weighted inner product.  ``norms``
    holds the nodal forms on the same face values of the coefficient.
    """

    def __init__(self, coef: DegeneracyCoefficient, mesh: Mesh, regime: LeftBoundary):
        n_nodes = mesh.nodes.size
        self.norms = WeightedNorms(mesh, coef)
        a_faces = self.norms.a_faces
        if np.any(a_faces <= 0.0) or not np.all(np.isfinite(a_faces)):
            raise ValueError("coefficient must be positive at every interior face")
        cond = a_faces / self.norms.spacings

        zero_flux = regime is LeftBoundary.ZERO_FLUX
        start = 0 if zero_flux else 1
        idx = np.arange(start, n_nodes - 1)  # unknown node indices
        # every unknown node collects the conductances of its two faces (only
        # its right face at x = 0), left face first; interior faces couple
        # unknown pairs, boundary faces only load the diagonal
        left = np.concatenate(([0.0], cond))
        diag = left[idx] + cond[idx]
        off = -cond[start : n_nodes - 2]
        self.coef = coef
        self.mesh = mesh
        self.regime = regime
        self.node_index = idx
        self.diag = diag
        self.off = off
        self.weights = self.norms.volumes[idx]

    @property
    def n_unknowns(self) -> int:
        return self.node_index.size

    def stiffness_apply(self, u: np.ndarray) -> np.ndarray:
        """S u for an unknown vector or a stack of them."""
        out = self.diag * u
        out[..., :-1] += self.off * u[..., 1:]
        out[..., 1:] += self.off * u[..., :-1]
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """W^{-1} S u on unknown vectors (or stacks): the discrete -(a u_x)_x."""
        return self.stiffness_apply(u) / self.weights

    def restrict(self, full: np.ndarray) -> np.ndarray:
        """Unknown-node values of a nodal vector or of a stack of them."""
        return np.asarray(full, dtype=float)[..., self.node_index]

    def embed(self, u: np.ndarray) -> np.ndarray:
        """Nodal vector (or stack) with zeros on the pinned nodes."""
        full = np.zeros(np.shape(u)[:-1] + (self.mesh.nodes.size,))
        full[..., self.node_index] = u
        return full

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(self.weights * u, v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


def assemble_diffusion(
    coef: DegeneracyCoefficient, mesh: Mesh, regime: LeftBoundary
) -> DiffusionOperator:
    """Assemble the flux-form stiffness with pointwise face evaluation of a."""
    return DiffusionOperator(coef, mesh, regime)


# --------------------------------------------------------------------------------
# time stepping


def _substep_schedule(spec: ProblemSpec) -> tuple:
    """Palindromic schedule: plain steps for backward Euler; Crank-Nicolson with
    two implicit-Euler half-steps at each end of the horizon otherwise.  Four
    columns, one entry per substep: (sample times, lengths, implicit weights,
    whether the substep ends on a step boundary t = m * dt)."""
    k = spec.dt
    M = spec.time_steps
    rows = []
    for m in range(M):
        t0 = m * k
        if spec.scheme is Scheme.BACKWARD_EULER:
            rows.append((t0 + k, k, 1.0, True))
        elif M >= 3 and (m == 0 or m == M - 1):
            rows.append((t0 + 0.5 * k, 0.5 * k, 1.0, False))
            rows.append((t0 + k, 0.5 * k, 1.0, True))
        else:
            rows.append((t0 + 0.5 * k, k, 0.5, True))
    return tuple(zip(*rows))


def substep_times(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """(sample times, substep lengths) of the marching schedule; per-substep
    control fields must align with these."""
    t_sample, tau, _, _ = _substep_schedule(spec)
    return np.array(t_sample), np.array(tau)


def trapezoid_time_weights(T: float, M: int) -> np.ndarray:
    """Trapezoid weights of the M + 1 uniform time levels on [0, T]."""
    tw = np.full(M + 1, T / M)
    tw[0] *= 0.5
    tw[-1] *= 0.5
    return tw


def omega_node_mask(mesh: Mesh, omega: tuple[float, float]) -> np.ndarray:
    """Sharp indicator of nodes strictly inside the control region."""
    a, b = omega
    return (mesh.nodes > a) & (mesh.nodes < b)


def _clipped_node_quadrature(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-node weights of the trapezoid rule restricted to [lo, hi].

    Each cell integrates its linear interpolant exactly over the clipped
    part, so complementary intervals add up to the full-interval rule.
    """
    w = np.zeros(nodes.size)
    x0 = nodes[:-1]
    x1 = nodes[1:]
    h = x1 - x0
    a = np.maximum(x0, lo)
    # an empty clipped part [a, a] integrates to exactly 0
    b = np.maximum(np.minimum(x1, hi), a)
    # integrals of the two hat pieces over the clipped part of each cell
    left_piece = ((x1 - a) ** 2 - (x1 - b) ** 2) / (2.0 * h)
    right_piece = ((b - x0) ** 2 - (a - x0) ** 2) / (2.0 * h)
    w[:-1] += left_piece
    w[1:] += right_piece
    return w


def _clipped_cell_lengths(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    a = np.maximum(nodes[:-1], lo)
    b = np.minimum(nodes[1:], hi)
    return np.maximum(b - a, 0.0)


def _require_finite(state: np.ndarray, spec: ProblemSpec, forcing: Optional[str]) -> None:
    """Refuse a march that ended in NaN or inf, naming the horizon and step
    count that set its substeps and, only if the march has one, its forcing."""
    if not np.all(np.isfinite(state)):
        cause = f"{forcing} produced" if forcing else "the unforced state reached"
        raise ValueError(
            f"non-finite march: {cause} NaN or inf at T={spec.T:g}, time_steps={spec.time_steps}"
        )


def _require_shape(what: str, field, shapes: tuple, allowed: str) -> None:
    """Refuse by name a ``field`` of none of ``shapes``, in which a None size
    stands for any positive one; a None field passes."""
    shape = np.shape(field)
    if field is not None and not any(
        len(shape) == len(want) and all(n > 0 if w is None else n == w for n, w in zip(shape, want))
        for want in shapes
    ):
        got = f"shape {shape}" if shape else repr(field)
        raise ValueError(f"{what} must be {allowed}; got {got}")


class _Stepper:
    """The marching engine: substep matrices L = W + th*tau*G and
    R = W - (1-th)*tau*G with G = S + W*diag(c), each distinct L factored once.

    Every caller reads the schedule off the engine: substep j is sampled at
    ``t_sample[j]``, lasts ``tau[j]`` and ends a step when ``closes[j]``.
    ``omega`` masks the control region's unknowns.

    c does not depend on time, so L and R are functions of (tau, th) alone:
    substeps of one length and implicit weight share one factorization, one
    R and one tau*W, at most two per schedule.  LAPACK
    ``dgttrf`` factors and ``dgttrs`` solves: both run the same elimination as
    the ``dgtsv`` behind ``solve_banded((1, 1), ...)``, and the step matrices
    are strictly diagonally dominant, so no pivot is taken and every solve is
    bit-identical to factoring from scratch.

    States are single ``(n,)`` vectors or sample-major ``(S, n)`` blocks.  A
    march keeps its state in one flat buffer of ``S*n + 2`` doubles: a zero,
    the n values of each sample in turn, a zero.  The interior seen as
    ``(S, n)`` and transposed is the Fortran ``(n, S)`` operand that
    ``dgttrs`` overwrites in place, eliminating each column exactly as it
    would a lone vector; a march binds the routine's arguments to it once per
    distinct L, so a solve is one foreign call.  R is one product of its
    ``(3, n)`` stencil coefficients (zero wherever a window reaches into a
    neighbouring sample or an end zero), broadcast over the samples, with the
    length-3 windows of the buffer seen as ``(3, S, n)``, then two sums in
    the order ``(Rd u + ro u+) + ro u-``.  So a substep allocates nothing,
    and its floor is the latency-bound recurrence of ``dgttrs`` itself.

    A forward forcing is constant in time, in the state's shape, or a
    ``(J,) + state shape`` block whose row j drives substep j.  The engine
    owns the forcing weight tau*W: a forward march weights its forcing up
    front, one product per run of equal substep lengths (one row per run for
    a constant one), into a scratch block kept for the stepper's next march;
    a backward march's source is constant in time, deposited once per
    distinct L.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        t_sample, tau, implicit, self.closes = _substep_schedule(spec)
        self.t_sample, self.tau = np.array(t_sample), np.array(tau)
        idx = self.op.node_index
        self.cols = slice(idx[0], idx[-1] + 1)  # unknown nodes within a nodal row
        self.omega = omega_node_mask(spec.mesh, spec.omega)[idx]
        W = self.op.weights
        c = np.broadcast_to(spec.c, spec.mesh.nodes.shape)
        g_diag = self.op.diag + W * self.op.restrict(c)
        # L and R add multiples of tau*G to W: refuse a substep whose tau*G
        # overflows before forming any (Python floats overflow to inf silently)
        tau_max = float(max(tau))
        g_max = float(max(np.max(np.abs(g_diag)), np.max(np.abs(self.op.off), initial=0.0)))
        if tau_max * g_max > np.finfo(float).max:
            raise ValueError(
                f"step matrix overflow: a substep of length {tau_max:g} times the operator's "
                f"largest entry {g_max:g} exceeds double precision "
                f"at T={spec.T:g}, time_steps={spec.time_steps}"
            )
        self.factor_of = []  # substep -> index of its distinct L
        self.tau_w = []  # tau * W, the weight of a substep's forcing
        self._factors = []  # distinct L -> references to its factors
        self._R = []  # substep -> stencil coefficients of R
        built: dict = {}  # (tau, th) -> (factor index, tau*W, R coefficients)
        for key in zip(tau, implicit):
            if key not in built:
                tau_j, th = key
                self._factor(W + th * tau_j * g_diag, th * tau_j * self.op.off)
                built[key] = (
                    len(built),
                    tau_j * W,
                    self._stencil(
                        W - (1.0 - th) * tau_j * g_diag, -(1.0 - th) * tau_j * self.op.off
                    ),
                )
            f, tw, R = built[key]
            self.factor_of.append(f)
            self.tau_w.append(tw)
            self._R.append(R)
        self._weighted = None  # scratch of _forcing_rows, made by the first forcing
        # ends of the runs of substeps that share one tau, hence one tau*W
        J = len(tau)
        self._tau_runs = [j for j in range(1, J) if tau[j] != tau[j - 1]]
        self._tau_runs.append(J)

    def _factor(self, Ld: np.ndarray, Lo: np.ndarray) -> None:
        """Factor the tridiagonal L with ``dgttrf``, overwriting Ld and Lo,
        and append references to its factors dl, d, du, du2 and the pivots
        to ``_factors``."""
        n = Ld.size
        factors = tuple(map(_ref, (
            Lo, Ld, Lo.copy(), np.empty(max(n - 2, 1)), np.empty(n, dtype=np.int64)
        )))
        info = ctypes.c_int64()
        _trf(_int(n), *factors, ctypes.byref(info))
        if info.value != 0:
            raise ValueError("singular step matrix: time step or potential pathological")
        self._factors.append(factors)

    def _solves(self, inner: np.ndarray, factors: list) -> list:
        """``dgttrs`` arguments that solve with each of ``factors`` in place
        on ``inner``, the ``(S, n)`` interior of a march buffer."""
        S, n = inner.shape
        head = (_TRANS, _int(n), _int(S))
        tail = (_ref(inner), _int(n), ctypes.byref(ctypes.c_int64()))
        return [head + f + tail for f in factors]

    def _stencil(self, Rd: np.ndarray, Ro: np.ndarray) -> np.ndarray:
        """Coefficients of u[i-1], u[i], u[i+1] in (R u)[i], shaped
        ``(3, 1, n)`` to broadcast over a march's samples."""
        n = Rd.size
        coef = np.zeros((3, 1, n))
        coef[0, 0, 1:] = Ro
        coef[1, 0] = Rd
        coef[2, 0, :-1] = Ro
        return coef

    def _buffer(self, shape: tuple) -> tuple:
        """A zeroed march buffer for states of ``shape``: (the flat buffer, its
        ``(S, n)`` interior, the interior in ``shape``)."""
        buf = np.zeros(math.prod(shape) + 2)
        inner = buf[1:-1].reshape(-1, shape[-1])
        return buf, inner, inner.reshape(shape)

    def _apply_R(self, buf: np.ndarray, inner: np.ndarray):
        """In-place ``apply_R(j)``: the interior of buf becomes R_j times it."""
        # rows u[i-1], u[i], u[i+1] of every sample, as a (3, S, p) view
        windows = sliding_window_view(buf, 3).T.reshape((3,) + inner.shape)
        prod = np.empty(windows.shape)
        lo, mid, hi = prod
        coefs = self._R

        def apply_R(j: int) -> None:
            np.multiply(coefs[j], windows, out=prod)
            np.add(mid, hi, out=inner)
            np.add(inner, lo, out=inner)

        return apply_R

    def solve_L(self, j: int, rhs: np.ndarray) -> np.ndarray:
        """L_j^{-1} rhs for an (n,) vector or an (S, n) block."""
        _, inner, x = self._buffer(rhs.shape)
        x[...] = rhs
        (args,) = self._solves(inner, [self._factors[self.factor_of[j]]])
        _trs(*args)
        return x

    def _forcing_rows(self, g: np.ndarray, const: bool) -> list:
        """Per substep j, the row tau_j*W*g_j it adds to the state, or None
        where g_j is all zero (adding +0.0 would turn a -0.0 entry of the
        state into +0.0); g_j is g itself when ``const`` and g[j] otherwise.
        The rows live in a scratch block the stepper keeps for its next call,
        made by one product per run of substeps of one length (three for
        Crank-Nicolson); a constant g gets one row per run."""
        shape = (len(self._tau_runs),) + g.shape if const else g.shape
        if self._weighted is None or self._weighted.shape != shape:
            self._weighted = np.empty(shape)
        rows = []
        start = 0
        for r, stop in enumerate(self._tau_runs):
            if const:
                np.multiply(self.tau_w[start], g, out=self._weighted[r])
                rows += [self._weighted[r]] * (stop - start)
            else:
                np.multiply(self.tau_w[start], g[start:stop], out=self._weighted[start:stop])
            start = stop
        if const:
            return rows if g.any() else [None] * len(rows)
        live = g.reshape(len(g), -1).any(axis=1).tolist()
        return [row if keep else None for row, keep in zip(self._weighted, live)]

    def forward(self, u: np.ndarray, load=None, closed=None) -> np.ndarray:
        """March u over the whole schedule and return the final state.

        ``load`` is None, a forcing g constant in time in u's shape, or a
        ``(J,) + u.shape`` block of rows g = load[j]; g enters substep j's
        right-hand side as tau_j*W*g.  ``closed(m, state)`` is called at the
        end of every step m = 1..M with the live state, which it must not keep.
        """
        buf, inner, state = self._buffer(u.shape)
        state[...] = u
        apply_R = self._apply_R(buf, inner)
        bound = self._solves(inner, self._factors)
        solves = [bound[f] for f in self.factor_of]
        adds = None if load is None else self._forcing_rows(load, load.ndim == u.ndim)
        m = 1
        for j, closes in enumerate(self.closes):
            apply_R(j)
            if adds is not None and adds[j] is not None:
                np.add(state, adds[j], out=state)
            _trs(*solves[j])
            if closed is not None and closes:
                closed(m, state)
                m += 1
        # every solve couples all unknowns, so a non-finite value met at any
        # substep is still present in the final state
        _require_finite(state, self.spec, None if load is None else "the control or source")
        return state

    def backward(self, v: np.ndarray, source=None, pairing=None, rows=None, first=0) -> None:
        """Transposed march from terminal data v.

        ``source`` is None or the rows of a source constant in time on the
        unknown nodes, ``(n,)`` shared by every sample or one per sample in
        v's shape: after substep j's transposed step the deposit
        tau_j*L_j^{-1}(W*source) is subtracted (raw tau*W*source leaves a
        first-order residue on stiff source modes, the L-solve restores the
        scheme's order), computed once per distinct L.  ``pairing[j]``
        receives the profile that pairs with substep-j forcing; row m - first
        of ``rows`` receives the state at step start m, for each m < M that
        it has a row for.

        With ``pairing``, or without ``rows``, the march runs every substep
        down to t = 0.  Otherwise it ends once it has written level ``first``,
        the lowest kept one, since the substeps below it change no row.
        """
        W = self.op.weights
        if source is not None:
            WF = W * source
            deposits: dict = {}  # factor index -> deposit of the source
        buf, inner, z = self._buffer(v.shape)
        np.multiply(W, v, out=z)
        apply_R = self._apply_R(buf, inner)
        bound = self._solves(inner, self._factors)
        solves = [bound[f] for f in self.factor_of]
        m = self.spec.time_steps - 1
        # the first substep of the step that starts at the lowest kept level
        end = 0
        if rows is not None and pairing is None and first > 0:
            end = int(np.flatnonzero(self.closes)[first - 1]) + 1
        for j in range(len(self.closes) - 1, end - 1, -1):
            _trs(*solves[j])
            if pairing is not None:
                pairing[j] = z
            apply_R(j)
            if source is not None:
                if (dep := deposits.get(self.factor_of[j])) is None:
                    dep = deposits[self.factor_of[j]] = self.tau_w[j] * self.solve_L(j, WF)
                np.subtract(z, dep, out=z)
            if rows is not None and (j == 0 or self.closes[j - 1]):
                if 0 <= m - first < rows.shape[-2]:
                    np.divide(z, W, out=rows[..., m - first, self.cols])
                m -= 1
        # every solve couples all unknowns, so a non-finite value met at any
        # substep is still present in the last state, the lowest kept row's
        _require_finite(z, self.spec, None if source is None else "the source")


def solve_forward(
    spec: ProblemSpec,
    u0: np.ndarray,
    control=None,
    source=None,
) -> Trajectory:
    """March the controlled forward problem from u0.

    ``control`` acts only through the nodes strictly inside omega (sharp
    indicator); ``source`` is an unrestricted right-hand side.  Each is None,
    one nodal row ``(N+1,)`` constant in time, or a nodal block ``(J, N+1)``
    whose row j drives substep j, at time ``substep_times(spec)[0][j]``; any
    other shape, a callable included, is refused by name.
    """
    st = _Stepper(spec)
    op = st.op
    mesh = spec.mesh
    row, block = mesh.nodes.shape, (st.tau.size,) + mesh.nodes.shape
    for name, field in (("control", control), ("source", source)):
        _require_shape(f"the forward {name}", field, (row, block),
                       f"one nodal row {row}, constant in time, or one per substep {block}")
    _require_shape("the initial data u0", u0, (row,), f"one nodal row {row}")
    u = op.restrict(u0)
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")
    rows = np.zeros((spec.time_steps + 1, mesh.nodes.size))
    rows[0, st.cols] = u

    g = None  # on the unknowns: the control inside omega plus the source
    for field, inside in ((control, st.omega), (source, True)):
        if field is not None:
            # summed onto +0.0, so a -0.0 entry adds +0.0 to the state
            g = (0.0 if g is None else g) + np.where(inside, op.restrict(field), 0.0)

    def closed(m, state):
        rows[m, st.cols] = state

    st.forward(u, g, closed)
    return Trajectory(rows, mesh, spec.T)


def _adjoint_march(
    spec: ProblemSpec,
    v_T: np.ndarray,
    F=None,
    stepper: Optional[_Stepper] = None,
    levels: Optional[range] = None,
    pairing_out=None,
):
    """Backward recursion that is the exact measure-weighted transpose of the
    forward step map.  Returns the nodal state at the step levels
    ``levels``, a range of consecutive levels in 0..M (None: all M + 1; an
    empty range keeps none and returns None); ``pairing_out``, a
    ``(J,) + v.shape`` array of the caller's or None, receives pairing[j],
    the profile that multiplies substep-j sources in the duality sum.
    Without ``pairing_out``, a march that keeps levels stops at the lowest:
    ``carleman_sweep`` keeps the window of levels its weights can see and
    marches no lower.  With it, the march runs the whole horizon: the Gram
    operator keeps no level and reads every pairing profile.

    ``v_T`` is one nodal vector, giving ``(len(levels), N+1)`` rows, or an
    ``(S, N+1)`` stack of samples marched together, giving
    ``(S, len(levels), N+1)`` rows.  ``F`` is a source constant in time: one
    nodal row ``(N+1,)`` shared by every sample, or one per sample in
    ``v_T``'s shape.
    """
    st = stepper if stepper is not None else _Stepper(spec)
    row = spec.mesh.nodes.shape
    _require_shape("the terminal data v_T", v_T, (row, (None,) + row),
                   f"one nodal row {row} or a stack (S, {row[0]}) with S >= 1")
    v = st.op.restrict(v_T)
    if not np.all(np.isfinite(v)):
        raise ValueError("terminal data must be finite")
    per_sample = np.shape(v_T)
    _require_shape("the adjoint source F", F, (row, per_sample),
                   f"one nodal row {row} or one per sample {per_sample}, constant in time")
    M = spec.time_steps
    levels = range(M + 1) if levels is None else levels
    rows = None
    if len(levels):
        rows = np.zeros(v.shape[:-1] + (len(levels), spec.mesh.nodes.size))
        if levels.stop == M + 1:
            rows[..., -1, st.cols] = v
    st.backward(v, None if F is None else st.op.restrict(F), pairing_out, rows, levels.start)
    return rows


def solve_adjoint(spec: ProblemSpec, v_T: np.ndarray, F=None) -> Trajectory:
    """March the backward problem from terminal data v_T with the source F,
    constant in time.  v_T is one nodal vector, or an ``(S, N+1)`` stack of
    samples marched together, whose trajectory values are then
    ``(S, M+1, N+1)``; F is None, one nodal row shared by every sample, or
    one row per sample in v_T's shape.

    Implemented as the exact transpose of ``solve_forward``'s step map, so the
    discrete duality pairing with forward solutions holds to rounding.
    """
    rows = _adjoint_march(spec, v_T, F=F)
    return Trajectory(rows, spec.mesh, spec.T)


def energy_report(spec: ProblemSpec, u0s: np.ndarray, h_rows=None) -> np.ndarray:
    """Ratio of the trajectory energy to the data energy of every sample in
    the ``(S, N+1)`` stack ``u0s``, under the time-constant nodal controls
    ``h_rows`` (one row per sample), which act only inside omega, or none;
    one ratio per sample, NaN for a sample whose data energy is zero.

    Numerator: sup_t of the weighted first-order norm squared plus the time
    integrals of |u_t|^2 and |(a u_x)_x|^2.  Denominator: the same first-order
    norm of u0 plus the control energy on the control cylinder.

    The samples march together as one ``(S, n)`` block, forced by their
    control rows as they are, and every step is reduced across the whole
    stack as the march closes it, so no trajectory is stored.
    """
    st = _Stepper(spec)
    op = st.op
    mesh = spec.mesh
    u0s = np.asarray(u0s, dtype=float)
    _require_shape("the initial data u0s", u0s, ((None,) + mesh.nodes.shape,),
                   f"a stack (S, {mesh.nodes.size}) with S >= 1")
    # row-major like the march's states: a row sum over a column-major
    # block adds in another order
    u = np.ascontiguousarray(op.restrict(u0s))
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")
    _require_shape("the controls h_rows", h_rows, (u0s.shape,),
                   f"one nodal row per sample {u0s.shape}, constant in time")
    g = None if h_rows is None else np.where(st.omega, op.restrict(h_rows), 0.0)

    W = op.weights
    norms = op.norms
    k = spec.dt

    def h1a_sq(full):
        return norms.l2_sq(full) + norms.h1a_semi_sq(full)

    # the sup and both time integrals, one time row of every sample at a time
    tw = trapezoid_time_weights(spec.T, spec.time_steps)
    full = np.zeros((u.shape[0], mesh.nodes.size))
    full[:, st.cols] = u
    prev = u.copy()
    h1_sup = h1a_sq(full)
    ut_sq = np.zeros(u.shape[0])
    au_sq = np.zeros(u.shape[0])

    def closed(m, cur):
        if m:
            full[:, st.cols] = cur
            np.maximum(h1_sup, h1a_sq(full), out=h1_sup)
            with np.errstate(over="ignore"):  # checked once the march is done
                du = (cur - prev) / k
                np.add(ut_sq, k * np.sum(W * du * du, axis=-1), out=ut_sq)
            prev[...] = cur
        Au = op.apply(cur)
        np.add(au_sq, tw[m] * np.sum(W * Au * Au, axis=-1), out=au_sq)

    closed(0, u)
    st.forward(u, g, closed)
    if not np.all(np.isfinite(ut_sq)):
        raise ValueError(
            f"the time-derivative energy, a sum of k*|(u(t+k)-u(t))/k|**2, overflows "
            f"double precision at T={spec.T:g}, time_steps={spec.time_steps}"
        )
    lhs = h1_sup + ut_sq + au_sq

    # data energy, then the control energy of each substep added in order
    terms = [h1a_sq(u0s)]
    if g is not None:
        terms.extend(st.tau[:, None] * np.sum(W * g * g, axis=-1))
    rhs = np.cumsum(np.array(terms), axis=0)[-1]

    dead = rhs <= 0.0
    if np.any(lhs[dead] > 1e-12):
        raise ValueError("inconsistent energy report: zero data but nonzero trajectory")
    return lhs / np.where(dead, np.nan, rhs)


# --------------------------------------------------------------------------------
# export formats

_BIN_HEADER = struct.Struct("<qqd")


def trajectory_to_binary(traj: Trajectory, path) -> None:
    """Header (int64 N, int64 M, float64 T) then row-major doubles.  N and M
    are read off the shape, so anything but one whole trajectory (M+1, N+1)
    is refused by name: a stack of samples, or a window of levels."""
    shape = np.shape(traj.values)
    if len(shape) != 2:
        raise ValueError(f"a binary trajectory is one trajectory (M+1, N+1); got shape {shape}")
    if traj.first != 0 or shape[0] != traj.M + 1:
        raise ValueError(
            f"a binary trajectory holds all {traj.M + 1} step levels; got a window of "
            f"{shape[0]} from level {traj.first}"
        )
    M, N = shape[0] - 1, shape[1] - 1
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(N, M, traj.T))
        fh.write(np.ascontiguousarray(traj.values, dtype="<f8").tobytes())


def trajectory_from_binary(path) -> dict:
    """Read the compact grid format back; the mesh travels separately.  A
    file shorter than its header, or a payload that is not the (M+1)(N+1)
    doubles of its header, is refused."""
    with open(path, "rb") as fh:
        header = fh.read(_BIN_HEADER.size)
        payload = fh.read()
    if len(header) < _BIN_HEADER.size:
        raise ValueError(
            f"a binary trajectory starts with a {_BIN_HEADER.size}-byte header; "
            f"got a file of {len(header)} bytes"
        )
    N, M, T = _BIN_HEADER.unpack(header)
    if not 0.0 < T < math.inf:
        raise ValueError(f"a binary trajectory's horizon T must be positive and finite; got T={T}")
    if min(N, M) < 0 or len(payload) != 8 * (M + 1) * (N + 1):
        raise ValueError(
            f"a binary trajectory of N={N}, M={M} holds (M+1)(N+1) = {(M + 1) * (N + 1)} "
            f"doubles, {8 * (M + 1) * (N + 1)} bytes; got {len(payload)} bytes"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(M + 1, N + 1)
    return {"N": int(N), "M": int(M), "T": float(T), "values": data}
