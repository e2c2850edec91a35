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
from typing import Callable, Optional

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
    "energy_reports",
    "substep_times",
    "trapezoid_time_weights",
    "omega_node_mask",
    "trajectory_to_binary",
    "trajectory_from_binary",
]


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
    """Discrete norms built on the degenerate coefficient.

    The first-order norm squares the plain norm plus the face-weighted
    gradient seminorm; the second-order norm adds the flux Laplacian.  The
    squared forms reduce along the last axis, so a stack of nodal vectors
    gets one value per row, each with the bits of that row alone.
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

    def norm(self, kind: str, u: np.ndarray) -> float:
        if kind == "L2":
            return math.sqrt(max(self.l2_sq(u), 0.0))
        if kind == "H1a":
            return math.sqrt(max(self.l2_sq(u) + self.h1a_semi_sq(u), 0.0))
        if kind == "H2a":
            lap = self.flux_laplacian(u)
            return math.sqrt(
                max(self.l2_sq(u) + self.h1a_semi_sq(u) + self.l2_sq(lap), 0.0)
            )
        raise ValueError(f"unknown norm kind {kind!r}")


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
    c: Optional[Callable] = None  # potential c(t, x), bounded; None means 0
    scheme: Scheme = Scheme.CRANK_NICOLSON
    hypothesis: Optional[HypothesisReport] = None

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.time_steps < 1:
            raise ValueError("need at least one time step")
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
    """Space-time field on the uniform step grid, boundary rows included."""

    values: np.ndarray  # (M+1, N+1)
    mesh: Mesh
    T: float

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.values.shape[0])


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


def _require_finite(state: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(state)):
        raise ValueError(f"non-finite march: {what} produced NaN or inf")


class _Stepper:
    """The marching engine: substep matrices L = W + th*tau*G and
    R = W - (1-th)*tau*G with G = S + W*diag(c), each distinct L factored once.

    Every caller reads the schedule off the engine: substep j samples c,
    controls and sources at ``t_sample[j]``, lasts ``tau[j]`` and ends a
    step when ``closes[j]``.  ``omega`` masks the control region's unknowns.

    The key of L is (tau, th, the values of c at the substep, or None
    without c), so substeps built from the same data share one
    factorization, one R and one tau*W: at most two per schedule unless c
    varies in time.  LAPACK
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

    A forcing is a ``(J, ...)`` block whose row j drives substep j; one that
    is constant in time is one row broadcast over J (``np.broadcast_to``),
    so its first stride is zero and it is never materialized.  The engine
    owns the forcing weight tau*W and reads that stride: a forward march
    weights its forcing up front, one product per run of equal substep
    lengths (one row per run for a constant forcing), into a scratch block
    kept for the stepper's next march, and a backward march deposits a
    constant source once per distinct L.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        t_sample, tau, implicit, self.closes = _substep_schedule(spec)
        self.t_sample, self.tau = np.array(t_sample), np.array(tau)
        idx = self.op.node_index
        self.cols = slice(idx[0], idx[-1] + 1)  # unknown nodes within a nodal row
        self.xs_unknown = spec.mesh.nodes[idx]
        self.omega = omega_node_mask(spec.mesh, spec.omega)[idx]
        W = self.op.weights
        n = self.op.n_unknowns
        self.factor_of = []  # substep -> index of its distinct L
        self.tau_w = []  # tau * W, the weight of a substep's forcing
        self._factors = []  # distinct L -> references to its factors
        self._L = []  # substep -> references to its factored L
        self._R = []  # substep -> stencil coefficients of R
        built: dict = {}  # key of L -> (factor index, factored L, tau*W, R coefficients)
        for t, tau_j, th in zip(t_sample, tau, implicit):
            cvals = None
            if spec.c is not None:
                cvals = np.asarray(spec.c(t, self.xs_unknown), dtype=float) * np.ones(n)
                if not np.all(np.isfinite(cvals)):
                    raise ValueError(f"potential c is not finite at t = {t:.17g}")
            # L and R are functions of these data alone
            key = (tau_j, th, None if cvals is None else cvals.tobytes())
            if key not in built:
                g_diag = self.op.diag if cvals is None else self.op.diag + W * cvals
                built[key] = (
                    len(built),
                    self._factor(W + th * tau_j * g_diag, th * tau_j * self.op.off),
                    tau_j * W,
                    self._stencil(
                        W - (1.0 - th) * tau_j * g_diag, -(1.0 - th) * tau_j * self.op.off
                    ),
                )
            f, L, tw, R = built[key]
            self.factor_of.append(f)
            self._L.append(L)
            self.tau_w.append(tw)
            self._R.append(R)
        self._weighted = None  # scratch of _forcing_rows, made by the first forcing
        # ends of the runs of substeps that share one tau, hence one tau*W
        J = len(tau)
        self._tau_runs = [j for j in range(1, J) if tau[j] != tau[j - 1]]
        self._tau_runs.append(J)

    def _factor(self, Ld: np.ndarray, Lo: np.ndarray) -> tuple:
        """Factor the tridiagonal L with ``dgttrf``, overwriting Ld and Lo;
        references to its factors dl, d, du, du2 and the pivots."""
        n = Ld.size
        factors = tuple(map(_ref, (
            Lo, Ld, Lo.copy(), np.empty(max(n - 2, 1)), np.empty(n, dtype=np.int64)
        )))
        info = ctypes.c_int64()
        _trf(_int(n), *factors, ctypes.byref(info))
        if info.value != 0:
            raise ValueError("singular step matrix: time step or potential pathological")
        self._factors.append(factors)
        return factors

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
        (args,) = self._solves(inner, [self._L[j]])
        _trs(*args)
        return x

    def _forcing_rows(self, g: np.ndarray) -> list:
        """Per substep j, the row tau_j*W*g[j] it adds to the state, or None
        where g[j] is all zero (adding +0.0 would turn a -0.0 entry of the
        state into +0.0).  The rows live in a scratch block the stepper keeps
        for its next call, made by one product per run of substeps of one
        length (three for Crank-Nicolson); a zero-stride g gets one row per
        run."""
        const = g.strides[0] == 0
        shape = (len(self._tau_runs) if const else len(g),) + g.shape[1:]
        if self._weighted is None or self._weighted.shape != shape:
            self._weighted = np.empty(shape)
        rows = []
        start = 0
        for r, stop in enumerate(self._tau_runs):
            if const:
                np.multiply(self.tau_w[start], g[0], out=self._weighted[r])
                rows += [self._weighted[r]] * (stop - start)
            else:
                np.multiply(self.tau_w[start], g[start:stop], out=self._weighted[start:stop])
            start = stop
        if const:
            # only the one row is tested: the broadcast block is never copied
            return rows if g[0].any() else [None] * len(g)
        live = g.reshape(len(g), -1).any(axis=1).tolist()
        return [row if keep else None for row, keep in zip(self._weighted, live)]

    def forward(self, u: np.ndarray, load=None, closed=None) -> np.ndarray:
        """March u over the whole schedule and return the final state.

        ``load`` is None or a ``(J, ...)`` forcing block, whose row g = load[j]
        enters substep j's right-hand side as tau*W*g; ``closed(m, state)`` is
        called at the end of every step m = 1..M with the live state, which
        it must not keep.
        """
        buf, inner, state = self._buffer(u.shape)
        state[...] = u
        apply_R = self._apply_R(buf, inner)
        bound = self._solves(inner, self._factors)
        solves = [bound[f] for f in self.factor_of]
        adds = None if load is None else self._forcing_rows(load)
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
        _require_finite(state, "the control or source")
        return state

    def backward(self, v: np.ndarray, source=None, pairing=None, rows=None) -> None:
        """Transposed march from terminal data v.

        ``source`` is None or a ``(J, ...)`` block: after substep j's
        transposed step the deposit tau_j*L_j^{-1}(W*source[j]) is subtracted
        (raw tau*W*source leaves a first-order residue on stiff source modes,
        the L-solve restores the scheme's order), computed once per distinct
        L for a zero-stride source.  ``pairing[j]`` receives the profile that
        pairs with substep-j forcing; ``rows`` receives the state at every
        step start m = M-1..0.
        """
        W = self.op.weights
        const = source is not None and source.strides[0] == 0
        if const:
            WF = W * source[0]
            deposits: dict = {}  # factor index -> deposit of the constant source
        buf, inner, z = self._buffer(v.shape)
        np.multiply(W, v, out=z)
        apply_R = self._apply_R(buf, inner)
        bound = self._solves(inner, self._factors)
        solves = [bound[f] for f in self.factor_of]
        m = self.spec.time_steps - 1
        for j in range(len(self.closes) - 1, -1, -1):
            _trs(*solves[j])
            if pairing is not None:
                pairing[j] = z
            apply_R(j)
            if source is not None:
                if not const:
                    dep = self.tau_w[j] * self.solve_L(j, W * source[j])
                elif (dep := deposits.get(self.factor_of[j])) is None:
                    dep = deposits[self.factor_of[j]] = self.tau_w[j] * self.solve_L(j, WF)
                np.subtract(z, dep, out=z)
            if rows is not None and (j == 0 or self.closes[j - 1]):
                rows[..., m, self.cols] = z / W
                m -= 1
        _require_finite(z, "the source")


def _schedule_samples(field, st: _Stepper) -> np.ndarray:
    """The ``(J, n)`` block of a field's samples at every substep of the
    schedule, from a callable (t, x) -> value; an array is taken as that
    block already."""
    if callable(field):
        xs = st.xs_unknown
        return np.stack([np.asarray(field(t, xs), dtype=float) * np.ones_like(xs)
                         for t in st.t_sample])
    return np.asarray(field, dtype=float)


def solve_forward(
    spec: ProblemSpec,
    u0: np.ndarray,
    control=None,
    source=None,
    stepper: Optional[_Stepper] = None,
) -> Trajectory:
    """March the controlled forward problem from u0.

    ``control`` acts only through the nodes strictly inside omega (sharp
    indicator); ``source`` is an unrestricted right-hand side.  Either may be
    a callable (t, x) -> value or a ``(J, n)`` array of per-substep samples
    on the unknown nodes, aligned with ``substep_times``.  Both are gathered
    into one block of per-substep forcing before the march.  ``stepper``
    reuses a factored engine for ``spec``.
    """
    st = stepper if stepper is not None else _Stepper(spec)
    op = st.op
    mesh = spec.mesh
    u = op.restrict(u0)
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")
    rows = np.zeros((spec.time_steps + 1, mesh.nodes.size))
    rows[0, st.cols] = u

    g = None
    if control is not None or source is not None:
        g = np.zeros((st.tau.size, u.size))
        if control is not None:
            g += np.where(st.omega, _schedule_samples(control, st), 0.0)
        if source is not None:
            g += _schedule_samples(source, st)

    def closed(m, state):
        rows[m, st.cols] = state

    st.forward(u, g, closed)
    return Trajectory(rows, mesh, spec.T)


def _adjoint_march(
    spec: ProblemSpec,
    v_T: np.ndarray,
    F=None,
    stepper: Optional[_Stepper] = None,
    keep_rows=True,
    pairing_out=None,
):
    """Backward recursion that is the exact measure-weighted transpose of the
    forward step map.  Returns (rows, pairing_out): rows holds the nodal
    state at every step (None unless ``keep_rows``); ``pairing_out``, a
    ``(J,) + v.shape`` array or None, receives pairing[j], the profile that
    multiplies substep-j sources in the duality sum.

    ``v_T`` is one nodal vector, giving ``(M+1, N+1)`` rows, or an ``(S, N+1)``
    stack of samples marched together, giving ``(S, M+1, N+1)`` rows.  ``F``
    is a callable (t, x) -> value shared by every sample, or a ``(J, ...)``
    block of per-substep samples on the unknown nodes, whose rows are
    ``(n,)`` (shared) or ``(S, n)`` (one per sample); a source constant in
    time is one row broadcast over J.
    """
    st = stepper if stepper is not None else _Stepper(spec)
    v = st.op.restrict(v_T)
    if not np.all(np.isfinite(v)):
        raise ValueError("terminal data must be finite")
    M = spec.time_steps
    rows = None
    if keep_rows:
        rows = np.zeros(v.shape[:-1] + (M + 1, spec.mesh.nodes.size))
        rows[..., M, st.cols] = v
    source = None if F is None else _schedule_samples(F, st)
    st.backward(v, source, pairing_out, rows)
    return rows, pairing_out


def solve_adjoint(spec: ProblemSpec, v_T: np.ndarray, F=None) -> Trajectory:
    """March the backward problem from terminal data v_T with source F.

    Implemented as the exact transpose of ``solve_forward``'s step map, so the
    discrete duality pairing with forward solutions holds to rounding.
    """
    rows, _ = _adjoint_march(spec, v_T, F=F)
    return Trajectory(rows, spec.mesh, spec.T)


def energy_reports(spec: ProblemSpec, u0s: np.ndarray, h_rows=None) -> np.ndarray:
    """:func:`energy_report` of every sample in the ``(S, N+1)`` stack ``u0s``,
    under the time-constant nodal controls ``h_rows`` (one row per sample) or
    none; one ratio per sample, NaN for a sample whose data energy is zero.

    The samples march together as one ``(S, n)`` block, and every step is
    reduced across the whole stack as the march closes it, so no trajectory
    is stored.
    """
    st = _Stepper(spec)
    return _energy_ratios(st, u0s, None if h_rows is None else st.op.restrict(h_rows))


def _energy_ratios(st: _Stepper, u0s, g) -> np.ndarray:
    """Energy ratios of the ``(S, N+1)`` stack u0s under the control g on the
    unknown nodes, which acts only inside omega: None, one ``(S, n)`` block
    for every substep, or ``(J, S, n)`` per-substep blocks."""
    spec = st.spec
    op = st.op
    mesh = spec.mesh
    u0s = np.asarray(u0s, dtype=float)
    # row-major like the march's states: a row sum over a column-major
    # block adds in another order
    u = np.ascontiguousarray(op.restrict(u0s))
    if not np.all(np.isfinite(u)):
        raise ValueError("initial data must be finite")
    load = None
    if g is not None:
        g = np.where(st.omega, g, 0.0)
        load = g if g.ndim == 3 else np.broadcast_to(g, st.tau.shape + g.shape)

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
    st.forward(u, load, closed)
    if not np.all(np.isfinite(ut_sq)):
        raise ValueError(
            f"the time-derivative energy, a sum of k*|(u(t+k)-u(t))/k|**2, overflows "
            f"double precision at T={spec.T:g}, time_steps={spec.time_steps}"
        )
    lhs = h1_sup + ut_sq + au_sq

    # data energy, then the control energy of each substep added in order
    terms = [h1a_sq(u0s)]
    if g is not None:
        ctrl_sq = np.sum(W * g * g, axis=-1)
        terms.extend(st.tau[:, None] * ctrl_sq)
    rhs = np.cumsum(np.array(terms), axis=0)[-1]

    dead = rhs <= 0.0
    if np.any(lhs[dead] > 1e-12):
        raise ValueError("inconsistent energy report: zero data but nonzero trajectory")
    return lhs / np.where(dead, np.nan, rhs)


def energy_report(spec: ProblemSpec, u0: np.ndarray, h=None) -> float:
    """Ratio of the trajectory energy to the data energy.

    Numerator: sup_t of the weighted first-order norm squared plus the time
    integrals of |u_t|^2 and |(a u_x)_x|^2.  Denominator: the same first-order
    norm of u0 plus the control energy on the control cylinder.  ``h`` is a
    callable (t, x) -> value or per-substep samples aligned with
    ``substep_times``, sampled on the schedule once; the one-sample case of
    :func:`energy_reports`.
    """
    st = _Stepper(spec)
    g = None if h is None else _schedule_samples(h, st)[:, None, :]
    return float(_energy_ratios(st, np.asarray(u0, dtype=float)[None], g)[0])


# --------------------------------------------------------------------------------
# export formats

_BIN_HEADER = struct.Struct("<qqd")


def trajectory_to_binary(traj: Trajectory, path) -> None:
    """Header (int64 N, int64 M, float64 T) then row-major doubles."""
    M = traj.values.shape[0] - 1
    N = traj.values.shape[1] - 1
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(N, M, traj.T))
        fh.write(np.ascontiguousarray(traj.values, dtype="<f8").tobytes())


def trajectory_from_binary(path) -> dict:
    """Read the compact grid format back; the mesh travels separately."""
    with open(path, "rb") as fh:
        N, M, T = _BIN_HEADER.unpack(fh.read(_BIN_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(M + 1, N + 1)
    return {"N": int(N), "M": int(M), "T": float(T), "values": data}
