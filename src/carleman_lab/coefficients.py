"""Degenerate diffusion coefficients and grid certification of the degeneracy bands.

A coefficient a(x) on [0, 1] vanishes at x = 0 and is positive inside the
interval.  The admissible family is certified on a grid through the ratio
x a'(x)/a(x): its supremum K_est sorts the coefficient into the weak band
(K_est < 1), the strong band (K_est in [1, 2)), or rejects it.  Strong-band
coefficients additionally need a lower ratio bound near x = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Regime",
    "DegeneracyCoefficient",
    "HypothesisReport",
    "make_power_coefficient",
    "make_example_coefficient",
    "make_table_coefficient",
    "coefficient_from_descriptor",
    "classify",
]

# Grid points within 1e-9 of K_est = 1 are treated as the exact boundary case so
# that floating-point ties at the weak/strong split resolve deterministically.
K_BAND_TOL = 1e-9
# Deterministic near-zero ratio bound reported for the exact boundary case.
BOUNDARY_THETA = 0.99


class Regime(Enum):
    WDC = "WDC"
    SDC = "SDC"
    VIOLATION = "Violation"


@dataclass(frozen=True)
class DegeneracyCoefficient:
    """Diffusion coefficient a(x) with analytic first (and optionally second) derivative.

    ``eval`` is defined on [0, 1]; the derivative evaluators are defined on
    (0, 1] and may blow up at the degenerate endpoint.
    """

    label: str
    eval: Callable[[np.ndarray], np.ndarray]
    eval_deriv: Callable[[np.ndarray], np.ndarray]
    eval_deriv2: Optional[Callable[[np.ndarray], np.ndarray]] = None
    descriptor: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class HypothesisReport:
    """Grid certification summary for a coefficient."""

    K_est: float
    regime: Regime
    theta_hyp: Optional[float]
    neighborhood_radius: float
    grid_size: int
    boundary_case: bool = False


def make_power_coefficient(gamma: float) -> DegeneracyCoefficient:
    """Pure power coefficient a(x) = x**gamma with exact derivatives.

    gamma must lie in (0, 2); outside that range the ratio bound K < 2 cannot
    hold and the degenerate problem is not admissible.
    """
    return _power_x("power", gamma)


# the x**t + sigma*x kinds: the name of t, sigma and the open interval of t
_POWER_X = {
    "power": ("gamma", 0.0, 0.0, 2.0),
    "power_minus_x": ("theta", -1.0, 0.0, 1.0),
    "power_plus_x": ("theta", 1.0, 1.0, 2.0),
}


def _power_x(kind: str, t: float) -> DegeneracyCoefficient:
    name, sigma, lo, hi = _POWER_X[kind]
    if not lo < t < hi:
        raise ValueError(f"{kind} requires {name} in ({lo:g}, {hi:g}), got {t}")

    # the sigma terms only where sigma != 0, so the pure power keeps its bits
    def a(x):
        y = np.power(x, t)
        return y + sigma * np.asarray(x, dtype=float) if sigma else y

    def da(x):
        y = t * np.power(x, t - 1.0)
        return y + sigma if sigma else y

    def d2a(x):
        return t * (t - 1.0) * np.power(x, t - 2.0)

    label = f"x^{t:g}" + ("-x" if sigma < 0 else "+x" if sigma > 0 else "")
    return DegeneracyCoefficient(label, a, da, d2a, {"kind": kind, "params": {name: t}})


def make_example_coefficient(kind: str, **params) -> DegeneracyCoefficient:
    """Named coefficients with analytic derivatives.

    Kinds and admissible parameters:

    * ``power``: a(x) = x**gamma, gamma in (0, 2).
    * ``power_minus_x``: a(x) = x**theta - x, theta in (0, 1).
    * ``power_plus_x``: a(x) = x**theta + x, theta in (1, 2).
    * ``power_cos``: a(x) = x**gamma * cos(beta*x), beta = arctan(alpha),
      alpha finite and >= 0 and gamma in (0, 1) or (1, 2).
    """
    if kind in _POWER_X:
        return _power_x(kind, params[_POWER_X[kind][0]])
    if kind != "power_cos":
        raise ValueError(f"unknown coefficient kind {kind!r}")
    gamma = params["gamma"]
    alpha = params.get("alpha", 0.0)
    if not (0.0 < gamma < 1.0 or 1.0 < gamma < 2.0):
        raise ValueError(f"power_cos requires gamma in (0,1) or (1,2), got {gamma}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"power_cos requires a finite alpha >= 0, got {alpha}")
    beta = math.atan(alpha)

    def a(x):
        return np.power(x, gamma) * np.cos(beta * x)

    def da(x):
        return gamma * np.power(x, gamma - 1.0) * np.cos(beta * x) - beta * np.power(
            x, gamma
        ) * np.sin(beta * x)

    def d2a(x):
        return (
            gamma * (gamma - 1.0) * np.power(x, gamma - 2.0) * np.cos(beta * x)
            - 2.0 * gamma * beta * np.power(x, gamma - 1.0) * np.sin(beta * x)
            - beta * beta * np.power(x, gamma) * np.cos(beta * x)
        )

    label = f"x^{gamma:g}*cos({beta:.4g}x)"
    desc = {"kind": "power_cos", "params": {"gamma": gamma, "alpha": alpha}}
    return DegeneracyCoefficient(label, a, da, d2a, desc)


def make_table_coefficient(x, a, label: str = "table") -> DegeneracyCoefficient:
    """Coefficient from tabulated (x, a) pairs with monotone-cubic interpolation.

    The table must start at (0, 0) and stay positive afterwards; derivatives
    come from the interpolant (second derivative is only piecewise continuous).
    """
    # imported here so that only tabulated coefficients load scipy.interpolate
    from scipy.interpolate import PchipInterpolator

    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    if x.ndim != 1 or x.shape != a.shape or x.size < 4:
        raise ValueError("table needs matching 1-d arrays with at least 4 points")
    for name, v in (("x", x), ("a", a)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"table {name} must hold only finite values")
    if np.any(np.diff(x) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    if abs(x[0]) > 0 or abs(a[0]) > 1e-14:
        raise ValueError("table must start at x = 0 with a(0) = 0")
    if np.any(a[1:] <= 0):
        raise ValueError("table values must be positive for x > 0")

    interp = PchipInterpolator(x, a, extrapolate=True)
    d1 = interp.derivative(1)
    d2 = interp.derivative(2)
    desc = {"kind": "table", "x": x.tolist(), "a": a.tolist()}
    return DegeneracyCoefficient(label, interp, d1, d2, desc)


# The keys each descriptor kind reads: at the top level, then in "params".
# Every key is required but the optional ones.
_DESCRIPTOR_KEYS = {
    **{kind: (("kind", "params"), (row[0],)) for kind, row in _POWER_X.items()},
    "power_cos": (("kind", "params"), ("gamma", "alpha")),
    "table": (("kind", "x", "a"), ()),
}
_OPTIONAL_KEYS = ("alpha",)


def _check_keys(where: str, given: dict, read: tuple, nested: tuple = ()) -> None:
    """Raise on the first key of ``given`` outside ``read``, naming the
    closest key of ``read`` or of the ``nested`` params it could have meant,
    then on the first required key of ``read`` missing from ``given``."""
    for name in given:
        if name not in read:
            import difflib  # on the error path only, which alone pays its import

            close = difflib.get_close_matches(name, (*read, *nested), n=1)
            at = "params." if close and close[0] not in read else ""
            hint = f" (did you mean {at}{close[0]}?)" if close else ""
            raise ValueError(f"{name!r} is not a key of {where}{hint}")
    for name in read:
        if name not in given and name not in _OPTIONAL_KEYS:
            raise ValueError(f"missing key {name!r} of {where}")


def coefficient_from_descriptor(desc: dict) -> DegeneracyCoefficient:
    """Rebuild a coefficient from its JSON descriptor.  A key the kind does
    not read, a missing key, a table ``x`` or ``a`` that is not a list, or a
    value other than a finite number (a boolean included) where a number
    belongs, is a ValueError."""
    kind = desc.get("kind")
    if not (isinstance(kind, str) and kind in _DESCRIPTOR_KEYS):
        raise ValueError(f"unknown coefficient descriptor kind {kind!r}")
    top, names = _DESCRIPTOR_KEYS[kind]
    _check_keys(f"a {kind} descriptor", desc, top, names)
    if kind == "table":
        for k in ("x", "a"):
            if not isinstance(desc[k], list):
                raise ValueError(f"{k} must be a list of numbers, got {desc[k]!r}")
        given = [(k, v) for k in ("x", "a") for v in desc[k]]
    else:
        params = desc["params"]
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, got {params!r}")
        _check_keys(f"{kind} params", params, names)
        given = params.items()
    for name, v in given:
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            raise ValueError(f"{name} must be a number, got {v!r}")
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int beyond the largest double
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite number, got {v}")
    if kind == "table":
        return make_table_coefficient(desc["x"], desc["a"])
    return make_example_coefficient(kind, **params)


def classify(
    coef: DegeneracyCoefficient,
    grid_size: int = 2048,
    zero_neighborhood: float = 0.01,
) -> HypothesisReport:
    """Certify the degeneracy band of a coefficient on a log-spaced grid.

    K_est is the grid supremum of x a'(x)/a(x).  The strong band additionally
    records theta_hyp, the grid infimum of the same ratio on
    (0, zero_neighborhood], which must exceed 1 when K_est > 1.  Positivity is
    required at every grid point except x = 1, where a may touch zero.
    """
    if grid_size < 64:
        raise ValueError(f"grid_size must be >= 64, got {grid_size}")
    if not 0.0 < zero_neighborhood <= 0.5:
        raise ValueError(
            f"zero_neighborhood must lie in (0, 0.5], got {zero_neighborhood}"
        )

    def violation() -> HypothesisReport:
        return HypothesisReport(
            K_est=float("nan"),
            regime=Regime.VIOLATION,
            theta_hyp=None,
            neighborhood_radius=zero_neighborhood,
            grid_size=grid_size,
        )

    # Log spacing: the ratio x a'/a attains its extremes near the degenerate
    # endpoint for the built-in families; uniform grids miss it.
    x = np.logspace(-8.0, 0.0, grid_size)
    with np.errstate(all="ignore"):
        a = np.asarray(coef.eval(x), dtype=float)
        da = np.asarray(coef.eval_deriv(x), dtype=float)
        a0 = float(np.asarray(coef.eval(np.array([0.0]))).ravel()[0])

    if not math.isfinite(a0) or abs(a0) > 1e-12:
        return violation()
    if not np.all(np.isfinite(a)):
        return violation()
    interior = x < 1.0
    if np.any(a[interior] <= 0.0):
        return violation()
    if a[-1] < 0.0:
        return violation()

    valid = a > 0.0
    with np.errstate(all="ignore"):
        ratio = x[valid] * da[valid] / a[valid]
    if not np.all(np.isfinite(ratio)):
        return violation()

    K_est = float(np.max(ratio))
    near = x[valid] <= zero_neighborhood
    theta_min = float(np.min(ratio[near])) if np.any(near) else float("nan")

    def report(regime, theta, boundary=False):
        return HypothesisReport(
            K_est=K_est,
            regime=regime,
            theta_hyp=theta,
            neighborhood_radius=zero_neighborhood,
            grid_size=grid_size,
            boundary_case=boundary,
        )

    if K_est < -K_BAND_TOL:
        return violation()
    if K_est < 1.0 - K_BAND_TOL:
        return report(Regime.WDC, None)
    if abs(K_est - 1.0) <= K_BAND_TOL:
        # Exact boundary case: any near-zero bound below 1 works; pick 0.99.
        if math.isfinite(theta_min) and theta_min >= BOUNDARY_THETA - K_BAND_TOL:
            return report(Regime.SDC, BOUNDARY_THETA, boundary=True)
        return violation()
    if K_est < 2.0:
        if math.isfinite(theta_min) and 1.0 < theta_min <= K_est + 1e-12:
            return report(Regime.SDC, theta_min)
        return violation()
    return violation()
