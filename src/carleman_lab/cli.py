"""Experiment runner behind a JSON configuration interface.

Every run writes machine-readable CSV tables, a summary JSON carrying the
config hash and the seed, and a human-readable log.  Exit status 0 means
all asserted invariants of the experiment passed, 1 names the violated
invariant, 2 flags an invalid configuration.  All randomness flows from one
seed through named counter-based generator streams, so identical
(config, seed) pairs give bit-identical CSV output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# weights, functionals and carleman are imported in the runners that call
# them, so a null-control, energy, convergence or classify run never loads them
from .coefficients import Regime, classify, coefficient_from_descriptor, make_power_coefficient
from .control import MIN_PENALTY, synthesize_null_control
from .pde_solver import (
    DEGENERATE_DENOMINATOR,
    LeftBoundary,
    ProblemSpec,
    Scheme,
    Trajectory,
    WeightedNorms,
    boundary_regime_for,
    build_mesh,
    energy_report,
    omega_node_mask,
    solve_adjoint,
    solve_forward,
    substep_times,
    trajectory_to_binary,
    trapezoid_time_weights,
)
from .sampling import (
    GENERATOR_NAME,
    MAX_SEED,
    STREAM_CONTROL,
    STREAM_INITIAL,
    STREAM_TERMINAL,
    sample_fields,
)

# Upper bound of every size and count field (mesh cells, time steps, samples,
# resolutions, iterations): larger values exit 2 instead of reaching numpy.
MAX_SIZE = 1_000_000
# Upper bound of the entries of the largest field block a run allocates: the
# space-time grid times the samples marched together, the Hardy draws, or a
# convergence study's finest trajectory (400 MB of float64).
MAX_GRID_ENTRIES = 50_000_000
# Upper bound of sum |c_n| for the initial state sum c_n sin(n pi x), so the
# squares in its norms and in the CG inner products stay finite.
MAX_AMPLITUDE = 1e100
# The default of a field that a config must give.
REQUIRED = "required"


class Field(NamedTuple):
    kind: str  # number, integer, flag, text, choice, interval, grid, sizes, modes or coefficient
    readers: tuple  # the experiments whose runners read the field
    default: object = None  # REQUIRED, a value, or None where the runner derives one
    lo: float | None = None  # least value (number, integer) or entry (sizes)
    hi: float | None = None  # greatest value or entry
    strict_lo: bool = False  # the least value itself is out of bounds
    choices: tuple = ()  # the values a choice may take


# the experiments that march a ProblemSpec built by _build_problem
MARCHING = ("energy", "carleman_sweep", "lemma_checks", "observability", "null_control")
_SAMPLING = ("hardy", "energy", "carleman_sweep", "lemma_checks", "observability")
_ALL = ("classify", "hardy", *MARCHING, "convergence")

# The config schema, in the order validate_config reports bad fields.  A
# runner reads an optional field through _value, which falls back on the
# experiment's own default (Experiment.defaults) and then on the one here.
FIELDS = {
    "experiment": Field("choice", _ALL, REQUIRED, choices=_ALL),
    "coefficient": Field("coefficient", ("classify", "hardy", *MARCHING), REQUIRED),
    "T": Field("number", (*MARCHING, "convergence"), 1.0, 0, strict_lo=True),
    "mesh_n": Field("integer", ("hardy", *MARCHING), 128, 8, MAX_SIZE),
    "mesh_grading": Field("number", ("hardy", *MARCHING), 2.0, 1.0, 4.0),
    "time_steps": Field("integer", MARCHING, 128, 1, MAX_SIZE),
    "n_samples": Field("integer", _SAMPLING, None, 1, MAX_SIZE),
    "seed": Field("integer", _ALL, 0, 0, MAX_SEED),
    # synthesize_null_control refuses a penalty below MIN_PENALTY
    "epsilon": Field("number", ("null_control",), 1e-6, MIN_PENALTY),
    "s": Field("number", ("lemma_checks",), 1.0, 0, strict_lo=True),
    "lambda": Field("number", ("lemma_checks",), 1.0, 0, strict_lo=True),
    "zero_order_exponent": Field("number", ("carleman_sweep",), 5.0 / 3.0, 0, strict_lo=True),
    # the coarse half of the identity check needs an interior time level
    "resolution": Field("integer", ("lemma_checks",), 256, 4, MAX_SIZE),
    "cg_max_iter": Field("integer", ("null_control",), 500, 1, MAX_SIZE),
    "cg_tol": Field("number", ("null_control",), 1e-8, 0, strict_lo=True),
    "grid_size": Field("integer", ("classify",), 2048, 64, MAX_SIZE),
    "spatial_time_steps": Field("integer", ("convergence",), 512, 1, MAX_SIZE),
    "temporal_mesh_n": Field("integer", ("convergence",), 512, 8, MAX_SIZE),
    "terminal_threshold_rel": Field("number", ("null_control",), 1e-2, 0, strict_lo=True),
    "residual_threshold": Field("number", ("lemma_checks",), 1e-3, 0, strict_lo=True),
    "zero_neighborhood": Field("number", ("classify",), 0.01, 0, 0.5, strict_lo=True),
    "potential_const": Field("number", MARCHING, 0.0),
    "min_spatial_order": Field("number", ("convergence",), 1.0),
    "min_temporal_order": Field("number", ("convergence",), 1.8),
    "s_relative": Field("flag", ("carleman_sweep",), True),
    "output_dir": Field("text", _ALL, "out"),
    "u0_modes": Field("modes", ("null_control",), (1.0,)),
    "spatial_n": Field("sizes", ("convergence",), (32, 64, 128), 8, MAX_SIZE),
    "temporal_m": Field("sizes", ("convergence",), (8, 16, 32), 1, MAX_SIZE),
    "omega": Field("interval", MARCHING, (0.3, 0.7)),
    # None: the middle half of omega (default_omega_prime)
    "omega_prime": Field("interval", ("carleman_sweep", "lemma_checks")),
    "lambda_grid": Field("grid", ("carleman_sweep",), REQUIRED),
    "s_grid": Field("grid", ("carleman_sweep",), REQUIRED),
    "boundary": Field("choice", MARCHING, "auto", choices=("auto", "dirichlet_zero", "zero_flux")),
    "scheme": Field(
        "choice", MARCHING, "crank_nicolson", choices=("crank_nicolson", "backward_euler")
    ),
}


# rows of a table formatted at a time, which bounds the text held
_CSV_BLOCK_ROWS = 4096
# least length of a numeric column that is searched for repeated values:
# np.unique costs about 10 us a column and %.17g about 0.4 us a value, so
# below some 32 entries formatting every value is faster even for a
# constant column
_CSV_DEDUPE_MIN_ROWS = 32


def _write_csv(path: Path, columns: dict) -> None:
    """Write a table given as {header: column}, the columns of one length:
    each a numpy array or list of numbers, or a list of strings.  A number
    is written as %.17g of its float, which is also how an integer below
    2**53 reads.  A column of at least _CSV_DEDUPE_MIN_ROWS entries that
    repeats its values has each distinct bit pattern formatted once, and the
    rows go out one block at a time."""
    cols = []  # (format, texts, data): data indexes texts, or is the column itself
    for col in columns.values():
        # a list's first entry tells text from numbers: no pass over an array's entries
        if not isinstance(col, np.ndarray) and len(col) and isinstance(col[0], str):
            cols.append(("%s", None, np.array(col, dtype=object)))
            continue
        col = np.ascontiguousarray(col, dtype=float)
        if col.size >= _CSV_DEDUPE_MIN_ROWS:
            # keyed by bits, so -0.0 and 0.0 keep their own text
            uniq, index = np.unique(col.view(np.uint64), return_inverse=True)
            if 2 * uniq.size <= col.size:
                texts = np.array(["%.17g" % v for v in uniq.view(float).tolist()], dtype=object)
                cols.append(("%s", texts, index))
                continue
        cols.append(("%.17g", None, col))
    n = len(cols[0][2])
    line = ",".join(f for f, _, _ in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n)
            block = np.empty((hi - lo, len(cols)), dtype=object)
            for j, (_, texts, data) in enumerate(cols):
                block[:, j] = data[lo:hi] if texts is None else texts[data[lo:hi]]
            fh.write(line * (hi - lo) % tuple(block.ravel().tolist()))


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()


def _field_errors(name: str, f: Field, v) -> list[str]:
    """The messages on one given value, checked by its field's kind and bounds;
    a value that passes every check of its kind falls through to []."""
    if f.kind in ("number", "integer"):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return [f"{name}: must be a number, got {v!r}"]
        if isinstance(v, float) and not math.isfinite(v):
            return [f"{name}: must be a finite number, got {v}"]
        # runners truncate with int(), so 16.7 would run as 16 under the hash of 16.7
        if f.kind == "integer" and v != int(v):
            return [f"{name}: must be an integer, got {v}"]
        if f.lo is not None and (v <= f.lo if f.strict_lo else v < f.lo):
            return [f"{name}: must be {'>' if f.strict_lo else '>='} {f.lo}, got {v}"]
        if f.hi is not None and v > f.hi:
            return [f"{name}: must be <= {f.hi}, got {v}"]
    if f.kind == "flag" and not isinstance(v, bool):
        return [f"{name}: must be true or false, got {v!r}"]
    if f.kind == "text" and not isinstance(v, str):
        return [f"{name}: must be a string, got {v!r}"]
    if f.kind == "choice" and v not in f.choices:
        return [f"{name}: must be {', '.join(f.choices[:-1])} or {f.choices[-1]}, got {v!r}"]
    if f.kind == "interval" and not (
        isinstance(v, (list, tuple)) and len(v) == 2
        and all(isinstance(e, (int, float)) for e in v) and 0.0 < v[0] < v[1] < 1.0
    ):
        return [f"{name}: must be [a, b] with 0 < a < b < 1, got {v!r}"]
    if f.kind == "grid":
        if not isinstance(v, (list, tuple)) or not v:
            return [f"{name}: must be a nonempty list"]
        if not all(isinstance(e, (int, float)) and not isinstance(e, bool) and e > 0 for e in v):
            return [f"{name}: entries must be positive numbers"]
        if any(isinstance(e, float) and not math.isfinite(e) for e in v):
            return [f"{name}: entries must be finite numbers, got {v}"]
    if f.kind == "sizes":
        if not isinstance(v, list) or len(v) < 2:
            return [f"{name}: must be a list of at least two sizes, got {v!r}"]
        entry = f._replace(kind="integer")  # bounds each size
        errors = [e for i, n in enumerate(v) for e in _field_errors(f"{name}[{i}]", entry, n)]
        if not errors and any(int(a) >= int(b) for a, b in zip(v, v[1:])):
            errors.append(f"{name}: sizes must increase, got {v}")
        return errors
    if f.kind == "modes":
        if not isinstance(v, list) or not v or len(v) > MAX_SIZE:
            return [f"{name}: must be a list of 1 to {MAX_SIZE} numbers, got {v!r}"]
        entry = Field("number", ())  # any finite number
        errors = [e for i, c in enumerate(v) for e in _field_errors(f"{name}[{i}]", entry, c)]
        if errors:
            return errors
        amplitude = sum(abs(c) for c in v)
        if amplitude == 0.0:
            return [f"{name}: needs a nonzero coefficient (u0 = 0 has no relative terminal norm)"]
        if amplitude > MAX_AMPLITUDE:
            return [f"{name}: the sum of absolute coefficients must be <= {MAX_AMPLITUDE:g}, "
                    f"got {amplitude:g}"]
    if f.kind == "coefficient":
        if not isinstance(v, dict) or "kind" not in v:
            return [f"{name}: must be an object with a 'kind' field"]
        try:
            coefficient_from_descriptor(v)
        except (ValueError, TypeError) as exc:
            return [f"{name}: {exc}"]
    return []


def validate_config(cfg: dict) -> list[str]:
    """Field-level validation; returns a list of error messages: one per key
    the experiment's runner does not read, one per bad field in the order of
    FIELDS, then one per broken rule joining several fields."""
    if not isinstance(cfg, dict):
        return [f"config: must be a JSON object, got {type(cfg).__name__}"]
    exp = cfg.get("experiment")
    if exp is None:
        return ["experiment: missing (one of %s)" % ", ".join(EXPERIMENTS)]
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        return [f"experiment: unknown value {exp!r}"]

    fields = [name for name, f in FIELDS.items() if exp in f.readers]
    errors = []
    unread = [name for name in cfg if name not in fields]
    if unread:
        import difflib  # on the error path only, which alone pays its import
    for name in unread:
        close = difflib.get_close_matches(name, fields, n=1)
        hint = f" (did you mean {close[0]}?)" if close else ""
        errors.append(f"{name}: not a field of {exp}{hint}")
    # the keys that are not fields of exp or not valid, which no joint rule reads
    bad = set(unread)
    for name in fields:
        if name in cfg:
            field_errors = _field_errors(name, FIELDS[name], cfg[name])
        elif FIELDS[name].default is REQUIRED:
            field_errors = [f"{name}: required for {exp}"]
        else:
            continue
        if field_errors:
            bad.add(name)
            errors += field_errors

    def ok(*names) -> bool:
        return bad.isdisjoint(names)

    def size(name) -> int:
        """A size field's value, or the largest of a list of sizes."""
        v = _value(cfg, name)
        return max(map(int, v)) if isinstance(v, (list, tuple)) else int(v)

    def cap(names: tuple, formula: str, entries: Callable) -> None:
        # entries() reads the named fields, so it runs once they are all valid
        if ok(*names) and (n := entries()) > MAX_GRID_ENTRIES:
            errors.append(f"{', '.join(names)}: {formula} must be <= {MAX_GRID_ENTRIES}, got {n}")

    if "omega_prime" in cfg and ok("omega", "omega_prime"):
        # checked against the omega the runners use, given or default
        o, op = _value(cfg, "omega"), cfg["omega_prime"]
        if not (o[0] < op[0] < op[1] < o[1]):
            errors.append(f"omega_prime: must be compactly contained in omega {list(o)}")
    if exp in ("carleman_sweep", "lemma_checks") and ok("coefficient"):
        from .weights import A_ONE_VANISHES  # for the weight-building experiments only
        # the weight profile integrates y/a(y) up to x = 1
        if coefficient_from_descriptor(cfg["coefficient"]).eval(np.array([1.0]))[0] == 0.0:
            errors.append(A_ONE_VANISHES)
    if exp in MARCHING:
        if ok("mesh_n", "mesh_grading", "omega"):
            mesh, omega = _mesh(cfg), tuple(_value(cfg, "omega"))
            if not omega_node_mask(mesh, omega).any():
                errors.append(
                    f"omega: {list(omega)} holds no mesh node "
                    f"(mesh_n={mesh.n_cells}, mesh_grading={mesh.grading_exponent:g})"
                )
        cap(("mesh_n", "time_steps", "n_samples"), "(mesh_n+1)*(time_steps+1)*max(1, n_samples)",
            lambda: (size("mesh_n") + 1) * (size("time_steps") + 1)
            * max(1, size("n_samples") if "n_samples" in fields else 0))
    if exp == "lemma_checks":
        from .carleman import _grid_entries  # lemma_checks loads the chain anyway
        # identity_residual holds about fifteen grids of this size
        cap(("resolution",), "(resolution+1)*(abscissae of the identity grid)",
            lambda: _grid_entries(size("resolution")))
    if exp == "hardy":
        cap(("mesh_n", "n_samples"), "(mesh_n+1)*n_samples",
            lambda: (size("mesh_n") + 1) * size("n_samples"))
    if exp == "convergence":
        cap(("spatial_n", "spatial_time_steps"), "(max(spatial_n)+1)*(spatial_time_steps+1)",
            lambda: (size("spatial_n") + 1) * (size("spatial_time_steps") + 1))
        cap(("temporal_mesh_n", "temporal_m"), "(temporal_mesh_n+1)*(max(temporal_m)+1)",
            lambda: (size("temporal_mesh_n") + 1) * (size("temporal_m") + 1))
    if exp in MARCHING and ok("T", "time_steps"):
        T, steps = _value(cfg, "T"), size("time_steps")
        if T / steps == 0.0:
            # the step length the marches divide by would underflow to 0
            errors.append(f"T: T/time_steps must be > 0, got T={T!r} over time_steps={steps}")
            bad.add("T")
    if exp in MARCHING and ok("potential_const", "T", "time_steps", "scheme"):
        # a step matrix W + th*tau*(S + W*c) has a positive, strictly dominant
        # diagonal iff 1 + th*tau*c > 0; th*tau is dt/2 (Crank-Nicolson) or dt
        scheme = _value(cfg, "scheme")
        bound = -1 if scheme == "backward_euler" else -2
        least = bound * size("time_steps") / _value(cfg, "T")
        if _value(cfg, "potential_const") <= least:
            errors.append(
                f"potential_const: potential_const*T/time_steps must be > {bound} for {scheme} "
                f"(step matrices keep a positive, strictly dominant diagonal), "
                f"so > {least:g} here, got {cfg['potential_const']}"
            )
    try:
        _env_seed()
    except ValueError as exc:
        errors.append(str(exc))
    return errors


def _env_seed():
    """The ``CARLEMAN_LAB_SEED`` override, or None when it is unset."""
    env = os.environ.get("CARLEMAN_LAB_SEED")
    if env is None:
        return None
    try:
        seed = int(env)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"CARLEMAN_LAB_SEED: must be a non-negative integer, got {env!r}")
    if seed > MAX_SEED:
        raise ValueError(f"CARLEMAN_LAB_SEED: must be <= {MAX_SEED}, got {env!r}")
    return seed


def _value(cfg: dict, name: str):
    """A field of the config, or its default: the experiment's own, else the schema's."""
    if name in cfg:
        return cfg[name]
    return EXPERIMENTS[cfg["experiment"]].defaults.get(name, FIELDS[name].default)


def _mesh(cfg: dict):
    return build_mesh(int(_value(cfg, "mesh_n")), float(_value(cfg, "mesh_grading")))


def _build_problem(cfg: dict) -> ProblemSpec:
    """The problem of a config, its coefficient certified by ``classify``."""
    coef = coefficient_from_descriptor(cfg["coefficient"])
    report = classify(coef)
    boundary = _value(cfg, "boundary")
    # an explicit boundary is kept as given, so the spec skips its band check
    auto = boundary == "auto"
    return ProblemSpec(
        T=float(_value(cfg, "T")),
        coef=coef,
        regime=boundary_regime_for(report) if auto else LeftBoundary(boundary),
        mesh=_mesh(cfg),
        time_steps=int(_value(cfg, "time_steps")),
        omega=tuple(_value(cfg, "omega")),
        c=float(_value(cfg, "potential_const")),
        scheme=Scheme(_value(cfg, "scheme")),
        hypothesis=report if auto else None,
    )


# --------------------------------------------------------------------------------
# experiments: each returns (tables, results, invariants)
# tables: {filename: {header: column}} (_write_csv), or a Trajectory for a .bin
# grid; invariants: list of (name, passed, detail)


def _max_evaluable(ratios: np.ndarray) -> float:
    """The largest ratio that is not NaN, a NaN marking a sample with nothing
    to evaluate; NaN when no sample has a ratio."""
    evaluable = ratios[~np.isnan(ratios)]
    return float(evaluable.max()) if evaluable.size else float("nan")


def _exp_classify(cfg, seed, log):
    coef = coefficient_from_descriptor(cfg["coefficient"])
    rep = classify(
        coef,
        grid_size=int(_value(cfg, "grid_size")),
        zero_neighborhood=float(_value(cfg, "zero_neighborhood")),
    )
    log(f"classified {coef.label}: regime={rep.regime.value} K_est={rep.K_est:.12g}")
    tables = {
        "classify.csv": {
            "label": [coef.label],
            "K_est": [rep.K_est],
            "regime": [rep.regime.value],
            "theta_hyp": [rep.theta_hyp if rep.theta_hyp is not None else float("nan")],
            "boundary_case": [int(rep.boundary_case)],
            "grid_size": [rep.grid_size],
            "neighborhood_radius": [rep.neighborhood_radius],
        }
    }
    results = {
        "regime": rep.regime.value,
        "K_est": rep.K_est,
        "theta_hyp": rep.theta_hyp,
        "boundary_case": rep.boundary_case,
    }
    invariants = [
        (
            "coefficient admissible (certification succeeded)",
            rep.regime is not Regime.VIOLATION,
            rep.regime.value,
        )
    ]
    return tables, results, invariants


def _exp_hardy(cfg, seed, log):
    from .functionals import HardyCase, aux_hardy_b, aux_hardy_p, hardy_ratio  # hardy runs only

    coef = coefficient_from_descriptor(cfg["coefficient"])
    rep = classify(coef)
    mesh = _mesh(cfg)
    n_samples = int(_value(cfg, "n_samples"))
    case = HardyCase.CASE_A if rep.regime is Regime.WDC else HardyCase.CASE_B
    draws = sample_fields(seed, STREAM_TERMINAL, n_samples, mesh.nodes)
    main = hardy_ratio(coef, mesh, draws, case)
    ratios = main["ratio"]
    violations = int(np.count_nonzero(main["violation"]))
    written = ("lhs", "rhs", "ratio")
    tables = {
        "hardy.csv": {
            "sample": np.arange(n_samples),
            "case": [case.value] * n_samples,
            **{k: main[k] for k in written},
        }
    }
    if rep.boundary_case:
        # every p row, then every b row
        p = hardy_ratio(aux_hardy_p(coef), mesh, draws, HardyCase.AUX_P)
        b = hardy_ratio(aux_hardy_b(coef), mesh, draws, HardyCase.AUX_B)
        aux = {k: np.concatenate([p[k], b[k]]) for k in p}
        violations += int(np.count_nonzero(aux["violation"]))
        tables["hardy_aux.csv"] = {
            "aux": ["p"] * n_samples + ["b"] * n_samples,
            "sample": np.tile(np.arange(n_samples), 2),
            **{k: aux[k] for k in written},
        }
    max_ratio = _max_evaluable(ratios)
    log(f"hardy ratios over {n_samples} draws: max={max_ratio:.6g}")
    results = {"max_ratio": max_ratio, "violations": violations, "case": case.value}
    invariants = [
        ("no Hardy violations", violations == 0, f"{violations} flagged"),
        ("all ratios finite", bool(np.isfinite(ratios).all()), ""),
    ]
    return tables, results, invariants


def _exp_energy(cfg, seed, log):
    spec = _build_problem(cfg)
    n_samples = int(_value(cfg, "n_samples"))
    u0s = sample_fields(seed, STREAM_INITIAL, n_samples, spec.mesh.nodes)
    hs = sample_fields(seed, STREAM_CONTROL, n_samples, spec.mesh.nodes)
    ratios = energy_report(spec, u0s, hs)
    max_ratio = _max_evaluable(ratios)
    log(f"energy ratios: max={max_ratio:.6g}")
    tables = {"energy.csv": {"sample": np.arange(n_samples), "ratio": ratios}}
    results = {"max_ratio": max_ratio}
    invariants = [("all energy ratios finite", bool(np.isfinite(ratios).all()), "")]
    return tables, results, invariants


def _exp_carleman_sweep(cfg, seed, log):
    from .carleman import carleman_sweep  # sweep runs only

    spec = _build_problem(cfg)
    omega_prime = _value(cfg, "omega_prime")
    res = carleman_sweep(
        spec,
        n_samples=int(_value(cfg, "n_samples")),
        s_grid=list(cfg["s_grid"]),
        lambda_grid=list(cfg["lambda_grid"]),
        seed=seed,
        omega_prime=None if omega_prime is None else tuple(omega_prime),
        s_relative=bool(_value(cfg, "s_relative")),
        zero_order_exponent=float(_value(cfg, "zero_order_exponent")),
    )
    log(
        "sweep: empirical_C=%.6g excluded=%d"
        % (res.summary["empirical_C"], res.summary["excluded_count"])
    )
    p = res.points
    tables = {
        "carleman_sweep.csv": res.table,
        "carleman_summary.csv": {
            k: p[k] for k in ("s", "lambda", "s0", "max_ratio", "median_ratio", "n_valid")
        },
    }
    results = {
        "empirical_C": res.summary["empirical_C"],
        "excluded_count": res.summary["excluded_count"],
        "sweep_config_sha256": res.summary["config_sha256"],
    }
    invalid = "; ".join(
        f"s={s:g}, lambda={lam:g}: {degenerate} degenerate denominators, "
        f"{nonfinite} non-finite ratios"
        for s, lam, degenerate, nonfinite in zip(
            *(p[k][p["n_valid"] < 1] for k in ("s", "lambda", "n_degenerate", "n_nonfinite"))
        )
    )
    invariants = [
        ("no infinite ratios", not np.isinf(res.table["ratio"]).any(), ""),
        ("every (s, lambda) point has a valid sample", not invalid, invalid),
    ]
    return tables, results, invariants


def _exp_lemma_checks(cfg, seed, log):
    from .carleman import (boundary_sign_terms, identity_residual,  # lemma_checks runs only
                           standard_identity_fields)
    from .weights import build_weights, default_omega_prime

    spec = _build_problem(cfg)
    omega_prime = _value(cfg, "omega_prime")
    omega_prime = tuple(default_omega_prime(spec.omega) if omega_prime is None else omega_prime)
    s = float(_value(cfg, "s"))
    wts = build_weights(spec.coef, float(_value(cfg, "lambda")), spec.T, *omega_prime)
    resolution = int(_value(cfg, "resolution"))
    threshold = float(_value(cfg, "residual_threshold"))
    dirichlet = spec.regime is LeftBoundary.DIRICHLET_ZERO
    fields = standard_identity_fields(spec.T, dirichlet)
    fine, coarse = [], []
    for f in fields:
        coarse.append(identity_residual(f, wts, s, resolution // 2))
        fine.append(identity_residual(f, wts, s, resolution))
        log(f"identity residual [{f.name}]: {fine[-1]:.3e} (coarse {coarse[-1]:.3e})")
    decreasing = [int(r < c) for r, c in zip(fine, coarse)]
    ok_resid = all(r < threshold for r in fine) and all(decreasing)

    n_samples = int(_value(cfg, "n_samples"))
    vts = sample_fields(seed, STREAM_TERMINAL, n_samples, spec.mesh.nodes)
    term, scale = boundary_sign_terms(solve_adjoint(spec, vts), wts, s)
    # exp(s*phi) underflowed at the ends: the sign check would pass on nothing
    if np.any(scale < DEGENERATE_DENOMINATOR):
        raise ValueError(f"boundary term underflows at s={s:g}, lambda={wts.lam:g}")
    passed = term >= -1e-8 * scale
    tables = {
        "identity_residuals.csv": {
            "field": [f.name for f in fields],
            "resolution": [resolution] * len(fields),
            "residual": fine,
            "residual_half_resolution": coarse,
            "decreasing": decreasing,
        },
        "boundary_sign.csv": {
            "sample": np.arange(n_samples),
            "term": term,
            "scale": scale,
            "passed": passed,
        },
    }
    results = {"max_residual": max(fine), "min_sign_term": float(term.min())}
    invariants = [
        (f"identity residual < {threshold:g} and decreasing", ok_resid, ""),
        ("boundary term nonnegative within tolerance", bool(passed.all()), ""),
    ]
    return tables, results, invariants


def _exp_observability(cfg, seed, log):
    from .carleman import observability_ratio  # observability runs only

    spec = _build_problem(cfg)
    n_samples = int(_value(cfg, "n_samples"))
    obs = observability_ratio(spec, n_samples=n_samples, seed=seed)
    scale_err = obs.scale_invariance_error
    log(f"observability constant: {obs.constant:.6g} (excluded {obs.excluded_count})")
    tables = {"observability.csv": {"sample": np.arange(n_samples), "ratio": obs.ratios}}
    results = {
        "constant": obs.constant,
        "excluded_count": obs.excluded_count,
        "scale_invariance_error": scale_err,
    }
    invariants = [
        ("constant finite", math.isfinite(obs.constant), ""),
        ("degree-0 homogeneity within 1e-10", scale_err < 1e-10, f"{scale_err:.3e}"),
    ]
    return tables, results, invariants


def _exp_null_control(cfg, seed, log):
    spec = _build_problem(cfg)
    modes = _value(cfg, "u0_modes")
    xs = spec.mesh.nodes
    u0 = np.zeros_like(xs)
    for n, c in enumerate(modes, start=1):
        u0 += c * np.sin(n * np.pi * xs)
    epsilon = float(_value(cfg, "epsilon"))
    result = synthesize_null_control(
        spec,
        u0,
        epsilon,
        cg_tol=float(_value(cfg, "cg_tol")),
        cg_max_iter=int(_value(cfg, "cg_max_iter")),
    )
    u0_norm = math.sqrt(WeightedNorms(spec.mesh, spec.coef).l2_sq(u0))
    # u0 = 0 on the mesh leaves the relative norm undefined, which fails the check
    rel = result.terminal_norm / u0_norm if u0_norm > 0 else float("nan")
    threshold = float(_value(cfg, "terminal_threshold_rel"))
    log(
        f"null control: terminal={result.terminal_norm:.6g} rel={rel:.6g} "
        f"iters={result.cg_iterations} converged={result.converged}"
    )
    vals = result.values
    js, ix = np.nonzero(vals)
    tables = {
        "control.csv": {"t": result.sample_times[js], "x": xs[ix], "value": vals[js, ix]},
        "control.bin": Trajectory(vals, spec.mesh, spec.T),
    }
    results = {
        "terminal_norm": result.terminal_norm,
        "terminal_rel": rel,
        "control_cost": result.control_cost,
        "cg_iterations": result.cg_iterations,
        "converged": result.converged,
        "epsilon": epsilon,
    }
    mask = omega_node_mask(spec.mesh, spec.omega)
    support_ok = bool(np.all(vals[:, ~mask] == 0.0))
    invariants = [
        ("conjugate gradients converged", result.converged, f"{result.cg_iterations} iterations"),
        ("control vanishes outside omega", support_ok, ""),
        (
            f"terminal norm below {threshold:g} of the data norm",
            rel <= threshold,
            f"{rel:.3e}",
        ),
    ]
    return tables, results, invariants


def _exp_convergence(cfg, seed, log):
    # manufactured problem on a = x with value-pinned boundaries
    coef = make_power_coefficient(1.0)
    T = float(_value(cfg, "T"))

    pi = np.pi

    def exact(t, x):
        return np.exp(np.sin(2.0 * t) - t) * np.sin(pi * x)

    def source(t, x):
        q = np.exp(np.sin(2.0 * t) - t)
        return q * (
            (2.0 * np.cos(2.0 * t) - 1.0) * np.sin(pi * x)
            - pi * np.cos(pi * x)
            + pi * pi * x * np.sin(pi * x)
        )

    def run(N, M, grading=1.0):
        mesh = build_mesh(N, grading)
        spec = ProblemSpec(
            T=T,
            coef=coef,
            regime=LeftBoundary.DIRICHLET_ZERO,
            mesh=mesh,
            time_steps=M,
            omega=(0.3, 0.7),  # the study has no control; no output reads it
            scheme=Scheme.CRANK_NICOLSON,
        )
        u0 = exact(0.0, mesh.nodes)
        # the source on every (substep time, mesh node) pair, evaluated once
        f = source(substep_times(spec)[0][:, None], mesh.nodes[None, :])
        traj = solve_forward(spec, u0, source=f)
        diff = traj.values - exact(traj.times[:, None], mesh.nodes[None, :])
        rowsums = WeightedNorms(mesh, coef).l2_sq(diff)
        # added left to right, as a loop over the time rows would
        err_sq = np.cumsum(trapezoid_time_weights(T, M) * rowsums)[-1]
        return math.sqrt(err_sq)

    def orders(study, sizes, errors):
        # an error that is not positive has no logarithm: a horizon so short
        # that its trapezoid weights flush the squared errors gives exact zeros
        for size, err in zip(sizes, errors):
            if not err > 0.0:
                raise ValueError(f"the {study} study's error at size {size} is {err:g} at "
                                 f"T={T:g}, so it has no convergence order")
        return [math.log(errors[i] / errors[i + 1]) / math.log(sizes[i + 1] / sizes[i])
                for i in range(len(errors) - 1)]

    spatial_n = [int(n) for n in _value(cfg, "spatial_n")]
    m_fixed = int(_value(cfg, "spatial_time_steps"))
    sp_errors = [run(n, m_fixed) for n in spatial_n]
    sp_orders = orders("spatial", spatial_n, sp_errors)

    temporal_m = [int(m) for m in _value(cfg, "temporal_m")]
    n_fixed = int(_value(cfg, "temporal_mesh_n"))
    tm_errors = [run(n_fixed, m) for m in temporal_m]
    tm_orders = orders("temporal", temporal_m, tm_errors)
    log(f"spatial orders: {['%.3f' % o for o in sp_orders]}")
    log(f"temporal orders: {['%.3f' % o for o in tm_orders]}")
    tables = {
        "convergence.csv": {
            "study": ["spatial"] * len(spatial_n) + ["temporal"] * len(temporal_m),
            "size": spatial_n + temporal_m,
            "error": sp_errors + tm_errors,
        }
    }
    results = {"spatial_orders": sp_orders, "temporal_orders": tm_orders}
    min_spatial = float(_value(cfg, "min_spatial_order"))
    min_temporal = float(_value(cfg, "min_temporal_order"))
    invariants = [
        (
            f"observed spatial order >= {min_spatial}",
            min(sp_orders) >= min_spatial,
            f"{min(sp_orders):.3f}",
        ),
        (
            f"observed temporal order >= {min_temporal}",
            min(tm_orders) >= min_temporal,
            f"{min(tm_orders):.3f}",
        ),
    ]
    return tables, results, invariants


class Experiment(NamedTuple):
    run: Callable  # (cfg, seed, log) -> ({file: {header: column} | Trajectory}, results, invariants)
    anchor: str  # behavioral description recorded in each summary
    defaults: dict  # the experiment's own defaults, over those of FIELDS


EXPERIMENTS = {
    "classify": Experiment(
        _exp_classify, "degeneracy-band certification of the diffusion coefficient", {}
    ),
    "hardy": Experiment(
        _exp_hardy, "weighted Hardy-type ratio estimation", {"mesh_n": 512, "n_samples": 50}
    ),
    "energy": Experiment(_exp_energy, "trajectory-energy to data-energy ratio", {"n_samples": 20}),
    "carleman_sweep": Experiment(
        _exp_carleman_sweep, "weighted observability-type inequality sweep", {"n_samples": 10}
    ),
    "lemma_checks": Experiment(
        _exp_lemma_checks, "conjugated-operator identity and boundary-sign checks",
        {"n_samples": 10},
    ),
    "observability": Experiment(
        _exp_observability, "empirical observability constant", {"n_samples": 20}
    ),
    "null_control": Experiment(_exp_null_control, "penalized dual null-control synthesis", {}),
    "convergence": Experiment(_exp_convergence, "manufactured-solution convergence orders", {}),
}


# --------------------------------------------------------------------------------


def run_experiment(cfg: dict, outdir: Path) -> int:
    """Run a validated config and write what it returns into outdir: its
    tables, summary.json and run.log.  No other function opens an output file."""
    try:
        env_seed = _env_seed()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = int(_value(cfg, "seed")) if env_seed is None else env_seed
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: output directory not writable: {exc}", file=sys.stderr)
        return 2
    log_lines: list[str] = []
    log = log_lines.append

    exp = cfg["experiment"]
    log(f"experiment: {exp}")
    log(f"seed: {seed} (generator {GENERATOR_NAME})")
    try:
        files, results, invariants = EXPERIMENTS[exp].run(cfg, seed, log)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        log(f"error: {str(exc) or type(exc).__name__}")
        files, failed = {}, None
    else:
        failed = [name for name, ok, _ in invariants if not ok]
        for name, ok, detail in invariants:
            log(f"invariant [{name}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
        summary = {
            "experiment": exp,
            "anchor": EXPERIMENTS[exp].anchor,
            "seed": seed,
            "generator": GENERATOR_NAME,
            "config_sha256": _config_hash(cfg),
            "results": results,
            "invariants": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in invariants
            ],
            "status": "pass" if not failed else "fail",
        }
        files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    files["run.log"] = "\n".join(log_lines) + "\n"

    try:
        for fname, content in files.items():
            if isinstance(content, Trajectory):
                trajectory_to_binary(content, outdir / fname)
            elif isinstance(content, dict):
                _write_csv(outdir / fname, content)
            else:
                (outdir / fname).write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"config error: output directory not writable: {exc}", file=sys.stderr)
        return 2
    print("\n".join(log_lines))
    if failed is None:
        return 1
    if failed:
        print(f"FAILED invariants: {'; '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="carleman-lab",
        description="Verification experiments for the degenerate parabolic control laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON configuration")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_val = sub.add_parser("validate", help="validate a JSON config")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    errors = validate_config(cfg)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("config ok")
        return 0

    outdir = Path(args.out) if args.out else Path(_value(cfg, "output_dir"))
    return run_experiment(cfg, outdir)


if __name__ == "__main__":
    sys.exit(main())
