"""Schema-driven search of the command line.

Configs for every experiment are drawn from ``cli.FIELDS`` (each field's
kind, bounds and choices) at tiny sizes, with the extremes of s, lambda, T
and omega mixed in, and each is run through ``cli.main``.  Whatever the
config, ``main`` raises nothing and exits 0 with finite results, 1 with the
reason in ``run.log``, or 2 with config errors alone on standard error, and
no ``RuntimeWarning`` escapes the run.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab import cli

# derandomized and without an example database: the same configs every run
SEARCH = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# the largest value drawn for each size or count field, so a run takes
# milliseconds; these fields are always given, since their defaults are large
TINY = {"mesh_n": 16, "time_steps": 12, "n_samples": 3, "resolution": 12, "cg_max_iter": 20,
        "grid_size": 128, "spatial_time_steps": 12, "temporal_mesh_n": 16, "seed": 1000,
        "spatial_n": 24, "temporal_m": 6}

HUGE = 1.7976931348623157e308
# the extremes drawn besides the schema's ranges, for s and lambda also as
# grid entries
EXTREMES = {
    "s": (5e-324, 1e-300, 1e300, HUGE),
    "lambda": (5e-324, 1e-300, 1e300, HUGE),
    "T": (5e-324, 1e-300, 1e300, HUGE),
    "omega": ((1e-12, 1.0 - 1e-12), (0.5, 0.5 + 1e-12), (1e-300, 2e-300), (0.999, 1.0 - 1e-16)),
}
GRID_EXTREMES = {"s_grid": EXTREMES["s"], "lambda_grid": EXTREMES["lambda"]}

coefficients = st.one_of(
    st.builds(lambda g: {"kind": "power", "params": {"gamma": g}}, st.floats(0.05, 1.95)),
    st.builds(lambda g, a: {"kind": "power_cos", "params": {"gamma": g, "alpha": a}},
              st.sampled_from([0.5, 1.5]), st.floats(0.0, 2.0)),
    st.builds(lambda t: {"kind": "power_minus_x", "params": {"theta": t}}, st.floats(0.05, 0.95)),
    st.builds(lambda t: {"kind": "power_plus_x", "params": {"theta": t}}, st.floats(1.05, 1.95)),
)


def _number(name: str, f: cli.Field):
    lo = -10.0 if f.lo is None else float(f.lo)
    hi = max(lo, 0.0) + 10.0 if f.hi is None else float(f.hi)
    drawn = st.floats(lo, hi, exclude_min=f.strict_lo)
    return st.one_of(drawn, st.sampled_from(EXTREMES[name])) if name in EXTREMES else drawn


def _field(name: str, f: cli.Field):
    """The strategy of one field's values, from its kind, bounds and choices."""
    if f.kind == "number":
        return _number(name, f)
    if f.kind == "integer":
        return st.integers(int(f.lo), min(int(f.hi), TINY[name]))
    if f.kind == "flag":
        return st.booleans()
    if f.kind == "choice":
        return st.sampled_from(f.choices)
    if f.kind == "interval":
        inner = st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         min_size=2, max_size=2, unique=True).map(sorted)
        if name in EXTREMES:
            inner = st.one_of(inner, st.sampled_from(EXTREMES[name]).map(list))
        return inner
    if f.kind == "grid":
        entry = st.floats(0.0, 10.0, exclude_min=True)
        if name in GRID_EXTREMES:
            entry = st.one_of(entry, st.sampled_from(GRID_EXTREMES[name]))
        return st.lists(entry, min_size=1, max_size=2)
    if f.kind == "sizes":
        return st.lists(st.integers(int(f.lo), TINY[name]), min_size=2, max_size=3,
                        unique=True).map(sorted)
    if f.kind == "modes":
        return st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3)
    if f.kind == "coefficient":
        return coefficients
    raise AssertionError(f"no strategy for the {f.kind} field {name}")


def configs(exp: str):
    """Configs of ``exp``: its required and size fields always, the others
    (but the output directory, which ``--out`` overrides) sometimes."""
    always, sometimes = {"experiment": st.just(exp)}, {}
    for name, f in cli.FIELDS.items():
        if exp not in f.readers or name == "experiment" or f.kind == "text":
            continue
        if f.default is cli.REQUIRED or name in TINY:
            always[name] = _field(name, f)
        else:
            sometimes[name] = _field(name, f)
    return st.fixed_dictionaries(always, optional=sometimes)


def _numbers(value):
    """Every number in a JSON value, lists and objects included."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)):
        yield value


def check_run(cfg: dict) -> None:
    """Run ``cfg`` through ``cli.main`` and check its exit against the oracle."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            code = cli.main(["run", str(path), "--out", str(out)])
        # no RuntimeWarning escapes a run
        escaped = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not escaped, f"exit {code} after warnings {escaped}"
        err = stderr.getvalue().splitlines()
        if code == 0:
            results = json.loads((out / "summary.json").read_text())["results"]
            bad = [v for v in _numbers(results) if not math.isfinite(v)]
            assert not bad, f"exit 0 with non-finite results {bad}: {results}"
        elif code == 1:
            log = (out / "run.log").read_text().splitlines()
            assert any(line.startswith("error: ") or (line.startswith("invariant [")
                                                      and ": FAIL" in line) for line in log), log
        else:
            assert code == 2, code
            assert err and all(line.startswith("config error: ") for line in err), err


@pytest.mark.parametrize("exp", list(cli.EXPERIMENTS))
def test_every_drawn_config_exits_by_the_contract(exp):
    @SEARCH
    @given(configs(exp))
    def search(cfg):
        check_run(cfg)

    search()
