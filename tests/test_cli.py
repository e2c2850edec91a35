import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from carleman_lab.carleman import (
    _observability_energies,
    transform_to_w,
)
from carleman_lab import carleman, cli, pde_solver
from carleman_lab.cli import EXPERIMENTS, main, run_experiment, validate_config
from carleman_lab.coefficients import classify, coefficient_from_descriptor, make_power_coefficient
from carleman_lab.pde_solver import (
    ProblemSpec,
    _clipped_node_quadrature,
    boundary_regime_for,
    build_mesh,
    solve_adjoint,
    substep_times,
    trajectory_from_binary,
    trapezoid_time_weights,
)
from carleman_lab.sampling import STREAM_TERMINAL, sample_fields
from carleman_lab.weights import build_weights
from oracles import boundary_sign_term

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def base_classify_config(out):
    return {
        "experiment": "classify",
        "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
        "seed": 7,
        "output_dir": out,
    }


def base_config(exp, **fields):
    """A config of experiment exp with the fields it requires, then the given
    ones: each experiment's config holds only fields its runner reads."""
    cfg = {"experiment": exp}
    if exp != "convergence":
        cfg["coefficient"] = {"kind": "power", "params": {"gamma": 0.5}}
    if exp == "carleman_sweep":
        cfg.update(lambda_grid=[2.0], s_grid=[1.0])
    return {**cfg, **fields}


def _default_edge_cases():
    """(base config, field, the runner's default, then a setting of another
    field that keeps the check passing and one that fails it) for every
    default that a size or stability check reads.  temporal_m is left out:
    with its default, no temporal_mesh_n up to MAX_SIZE reaches the cap."""
    cap = cli.MAX_GRID_ENTRIES
    coef = {"coefficient": {"kind": "power", "params": {"gamma": 0.5}}}
    energy = {"experiment": "energy", "n_samples": 1, **coef}
    hardy = {"experiment": "hardy", **coef}
    conv = {"experiment": "convergence"}

    def default(base, name):
        return cli._value({"experiment": base["experiment"]}, name)

    n = default(energy, "mesh_n") + 1
    m = default(energy, "time_steps") + 1
    hn = default(hardy, "mesh_n") + 1
    sn = max(default(conv, "spatial_n")) + 1
    sm = default(conv, "spatial_time_steps") + 1
    tn = default(conv, "temporal_mesh_n") + 1
    # Crank-Nicolson needs potential_const > -2*time_steps/T
    least = -2 * default(energy, "time_steps") / default(energy, "T")
    cases = [
        (energy, "mesh_n", {"time_steps": cap // n - 1}, {"time_steps": cap // n}),
        (energy, "time_steps", {"mesh_n": cap // m - 1}, {"mesh_n": cap // m}),
        (energy, "T", {"potential_const": least + 1}, {"potential_const": least}),
        (energy, "scheme", {"potential_const": least + 1}, {"potential_const": least}),
        (hardy, "mesh_n", {"n_samples": cap // hn}, {"n_samples": cap // hn + 1}),
        (conv, "spatial_n",
         {"spatial_time_steps": cap // sn - 1}, {"spatial_time_steps": cap // sn}),
        (conv, "spatial_time_steps",
         {"spatial_n": [8, cap // sm - 1]}, {"spatial_n": [8, cap // sm]}),
        (conv, "temporal_mesh_n",
         {"temporal_m": [8, cap // tn - 1]}, {"temporal_m": [8, cap // tn]}),
    ]
    # a list default as the config would give it
    return [(base, name, json.loads(json.dumps(default(base, name))), fits, exceeds)
            for base, name, fits, exceeds in cases]


class TestValidation:
    def test_missing_experiment(self):
        assert any("experiment" in e for e in validate_config({}))

    def test_unknown_experiment(self):
        assert any("unknown" in e for e in validate_config({"experiment": "solve_all"}))

    def test_missing_coefficient(self):
        errs = validate_config({"experiment": "classify"})
        assert any("coefficient" in e for e in errs)

    def test_bad_coefficient_params(self):
        errs = validate_config(
            {"experiment": "classify", "coefficient": {"kind": "power", "params": {"gamma": 3.0}}}
        )
        assert any("coefficient" in e for e in errs)

    @pytest.mark.parametrize("coefficient, error", [
        ({"kind": "power_cos", "params": {"gamma": 0.5, "alpah": 1.0}},
         "'alpah' is not a key of power_cos params (did you mean alpha?)"),
        ({"kind": "power", "gama": 1, "params": {"gamma": 0.5}},
         "'gama' is not a key of a power descriptor (did you mean params.gamma?)"),
        ({"kind": "power", "params": {"gamma": 0.5, "beta": 3}},
         "'beta' is not a key of power params"),
        ({"kind": "power", "params": {"gamma": True}}, "gamma must be a number, got True"),
        ({"kind": "power_plus_x", "params": {"theta": 1.5}, "label": "t"},
         "'label' is not a key of a power_plus_x descriptor"),
        ({"kind": "table", "x": [0.0, 0.3, 0.6, 1.0], "a": [0.0, 0.3, True, 1.0]},
         "a must be a number, got True"),
        ({"kind": "power", "params": [0.5]}, "params must be an object, got [0.5]"),
    ], ids=["typo_in_params", "param_at_top", "unread_param", "boolean_param",
            "unread_top_key", "boolean_table_entry", "params_not_object"])
    def test_unread_descriptor_key_or_boolean_exit_2(self, tmp_path, capsys, coefficient, error):
        cfg = {"experiment": "classify", "coefficient": coefficient}
        assert validate_config(cfg) == [f"coefficient: {error}"]
        assert main(["validate", write_config(tmp_path, cfg)]) == 2
        assert f"coefficient: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("coefficient, error", [
        ({"kind": "power", "params": {"gamma": "1.5"}}, "gamma must be a number, got '1.5'"),
        ({"kind": "power", "params": {"gamma": None}}, "gamma must be a number, got None"),
        ({"kind": "power_cos", "params": {"gamma": 0.5, "alpha": "z"}},
         "alpha must be a number, got 'z'"),
        ({"kind": "power_plus_x", "params": {"theta": [1.5]}},
         "theta must be a number, got [1.5]"),
        ({"kind": "table", "x": [0.0, 0.3, 0.6, 1.0], "a": [0, 1, 2, "x"]},
         "a must be a number, got 'x'"),
        ({"kind": "table", "x": "abcd", "a": [0.0, 0.3, 0.6, 1.0]},
         "x must be a list of numbers, got 'abcd'"),
        ({"kind": "table", "x": [0.0, 0.3, 0.6, 1.0], "a": 1.0},
         "a must be a list of numbers, got 1.0"),
        ({"kind": "power_cos", "params": {"gamma": 0.5, "alpha": float("nan")}},
         "alpha must be a finite number, got nan"),
        ({"kind": "power_cos", "params": {"gamma": 0.5, "alpha": float("inf")}},
         "alpha must be a finite number, got inf"),
        ({"kind": "table", "x": [0.0, 0.3, 0.6, 1.0], "a": [0, 1, float("nan"), 3]},
         "a must be a finite number, got nan"),
        ({"kind": "table", "x": [0.0, 0.3, 0.6, float("inf")], "a": [0, 1, 2, 3]},
         "x must be a finite number, got inf"),
        # an int beyond the largest double once escaped as an OverflowError
        ({"kind": "table", "x": [0.0, 0.3, 0.6, 10**400], "a": [0, 1, 2, 3]},
         f"x must be a finite number, got {10**400}"),
    ], ids=["string_param", "null_param", "string_alpha", "list_theta", "string_table_entry",
            "string_table_x", "number_table_a", "nan_alpha", "inf_alpha", "nan_table_a",
            "inf_table_x", "huge_int_table_x"])
    def test_non_number_descriptor_value_is_named_exit_2(self, tmp_path, capsys, coefficient,
                                                          error):
        cfg = {"experiment": "classify", "coefficient": coefficient}
        assert validate_config(cfg) == [f"coefficient: {error}"]
        assert main(["validate", write_config(tmp_path, cfg)]) == 2
        assert f"coefficient: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("coefficient, error", [
        ({"kind": "power"}, "missing key 'params' of a power descriptor"),
        ({"kind": "power_cos", "params": {"alpha": 1.0}}, "missing key 'gamma' of power_cos params"),
        ({"kind": "table", "a": [0.0, 0.3, 0.6, 1.0]}, "missing key 'x' of a table descriptor"),
    ], ids=["power_params", "power_cos_gamma", "table_x"])
    def test_missing_descriptor_key_is_named_exit_2(self, tmp_path, capsys, coefficient, error):
        cfg = {"experiment": "classify", "coefficient": coefficient}
        assert validate_config(cfg) == [f"coefficient: {error}"]
        assert main(["validate", write_config(tmp_path, cfg)]) == 2
        assert f"coefficient: {error}" in capsys.readouterr().err

    def test_weight_on_a_coefficient_vanishing_at_one_exit_2(self, tmp_path, capsys):
        # a = x^theta - x has a(1) = 0: the profile's integral of y/a(y)
        # diverges at x = 1, so no weight can be built on it
        cfg = json.loads((CONFIGS[0].parent / "carleman_sweep_weak.json").read_text())
        cfg.update(coefficient={"kind": "power_minus_x", "params": {"theta": 0.5}},
                   mesh_n=32, time_steps=32, n_samples=4)
        error = ("coefficient: a(1) = 0, so the weight profile's integral of y/a(y) "
                 "diverges at x = 1")
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
        assert not out.exists()
        assert validate_config(base_config("lemma_checks", coefficient=cfg["coefficient"])) == [
            error]
        # the experiments that build no weight keep accepting the kind
        for exp in ("classify", "hardy", "energy", "observability", "null_control"):
            assert validate_config(base_config(exp, coefficient=cfg["coefficient"])) == []

    @pytest.mark.parametrize("coefficient, stored", [
        ({"kind": "power", "params": {"gamma": 1.5}},
         {"kind": "power", "params": {"gamma": 1.5}}),
        ({"kind": "power_cos", "params": {"gamma": 0.5}},
         {"kind": "power_cos", "params": {"gamma": 0.5, "alpha": 0.0}}),
        ({"kind": "power_minus_x", "params": {"theta": 0.5}},
         {"kind": "power_minus_x", "params": {"theta": 0.5}}),
        ({"params": {"theta": 1.5}, "kind": "power_plus_x"},
         {"kind": "power_plus_x", "params": {"theta": 1.5}}),
        ({"kind": "table", "x": [0, 0.5, 0.75, 1], "a": [0, 0.5, 0.75, 1]},
         {"kind": "table", "x": [0.0, 0.5, 0.75, 1.0], "a": [0.0, 0.5, 0.75, 1.0]}),
    ], ids=["power", "power_cos", "power_minus_x", "power_plus_x", "table"])
    def test_valid_descriptor_is_stored_as_before(self, coefficient, stored):
        assert validate_config({"experiment": "classify", "coefficient": coefficient}) == []
        got = coefficient_from_descriptor(coefficient).descriptor
        assert json.dumps(got) == json.dumps(stored)

    def test_bad_omega(self):
        cfg = {
            "experiment": "energy",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "omega": [0.7, 0.3],
        }
        assert any("omega" in e for e in validate_config(cfg))

    def test_omega_prime_containment(self):
        cfg = {
            "experiment": "carleman_sweep",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "omega": [0.3, 0.7],
            "omega_prime": [0.2, 0.6],
            "lambda_grid": [2.0],
            "s_grid": [1.0],
        }
        assert any("omega_prime" in e for e in validate_config(cfg))

    @pytest.mark.parametrize("exp, fields", [
        ("carleman_sweep", {"lambda_grid": [2.0], "s_grid": [1.0]}),
        ("lemma_checks", {"resolution": 16}),
    ])
    def test_omega_prime_outside_default_omega_exit_2(self, tmp_path, capsys, exp, fields):
        # no omega given: the runners use the default [0.3, 0.7], which does
        # not hold omega_prime, so the sign change would leave the control region
        cfg = {
            "experiment": exp,
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "omega_prime": [0.75, 0.9],
            "mesh_n": 16,
            "time_steps": 16,
            "n_samples": 2,
            **fields,
        }
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "omega_prime: must be compactly contained in omega [0.3, 0.7]" in err
        assert not out.exists()

    @pytest.mark.parametrize("exp, fields", [
        ("carleman_sweep", {"lambda_grid": [2.0], "s_grid": [1.0]}),
        ("lemma_checks", {"resolution": 16}),
    ])
    def test_omega_prime_inside_default_omega_validates(self, exp, fields):
        # the check against the default omega [0.3, 0.7] rejects no
        # omega_prime that it holds
        cfg = {
            "experiment": exp,
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "omega_prime": [0.35, 0.65],
            "mesh_n": 16,
            "time_steps": 16,
            "n_samples": 2,
            **fields,
        }
        assert validate_config(cfg) == []

    def test_sweep_requires_grids(self):
        cfg = {
            "experiment": "carleman_sweep",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
        }
        errs = validate_config(cfg)
        assert any("lambda_grid" in e for e in errs)
        assert any("s_grid" in e for e in errs)

    @pytest.mark.parametrize(
        "exp", ["energy", "carleman_sweep", "lemma_checks", "observability", "null_control"]
    )
    def test_omega_without_mesh_node(self, exp):
        # (i/8)^2 jumps from 0.766 to 1 across omega
        cfg = base_config(exp, mesh_n=8, omega=[0.98, 0.99])
        assert validate_config(cfg) == [
            "omega: [0.98, 0.99] holds no mesh node (mesh_n=8, mesh_grading=2)"
        ]
        cfg["omega"] = [0.7, 0.99]
        assert validate_config(cfg) == []

    def test_omega_node_check_skips_invalid_mesh(self):
        cfg = {
            "experiment": "observability",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "mesh_n": 4,
            "omega": [0.98, 0.99],
        }
        assert validate_config(cfg) == ["mesh_n: must be >= 8, got 4"]

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_valid(self, path):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        assert validate_config(cfg) == []
        assert cfg["experiment"] in EXPERIMENTS

    def test_every_experiment_has_a_shipped_config(self):
        shipped = {json.loads(p.read_text(encoding="utf-8"))["experiment"] for p in CONFIGS}
        assert shipped == set(EXPERIMENTS)

    def test_valid_config_passes(self):
        assert validate_config(base_classify_config("out")) == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mesh_n", float("inf"), "mesh_n: must be a finite number, got inf"),
            ("mesh_n", float("nan"), "mesh_n: must be a finite number, got nan"),
            ("T", float("inf"), "T: must be a finite number, got inf"),
            ("T", float("nan"), "T: must be a finite number, got nan"),
            ("epsilon", float("inf"), "epsilon: must be a finite number, got inf"),
            ("epsilon", float("nan"), "epsilon: must be a finite number, got nan"),
            ("s_grid", [1, float("inf")], "s_grid: entries must be finite numbers, got [1, inf]"),
        ],
    )
    def test_non_finite_number_exit_2(self, tmp_path, capsys, field, value, message):
        # JSON Infinity/NaN parse to floats; each must be a field-level error
        exp = "null_control" if field == "epsilon" else "carleman_sweep"
        cfg = base_config(exp, output_dir=str(tmp_path / "out"), **{field: value})
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "exp, field, value, message",
        [
            ("carleman_sweep", "zero_order_exponent", float("nan"),
             "zero_order_exponent: must be a finite number, got nan"),
            ("carleman_sweep", "zero_order_exponent", 0,
             "zero_order_exponent: must be > 0, got 0"),
            ("carleman_sweep", "mesh_n", 1e300, "mesh_n: must be <= 1000000, got 1e+300"),
            ("lemma_checks", "resolution", float("inf"),
             "resolution: must be a finite number, got inf"),
            ("lemma_checks", "resolution", 1, "resolution: must be >= 4, got 1"),
            ("lemma_checks", "resolution", 3, "resolution: must be >= 4, got 3"),
            ("energy", "seed", 2**64,
             "seed: must be <= 18446744073709551615, got 18446744073709551616"),
            ("energy", "seed", 2.0**64,
             "seed: must be <= 18446744073709551615, got 1.8446744073709552e+19"),
            ("lemma_checks", "time_steps", 2e6, "time_steps: must be <= 1000000, got 2000000.0"),
            ("lemma_checks", "residual_threshold", 0, "residual_threshold: must be > 0, got 0"),
            ("energy", "n_samples", 1e7, "n_samples: must be <= 1000000, got 10000000.0"),
            ("null_control", "cg_max_iter", float("inf"),
             "cg_max_iter: must be a finite number, got inf"),
            ("null_control", "cg_max_iter", 0, "cg_max_iter: must be >= 1, got 0"),
            ("null_control", "cg_tol", -1e-8, "cg_tol: must be > 0, got -1e-08"),
            ("null_control", "terminal_threshold_rel", "x",
             "terminal_threshold_rel: must be a number, got 'x'"),
            ("classify", "grid_size", 32, "grid_size: must be >= 64, got 32"),
            ("classify", "grid_size", 1e300, "grid_size: must be <= 1000000, got 1e+300"),
            ("convergence", "spatial_time_steps", float("inf"),
             "spatial_time_steps: must be a finite number, got inf"),
            ("convergence", "temporal_mesh_n", 4, "temporal_mesh_n: must be >= 8, got 4"),
            ("convergence", "spatial_n", [32, float("inf")],
             "spatial_n[1]: must be a finite number, got inf"),
            ("convergence", "spatial_n", [16, 2e6],
             "spatial_n[1]: must be <= 1000000, got 2000000.0"),
            ("convergence", "temporal_m", [8],
             "temporal_m: must be a list of at least two sizes, got [8]"),
            ("convergence", "temporal_m", [8, 8.5], "temporal_m[1]: must be an integer, got 8.5"),
            ("convergence", "temporal_m", [8, 8.0], "temporal_m: sizes must increase, got [8, 8.0]"),
            # every other field a runner reads
            ("null_control", "u0_modes", "abc",
             "u0_modes: must be a list of 1 to 1000000 numbers, got 'abc'"),
            ("null_control", "u0_modes", [], "u0_modes: must be a list of 1 to 1000000 numbers, got []"),
            ("null_control", "u0_modes", [1.0, "x"], "u0_modes[1]: must be a number, got 'x'"),
            ("null_control", "u0_modes", [float("nan")],
             "u0_modes[0]: must be a finite number, got nan"),
            ("null_control", "u0_modes", [0.0],
             "u0_modes: needs a nonzero coefficient (u0 = 0 has no relative terminal norm)"),
            ("null_control", "u0_modes", [1e308, 1e308],
             "u0_modes: the sum of absolute coefficients must be <= 1e+100, got inf"),
            ("null_control", "potential_const", "0.5", "potential_const: must be a number, got '0.5'"),
            ("energy", "potential_const", float("inf"), "potential_const: must be a finite number, got inf"),
            ("classify", "zero_neighborhood", "0.01", "zero_neighborhood: must be a number, got '0.01'"),
            ("classify", "zero_neighborhood", 0.6, "zero_neighborhood: must be <= 0.5, got 0.6"),
            ("classify", "zero_neighborhood", 0, "zero_neighborhood: must be > 0, got 0"),
            ("convergence", "min_spatial_order", "1", "min_spatial_order: must be a number, got '1'"),
            ("convergence", "min_temporal_order", "2", "min_temporal_order: must be a number, got '2'"),
            ("carleman_sweep", "s_relative", "no", "s_relative: must be true or false, got 'no'"),
            ("carleman_sweep", "s_relative", 1, "s_relative: must be true or false, got 1"),
            ("carleman_sweep", "lambda_grid", [True], "lambda_grid: entries must be positive numbers"),
            ("classify", "output_dir", 5, "output_dir: must be a string, got 5"),
            # below control.MIN_PENALTY, where the synthesis refuses to run
            ("null_control", "epsilon", 1e-15, "epsilon: must be >= 1e-14, got 1e-15"),
            # the manufactured study has no control region
            ("convergence", "omega", [0.3, 0.7], "omega: not a field of convergence"),
            ("energy", "scheme", "rk4",
             "scheme: must be crank_nicolson or backward_euler, got 'rk4'"),
            ("carleman_sweep", "s_grid", [], "s_grid: must be a nonempty list"),
            ("classify", "coefficient", 3, "coefficient: must be an object with a 'kind' field"),
            ("classify", "coefficient", {"kind": "table", "x": [0, 0.5, 1], "a": [0, 0.5, 1]},
             "coefficient: table needs matching 1-d arrays with at least 4 points"),
            ("classify", "coefficient", {"kind": "table", "x": [0, 0.3, 0.6, 1], "a": [0, 1, 0, 3]},
             "coefficient: table values must be positive for x > 0"),
        ],
    )
    def test_field_error_exit_2(self, tmp_path, capsys, exp, field, value, message):
        cfg = base_config(exp, **{"output_dir": str(tmp_path / "out"), field: value})
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "exp, field, value, message",
        [
            ("energy", "mesh_n", 16.7, "mesh_n: must be an integer, got 16.7"),
            ("energy", "time_steps", 8.9, "time_steps: must be an integer, got 8.9"),
            ("energy", "n_samples", 2.5, "n_samples: must be an integer, got 2.5"),
            ("energy", "seed", 3.5, "seed: must be an integer, got 3.5"),
            ("lemma_checks", "resolution", 64.5, "resolution: must be an integer, got 64.5"),
            ("null_control", "cg_max_iter", 10.25, "cg_max_iter: must be an integer, got 10.25"),
            ("classify", "grid_size", 100.5, "grid_size: must be an integer, got 100.5"),
            ("convergence", "spatial_time_steps", 16.5,
             "spatial_time_steps: must be an integer, got 16.5"),
            ("convergence", "temporal_mesh_n", 32.5, "temporal_mesh_n: must be an integer, got 32.5"),
            ("convergence", "spatial_n", [8, 16.5], "spatial_n[1]: must be an integer, got 16.5"),
            ("convergence", "temporal_m", [4.5, 8], "temporal_m[0]: must be an integer, got 4.5"),
        ],
    )
    def test_non_integral_size_exits_2(self, tmp_path, capsys, exp, field, value, message):
        # the runners truncate with int(), while the config hash keeps the float
        cfg = base_config(exp, output_dir=str(tmp_path / "out"), **{field: value})
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    def test_integral_float_sizes_are_accepted(self):
        cfg = {
            "experiment": "energy",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "mesh_n": 128.0, "time_steps": 16.0, "n_samples": 2.0, "seed": 3.0,
        }
        assert validate_config(cfg) == []

    def test_resolution_is_capped_by_the_identity_grid(self):
        # identity_residual holds about fifteen (resolution+1) x (abscissae)
        # grids: the cap counts the abscissae _grids builds, and a resolution
        # past it exits 2 by name instead of exhausting memory
        wts = build_weights(make_power_coefficient(0.5), 1.0, 1.0, 0.4, 0.6)
        for r in (4, 5, 39, 40, 41, 256, 1001):
            ts, xs, _, _ = carleman._grids(wts, r)
            assert carleman._grid_entries(r) == ts.size * xs.size
        cap = cli.MAX_GRID_ENTRIES
        base = {"experiment": "lemma_checks",
                "coefficient": {"kind": "power", "params": {"gamma": 0.5}}}
        fits = max(r for r in range(4, 10_000) if carleman._grid_entries(r) <= cap)
        assert validate_config({**base, "resolution": fits}) == []
        for r in (fits + 1, cli.MAX_SIZE):
            assert validate_config({**base, "resolution": r}) == [
                f"resolution: (resolution+1)*(abscissae of the identity grid) must be <= "
                f"{cap}, got {carleman._grid_entries(r)}"
            ]

    def test_seed_accepts_the_cap(self, tmp_path):
        # Philox is keyed by the seed's low 64 bits, so 2**64 - 1 is the
        # largest seed that draws samples of its own
        cfg = {
            "experiment": "energy",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "mesh_n": 16, "time_steps": 8, "n_samples": 2, "seed": 2**64 - 1,
            "output_dir": str(tmp_path / "out"),
        }
        assert validate_config(cfg) == []
        assert main(["run", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 2**64 - 1

    @pytest.mark.parametrize("exp, sizes", [
        ("classify", {"grid_size": 1_000_000}),
        ("null_control", {"cg_max_iter": 1_000_000}),
        # 1000001 * 49 entries, within the cap
        ("convergence", {"spatial_n": [8, 1_000_000], "spatial_time_steps": 48}),
    ], ids=["grid_size", "cg_max_iter", "spatial_n"])
    def test_size_fields_accept_the_cap(self, exp, sizes):
        assert validate_config(base_config(exp, **sizes)) == []

    @pytest.mark.parametrize(
        "exp, sizes, entries",
        [
            # every field within MAX_SIZE, 20 default samples: 7.3 TiB per block
            ("observability", {"mesh_n": 1_000_000, "time_steps": 1_000_000}, 20000040000020),
            ("null_control", {"mesh_n": 10_000, "time_steps": 10_000}, 100020001),
            ("carleman_sweep", {"mesh_n": 2000, "time_steps": 2000, "n_samples": 13}, 52052013),
        ],
    )
    def test_grid_entries_cap_exit_2(self, tmp_path, capsys, exp, sizes, entries):
        cfg = base_config(exp, output_dir=str(tmp_path / "out"), **sizes)
        message = (
            "config error: mesh_n, time_steps, n_samples: "
            f"(mesh_n+1)*(time_steps+1)*max(1, n_samples) must be <= 50000000, got {entries}"
        )
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"experiment": "hardy", "mesh_n": 1_000_000, "n_samples": 1_000_000},
             "mesh_n, n_samples: (mesh_n+1)*n_samples must be <= 50000000, "
             "got 1000001000000"),
            # default mesh_n = 512 with more samples than the default 50
            ({"experiment": "hardy", "n_samples": 100_000},
             "mesh_n, n_samples: (mesh_n+1)*n_samples must be <= 50000000, got 51300000"),
            ({"experiment": "convergence", "spatial_n": [8, 1_000_000],
              "spatial_time_steps": 1_000_000},
             "spatial_n, spatial_time_steps: (max(spatial_n)+1)*(spatial_time_steps+1) "
             "must be <= 50000000, got 1000002000001"),
            # default spatial_time_steps = 512
            ({"experiment": "convergence", "spatial_n": [8, 100_000]},
             "spatial_n, spatial_time_steps: (max(spatial_n)+1)*(spatial_time_steps+1) "
             "must be <= 50000000, got 51300513"),
            ({"experiment": "convergence", "temporal_m": [8, 100_000]},
             "temporal_mesh_n, temporal_m: (temporal_mesh_n+1)*(max(temporal_m)+1) "
             "must be <= 50000000, got 51300513"),
        ],
    )
    def test_hardy_and_convergence_entries_cap_exit_2(self, tmp_path, capsys, cfg, message):
        cfg = base_config(cfg.pop("experiment"), output_dir=str(tmp_path / "out"), **cfg)
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    def test_hardy_and_convergence_entries_cap_is_inclusive(self):
        hardy = {"experiment": "hardy", "coefficient": {"kind": "power", "params": {"gamma": 0.5}}}
        assert validate_config({**hardy, "mesh_n": 999_999, "n_samples": 50}) == []
        conv = {"experiment": "convergence", "spatial_time_steps": 49, "temporal_m": [8, 49]}
        assert validate_config({**conv, "spatial_n": [8, 999_999],
                                "temporal_mesh_n": 999_999}) == []

    def test_grid_entries_count_the_default_samples(self):
        cfg = {
            "experiment": "carleman_sweep",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "lambda_grid": [2.0],
            "s_grid": [1.0],
            "mesh_n": 2000,
            "time_steps": 2000,
        }
        assert validate_config(cfg) == []  # 2001 * 2001 * 10 default samples
        assert len(validate_config({**cfg, "n_samples": 13})) == 1

    @pytest.mark.parametrize(
        "base, field, default, fits, exceeds",
        _default_edge_cases(),
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_omitted_field_gets_the_runner_default_verdict(
        self, base, field, default, fits, exceeds
    ):
        # on both sides of the check the default enters, leaving the field
        # out and passing the default the runner reads give one verdict
        for other, valid in ((fits, True), (exceeds, False)):
            omitted = validate_config({**base, **other})
            assert omitted == validate_config({**base, **other, field: default})
            assert (omitted == []) is valid

    def test_potential_breaking_diagonal_dominance_exit_2(self, tmp_path, capsys):
        # the implicit-Euler startup substep divided the free terminal state
        # to zero, so this run passed every invariant vacuously
        cfg = {
            "experiment": "null_control",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "mesh_n": 16,
            "time_steps": 16,
            "T": 0.5,
            "potential_const": -1e300,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == (
                "config error: potential_const: potential_const*T/time_steps must be > -2 "
                "for crank_nicolson (step matrices keep a positive, strictly dominant diagonal), "
                "so > -64 here, got -1e+300"
            )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scheme, bound", [("crank_nicolson", -2), ("backward_euler", -1)])
    def test_potential_bound_is_strict(self, scheme, bound):
        cfg = {
            "experiment": "energy",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "time_steps": 16,
            "T": 0.5,
            "scheme": scheme,
        }
        # potential_const * T / time_steps at the bound, then just inside it
        at = bound * 32.0
        assert validate_config({**cfg, "potential_const": at}) == [
            f"potential_const: potential_const*T/time_steps must be > {bound} for {scheme} "
            f"(step matrices keep a positive, strictly dominant diagonal), "
            f"so > {at:g} here, got {at}"
        ]
        assert validate_config({**cfg, "potential_const": 0.999 * at}) == []
        # an integer too large for a float is compared exactly
        assert len(validate_config({**cfg, "potential_const": -(10**400)})) == 1
        assert validate_config({**cfg, "potential_const": 10**400}) == []
        assert validate_config({**cfg, "potential_const": -0.5 * at}) == []
        assert validate_config(cfg) == []

    def test_benchmark_inputs_valid(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            for tiny in (False, True):
                for cfg in workloads.configs(name, 0, tiny):
                    assert validate_config(cfg) == [], (name, tiny, cfg["experiment"])

    @pytest.mark.parametrize("cfg, message", [
        ([], "config: must be a JSON object, got list"),
        ("x", "config: must be a JSON object, got str"),
        ({"experiment": ["a"]}, "experiment: unknown value ['a']"),
        ({"experiment": {"a": 1}}, "experiment: unknown value {'a': 1}"),
    ], ids=["list", "string", "experiment_list", "experiment_object"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, monkeypatch, cfg, message):
        # run would write to the default output_dir "out" under the cwd
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("key, value, message", [
        ("time_step", 4, "time_step: not a field of null_control (did you mean time_steps?)"),
        ("lamda", 3, "lamda: not a field of null_control"),
        ("epsilon_grid", [1e-4],
         "epsilon_grid: not a field of null_control (did you mean epsilon?)"),
    ])
    def test_key_no_runner_reads_exits_2(self, tmp_path, capsys, key, value, message):
        path = CONFIGS[0].parent / "null_control.json"
        cfg = json.loads(path.read_text(encoding="utf-8"))
        cfg.update({"output_dir": str(tmp_path / "out"), key: value})
        path = write_config(tmp_path, cfg)
        for command in ("validate", "run"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_omega_prime_containment_is_reported_beside_other_errors(self):
        cfg = base_config("carleman_sweep", mesh_n="x", omega=[0.3, 0.7], omega_prime=[0.1, 0.2])
        assert validate_config(cfg) == [
            "mesh_n: must be a number, got 'x'",
            "omega_prime: must be compactly contained in omega [0.3, 0.7]",
        ]
        # an invalid omega holds nothing, so only its own line is given
        assert validate_config({**cfg, "omega": [0.7, 0.3]}) == [
            "mesh_n: must be a number, got 'x'",
            "omega: must be [a, b] with 0 < a < b < 1, got [0.7, 0.3]",
        ]


class RecordingConfig(dict):
    """A config that records the name of every field looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# the sizes of a shipped config's fields in a quick run
TINY_SIZES = {
    "mesh_n": 16, "time_steps": 16, "n_samples": 2, "resolution": 32, "s_grid": [1],
    "lambda_grid": [2.0], "spatial_n": [16, 32], "temporal_m": [8, 16],
    "spatial_time_steps": 64, "temporal_mesh_n": 64,
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_runner_reads_exactly_its_schema_fields(tmp_path, monkeypatch, path):
    # a field listed for an experiment whose runner ignores it, or a field a
    # runner reads but the schema does not give it, fails here
    monkeypatch.delenv("CARLEMAN_LAB_SEED", raising=False)
    shipped = json.loads(path.read_text(encoding="utf-8"))
    cfg = RecordingConfig({k: TINY_SIZES.get(k, v) for k, v in shipped.items()})
    assert run_experiment(cfg, tmp_path) in (0, 1)
    exp = cfg["experiment"]
    # main reads output_dir when no --out is given
    assert cfg.read | {"output_dir"} == {n for n, f in cli.FIELDS.items() if exp in f.readers}


def _readme_schema_rows():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration schema\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in block.splitlines() if line.startswith("| `")]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_readme_schema_matches_the_table():
    names, defaults, readers = [], {}, {}
    for field, default, read_by, _ in _readme_schema_rows():
        name = field.strip("`")
        names.append(name)
        defaults[name] = default
        readers[name] = set()
        for token in read_by.split(", "):
            groups = {"all": set(EXPERIMENTS), "marching": set(cli.MARCHING)}
            readers[name] |= groups.get(token, {token.strip("`")})
    assert names == list(cli.FIELDS)
    for name, field in cli.FIELDS.items():
        parts = [] if field.default is None else [
            "required" if field.default is cli.REQUIRED else f"`{json.dumps(field.default)}`"
        ]
        parts += [f"`{exp}`: `{json.dumps(e.defaults[name])}`"
                  for exp, e in EXPERIMENTS.items() if name in e.defaults]
        assert defaults[name] == ("; ".join(parts) or "—"), name
        assert readers[name] == set(field.readers), name


class TestMain:
    def test_validate_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, base_classify_config(str(tmp_path / "out")))
        assert main(["validate", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_invalid_config_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "classify"})
        assert main(["validate", path]) == 2
        assert main(["run", path]) == 2

    def test_unparseable_config_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_classify_run(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_classify_config(str(out)))
        assert main(["run", path]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["regime"] == "WDC"
        assert abs(summary["results"]["K_est"] - 0.5) < 1e-9
        assert summary["status"] == "pass"
        assert summary["anchor"]
        assert summary["generator"] == "philox4x64"
        assert len(summary["config_sha256"]) == 64
        assert (out / "classify.csv").exists()
        assert (out / "run.log").exists()

    def test_failed_write_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "classify.csv").mkdir(parents=True)
        path = write_config(tmp_path, base_classify_config(str(out)))
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"config error: output directory not writable: [Errno 21] Is a directory: "
            f"'{out / 'classify.csv'}'"
        ]
        assert captured.out == ""

    def test_out_flag_overrides_config(self, tmp_path):
        other = tmp_path / "elsewhere"
        path = write_config(tmp_path, base_classify_config(str(tmp_path / "ignored")))
        assert main(["run", path, "--out", str(other)]) == 0
        assert (other / "summary.json").exists()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_classify_config(str(out)))
        monkeypatch.setenv("CARLEMAN_LAB_SEED", "123")
        assert main(["run", path]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 123

    def test_env_seed_cap(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_classify_config(str(out)))
        monkeypatch.setenv("CARLEMAN_LAB_SEED", str(2**64 - 1))
        assert main(["run", path]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 2**64 - 1
        capsys.readouterr()
        monkeypatch.setenv("CARLEMAN_LAB_SEED", str(2**64))
        message = ("config error: CARLEMAN_LAB_SEED: must be <= 18446744073709551615, "
                   "got '18446744073709551616'")
        for command in ("run", "validate"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_env_seed_override_malformed(self, tmp_path, monkeypatch, capsys, value):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_classify_config(str(out)))
        monkeypatch.setenv("CARLEMAN_LAB_SEED", value)
        message = f"config error: CARLEMAN_LAB_SEED: must be a non-negative integer, got {value!r}"
        assert main(["run", path]) == 2
        assert capsys.readouterr().err.strip() == message
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err.strip() == message
        assert run_experiment(base_classify_config(str(out)), out) == 2
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "exc", [FloatingPointError("overflow encountered in exp"), OverflowError("math range error")]
    )
    def test_arithmetic_error_exit_1(self, tmp_path, monkeypatch, exc):
        def fails(cfg, seed, log):
            log("started")
            raise exc

        monkeypatch.setitem(EXPERIMENTS, "classify", EXPERIMENTS["classify"]._replace(run=fails))
        out = tmp_path / "out"
        assert run_experiment(base_classify_config(str(out)), out) == 1
        assert (out / "run.log").read_text().splitlines()[-2:] == ["started", f"error: {exc}"]
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB"),
            (MemoryError(), "error: MemoryError"),
        ],
    )
    def test_memory_error_exit_1(self, tmp_path, monkeypatch, exc, line):
        def fails(cfg, seed, log):
            log("started")
            raise exc

        monkeypatch.setitem(EXPERIMENTS, "classify", EXPERIMENTS["classify"]._replace(run=fails))
        out = tmp_path / "out"
        assert run_experiment(base_classify_config(str(out)), out) == 1
        assert (out / "run.log").read_text().splitlines()[-2:] == ["started", line]
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("cfg, line", [
        (
            {"experiment": "carleman_sweep", "T": 10.0, "omega": [0.02, 0.95],
             "omega_prime": [0.05, 0.9], "lambda_grid": [2.0], "s_grid": [1e300],
             "s_relative": True},
            "(s*lambda)**1.66667 overflows double precision at s=",
        ),
        (
            {"experiment": "lemma_checks", "T": 2.0, "omega_prime": [0.4, 0.6],
             "resolution": 16, "s": 1e300},
            "s**3 overflows double precision at s=1e+300, lambda=1",
        ),
    ], ids=["carleman_sweep", "lemma_checks"])
    def test_overflowing_power_of_s_is_named(self, tmp_path, cfg, line):
        cfg = {
            "coefficient": {"kind": "power", "params": {"gamma": 1.0}},
            "mesh_n": 16,
            "time_steps": 16,
            "n_samples": 2,
            **cfg,
        }
        assert validate_config(cfg) == []
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: " + line)
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("cfg, line", [
        (
            {"experiment": "lemma_checks", "T": 2.0, "omega_prime": [0.4, 0.6],
             "resolution": 16, "lambda": 1e150},
            "exp(3*lambda*sup psi) overflows double precision at lambda=1e+150",
        ),
        (
            {"experiment": "carleman_sweep", "T": 10.0, "omega": [0.02, 0.95],
             "omega_prime": [0.05, 0.9], "lambda_grid": [1e200], "s_grid": [1.0]},
            "exp(3*lambda*sup psi) overflows double precision at lambda=1e+200",
        ),
        (
            {"experiment": "carleman_sweep", "T": 10.0, "omega": [0.02, 0.95],
             "omega_prime": [0.05, 0.9], "lambda_grid": [2.0], "s_grid": [1e308],
             "s_relative": True},
            "s = s_grid entry 1e+308 * s0 ",
        ),
        (
            {"experiment": "carleman_sweep", "T": 1e-300, "omega": [0.02, 0.95],
             "omega_prime": [0.05, 0.9], "lambda_grid": [2.0], "s_grid": [1.0],
             "s_relative": False},
            "theta(T/2) = (T*T/4)**-4 is not representable in double precision at T=1e-300",
        ),
        (
            {"experiment": "carleman_sweep", "T": 1e300, "omega": [0.02, 0.95],
             "omega_prime": [0.05, 0.9], "lambda_grid": [2.0], "s_grid": [1.0],
             "s_relative": False},
            "theta(T/2) = (T*T/4)**-4 is not representable in double precision at T=1e+300",
        ),
        (
            {"experiment": "lemma_checks", "T": 2.0, "omega_prime": [0.4, 0.6],
             "resolution": 32, "lambda": 500},
            "eta**3 overflows double precision at s=1, lambda=500",
        ),
        (
            {"experiment": "lemma_checks", "T": 2.0, "omega_prime": [0.4, 0.6],
             "resolution": 32, "lambda": 270},
            "(s*lambda*theta*eta)**3 overflows double precision at s=1, lambda=270",
        ),
        (
            {"experiment": "lemma_checks", "T": 1e300, "omega_prime": [0.4, 0.6],
             "resolution": 32},
            "theta = [t(T-t)]**-4 and its first two time derivatives are not representable "
            "in double precision on the time grid at T=1e+300",
        ),
        (
            {"experiment": "lemma_checks", "T": 1e-300, "omega_prime": [0.4, 0.6],
             "resolution": 32},
            "theta = [t(T-t)]**-4 and its first two time derivatives are not representable "
            "in double precision on the time grid at T=1e-300",
        ),
        (
            {"experiment": "lemma_checks", "T": 1e40, "omega_prime": [0.4, 0.6],
             "resolution": 32},
            "the time envelope's peak (T*T/4)**7 overflows double precision at T=1e+40",
        ),
        (
            {"experiment": "lemma_checks", "T": 1e-20, "omega_prime": [0.4, 0.6],
             "resolution": 32},
            "theta**3 overflows double precision at T=1e-20",
        ),
        (
            {"experiment": "energy", "T": 1e-300},
            "the time-derivative energy, a sum of k*|(u(t+k)-u(t))/k|**2, overflows double "
            "precision at T=1e-300, time_steps=16",
        ),
        (
            {"experiment": "observability", "T": 1e-300},
            "every sample's control-region energy is below 1e-300 at T=1e-300, time_steps=16",
        ),
    ], ids=["lemma_checks_lambda", "carleman_sweep_lambda", "carleman_sweep_s_inf",
            "tiny_horizon", "huge_horizon", "identity_eta_cube", "identity_s3_term",
            "identity_huge_horizon", "identity_tiny_horizon", "identity_envelope_overflow",
            "identity_theta_cube", "energy_tiny_horizon", "observability_tiny_horizon"])
    def test_unrepresentable_parameter_is_named(self, tmp_path, cfg, line):
        # a legal but extreme lambda, s or T exits 1 with a message naming the
        # quantity that left double precision, and warns about nothing
        cfg = {
            "coefficient": {"kind": "power", "params": {"gamma": 1.0}},
            "mesh_n": 16,
            "time_steps": 16,
            "n_samples": 2,
            **cfg,
        }
        assert validate_config(cfg) == []
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_experiment(cfg, out) == 1
        last = (out / "run.log").read_text().splitlines()[-1]
        assert last.startswith("error: " + line)
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("name, fields, code, line", [
        ("lemma_checks.json", {"s": 1e4}, 1, "error: boundary term underflows at s=10000, lambda=1"),
        ("observability.json", {"scheme": "backward_euler", "T": 2000}, 1,
         "error: every sample's initial energy is below 1e-300 at T=2000, time_steps=128"),
    ], ids=["lemma_boundary_scale", "observability_initial_energy"])
    def test_underflowed_gate_data_fail_by_name(self, tmp_path, name, fields, code, line):
        # a gate whose data underflowed to zero would pass on nothing: the
        # boundary term's scale and every draw's initial energy are 0 here
        cfg = {**json.loads((CONFIGS[0].parent / name).read_text()), **fields}
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == code
        assert (out / "run.log").read_text().splitlines()[-1] == line
        assert not (out / "summary.json").exists()

    def test_nan_ratios_fail_the_valid_sample_invariant(self, tmp_path):
        # run_experiment does not validate: a NaN exponent reaches the sweep,
        # whose ratios are then all NaN and none is a valid sample
        cfg = {
            "experiment": "carleman_sweep",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "T": 10.0,
            "mesh_n": 16,
            "time_steps": 16,
            "omega": [0.02, 0.95],
            "lambda_grid": [2.0],
            "s_grid": [1.0],
            "n_samples": 2,
            "zero_order_exponent": float("nan"),
        }
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert np.isnan(summary["results"]["empirical_C"])
        assert summary["results"]["excluded_count"] == 2
        failed = [i["name"] for i in summary["invariants"] if not i["passed"]]
        assert failed == ["every (s, lambda) point has a valid sample"]

    @pytest.mark.parametrize("cfg, detail", [
        (
            {"gamma": 1.5, "omega_prime": [0.05, 0.0500001], "lambda_grid": [2.0, 4.0],
             "s_grid": [1, 2, 4, 8, 16]},
            "; ".join(
                [f"s={s}, lambda=2: 2 degenerate denominators, 0 non-finite ratios"
                 for s in ("12543.4", "25086.8")]
                + [f"s={s}, lambda=4: 2 degenerate denominators, 0 non-finite ratios"
                   for s in ("1.57336", "3.14673", "6.29345", "12.5869", "25.1738")]
            ),
        ),
        (
            {"gamma": 0.5, "omega_prime": [0.05, 0.9], "lambda_grid": [2.0],
             "s_grid": [1.0], "s_relative": False, "zero_order_exponent": float("nan")},
            "s=1, lambda=2: 0 degenerate denominators, 2 non-finite ratios",
        ),
    ], ids=["degenerate", "non_finite"])
    def test_sweep_names_each_point_without_a_valid_sample(self, tmp_path, cfg, detail):
        gamma = cfg.pop("gamma")
        cfg = {
            "experiment": "carleman_sweep",
            "coefficient": {"kind": "power", "params": {"gamma": gamma}},
            "T": 10.0, "mesh_n": 16, "time_steps": 16, "omega": [0.02, 0.95],
            "n_samples": 2, "seed": 42, "s_relative": True, **cfg,
        }
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 1
        invariant = json.loads((out / "summary.json").read_text())["invariants"][1]
        assert invariant == {
            "name": "every (s, lambda) point has a valid sample", "passed": False,
            "detail": detail,
        }
        assert (out / "run.log").read_text().splitlines()[-1] == (
            f"invariant [every (s, lambda) point has a valid sample]: FAIL {detail}"
        )

    def test_classify_violation_exit_1(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "experiment": "classify",
            # tabulated near-linear coefficient that dips negative cannot be
            # built, so use a table that certifies fine but force violation
            # through an inadmissible analytic descriptor instead
            "coefficient": {"kind": "table", "x": [0.0, 0.25, 0.5, 1.0], "a": [0.0, 0.5, 0.75, 1.0]},
            "output_dir": str(out),
        }
        path = write_config(tmp_path, cfg)
        code = main(["run", path])
        summary = json.loads((out / "summary.json").read_text())
        # concave table: ratio < 1 near zero -> weak band; just assert the
        # run completed and reported a coherent regime
        assert code in (0, 1)
        assert summary["results"]["regime"] in ("WDC", "SDC", "Violation")

    def test_sweep_run_bit_identical(self, tmp_path):
        cfg = {
            "experiment": "carleman_sweep",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "T": 10.0,
            "mesh_n": 32,
            "time_steps": 32,
            "omega": [0.02, 0.95],
            "omega_prime": [0.05, 0.9],
            "lambda_grid": [2.0],
            "s_grid": [1.0, 2.0],
            "s_relative": True,
            "n_samples": 2,
            "seed": 5,
        }
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(out1)]) == 0
        assert main(["run", path, "--out", str(out2)]) == 0
        assert (out1 / "carleman_sweep.csv").read_bytes() == (
            out2 / "carleman_sweep.csv"
        ).read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_lemma_checks_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "experiment": "lemma_checks",
            "coefficient": {"kind": "power", "params": {"gamma": 1.0}},
            "T": 2.0,
            "omega": [0.3, 0.7],
            "resolution": 64,
            "residual_threshold": 5e-3,
            "n_samples": 3,
            "mesh_n": 48,
            "time_steps": 48,
            "seed": 2,
            "output_dir": str(out),
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0
        assert (out / "identity_residuals.csv").exists()
        assert (out / "boundary_sign.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["max_residual"] < 5e-3

    def test_null_control_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "experiment": "null_control",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "T": 0.5,
            "mesh_n": 48,
            "time_steps": 48,
            "omega": [0.3, 0.7],
            "epsilon": 1e-6,
            "seed": 1,
            "output_dir": str(out),
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0
        assert (out / "control.csv").exists()
        assert (out / "control.bin").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["converged"] is True

    def test_observability_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "experiment": "observability",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "T": 1.0,
            "mesh_n": 48,
            "time_steps": 48,
            "omega": [0.3, 0.7],
            "n_samples": 4,
            "seed": 7,
            "output_dir": str(out),
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0

    def test_hardy_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "experiment": "hardy",
            "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
            "mesh_n": 128,
            "n_samples": 5,
            "seed": 3,
            "output_dir": str(out),
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0
        assert (out / "hardy.csv").exists()

    def test_energy_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "experiment": "energy",
            "coefficient": {"kind": "power", "params": {"gamma": 1.5}},
            "mesh_n": 48,
            "time_steps": 48,
            "n_samples": 3,
            "seed": 3,
            "output_dir": str(out),
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0

    def test_convergence_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "experiment": "convergence",
            "spatial_n": [16, 32],
            "temporal_m": [8, 16],
            "spatial_time_steps": 128,
            "temporal_mesh_n": 128,
            "seed": 0,
            "output_dir": str(out),
        }
        path = write_config(tmp_path, cfg)
        assert main(["run", path]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert min(summary["results"]["spatial_orders"]) >= 1.0
        assert min(summary["results"]["temporal_orders"]) >= 1.8


def test_convergence_errors_match_a_per_row_loop(tmp_path):
    from carleman_lab.cli import _exp_convergence
    from carleman_lab.pde_solver import LeftBoundary, solve_forward

    cfg = {"experiment": "convergence", "spatial_n": [16, 32], "temporal_m": [8, 16],
           "spatial_time_steps": 512, "temporal_mesh_n": 48, "T": 0.75}
    # 513 time rows: at this length a BLAS dot of the row sums already
    # rounds differently from the left-to-right sum
    tables, _, _ = _exp_convergence(cfg, 0, lambda msg: None)
    table = tables["convergence.csv"]
    got = list(zip(table["size"], table["error"]))

    # the source sampled row by row at every substep time, and one error row
    # per time level
    coef = make_power_coefficient(1.0)
    pi = np.pi

    def exact(t, x):
        return np.exp(np.sin(2.0 * t) - t) * np.sin(pi * x)

    def source(t, x):
        q = np.exp(np.sin(2.0 * t) - t)
        return q * ((2.0 * np.cos(2.0 * t) - 1.0) * np.sin(pi * x)
                    - pi * np.cos(pi * x) + pi * pi * x * np.sin(pi * x))

    def error(N, M):
        mesh = build_mesh(N, 1.0)
        spec = ProblemSpec(T=0.75, coef=coef, regime=LeftBoundary.DIRICHLET_ZERO,
                           mesh=mesh, time_steps=M, omega=(0.3, 0.7))
        f = np.stack([source(t, mesh.nodes) for t in substep_times(spec)[0]])
        traj = solve_forward(spec, exact(0.0, mesh.nodes), source=f)
        err_sq = 0.0
        tw = trapezoid_time_weights(spec.T, M)
        for m, t in enumerate(traj.times):
            diff = traj.values[m] - exact(t, mesh.nodes)
            err_sq += tw[m] * float(np.sum(mesh.volumes * diff * diff))
        return float(np.sqrt(err_sq))

    expected = [(n, error(n, 512)) for n in (16, 32)] + [(m, error(48, m)) for m in (8, 16)]
    assert got == expected


# substep schedules a run builds: one per marching engine, and one more for
# each of the six convergence runs, whose source is sampled at
# substep_times; 18 for the pass
SCHEDULE_BUILDS = {
    "carleman_sweep_strong": 1, "carleman_sweep_weak": 1, "classify_strong": 0,
    "classify_weak": 0, "convergence": 12, "energy": 1, "hardy_boundary_case": 0,
    "hardy_weak": 0, "lemma_checks": 1, "null_control": 1, "observability": 1,
}


def test_schedule_builds_cover_the_shipped_configs():
    assert sorted(SCHEDULE_BUILDS) == [p.stem for p in CONFIGS]
    assert sum(SCHEDULE_BUILDS.values()) == 18


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_anchor(tmp_path, monkeypatch, path):
    builds = []
    schedule = pde_solver._substep_schedule

    def counted(spec):
        builds.append(spec.time_steps)
        return schedule(spec)

    monkeypatch.setattr(pde_solver, "_substep_schedule", counted)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    assert run_experiment(cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["anchor"] == EXPERIMENTS[cfg["experiment"]].anchor
    assert len(builds) == SCHEDULE_BUILDS[path.stem]


def test_control_csv_matches_row_by_row_format(tmp_path):
    cfg = {
        "experiment": "null_control",
        "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
        "T": 0.5,
        "mesh_n": 24,
        "time_steps": 24,
        "omega": [0.3, 0.7],
        "seed": 1,
    }
    assert run_experiment(cfg, tmp_path) == 0
    # the control table as one formatted line per nonzero control value
    spec = _gamma_spec(0.5, 24, 0.5, (0.3, 0.7))
    vals = trajectory_from_binary(tmp_path / "control.bin")["values"]
    times = substep_times(spec)[0]
    assert len(times) == vals.shape[0]
    lines = ["t,x,value"]
    for j, t in enumerate(times):
        for i, x in enumerate(spec.mesh.nodes):
            if vals[j, i] != 0.0:
                lines.append(f"{float(t):.17g},{float(x):.17g},{float(vals[j, i]):.17g}")
    assert len(lines) > 100
    assert (tmp_path / "control.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("block_rows", [1, 3, 4096])
@pytest.mark.parametrize("repeats", [1, 2 * cli._CSV_DEDUPE_MIN_ROWS])
def test_float_table_text_matches_per_value_format(tmp_path, monkeypatch, block_rows, repeats):
    # repeated columns of at least _CSV_DEDUPE_MIN_ROWS entries are formatted
    # once per bit pattern, so -0.0 and 0.0 keep their own text; shorter
    # ones value by value; the rows are written in blocks
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    unique = np.unique
    searched = []

    def counted(a, *args, **kwargs):
        searched.append(len(a))
        return unique(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    t = np.repeat([0.0, -0.0, 0.1, 1.0 / 3.0], 3 * repeats)
    x = np.tile([-0.0, 0.25, 1e-300], 4 * repeats)
    v = np.tile(
        [0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, 0.1, 0.2, 0.3, 2.0 / 3.0], repeats
    )
    # a text column, and integers given as a list, beside the float arrays
    label = ["a", "b", "a", "c"] * 3 * repeats
    n = list(range(12 * repeats))
    cli._write_csv(tmp_path / "t.csv", {"t": t, "label": label, "x": x, "value": v, "n": n})
    want = "t,label,x,value,n\n" + "".join(
        f"{a:.17g},{s},{b:.17g},{c:.17g},{i}\n"
        for a, s, b, c, i in zip(t.tolist(), label, x.tolist(), v.tolist(), n)
    )
    assert (tmp_path / "t.csv").read_text() == want
    assert "\n0,a,-0,0,0\n" in want
    assert {row.split(",")[0] for row in want.splitlines()[1:]} == {
        "0", "-0", "0.10000000000000001", "0.33333333333333331"
    }
    # the four numeric columns are searched for repeats only when long
    assert searched == ([] if repeats == 1 else [12 * repeats] * 4)
    cli._write_csv(tmp_path / "e.csv", {"t": t[:0], "label": [], "x": x[:0], "value": v[:0]})
    assert (tmp_path / "e.csv").read_text() == "t,label,x,value\n"


def test_null_control_on_zero_data_fails_its_check(tmp_path):
    # run_experiment without validation: u0 = 0 has nothing to steer
    cfg = {
        "experiment": "null_control",
        "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
        "mesh_n": 16,
        "time_steps": 16,
        "u0_modes": [0.0],
    }
    assert run_experiment(cfg, tmp_path) == 1
    log = (tmp_path / "run.log").read_text().splitlines()
    assert log[-1] == "error: the initial state's energy is below 1e-300 at T=1, time_steps=16"
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("change,line", [
    ({"T": 1e308}, "the free terminal state's energy is below 1e-300 at T=1e+308, time_steps=96"),
    ({"potential_const": 1e308},
     "the free terminal state's energy is below 1e-300 at T=0.5, time_steps=96"),
    ({"u0_modes": [1e-300]}, "the initial state's energy is below 1e-300 at T=0.5, time_steps=96"),
], ids=["T", "potential_const", "u0_modes"])
def test_null_control_with_underflowed_energy_names_it(tmp_path, change, line):
    # at the shipped sizes these passed with 0 CG iterations and a zero
    # terminal norm, or failed only through a NaN relative norm
    cfg = json.loads((CONFIGS[0].parent / "null_control.json").read_text(encoding="utf-8"))
    cfg.update(change)
    assert validate_config(cfg) == []
    assert run_experiment(cfg, tmp_path) == 1
    assert (tmp_path / "run.log").read_text().splitlines()[-1] == f"error: {line}"


HUGE_T = 1.7976931348623157e308


@pytest.mark.parametrize("name, change, line", [
    ("null_control.json",
     {"mesh_n": 16, "time_steps": 200, "scheme": "backward_euler", "potential_const": -399.8},
     "the unforced state reached NaN or inf at T=0.5, time_steps=200"),
    ("carleman_sweep_weak.json",
     {"mesh_n": 16, "time_steps": 1000, "scheme": "backward_euler", "potential_const": -99.99,
      "s_grid": [1.0], "lambda_grid": [2.0], "n_samples": 1},
     "the source produced NaN or inf at T=10, time_steps=1000"),
], ids=["null_control_free_march", "carleman_sweep_sourced_march"])
def test_overflowing_march_names_the_horizon(tmp_path, name, change, line):
    # a potential just inside the diagonal-dominance bound grows the state by
    # about 1/(1 + tau*c) a step, past double precision; the null control's
    # free march has no forcing to blame, and both runs name the T and
    # time_steps that set the substeps
    cfg = json.loads((CONFIGS[0].parent / name).read_text(encoding="utf-8"))
    cfg.update(change)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert (out / "run.log").read_text().splitlines()[-1] == f"error: non-finite march: {line}"
    assert not (out / "summary.json").exists()


def test_flushed_convergence_errors_name_the_horizon(tmp_path):
    # weights of T/M ~ 2e-303 flush every squared error to zero, whose
    # logarithm the orders would take
    cfg = json.loads((CONFIGS[0].parent / "convergence.json").read_text(encoding="utf-8"))
    cfg["T"] = 1e-300
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert (out / "run.log").read_text().splitlines()[-1] == (
        "error: the spatial study's error at size 32 is 0 at T=1e-300, so it has no "
        "convergence order")
    assert not (out / "summary.json").exists()


def _overflow(length, entry, steps):
    return (f"error: step matrix overflow: a substep of length {length} times the operator's "
            f"largest entry {entry} exceeds double precision at T=1.79769e+308, "
            f"time_steps={steps}")


@pytest.mark.parametrize("name, change, code, line", [
    ("energy.json", {"T": 5e-324, "time_steps": 2, "n_samples": 2}, 2,
     "config error: T: T/time_steps must be > 0, got T=5e-324 over time_steps=2"),
    ("energy.json", {"T": HUGE_T, "time_steps": 1, "n_samples": 2}, 1,
     _overflow("1.79769e+308", "19.7464", 1)),
    ("energy.json", {"T": HUGE_T, "time_steps": 4, "n_samples": 2}, 1,
     _overflow("4.49423e+307", "19.7464", 4)),
    ("null_control.json",
     {"time_steps": 10, "T": HUGE_T, "omega": [1e-12, 0.999999999999],
      "coefficient": {"kind": "power_minus_x", "params": {"theta": 0.05}}}, 1,
     _overflow("1.79769e+307", "253.772", 10)),
    ("carleman_sweep_weak.json",
     {"time_steps": 10, "T": HUGE_T, "omega": [5e-324, 0.93],
      "s_grid": [1.797e308], "lambda_grid": [1.797e308], "n_samples": 1,
      "coefficient": {"kind": "power", "params": {"gamma": 0.05}}}, 1,
     _overflow("1.79769e+307", "255.105", 10)),
], ids=["energy_underflow", "energy_1_step", "energy_4_steps", "null_control", "carleman_sweep"])
def test_extreme_horizon_fails_by_name_before_numpy_warns(tmp_path, capsys, name, change, code,
                                                           line):
    # a step length of 0 divided the energy's time differences by zero, and an
    # overflowing tau*G made the step matrices and then the march non-finite:
    # each printed numpy's warning before the named error
    cfg = json.loads((CONFIGS[0].parent / name).read_text(encoding="utf-8"))
    cfg.update({"mesh_n": 16}, **change)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == code
    lines = capsys.readouterr().err if code == 2 else (out / "run.log").read_text()
    assert lines.splitlines()[-1] == line


def test_overflowing_weight_fails_by_name_before_numpy_warns(tmp_path):
    # at T = 1e-30 and s = 1e-300 the exponent 2*s*theta*(eta - c3) is tiny
    # but sigma**(5/3) exceeds the largest double: np.exp warned twice and
    # the run failed on its valid-sample invariant without naming the cause
    cfg = json.loads((CONFIGS[0].parent / "carleman_sweep_strong.json").read_text(encoding="utf-8"))
    cfg.update(mesh_n=16, T=1e-30, time_steps=12, n_samples=2, s_grid=[1e-300],
               s_relative=False, lambda_grid=[1])
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    assert (out / "run.log").read_text().splitlines()[-1] == (
        "error: the weight exp(2*s*phi)*sigma**k overflows double precision "
        "at s=1e-300, lambda=1, k=1.66667"
    )


def test_growing_problem_fails_the_cg_check(tmp_path):
    # a potential inside the diagonal-dominance bound that makes the free
    # terminal state about 6e23 large: a stopping rule relative to that norm
    # alone reported convergence after one iteration
    cfg = {
        "experiment": "null_control",
        "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
        "mesh_n": 16,
        "time_steps": 16,
        "T": 0.5,
        "potential_const": -63.9,
    }
    assert validate_config(cfg) == []
    assert run_experiment(cfg, tmp_path) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    checks = {i["name"]: i["passed"] for i in summary["invariants"]}
    assert checks["conjugate gradients converged"] is False
    assert summary["results"]["cg_iterations"] > 1


def _gamma_spec(gamma, N, T, omega):
    coef = make_power_coefficient(gamma)
    rep = classify(coef)
    return ProblemSpec(
        T=T, coef=coef, regime=boundary_regime_for(rep), mesh=build_mesh(N, 2.0),
        time_steps=N, omega=omega, hypothesis=rep,
    )


def test_lemma_sign_terms_match_per_sample(tmp_path):
    cfg = {
        "experiment": "lemma_checks",
        "coefficient": {"kind": "power", "params": {"gamma": 1.0}},
        "T": 2.0,
        "omega": [0.3, 0.7],
        "omega_prime": [0.4, 0.6],
        "resolution": 32,
        "residual_threshold": 1.0,
        "n_samples": 4,
        "mesh_n": 40,
        "time_steps": 40,
        "seed": 5,
    }
    assert run_experiment(cfg, tmp_path) == 0
    lines = (tmp_path / "boundary_sign.csv").read_text().splitlines()[1:]
    got = [tuple(float(v) for v in line.split(",")[1:3]) for line in lines]
    # reference: one solve_adjoint per draw
    spec = _gamma_spec(1.0, 40, 2.0, (0.3, 0.7))
    wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
    ref = []
    for vt in sample_fields(5, STREAM_TERMINAL, 4, spec.mesh.nodes):
        ref.append(boundary_sign_term(transform_to_w(solve_adjoint(spec, vt), wts, 1.0), wts, 1.0))
    assert got == ref


def test_observability_probe_matches_per_sample(tmp_path):
    cfg = {
        "experiment": "observability",
        "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
        "T": 1.0,
        "mesh_n": 40,
        "time_steps": 40,
        "omega": [0.3, 0.7],
        "n_samples": 3,
        "seed": 7,
    }
    assert run_experiment(cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    # reference: the homogeneity probe with one solve_adjoint per field
    spec = _gamma_spec(0.5, 40, 1.0, (0.3, 0.7))
    xw = _clipped_node_quadrature(spec.mesh.nodes, *spec.omega)
    tw = trapezoid_time_weights(spec.T, spec.time_steps)

    def one_ratio(v):
        vals = solve_adjoint(spec, v).values
        num = float(np.sum(spec.mesh.volumes * vals[0] * vals[0]))
        return num / float(np.einsum("m,mi,i->", tw, vals**2, xw))

    vts = sample_fields(7, STREAM_TERMINAL, 3, spec.mesh.nodes)
    lines = (tmp_path / "observability.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[1]) for line in lines] == [one_ratio(v) for v in vts]
    vt = sample_fields(7, STREAM_TERMINAL, 1, spec.mesh.nodes)[0]
    r1, r2 = one_ratio(vt), one_ratio(2.0 * vt)
    nums, dens = _observability_energies(spec, np.stack([vt, 2.0 * vt]))
    assert (nums / dens).tolist() == [r1, r2]
    assert summary["results"]["scale_invariance_error"] == abs(r1 - r2) / max(abs(r1), 1e-300)


@pytest.mark.parametrize(
    "exp, fields, invariant",
    [
        ("energy", {"mesh_n": 16, "time_steps": 8}, "all energy ratios finite"),
        ("hardy", {"mesh_n": 16}, "all ratios finite"),
    ],
)
def test_zero_data_sample_reads_nan(tmp_path, monkeypatch, exp, fields, invariant):
    # a sample with nothing to evaluate reads nan, never 0: the finite check
    # fails by name and max_ratio is taken over the other samples
    cfg = base_config(exp, n_samples=3, **fields)

    def ratios(outdir):
        lines = (outdir / f"{exp}.csv").read_text().splitlines()
        col = lines[0].split(",").index("ratio")
        return [line.split(",")[col] for line in lines[1:]]

    assert run_experiment(cfg, tmp_path / "clean") == 0
    clean = [float(r) for r in ratios(tmp_path / "clean")]
    draw = cli.sample_fields

    def zero_at_1(*args):
        fields = draw(*args)
        fields[1] = 0.0
        return fields

    monkeypatch.setattr(cli, "sample_fields", zero_at_1)
    assert run_experiment(cfg, tmp_path / "zero") == 1
    got = ratios(tmp_path / "zero")
    assert got[1] == "nan" and [float(got[0]), float(got[2])] == [clean[0], clean[2]]
    summary = json.loads((tmp_path / "zero" / "summary.json").read_text())
    assert [i["name"] for i in summary["invariants"] if not i["passed"]] == [invariant]
    assert summary["results"]["max_ratio"] == max(clean[0], clean[2])


def test_excluded_observability_draw_keeps_its_index(tmp_path, monkeypatch):
    # a zero terminal draw at index 1 has no control-region energy: its row
    # reads nan, and every later draw keeps its own sample index and ratio
    cfg = {
        "experiment": "observability",
        "coefficient": {"kind": "power", "params": {"gamma": 0.5}},
        "T": 1.0,
        "mesh_n": 40,
        "time_steps": 40,
        "omega": [0.3, 0.7],
        "n_samples": 4,
        "seed": 7,
    }
    spec = _gamma_spec(0.5, 40, 1.0, (0.3, 0.7))
    clean = carleman.observability_ratio(spec, n_samples=4, seed=7).ratios
    draw = carleman.sample_fields

    def zero_at_1(*args):
        fields = draw(*args)
        fields[1] = 0.0
        return fields

    monkeypatch.setattr(carleman, "sample_fields", zero_at_1)
    rep = carleman.observability_ratio(spec, n_samples=4, seed=7)
    assert np.isnan(rep.ratios[1]) and rep.excluded_count == 1
    assert rep.ratios[[0, 2, 3]].tolist() == clean[[0, 2, 3]].tolist()
    assert rep.constant == max(clean[[0, 2, 3]])

    assert run_experiment(cfg, tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["results"]["excluded_count"] == 1
    rows = [line.split(",") for line in (tmp_path / "observability.csv").read_text().splitlines()]
    assert rows[0] == ["sample", "ratio"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    assert rows[2][1] == "nan"
    assert [float(rows[i][1]) for i in (1, 3, 4)] == clean[[0, 2, 3]].tolist()
