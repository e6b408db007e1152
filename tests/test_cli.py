import io
import json
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import yaml

from spinflip import NoiseParams, ensemble_average, propagate_bloch, propagate_density
from spinflip import cli, fields
from spinflip.cli import main


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse-level exits
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows) if rows else np.empty((0, 0))


class TestDesign:
    def test_default_table(self):
        code, out, _ = invoke(["design"])
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["t_ns", "theta_rad", "phi_rad", "B1_T", "B2_T",
                          "Ex_V_per_cm", "Ey_V_per_cm"]
        assert rows.shape == (1001, 7)
        assert np.isfinite(rows).all()
        assert rows[0, 0] == 0.0 and rows[-1, 0] == 1.0
        assert "config_sha1" in meta

    def test_near_limit_succeeds_with_peaks(self):
        code_low, out_low, _ = invoke(["design", "--samples", "201"])
        code_hi, out_hi, _ = invoke(["design", "--b0", "1.05", "--samples", "201"])
        assert code_low == 0 and code_hi == 0
        _, _, low = parse_csv(out_low)
        _, _, hi = parse_csv(out_hi)
        assert np.abs(hi[:, 5]).max() > 5 * np.abs(low[:, 5]).max()

    def test_excessive_b0_exits_3_with_hint(self):
        code, _, err = invoke(["design", "--b0", "5.0"])
        assert code == 3
        assert "B0_max" in err

    def test_bad_config_value_exits_2(self):
        code, _, err = invoke(["design", "--tf", "-1.0"])
        assert code == 2
        assert "tf_ns" in err


class TestSimulate:
    def test_unitary_flip_summary(self):
        code, out, _ = invoke(["simulate", "--samples", "101"])
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["t_ns", "u", "v", "w", "P_up", "P_down"]
        assert float(meta["summary_F"]) >= 1.0 - 1e-6
        assert rows[0, 3] == 1.0
        assert rows[-1, 3] == pytest.approx(-1.0, abs=1e-9)
        assert np.allclose(rows[:, 4] + rows[:, 5], 1.0, atol=1e-12)

    def test_dephasing_summary_matches_master(self):
        code, out, _ = invoke(["simulate", "--gamma", "0.01", "--samples", "11"])
        assert code == 0
        meta, _, _ = parse_csv(out)
        f = float(meta["summary_F"])
        assert f == pytest.approx(np.sqrt((1 + np.exp(-0.04)) / 2), abs=1e-6)
        assert f >= float(meta["summary_bound_1_minus_2_gamma_tf"]) - 1e-3

    def test_seed_flag_removed(self):
        # simulate has no stochastic path, so it takes no seed
        code, out, err = invoke(["simulate", "--seed", "7"])
        assert code == 2
        assert out == "" and "--seed" in err

    def test_initialization_error_flags(self):
        code, out, _ = invoke(["simulate", "--epsilon", "0.01", "--phi0",
                               "0.7854", "--samples", "51"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0, 3] == pytest.approx(1 - 2 * 0.01, abs=1e-12)
        assert rows[-1, 3] == pytest.approx(-1 + 2 * 0.01, abs=5e-3)
        # a non-finite phase is a bad input, not a propagation failure (exit 4)
        for phi0 in ("nan", "inf"):
            code, out, err = invoke(["simulate", "--phi0", phi0, "--steps", "1000"])
            assert code == 2
            assert out == "" and "phi0 must be finite" in err


class TestB0Max:
    def test_decreasing_column(self):
        code, out, _ = invoke(["b0max", "--tf-min", "0.8", "--tf-max", "1.2",
                               "--points", "3"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["tf_ns", "b0max_T"]
        assert np.all(np.diff(rows[:, 1]) < 0)
        assert rows[1, 1] > 1.05  # tf = 1.0 row

    def test_bad_range_exits_2(self):
        code, _, _ = invoke(["b0max", "--tf-min", "2.0", "--tf-max", "1.0"])
        assert code == 2

    def test_infinite_bound_exits_2(self):
        # np.linspace to inf gave a NaN t_f deep inside compute_b0_max
        code, out, err = invoke(["b0max", "--tf-min", "0.2", "--tf-max", "inf"])
        assert code == 2
        assert out == "" and "finite" in err

    def test_limit_above_first_bracket(self):
        # B0_max grows as 1/t_f and passes the first 10 T bracket near 0.12 ns;
        # the bracket doubles to 40 T at 0.05 ns (23.176 T with b0_hi = 40)
        code, out, _ = invoke(["b0max", "--tf-min", "0.05", "--tf-max", "0.1",
                               "--points", "2"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0, 0] == 0.05
        assert rows[0, 1] == pytest.approx(23.176, abs=1e-3)
        assert rows[1, 1] == pytest.approx(11.588, abs=1e-3)

    @pytest.mark.parametrize("argv", [
        ("--tf-min", "0.2", "--tf-max", "2.0", "--points", "10"),
        ("--tf-min", "0.05", "--tf-max", "0.5", "--points", "4"),  # bracket doubles
    ], ids=["benchmark-curve", "short-pulses"])
    def test_one_bisection_per_curve(self, monkeypatch, argv):
        # B0_max = K / t_f: one bisection at tf_min gives every row, each
        # within the bisection tolerance of its own bisection
        calls = []

        def counted(tf, mat, *args, **kwargs):
            calls.append(tf)
            return fields.compute_b0_max(tf, mat, *args, **kwargs)
        monkeypatch.setattr(cli, "compute_b0_max", counted)
        code, out, _ = invoke(["b0max", *argv])
        assert code == 0
        assert calls == [float(argv[1])]
        _, _, rows = parse_csv(out)
        mat = cli.material_from(cli.DEFAULT_CONFIG)
        for tf, b0max in rows:
            assert abs(b0max - fields.compute_b0_max(tf, mat)) <= 1e-3, tf


class TestSweep:
    def test_gamma_grid_decreasing(self):
        code, out, _ = invoke(["sweep", "--axis", "gamma",
                               "--grid", "0.1,0.4,0.7", "--steps", "2000"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["axis_value", "F"]
        assert np.all(np.diff(rows[:, 1]) < 0)

    def test_parallel_matches_serial(self, tmp_path):
        args = ["sweep", "--axis", "gamma", "--grid", "0.05:0.6:4",
                "--steps", "2000"]
        p1, p2 = tmp_path / "serial.csv", tmp_path / "par.csv"
        assert invoke(args + ["--jobs", "1", "--out", str(p1)])[0] == 0
        assert invoke(args + ["--jobs", "2", "--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_jobs_env_var(self, tmp_path, monkeypatch):
        p1, p2 = tmp_path / "env.csv", tmp_path / "flag.csv"
        args = ["sweep", "--axis", "gamma", "--grid", "0.1,0.3",
                "--steps", "2000"]
        monkeypatch.setenv("SPINFLIP_JOBS", "2")
        assert invoke(args + ["--out", str(p1)])[0] == 0
        monkeypatch.delenv("SPINFLIP_JOBS")
        assert invoke(args + ["--jobs", "1", "--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        monkeypatch.setenv("SPINFLIP_JOBS", "zero")
        assert invoke(args)[0] == 2

    @pytest.mark.parametrize("flag, env", [
        (["--jobs", "-3"], None), (["--jobs", "0"], None), ([], "0"), ([], "-1"),
    ], ids=["flag-negative", "flag-zero", "env-zero", "env-negative"])
    def test_jobs_below_one_rejected(self, monkeypatch, flag, env):
        # a config error, not a pool traceback (-3) or a silent default (0)
        if env is None:
            monkeypatch.delenv("SPINFLIP_JOBS", raising=False)
        else:
            monkeypatch.setenv("SPINFLIP_JOBS", env)
        code, out, err = invoke(["sweep", "--axis", "gamma", "--grid", "0.1",
                                 "--steps", "1000"] + flag)
        assert code == 2
        assert out == "" and "must be >= 1" in err

    def test_gamma_table_matches_full_rk4(self, design):
        # the batched curve scales one unitary run by e^{-4 gamma tf}; here
        # every point against a Bloch run with the dephasing inside the RK4
        code, out, _ = invoke(["sweep", "--axis", "gamma", "--grid", "0:1:20"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows.shape == (20, 2)
        for gamma, f in rows:
            full = propagate_bloch(design, gamma=gamma, steps=10000).final_fidelity
            assert abs(f - full) < 1e-12, gamma

    def test_mc_table_equals_per_point_ensembles(self, design):
        grid = (0.01, 0.02, 0.05)
        code, out, _ = invoke(["sweep", "--axis", "lambda0_sq", "--grid",
                               ",".join(map(str, grid)), "--mc", "--n-traj", "32",
                               "--steps", "2000", "--seed", "17"])
        assert code == 0
        _, _, rows = parse_csv(out)
        for (value, f, se), l2 in zip(rows, grid):
            res = ensemble_average(design, NoiseParams(float(np.sqrt(l2)), "x-only",
                                                       seed=17, n_traj=32), steps=2000)
            assert value == l2
            assert f == np.sqrt(res.population_mean)
            assert se == res.population_se / (2.0 * f)

    def test_mc_table_matches_master(self, design):
        # the F column estimates sqrt(rho_11) of the x-only master equation;
        # the mean of |psi_down| over the same trajectories sits 3.3 SE below
        code, out, _ = invoke(["sweep", "--axis", "lambda0_sq", "--grid", "0.2", "--mc",
                               "--n-traj", "2000", "--steps", "2000", "--seed", "5"])
        assert code == 0
        _, _, rows = parse_csv(out)
        master = propagate_density(design, lambda0=float(np.sqrt(0.2)), channel="x-only",
                                   steps=10000).final_fidelity
        assert abs(rows[0, 1] - master) < 3 * rows[0, 2]

    def test_mc_table_rows_pinned(self):
        # rows of the real [D | S] Euler-Maruyama step, reduced to
        # sqrt(mean population) and its delta-method standard error; they
        # hold for the BLAS kernel that does its batched matmul
        code, out, _ = invoke(["sweep", "--axis", "lambda0_sq", "--grid", "0.013,0.035",
                               "--mc", "--n-traj", "32", "--steps", "2000",
                               "--seed", "1234"])
        assert code == 0
        assert out.splitlines()[-2:] == [
            "0.012999999999999999,0.99264069626505558,0.00142272336863277",
            "0.035000000000000003,0.98075685762471387,0.003688907386732691"]

    def test_mc_memory_does_not_grow_with_steps(self):
        def peak(steps):
            tracemalloc.start()
            try:
                assert invoke(["sweep", "--axis", "lambda0_sq", "--grid", "0.02",
                               "--mc", "--n-traj", "256", "--steps", str(steps)])[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        invoke(["sweep", "--axis", "lambda0_sq", "--grid", "0.02", "--mc",
                "--n-traj", "8", "--steps", "1000"])
        grown = peak(16000) - peak(4000)
        # a (n_traj, steps) increment array would add 24 MiB
        assert grown < 1 << 20, grown

    def test_lambda0_sq_honours_channel(self, tmp_path):
        # at lambda0^2 = 0.01 the x-only channel gives F = 0.992416 and the
        # as-printed one 0.983697 (README, "Noise channels")
        cfg = tmp_path / "xonly.yaml"
        cfg.write_text(yaml.safe_dump({"noise": {"channel": "x-only"}}))
        code, out, _ = invoke(["sweep", "--config", str(cfg), "--axis", "lambda0_sq",
                               "--grid", "0.01"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[0, 1] == pytest.approx(0.992416, abs=1e-6)

    def test_lambda0_sq_gate_fails_at_too_few_steps(self):
        # at B0 = 0.9 T (0.78 of the limit) 1000 steps move the final Bloch
        # vector by 1.2e-7 from its 2000-step run: exit 4, no F printed
        code, out, err = invoke(["sweep", "--axis", "lambda0_sq", "--grid", "0,0.01",
                                 "--steps", "1000", "--b0", "0.9"])
        assert code == 4
        assert out == "" and "step-halving gate failed" in err

    def test_mc_needs_lambda0_sq_axis(self, monkeypatch):
        # the gamma axis has no ensemble: a config error before propagating,
        # not a table-width traceback
        def refuse(*args, **kwargs):
            raise AssertionError("propagated")
        monkeypatch.setattr("spinflip.cli.dephasing_sweep", refuse)
        code, out, err = invoke(["sweep", "--axis", "gamma", "--grid", "0.1", "--mc",
                                 "--steps", "1000"])
        assert code == 2
        assert out == "" and "--mc applies to --axis lambda0_sq only" in err

    @pytest.mark.parametrize("section, key, value", [
        ("noise", "seed", 1.5), ("noise", "seed", "abc"), ("noise", "seed", True),
        ("noise", "n_traj", 4.5), ("integrator", "steps", 1000.5),
        ("control", "samples", 20.5),
    ])
    def test_non_integer_counts_rejected(self, tmp_path, section, key, value):
        # a config error, not a TypeError traceback from numpy or range()
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({section: {key: value}}))
        code, out, err = invoke(["sweep", "--config", str(cfg), "--axis", "lambda0_sq",
                                 "--grid", "0.01", "--mc"])
        assert code == 2
        assert out == "" and f"{section}.{key} must be an integer" in err

    def test_negative_seed_rejected(self):
        code, out, err = invoke(["sweep", "--axis", "lambda0_sq", "--grid", "0.01",
                                 "--mc", "--seed", "-1", "--n-traj", "4",
                                 "--steps", "1000"])
        assert code == 2
        assert out == "" and "noise: seed must be a non-negative integer, got -1" in err

    def test_empty_grid_empty_table(self):
        code, out, _ = invoke(["sweep", "--axis", "gamma", "--grid", ""])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["axis_value", "F"]
        assert rows.size == 0

    def test_negative_gamma_rejected(self):
        code, out, err = invoke(["sweep", "--axis", "gamma", "--grid=-0.5",
                                 "--steps", "1000"])
        assert code == 2
        assert out == "" and "-0.5" in err

    @pytest.mark.parametrize("grid", ["-0.01", "0.01,nan", "0.01,inf"])
    def test_bad_lambda0_sq_rejected(self, grid):
        # sqrt(-0.01) would be NaN and silently select the noiseless channel
        code, out, err = invoke(["sweep", "--axis", "lambda0_sq", f"--grid={grid}",
                                 "--steps", "1000"])
        assert code == 2
        assert out == "" and "finite and >= 0" in err

    def test_mc_mode_reports_standard_error(self):
        code, out, _ = invoke(["sweep", "--axis", "lambda0_sq",
                               "--grid", "0.02", "--mc", "--n-traj", "64",
                               "--steps", "2000", "--seed", "5"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["axis_value", "F", "standard_error"]
        assert 0.9 < rows[0, 1] < 1.0 and rows[0, 2] > 0.0

    def test_seeded_mc_reproducible(self, tmp_path):
        args = ["sweep", "--axis", "lambda0_sq", "--grid", "0.01,0.02", "--mc",
                "--n-traj", "32", "--steps", "2000", "--seed", "11"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert invoke(args + ["--out", str(p1)])[0] == 0
        assert invoke(args + ["--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestOverLimitB0:
    """B0 = 2 T at tf = 1 ns carries non-cancellable roots: every propagating
    command exits 3 from the library's singularity scan, before any kernel."""

    @pytest.fixture(autouse=True)
    def no_propagation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("propagated an over-limit design")
        for name in ("rk4_bloch", "em_final"):
            monkeypatch.setattr(f"spinflip._kernels.{name}", refuse)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--lambda0", "0.1"],
        ["simulate", "--gamma", "0"],
        ["sweep", "--axis", "lambda0_sq", "--grid", "0.01"],
        ["sweep", "--axis", "lambda0_sq", "--grid", "0.01", "--mc",
         "--n-traj", "8", "--steps", "1000"],
        ["sweep", "--axis", "gamma", "--grid", "0:1:3", "--steps", "1000"],
    ], ids=["simulate-lambda0", "simulate-gamma0", "sweep-lambda0_sq", "sweep-mc",
            "sweep-gamma"])
    def test_exits_3(self, argv):
        code, out, err = invoke(argv + ["--b0", "2.0"])
        assert code == 3
        assert out == "" and "non-cancellable singularity" in err

    def test_bad_epsilon_exits_2_before_the_scan(self):
        code, out, err = invoke(["simulate", "--epsilon", "1.5", "--b0", "2.0"])
        assert code == 2
        assert out == "" and "simulate: epsilon must lie in [0, 1), got 1.5" in err

    def test_empty_grid_propagates_nothing(self):
        code, out, err = invoke(["sweep", "--axis", "gamma", "--grid", "", "--b0", "2.0"])
        assert code == 0 and err == ""
        assert parse_csv(out)[2].size == 0


class TestOneScan:
    """The library propagators scan the design before any kernel, so the
    CLI commands scan once per propagation."""

    @pytest.mark.parametrize("argv, scans", [
        (["design", "--samples", "11"], 1),
        (["simulate", "--samples", "3", "--steps", "1000"], 1),
        (["sweep", "--axis", "gamma", "--grid", "0:1:3", "--steps", "1000"], 1),
        (["sweep", "--axis", "lambda0_sq", "--grid", "0.01,0.02", "--mc",
          "--n-traj", "4", "--steps", "1000"], 1),
        (["sweep", "--axis", "lambda0_sq", "--grid", "0,0.01,0.02", "--steps", "1000"], 1),
    ], ids=["design", "simulate", "sweep-gamma", "sweep-mc", "sweep-lambda0_sq"])
    def test_scan_count(self, monkeypatch, argv, scans):
        calls, detect = [], fields.detect_singularities

        def counted(*args, **kwargs):
            calls.append(args)
            return detect(*args, **kwargs)
        monkeypatch.setattr(fields, "detect_singularities", counted)
        monkeypatch.setattr(cli, "detect_singularities", counted)
        code, _, _ = invoke(argv)
        assert code == 0 and len(calls) == scans


class TestConfigHandling:
    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(
            {"control": {"tf_ns": 0.5, "samples": 11}}))
        code, out, _ = invoke(["design", "--config", str(cfg)])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert rows[-1, 0] == 0.5
        code, out, _ = invoke(["design", "--config", str(cfg), "--tf", "0.8"])
        _, _, rows = parse_csv(out)
        assert rows[-1, 0] == 0.8

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"contrl": {"tf_ns": 0.5}}))
        code, _, err = invoke(["design", "--config", str(cfg)])
        assert code == 2
        assert "contrl" in err

    @pytest.mark.parametrize("doc", [
        {"control": {"tf_ns": "abc"}}, {"control": {"b0_T": True}},
        {"output": {"path": 9999}}, {"material": {"g_factor": float("nan")}},
        {"material": {"xi_x": float("inf")}},
    ], ids=["tf_ns-str", "b0_T-bool", "path-int", "g_factor-nan", "xi_x-inf"])
    def test_leaf_types_checked_against_defaults(self, tmp_path, doc):
        # a config error, not a TypeError, an OSError from open(9999) or a
        # ValueError from MaterialParams
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        code, out, err = invoke(["design", "--config", str(cfg)])
        [(section, leaf)] = doc.items()
        assert code == 2
        assert out == "" and f"{section}.{next(iter(leaf))} must be" in err

    @pytest.mark.parametrize("material", [
        {"hbar_alpha_meV_cm": 1.0e+300, "beta_over_alpha": 1.0e+300},
        {"hbar_alpha_meV_cm": 1.0e-300, "beta_over_alpha": 1.0e-300},
        {"g_factor": 0.0},
    ], ids=["hbar_beta-overflow", "hbar_beta-underflow", "g_factor-zero"])
    def test_material_rejected_by_params(self, tmp_path, material):
        # finite leaves whose product is not, and a g that zeroes eta, are
        # config errors, not a ValueError traceback or a false singularity
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"material": material}))
        code, out, err = invoke(["design", "--config", str(cfg)])
        assert code == 2
        assert out == "" and err.startswith("error: material: ")

    @pytest.mark.parametrize("argv", [["design"], ["simulate", "--steps", "1000"]],
                             ids=["design", "simulate"])
    def test_xi_at_minus_one_rejected(self, tmp_path, argv):
        # the fields divide by 1 + xi_x: design used to print two numpy
        # RuntimeWarnings and exit 3, simulate to exit 0
        cfg = tmp_path / "xi.yaml"
        cfg.write_text(yaml.safe_dump({"material": {"xi_x": -1.0}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(argv + ["--config", str(cfg)])
        assert code == 2
        assert out == "" and err == "error: material: xi_x must be > -1, got -1.0\n"

    @pytest.mark.parametrize("argv, doc, message", [
        (["simulate"], {"decoherence": {"gamma_per_ns": -0.5}},
         "decoherence: gamma must be >= 0, got -0.5"),
        (["simulate", "--lambda0", "-0.1"], None, "noise: lambda0 must be >= 0, got -0.1"),
        (["simulate"], {"noise": {"channel": "z-only"}},
         "noise: channel must be one of ('as-printed', 'x-only'), got 'z-only'"),
        (["sweep", "--axis", "lambda0_sq", "--grid", "0.01", "--mc", "--n-traj", "0"],
         None, "noise: n_traj must be an integer >= 1, got 0"),
        (["simulate", "--steps", "999"], None, "integrator steps must be >= 1000"),
        (["design"], {"control": {"tf_ns": 0}}, "tf_ns must be positive, got 0"),
        (["design", "--samples", "1"], None, "samples must be >= 2, got 1"),
        (["design"], {"output": {"format": "xml"}}, "format must be csv or json, got 'xml'"),
        (["design"], {"material": {"hbar_alpha_meV_cm": 0}},
         "material: hbar_alpha must be nonzero"),
        (["design"], {"material": {"beta_over_alpha": 0}},
         "material: hbar_beta must be nonzero"),
    ], ids=["gamma-negative", "lambda0-negative", "channel-unknown", "n_traj-zero",
            "steps-999", "tf_ns-zero", "samples-1", "format-xml", "hbar_alpha-zero",
            "beta_over_alpha-zero"])
    def test_config_values_rejected(self, tmp_path, argv, doc, message):
        # every value check on the merged config: exit 2 before any output
        if doc is not None:
            cfg = tmp_path / "bad.yaml"
            cfg.write_text(yaml.safe_dump(doc))
            argv = argv + ["--config", str(cfg)]
        code, out, err = invoke(argv)
        assert code == 2
        assert out == "" and message in err

    @pytest.mark.parametrize("argv", [["design", "--tf", "nan"],
                                      ["simulate", "--gamma", "nan", "--steps", "1000"]],
                             ids=["design-tf", "simulate-gamma"])
    def test_non_finite_flags_rejected(self, argv):
        code, out, err = invoke(argv)
        assert code == 2
        assert out == "" and "must be a finite number" in err

    def test_missing_config_file(self):
        code, _, _ = invoke(["design", "--config", "/nonexistent.yaml"])
        assert code == 2

    def test_json_format(self):
        code, out, _ = invoke(["design", "--samples", "5", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"][0] == "t_ns"
        assert len(doc["rows"]) == 5

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert invoke(["design", "--samples", "64", "--out", str(p1)])[0] == 0
        assert invoke(["design", "--samples", "64", "--out", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()


def write_model(path, **kw):
    doc = {"e1_meV": 0.0, "e2_meV": 1.0, "delta_z_meV": -1.91e-3,
           "pbar_x": [0.0, 0.0], "pbar_y": [0.0, 0.0],
           "mass_meV_ns2_cm2": 3.8e4, "drive_b1_T": 0.0, "drive_b2_T": 0.0}
    doc.update(kw)
    path.write_text(yaml.safe_dump(doc))


class TestReduce:
    def test_uncoupled_effective_equals_q(self, tmp_path):
        model = tmp_path / "model.yaml"
        write_model(model, drive_b1_T=0.05)
        code, out, _ = invoke(["reduce", "--model", str(model)])
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["index", "eig_effective_meV", "eig_exact_meV",
                          "abs_error_meV"]
        assert rows[:, 3].max() == 0.0
        assert float(meta["xi_x"]) == 0.0

    def test_weak_coupling_error_column(self, tmp_path):
        model = tmp_path / "model.yaml"
        write_model(model, pbar_x=[0.0, 2.9], delta_z_meV=0.05)
        code, out, _ = invoke(["reduce", "--model", str(model)])
        assert code == 0
        meta, _, rows = parse_csv(out)
        c_norm = float(meta["coupling_norm_meV"])
        assert rows[:, 3].max() < 1e-3 * c_norm

    def test_orbital_adiabatic_flag(self, tmp_path):
        model = tmp_path / "model.yaml"
        write_model(model, e2_meV=0.1)
        code, out, _ = invoke(["reduce", "--model", str(model)])
        assert code == 0
        meta, _, _ = parse_csv(out)
        assert meta["orbital_adiabatic"] == "yes"

    def test_degenerate_reference_exits_5(self, tmp_path):
        model = tmp_path / "model.yaml"
        write_model(model, delta_z_meV=2.0, pbar_x=[0.0, 1.0])
        code, _, err = invoke(["reduce", "--model", str(model)])
        assert code == 5
        assert "degenerate" in err.lower()

    def test_bad_model_exits_2(self, tmp_path):
        model = tmp_path / "model.yaml"
        model.write_text(yaml.safe_dump({"e1_meV": 0.0, "bogus": 1}))
        code, _, _ = invoke(["reduce", "--model", str(model)])
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read {}"), ("a: [", "cannot parse {}"),
        ("- 1\n- 2\n", "{} file must hold a mapping at top level"),
    ], ids=["missing", "bad-yaml", "list"])
    @pytest.mark.parametrize("kind", ["config", "model"])
    def test_config_and_model_read_alike(self, tmp_path, kind, text, message):
        path = tmp_path / "file.yaml"
        if text is not None:
            path.write_text(text)
        argv = ["reduce", "--model", str(path)] if kind == "model" else \
            ["design", "--config", str(path)]
        code, out, err = invoke(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message.format(kind))

    def test_empty_model_lists_missing_keys(self, tmp_path):
        model = tmp_path / "model.yaml"
        model.write_text("")
        code, _, err = invoke(["reduce", "--model", str(model)])
        assert code == 2
        assert err.startswith("error: missing model keys: ['delta_z_meV'")


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinflip", "design", "--samples", "3"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1].startswith("1,")

    def test_version_flag(self):
        code, out, _ = invoke(["--version"])
        assert code == 0

    def test_unknown_command(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2
