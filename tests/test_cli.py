"""CLI surface: catalog listing, spec resolution, artifacts, compare, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from stickysim import cli
from stickysim import mean_field as mf
from stickysim import metrics as mx
from stickysim.core import PowerOfD


# overrides that shrink any full-scale experiment to a fast toy system
TINY = {
    "n": "20",
    "lam": "3.0",
    "beta": "1.0",
    "nu": "1.0",
    "mu": "10.0",
}


class TestListExperiments:
    def test_catalog_is_stable_and_nonempty(self):
        first = cli.list_experiments()
        second = cli.list_experiments()
        assert first == second
        names = [name for name, _, _ in first]
        assert len(names) == len(set(names))
        assert len(names) == 14
        assert names[0] == "fig-perfect-jsq"

    def test_every_entry_has_scheme_and_description(self):
        for name, scheme, desc in cli.list_experiments():
            assert name and scheme and desc

    def test_filter_by_name_substring(self):
        names = {name for name, _, _ in cli.list_experiments("bin")}
        assert names == {"bin-occupancy", "bin-violation", "bin-tradeoff"}

    def test_filter_by_scheme_tag(self):
        # tag is not a substring of either name, so this exercises the
        # exact-scheme branch
        names = {name for name, _, _ in cli.list_experiments("power-of-d")}
        assert names == {"random-uniform", "power-of-2"}

    def test_unknown_filter_yields_empty(self):
        assert cli.list_experiments("no-such-thing") == []


class TestCoerce:
    def test_int_float_bool_str(self):
        assert cli._coerce(1, "24") == 24
        assert cli._coerce(1.5, "2.5") == 2.5
        assert cli._coerce(1.5, "inf") == math.inf
        assert cli._coerce(1.5, "Infinity") == math.inf
        assert cli._coerce("x,y", "a,b") == "a,b"
        # an int high also takes the schemes' "no upper threshold"
        assert cli._coerce(160, "inf", "high") == math.inf
        assert cli._coerce(160, " Infinity ", "high") == math.inf

    @pytest.mark.parametrize("raw,expect", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("False", False), ("no", False), ("off", False),
    ])
    def test_bool_spellings(self, raw, expect):
        assert cli._coerce(False, raw) is expect

    def test_bad_values_raise(self):
        with pytest.raises(ValueError):
            cli._coerce(False, "maybe")
        with pytest.raises(ValueError):
            cli._coerce(1, "abc")
        with pytest.raises(ValueError):
            cli._coerce(500, "inf", "n")
        with pytest.raises(ValueError):
            cli._coerce(1.5, "abc")


class TestBuildSpec:
    def test_defaults_come_from_catalog(self, tmp_path):
        spec = cli.build_spec("bin-violation", {}, 0, tmp_path)
        assert spec.name == "bin-violation"
        assert spec.params["bins"] == "2n,5n,10n,20n"
        assert spec.params["low"] == 180
        assert spec.params["high"] == 200
        assert spec.params["seeds"] == 5
        assert spec.params["drain"] is False
        assert spec.params["n"] == 500
        assert spec.seed == 0
        assert spec.out_dir == tmp_path

    def test_overrides_are_coerced(self, tmp_path):
        spec = cli.build_spec(
            "bin-violation",
            {"n": "24", "lam": "2.5", "drain": "yes", "bins": "2n"},
            seed=3,
            out_dir=tmp_path,
        )
        assert spec.params["n"] == 24
        assert spec.params["lam"] == 2.5
        assert spec.params["drain"] is True
        assert spec.params["bins"] == "2n"
        assert spec.seed == 3

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment"):
            cli.build_spec("nope", {}, 0, tmp_path)
        # the error should tell the user what is available
        with pytest.raises(ValueError, match="bin-violation"):
            cli.build_spec("nope", {}, 0, tmp_path)

    def test_unknown_parameter_lists_valid_ones(self, tmp_path):
        with pytest.raises(ValueError, match="valid:"):
            cli.build_spec("shedding", {"lo": "1"}, 0, tmp_path)

    def test_config_file_layering(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[bin-violation]\nseeds = 2\nn = 30\n\n[shedding]\nhigh = 9\n"
        )
        spec = cli.build_spec(
            "bin-violation", {"seeds": "3"}, 0, tmp_path, config_file=ini
        )
        # file overrides defaults, command line overrides the file
        assert spec.params["n"] == 30
        assert spec.params["seeds"] == 3
        other = cli.build_spec("shedding", {}, 0, tmp_path, config_file=ini)
        assert other.params["high"] == 9

    def test_config_section_for_other_experiment_is_ignored(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[shedding]\nhigh = 9\n")
        spec = cli.build_spec("bin-violation", {}, 0, tmp_path, config_file=ini)
        assert spec.params["high"] == 200

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            cli.build_spec(
                "shedding", {}, 0, tmp_path, config_file=tmp_path / "nope.ini"
            )

    def test_config_key_validated_like_overrides(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[shedding]\nbogus = 1\n")
        with pytest.raises(ValueError, match="unknown parameter"):
            cli.build_spec("shedding", {}, 0, tmp_path, config_file=ini)

    def test_spec_is_frozen(self, tmp_path):
        spec = cli.build_spec("shedding", {}, 0, tmp_path)
        with pytest.raises(Exception):
            spec.seed = 1


class TestParseOverrides:
    def test_param_pairs_and_loose_flags(self):
        out = cli._parse_overrides(
            ["a=1", "b = 2 "], ["--c", "3", "--d=4", "--e", "x,y"]
        )
        assert out == {"a": "1", "b": "2", "c": "3", "d": "4", "e": "x,y"}

    def test_later_tokens_win(self):
        out = cli._parse_overrides(["a=1"], ["--a", "2"])
        assert out == {"a": "2"}

    def test_param_without_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            cli._parse_overrides(["notapair"], [])

    def test_positional_leftover_rejected(self):
        with pytest.raises(ValueError, match="unexpected argument"):
            cli._parse_overrides([], ["stray"])

    def test_trailing_flag_without_value(self):
        with pytest.raises(ValueError, match="missing a value"):
            cli._parse_overrides([], ["--chi"])


class TestRunExperiment:
    def test_analytic_tradeoff_artifacts(self, tmp_path):
        spec = cli.build_spec(
            "tradeoff-shedding",
            {"h_min": "195", "h_max": "197"},
            seed=5,
            out_dir=tmp_path,
        )
        written = cli.run_experiment(spec)
        csv_path = tmp_path / "tradeoff-shedding_tradeoff.csv"
        json_path = tmp_path / "tradeoff-shedding_summary.json"
        assert set(written) == {csv_path, json_path}

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "h,epsilon,delay_tail,improvement"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [195, 196, 197]
        eps = [float(r[1]) for r in rows]
        assert eps == sorted(eps, reverse=True)
        assert all(e > 0 for e in eps)

        # float cells are written with repr, so they round-trip exactly
        for r in rows:
            for cell in r[1:]:
                assert repr(float(cell)) == cell

    def test_summary_json_shape(self, tmp_path):
        spec = cli.build_spec(
            "tradeoff-shedding",
            {"h_min": "195", "h_max": "195"},
            seed=11,
            out_dir=tmp_path,
        )
        cli.run_experiment(spec)
        raw = (tmp_path / "tradeoff-shedding_summary.json").read_text()
        assert raw.endswith("\n")
        payload = json.loads(raw)
        assert payload["experiment"] == "tradeoff-shedding"
        assert payload["version"].startswith("stickysim ")
        assert payload["seed"] == 11
        assert payload["wall_clock_s"] >= 0.0
        assert payload["params"]["h_min"] == 195
        assert "tolerances" in payload

    def test_power_of_2_summary_says_why_the_ode_stopped(self, tmp_path):
        spec = cli.build_spec("power-of-2", TINY, seed=0, out_dir=tmp_path)
        cli.run_experiment(spec)
        payload = json.loads((tmp_path / "power-of-2_summary.json").read_text())
        params = cli._system_params(spec.params)
        s0 = np.zeros(mf.default_i_max(params.rho) + 1)
        s0[0] = 1.0
        res = mf.integrate_ode(PowerOfD(d=2), params, s0, t_end=60.0,
                               stop_residual=1e-9)
        assert payload["ode_stop_reason"] == res.stop_reason == "residual"
        assert payload["ode_steps"] == res.steps
        assert payload["ode_t"] == res.t < 60.0
        assert payload["ode_residual"] == res.residual
        assert payload["ode_max_projection"] == res.max_projection
        assert (payload["ode_pins"], payload["ode_releases"]) == (res.pins, res.releases)
        assert payload["ode_engine"] == res.engine in ("kernel", "python")

    def test_power_of_3_runs_on_the_kernel_under_the_bound(self, kernel, tmp_path,
                                                           capsys):
        rc = cli.main(["run", "power-of-2", "--out", str(tmp_path),
                       "--param", "d=3", "--n", "20", "--t_end", "5"])
        assert rc == cli.EXIT_OK, capsys.readouterr().err
        payload = json.loads((tmp_path / "power-of-2_summary.json").read_text())
        assert payload["params"]["d"] == 3
        assert payload["ode_engine"] == "kernel"
        assert payload["worst_tail_excess_over_bound"] <= 1e-6

    def test_summary_spells_non_finite_floats_as_strings(self):
        payload = {"a": [math.inf, (np.float64(-math.inf), 2.5)],
                   "b": {"c": math.nan, "d": np.float32(math.inf)},
                   "e": True, "f": 0.1, "g": "inf"}
        assert cli._spell_non_finite(payload) == {
            "a": ["inf", ["-inf", 2.5]], "b": {"c": "nan", "d": "inf"},
            "e": True, "f": 0.1, "g": "inf"}

    @pytest.mark.parametrize("name,low,high", [
        ("pull-thresholds", 2, 5), ("pull-tight", 3, 4), ("transfer-invite", 2, 5),
    ])
    def test_sigma_diagnostics_in_summary(self, tmp_path, name, low, high):
        spec = cli.build_spec(name, {**TINY, "low": str(low), "high": str(high)},
                              seed=0, out_dir=tmp_path)
        cli.run_experiment(spec)
        payload = json.loads((tmp_path / f"{name}_summary.json").read_text())
        solve = (mf.solve_transfer_invite_fixed_point if name == "transfer-invite"
                 else mf.solve_pull_fixed_point)
        _, diag = solve(cli._system_params(spec.params).rho, low, high)
        assert payload["sigma"] == diag.sigma
        assert payload["sigma_residual"] == diag.residual
        assert payload["sigma_iterations"] == diag.iterations > 0

    def test_transfer_violation_theory_is_the_tail_at_high(self, tmp_path):
        # at h = 1, far below rho = 3, every arrival finds its server holding
        # a flow or more and is moved: the theory is P[occupancy >= 1] = 1,
        # not the mass p[1] at the threshold alone
        spec = cli.build_spec("violation-curves",
                              {**TINY, "low": "2", "h_values": "1"},
                              seed=0, out_dir=tmp_path)
        cli.run_experiment(spec)
        rows = (tmp_path / "violation-curves_violations.csv").read_text()
        theory = {row.split(",")[0]: row.split(",")[3]
                  for row in rows.splitlines()[1:]}
        assert theory["transfer-invite"] == theory["transfer-least"] == "1.0"

    def test_csv_writer_formats_cells_like_the_per_cell_rule(self, tmp_path):
        import csv

        # runners hand over Python floats (.tolist(), float()), never numpy
        # float scalars, whose repr is not their str
        rows = [
            [0.1, -0.0, 1e-300, 1 / 3],
            [0, -7, 2**70, "label", "with,comma"],
            [math.inf, -math.inf, math.nan, True, np.int64(3)],
        ]
        cli._write_csv(tmp_path / "new.csv", (["a", "b", "c", "d", "e"], iter(rows)))
        # the rule the writer replaced: repr for a float, str for the rest
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["a", "b", "c", "d", "e"])
            for row in rows:
                writer.writerow([repr(c) if isinstance(c, float) else str(c)
                                 for c in row])
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert b"-0.0,1e-300,0.3333333333333333\n" in new

    def test_delay_tails_values(self, tmp_path, full_params):
        spec = cli.build_spec(
            "delay-tails", {"chi_values": "0,100"}, seed=0, out_dir=tmp_path
        )
        cli.run_experiment(spec)
        lines = (tmp_path / "delay-tails_delay_tails.csv").read_text().splitlines()
        assert lines[0] == "chi,metric,value"
        cells = [line.split(",") for line in lines[1:]]
        assert len(cells) == 8
        by_key = {(float(c[0]), c[1]): float(c[2]) for c in cells}
        # chi = 0 means any wait counts, so every tail is 1 up to rounding
        for metric in ("packet-random", "flow-jsq", "untruncated", "shedding"):
            assert by_key[(0.0, metric)] == pytest.approx(1.0, abs=1e-12)
        assert by_key[(100.0, "flow-jsq")] == pytest.approx(
            mx.delay_tail_flow_jsq(100.0, full_params), rel=1e-12
        )
        assert by_key[(100.0, "flow-jsq")] == pytest.approx(math.exp(-25), rel=1e-12)

    def test_no_carriage_returns_in_csv(self, tmp_path):
        spec = cli.build_spec(
            "tradeoff-shedding",
            {"h_min": "195", "h_max": "195"},
            seed=0,
            out_dir=tmp_path,
        )
        cli.run_experiment(spec)
        data = (tmp_path / "tradeoff-shedding_tradeoff.csv").read_bytes()
        assert b"\r" not in data

    def test_unknown_spec_name_rejected(self, tmp_path):
        spec = cli.ExperimentSpec(name="nope", params={}, seed=0, out_dir=tmp_path)
        with pytest.raises(ValueError, match="unknown experiment"):
            cli.run_experiment(spec)

    def test_out_dir_is_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        spec = cli.build_spec(
            "tradeoff-shedding",
            {"h_min": "195", "h_max": "195"},
            seed=0,
            out_dir=nested,
        )
        cli.run_experiment(spec)
        assert (nested / "tradeoff-shedding_summary.json").exists()


class TestDeterminism:
    def _run(self, tmp_path, tag, seed):
        out = tmp_path / tag
        spec = cli.build_spec(
            "random-uniform",
            {**TINY, "warmup_betas": "5", "horizon_betas": "20"},
            seed=seed,
            out_dir=out,
        )
        cli.run_experiment(spec)
        return out

    def test_same_seed_same_bytes(self, tmp_path):
        a = self._run(tmp_path, "a", seed=7)
        b = self._run(tmp_path, "b", seed=7)
        for artifact in ("histogram", "series"):
            fa = (a / f"random-uniform_{artifact}.csv").read_bytes()
            fb = (b / f"random-uniform_{artifact}.csv").read_bytes()
            assert fa == fb

    def test_different_seed_different_bytes(self, tmp_path):
        a = self._run(tmp_path, "a", seed=7)
        c = self._run(tmp_path, "c", seed=8)
        fa = (a / "random-uniform_series.csv").read_bytes()
        fc = (c / "random-uniform_series.csv").read_bytes()
        assert fa != fc


# small runs of all 14 experiments (TINY: rho = 3 at n = 20) that still
# reach every branch a table writer sees: pull in overload (high 2 < rho),
# an infinite high, and bins without drain and with it
_WINDOW = {"warmup_betas": "5", "horizon_betas": "20"}
CSV_RUNS = {
    "fig-perfect-jsq": _WINDOW,
    "random-uniform": _WINDOW,
    "power-of-2": {"t_end": "20"},
    "pull-thresholds": {**_WINDOW, "low": "1", "high": "2"},
    "pull-tight": {**_WINDOW, "low": "3", "high": "inf"},
    "shedding": {**_WINDOW, "high": "4"},
    "transfer-invite": {**_WINDOW, "low": "2", "high": "4"},
    "transfer-least": {**_WINDOW, "high": "4"},
    "violation-curves": {**_WINDOW, "low": "2", "h_values": "3,5"},
    "delay-tails": {"high": "4", "chi_values": "0,10,40"},
    "tradeoff-shedding": {"chi": "20", "h_min": "3", "h_max": "8"},
    "bin-occupancy": {**_WINDOW, "bins": "10n", "low": "2", "high": "4"},
    "bin-violation": {**_WINDOW, "bins": "2n,10n", "low": "2", "high": "4",
                      "seeds": "2", "drain": "true"},
    "bin-tradeoff": {**_WINDOW, "bins": "10n", "h_values": "3,5", "gap": "2",
                     "chi": "20"},
}

# SHA-256 of every CSV the runs above write at seed 3; same-seed CSV bytes
# only change with a stated reason, so a change to any runner or table
# writer shows here
CSV_PINNED = {
    "bin-occupancy_histogram.csv":
        "2a4447e9f2e2cc4cfb307b01369d703c90f6d19344bef56c973f3132fdc71f65",
    "bin-occupancy_series.csv":
        "0c9b3fa8a0affcb865a23bd28c15db952f1e076a239f2a75ab803b7094309608",
    "bin-tradeoff_tradeoff.csv":
        "f3a49f53f3de83781954a3edafd496fc579191fe21a1a6a540d9b10636e9acd1",
    "bin-violation_violations.csv":
        "cb5dcc4fbdc980e869df3ec2c40751090e7d879fa11c2232e3be85e17c169804",
    "bin-violation_violations_mean.csv":
        "4628003af0caa740fb3cf86ce2f64edbcba9b717f1e8042011a7c97672fdb201",
    "delay-tails_delay_tails.csv":
        "eab848f31f0c213e68bbd9cb5e4d354a4f77e42b876b9a66a5acec00ad645216",
    "fig-perfect-jsq_histogram.csv":
        "319991af468cbe575c66cacdba260b253966b23cc411dd38ba478f992fcd6a60",
    "fig-perfect-jsq_series.csv":
        "40c6edd43d3a529b2695b931f7c2ad93cdca9e9e0a5ea30ccb883b9d9659b670",
    "power-of-2_tail.csv":
        "de02373db79b434dcfd8f6010659282506a7a69d3c775c1989d7581a2e8580ae",
    "pull-thresholds_histogram.csv":
        "d0753dc05c72f2f6fdf5ae94184d4c06b88b3e4ed191b48bb7a7c866f870820e",
    "pull-thresholds_series.csv":
        "15a4b872c2e086e36da435574504affa132e3f8045778c7a9d3c2c394cdaeb2b",
    "pull-tight_histogram.csv":
        "87e6199d19d5561ca08acbeb29b48e301c08c1ec3bd843511e7c3198f15b7ccb",
    "pull-tight_series.csv":
        "276ae539c273fa06c803e4962587f76f1822deffcdf8df6149cce041d77460ba",
    "random-uniform_histogram.csv":
        "aa8dc51afea75f7c249e7f1777805428a8eada3de6d75f40d8d246fdb3d1c535",
    "random-uniform_series.csv":
        "b1a3a436ac069cc08d927b058ca458476fc32b53a04ec384e78de1ea567a9300",
    "shedding_histogram.csv":
        "67f447511ed9d2e460b19a2857510698cf74b6db505e670637581fbb53897aad",
    "shedding_series.csv":
        "f1717b7bc03d3d38c12ecc7bd2fb051b9fb99fd872764070838aa77486a1845c",
    "tradeoff-shedding_tradeoff.csv":
        "d724f4076509c798940813d65c12d9d86150c339f041734e639437a1c38698a5",
    "transfer-invite_histogram.csv":
        "3894a843bbb5ea78099407f2eca0dce65f2009af71a2a1bfcfe9acdc2b4bfdfa",
    "transfer-invite_series.csv":
        "e8cf85e82b2845a7bd612bf06ef3f8a237a86f8c2a0eb5a7d5e7551857c6c393",
    "transfer-least_histogram.csv":
        "3836aa36c3a4781a4a0bd165d6469357b2ada4e89a6118beeb204f69618b07ad",
    "transfer-least_series.csv":
        "cde3932c1fb77525ab43783e8140fe870282e9a14d66117f538cfefaff43db57",
    "violation-curves_violations.csv":
        "754829a6cfc9a19a39641e6476031d1f01ddc7ae7b8dc90250d46e697a34136d",
}


class TestPinnedCsv:
    def test_every_experiment_writes_its_pinned_csv_bytes(self, tmp_path):
        assert sorted(CSV_RUNS) == sorted(n for n, _, _ in cli.list_experiments())
        got = {}
        for name, overrides in CSV_RUNS.items():
            spec = cli.build_spec(name, {**TINY, **overrides}, seed=3,
                                  out_dir=tmp_path)
            for path in cli.run_experiment(spec):
                if path.suffix == ".csv":
                    got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == CSV_PINNED


class TestCompare:
    def _write(self, path, header, rows):
        lines = [",".join(header)]
        lines += [",".join(str(c) for c in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_tv_and_mean_gap(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self._write(a, ["level", "p_empirical"], [[0, 0.5], [1, 0.5]])
        self._write(b, ["level", "p_empirical"], [[1, 0.5], [2, 0.5]])
        report = cli.compare(a, b, tol=0.5)
        assert report.tv_distance == pytest.approx(0.5, abs=1e-15)
        assert report.mean_gap == pytest.approx(1.0, abs=1e-15)
        assert report.passed
        assert not cli.compare(a, b, tol=0.4).passed

    def test_column_preference(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        # p_empirical trumps p_theory even when it is not the second column
        self._write(
            b, ["level", "p_theory", "p_empirical"], [[0, 0.9, 0.5], [1, 0.1, 0.5]]
        )
        self._write(a, ["level", "p_theory"], [[0, 0.5], [1, 0.5]])
        report = cli.compare(a, b, tol=0.01)
        assert report.column_a == "p_theory"
        assert report.column_b == "p_empirical"
        assert report.tv_distance == pytest.approx(0.0, abs=1e-15)

    def test_generic_columns_fall_back_to_second(self, tmp_path):
        a = tmp_path / "a.csv"
        self._write(a, ["idx", "mass", "junk"], [[0, 1.0, 99]])
        report = cli.compare(a, a, tol=0.0)
        assert report.column_a == "mass"
        assert report.tv_distance == 0.0

    def test_identical_experiment_outputs_compare_clean(self, tmp_path):
        spec = cli.build_spec(
            "random-uniform",
            {**TINY, "warmup_betas": "5", "horizon_betas": "15"},
            seed=2,
            out_dir=tmp_path,
        )
        cli.run_experiment(spec)
        hist = tmp_path / "random-uniform_histogram.csv"
        assert cli.compare(hist, hist, tol=0.0).tv_distance == 0.0

    def test_malformed_index(self, tmp_path):
        a = tmp_path / "a.csv"
        self._write(a, ["level", "p"], [["x", 0.5]])
        with pytest.raises(ValueError, match="indexed numeric"):
            cli.compare(a, a, tol=0.1)

    def test_empty_file(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("")
        with pytest.raises(ValueError, match="empty"):
            cli.compare(a, a, tol=0.1)

    def test_single_column_rejected(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("level\n0\n")
        with pytest.raises(ValueError, match="two columns"):
            cli.compare(a, a, tol=0.1)

    def test_header_only_file_rejected(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("level,p_empirical\n")
        with pytest.raises(ValueError, match=r"a\.csv has a header but no data rows"):
            cli.compare(a, a, tol=0.1)

    def test_negative_index_rejected(self, tmp_path):
        # fancy indexing used to wrap level -1 onto the top level: TV = 0
        a = tmp_path / "a.csv"
        neg = tmp_path / "neg.csv"
        self._write(a, ["level", "p_empirical"], [[0, 0.5], [1, 0.5]])
        self._write(neg, ["level", "p_empirical"], [[-1, 0.5], [0, 0.5]])
        with pytest.raises(ValueError, match=r"neg\.csv has a negative index -1"):
            cli.compare(a, neg, tol=0.1)

    def test_repeated_index_rejected(self, tmp_path):
        # a repeated level used to overwrite the first silently
        a = tmp_path / "a.csv"
        rep = tmp_path / "rep.csv"
        self._write(a, ["level", "p_empirical"], [[0, 0.5], [1, 0.5]])
        self._write(rep, ["level", "p_empirical"], [[0, 0.2], [1, 0.5], [0, 0.3]])
        with pytest.raises(ValueError, match=r"rep\.csv repeats index 0"):
            cli.compare(a, rep, tol=0.1)

    def test_huge_index_aligns_on_the_rows(self, tmp_path):
        # a dense array up to level 10**12 would need 8 TB per file
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        top = 10**12
        self._write(a, ["level", "p_empirical"], [[0, 0.5], [top, 0.5]])
        self._write(b, ["level", "p_empirical"], [[0, 0.25], [1, 0.25], [top, 0.5]])
        report = cli.compare(a, b, tol=0.3)
        # TV = (|0.5 - 0.25| + |0 - 0.25| + |0.5 - 0.5|) / 2; the means are
        # top/2 and 0.25 + top/2, both exact doubles
        assert report.tv_distance == 0.25
        assert report.mean_gap == 0.25
        assert report.passed

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        a = tmp_path / "a.csv"
        bad = tmp_path / "bad.csv"
        self._write(a, ["level", "p_empirical"], [[0, 0.5], [1, 0.5]])
        self._write(bad, ["level", "p_empirical"], [[0, 0.5], [1, value]])
        with pytest.raises(ValueError,
                           match=rf"bad\.csv has a non-finite p_empirical .* at index 1"):
            cli.compare(a, bad, tol=0.1)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_rejected(self, tmp_path, tol):
        a = tmp_path / "a.csv"
        self._write(a, ["level", "p_empirical"], [[0, 0.5], [1, 0.5]])
        with pytest.raises(ValueError, match="tolerance must be non-negative"):
            cli.compare(a, a, tol=tol)


class TestMainExitCodes:
    def test_list(self, capsys):
        assert cli.main(["list"]) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 14
        assert all("[" in line and "]" in line for line in out)

    def test_list_filtered(self, capsys):
        assert cli.main(["list", "bin"]) == cli.EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_run_prints_written_paths(self, tmp_path, capsys):
        rc = cli.main([
            "run", "tradeoff-shedding",
            "--seed", "1",
            "--out", str(tmp_path),
            "--param", "h_min=195",
            "--param", "h_max=196",
        ])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert all(tmp_path.name in line for line in out)

    def test_run_tradeoff_at_a_chi_whose_tilted_rate_overflows(self, tmp_path, capsys):
        # rho e^{chi nu/mu} at chi = 2e5 overflows a float; the curve is
        # still written, with every delay tail a probability
        rc = cli.main([
            "run", "tradeoff-shedding", "--out", str(tmp_path), "--param", "chi=2e5",
        ])
        assert rc == cli.EXIT_OK, capsys.readouterr().err
        lines = (tmp_path / "tradeoff-shedding_tradeoff.csv").read_text().splitlines()
        assert lines[0] == "h,epsilon,delay_tail,improvement"
        tails = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(tails) == 51
        assert all(0.0 <= t <= 1.0 for t in tails)

    def test_run_accepts_loose_flag_overrides(self, tmp_path, capsys):
        rc = cli.main([
            "run", "delay-tails",
            "--out", str(tmp_path),
            "--chi_values", "0,50",
            "--high=158",
        ])
        assert rc == cli.EXIT_OK
        payload = json.loads((tmp_path / "delay-tails_summary.json").read_text())
        assert payload["params"]["high"] == 158
        assert payload["params"]["chi_values"] == "0,50"

    def test_run_accepts_infinite_high(self, tmp_path, capsys):
        # high = inf is shedding with no threshold: nothing is ever shed
        rc = cli.main([
            "run", "shedding", "--out", str(tmp_path), "--n", "4",
            "--warmup_betas", "1", "--horizon_betas", "2", "--high", "inf",
        ])
        assert rc == cli.EXIT_OK, capsys.readouterr().err
        raw = (tmp_path / "shedding_summary.json").read_text()
        payload = json.loads(raw)
        # JSON has no infinity: the summary spells it as the CLI reads it,
        # and a strict parser accepts the file
        assert payload["params"]["high"] == "inf"
        assert payload["violation_rate"] == 0.0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        assert json.loads(raw, parse_constant=reject) == payload

    def test_infinite_non_threshold_is_validation_error(self, tmp_path, capsys):
        rc = cli.main([
            "run", "shedding", "--out", str(tmp_path), "--n", "inf",
            "--warmup_betas", "1", "--horizon_betas", "2",
        ])
        assert rc == cli.EXIT_VALIDATION
        assert "invalid literal for int()" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_experiment_is_validation_error(self, tmp_path, capsys):
        rc = cli.main(["run", "nope", "--out", str(tmp_path)])
        assert rc == cli.EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_unknown_parameter_is_validation_error(self, tmp_path, capsys):
        rc = cli.main([
            "run", "shedding", "--out", str(tmp_path), "--param", "bogus=1"
        ])
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("experiment, param", [
        ("delay-tails", "chi_values="),
        ("violation-curves", "h_values=,"),
        ("bin-violation", "bins= , "),
    ])
    def test_empty_list_parameter_is_validation_error(
        self, tmp_path, capsys, experiment, param
    ):
        rc = cli.main([
            "run", experiment, "--out", str(tmp_path), "--param", param
        ])
        assert rc == cli.EXIT_VALIDATION
        assert "must list at least one value" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bin_list_in_bin_occupancy_is_validation_error(self, tmp_path,
                                                            capsys):
        # a list used to run its first count and drop the rest silently
        rc = cli.main(["run", "bin-occupancy", "--out", str(tmp_path),
                       "--param", "bins=2n,10n"])
        assert rc == cli.EXIT_VALIDATION
        assert "bins must be one bin count, got '2n,10n'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment, args, message", [
        # no seed used to average an empty list into nan eps_mean rows
        ("bin-violation", ["--param", "seeds=0"], "seeds must be at least 1, got 0"),
        ("bin-violation", ["--param", "seeds=-3"], "seeds must be at least 1, got -3"),
        # an empty sweep used to end in "max() arg is an empty sequence"
        ("tradeoff-shedding", ["--h_min", "200", "--h_max", "150"],
         "h_max must be at least h_min, got h_min=200, h_max=150"),
    ])
    def test_empty_sweep_is_validation_error(self, tmp_path, capsys, experiment,
                                             args, message):
        rc = cli.main(["run", experiment, "--out", str(tmp_path), *args])
        assert rc == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_tradeoff_without_shedding_reports_no_best_improvement(self, tmp_path,
                                                                   capsys):
        # thresholds far above the load shed nothing: epsilon is 0 at every
        # point, so there is no improvement bought with a violation
        rc = cli.main(["run", "tradeoff-shedding", "--out", str(tmp_path),
                       "--h_min", "2000", "--h_max", "2001"])
        assert rc == cli.EXIT_OK, capsys.readouterr().err
        rows = (tmp_path / "tradeoff-shedding_tradeoff.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["0.0", "0.0"]
        payload = json.loads((tmp_path / "tradeoff-shedding_summary.json").read_text())
        assert payload["max_improvement_with_positive_eps"] is None
        assert payload["points"] == 2

    @pytest.mark.parametrize("param", [
        "stop_residual=nan", "stop_residual=0", "stop_residual=-1e-9",
        "t_end=nan",
    ])
    def test_bad_ode_stop_is_validation_error(self, tmp_path, capsys, param):
        # a NaN stop_residual once ran to t_end and wrote a bare NaN into
        # the summary JSON
        rc = cli.main([
            "run", "power-of-2", "--out", str(tmp_path), "--param", param
        ])
        assert rc == cli.EXIT_VALIDATION
        assert "must be positive and finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_compare_pass_fail_codes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("level,p\n0,0.5\n1,0.5\n")
        b.write_text("level,p\n0,0.4\n1,0.6\n")
        assert cli.main(["compare", str(a), str(a), "--tol", "1e-12"]) == cli.EXIT_OK
        assert "PASS" in capsys.readouterr().out
        rc = cli.main(["compare", str(a), str(b), "--tol", "0.05"])
        assert rc == cli.EXIT_THRESHOLD
        assert "FAIL" in capsys.readouterr().out

    def test_compare_malformed_file(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("level,p\nx,0.5\n")
        rc = cli.main(["compare", str(a), str(a), "--tol", "0.1"])
        assert rc == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("rows", ["-1,0.5\n0,0.5\n", "0,0.5\n0,0.5\n", ""])
    def test_compare_bad_index_column_is_validation_error(self, tmp_path, capsys,
                                                          rows):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("level,p\n0,0.5\n1,0.5\n")
        b.write_text("level,p\n" + rows)
        rc = cli.main(["compare", str(a), str(b), "--tol", "0.1"])
        assert rc == cli.EXIT_VALIDATION
        assert "b.csv" in capsys.readouterr().err

    def test_compare_non_finite_value_is_validation_error(self, tmp_path, capsys):
        # it used to print "FAIL: TV=nan" and exit with the threshold code
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("level,p\n0,0.5\n1,0.5\n")
        b.write_text("level,p\n0,nan\n1,0.5\n")
        rc = cli.main(["compare", str(a), str(b), "--tol", "0.1"])
        assert rc == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "b.csv has a non-finite p nan at index 0" in captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_compare_bad_tolerance_is_validation_error(self, tmp_path, capsys, tol):
        a = tmp_path / "a.csv"
        a.write_text("level,p\n0,0.5\n1,0.5\n")
        rc = cli.main(["compare", str(a), str(a), f"--tol={tol}"])
        assert rc == cli.EXIT_VALIDATION
        assert "tolerance must be non-negative" in capsys.readouterr().err

    def test_compare_rejects_extra_args(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("level,p\n0,1.0\n")
        rc = cli.main(["compare", str(a), str(a), "--tol", "0.1", "--junk", "1"])
        assert rc == cli.EXIT_VALIDATION

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK

    def test_usage_errors_exit_one(self, capsys):
        # argparse would exit 2; the contract reserves 2 for numerics
        assert cli.main([]) == cli.EXIT_VALIDATION
        assert cli.main(["frobnicate"]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("param", ["horizon_betas=inf", "warmup_betas=nan",
                                       "warmup_betas=inf"])
    def test_non_finite_window_exits_one(self, tmp_path, capsys, param):
        # an infinite horizon used to run forever, a bad warmup to end with
        # "increase horizon"; both are rejected before any event runs
        rc = cli.main(["run", "random-uniform", "--param", param,
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        def boom(spec):
            raise mf.NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        rc = cli.main(["run", "tradeoff-shedding", "--out", str(tmp_path)])
        assert rc == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_end_to_end_rerun_identical(self, tmp_path, capsys):
        args = [
            "run", "random-uniform",
            "--seed", "4",
            "--param", "n=20",
            "--param", "lam=3.0",
            "--param", "beta=1.0",
            "--param", "nu=1.0",
            "--param", "mu=10.0",
            "--param", "warmup_betas=5",
            "--param", "horizon_betas=15",
        ]
        assert cli.main(args + ["--out", str(tmp_path / "x")]) == cli.EXIT_OK
        assert cli.main(args + ["--out", str(tmp_path / "y")]) == cli.EXIT_OK
        capsys.readouterr()
        for artifact in ("histogram", "series"):
            fx = (tmp_path / "x" / f"random-uniform_{artifact}.csv").read_bytes()
            fy = (tmp_path / "y" / f"random-uniform_{artifact}.csv").read_bytes()
            assert fx == fy
        rc = cli.main([
            "compare",
            str(tmp_path / "x" / "random-uniform_histogram.csv"),
            str(tmp_path / "y" / "random-uniform_histogram.csv"),
            "--tol", "0",
        ])
        assert rc == cli.EXIT_OK
