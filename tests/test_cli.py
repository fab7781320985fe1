import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from unruh_pair.cli import RunConfig, emit, main, parse_cli

FIG8_ARGS = [
    "rate", "--accel", "0.5", "--sep", "0.3", "--init", "superposition",
    "--theta", "0.5235987755982988", "--phi", "-0.7853981633974483",
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_defaults_resolved(self):
        cfg = parse_cli(["evolve", "--accel", "0.1", "--sep", "0.5"])
        assert cfg.command == "evolve"
        assert cfg.accel == 0.1 and cfg.sep == 0.5
        assert cfg.with_d is True and cfg.init == "product-eg"
        assert cfg.format == "csv" and cfg.tau_max == 20.0

    def test_config_file_supplies_and_flags_override(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"accel": 0.7, "sep": 1.2, "tau_max": 5.0}))
        cfg = parse_cli(["evolve", "--config", str(path), "--sep", "2.5"])
        assert cfg.accel == 0.7
        assert cfg.sep == 2.5  # flag wins
        assert cfg.tau_max == 5.0

    def test_meta_round_trip(self):
        cfg = parse_cli(["sweep", "--sep", "0.3", "--quantity", "rate"])
        again = RunConfig.from_meta(json.loads(json.dumps(cfg.to_meta())))
        assert again == cfg

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(["evolve", "--accel", "1", "--sep", "1", "--bogus"], capsys)
        assert code == 2
        assert err.startswith("error: usage:")

    def test_conflicting_angle_flags(self, capsys):
        code, _, err = run(
            ["evolve", "--accel", "1", "--sep", "1", "--theta", "0.3"], capsys
        )
        assert code == 2
        assert "error: usage:" in err

    def test_sweep_needs_exactly_one_fixed_axis(self, capsys):
        code, _, err = run(["sweep", "--quantity", "rate"], capsys)
        assert code == 2
        code, _, err = run(
            ["sweep", "--quantity", "rate", "--accel", "1", "--sep", "1"], capsys
        )
        assert code == 2

    def test_invalid_separation_exits_4_with_code(self, capsys):
        code, _, err = run(["coeffs", "--accel", "1", "--sep", "0"], capsys)
        assert code == 4
        assert err.startswith("error: separation-nonpositive:")


class TestEvolveOutput:
    def test_csv_shape_and_header(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, _, _ = run(
            ["evolve", "--accel", "0.1", "--sep", "0.5", "--init", "product-eg",
             "--tau-max", "20", "--samples", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "tau,c,k1,k2,p_gg,p_ee,p_aa,p_ss,re_as,im_as"
        assert len(lines) == 5 and lines[4] == ""  # header + 3 rows + trailing LF
        row0 = lines[1].split(",")
        assert float(row0[0]) == 0.0
        assert float(row0[6]) == 0.5  # p_aa of |10>

    def test_byte_stable(self, tmp_path, capsys):
        args = ["evolve", "--accel", "0.3", "--sep", "0.7", "--samples", "17"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)], capsys)[0] == 0
        assert run(args + ["--out", str(out2)], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_lf_line_endings_and_full_precision(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run(["evolve", "--accel", "0.1", "--sep", "0.5", "--samples", "4",
             "--out", str(out)], capsys)
        raw = out.read_bytes()
        assert b"\r" not in raw
        value = raw.decode().split("\n")[1].split(",")[6]
        assert len(value.split("e")[0].replace("-", "").replace(".", "")) == 17

    def test_json_byte_stable(self, tmp_path, capsys):
        out = tmp_path / "steady.json"
        args = ["steady", "--accel", "1", "--sep", "3", "--format", "json",
                "--out", str(out)]
        assert run(args, capsys)[0] == 0
        first = out.read_bytes()
        assert run(args, capsys)[0] == 0
        assert out.read_bytes() == first

    def test_json_structure(self, capsys):
        code, out, _ = run(
            ["evolve", "--accel", "0.1", "--sep", "0.5", "--samples", "3",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["accel"] == 0.1
        assert doc["meta"]["version"]
        assert set(doc["data"]) == {
            "tau", "c", "k1", "k2", "p_gg", "p_ee", "p_aa", "p_ss", "re_as", "im_as"
        }
        assert len(doc["data"]["tau"]) == 3
        assert RunConfig.from_meta(doc["meta"]).sep == 0.5


class TestSweepAndRegionOutput:
    def test_sweep_header_and_length(self, capsys):
        code, out, _ = run(
            ["sweep", "--quantity", "rate", "--sep", "0.3", "--points", "12"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value_with_d,value_without_d"
        assert len(lines) == 13

    def test_region_row_count(self, capsys):
        code, out, _ = run(["region", "--grid", "7", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "omega_l,a_over_omega,with_d,without_d"
        assert len(lines) == 1 + 7 * 7
        verdicts = {line.split(",")[2] for line in lines[1:]}
        assert verdicts <= {"0", "1"}

    def test_maxc_values(self, capsys):
        code, out, _ = run(
            ["maxc", "--accel", "0.1", "--sep", "0.5", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)["data"]
        assert data["c_max_with_d"][0] > data["c_max_without_d"][0]

    def test_steady_populations(self, capsys):
        code, out, _ = run(
            ["steady", "--accel", "1", "--sep", "3", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)["data"]
        r = math.exp(-2.0 * math.pi)
        assert data["p_ee"][0] == pytest.approx(r * r / (1 + r) ** 2, abs=1e-10)
        assert data["concurrence"][0] == 0.0


class TestRateCommand:
    def test_fig8_flip_visible_from_cli(self, capsys):
        code, out, _ = run(FIG8_ARGS + ["--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)["data"]
        assert data["analytic_with_d"][0] > 0.0
        assert data["analytic_without_d"][0] < 0.0
        assert data["analytic_with_d"][0] == pytest.approx(
            data["numerical_with_d"][0], abs=1e-6
        )

    def test_product_rate_consistency(self, capsys):
        code, out, _ = run(
            ["rate", "--accel", "1", "--sep", "3", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)["data"]
        assert data["analytic_with_d"][0] == pytest.approx(0.0986337414106831, rel=1e-10)
        assert data["clamped_with_d"][0] == data["analytic_with_d"][0]


class TestOracleCommand:
    def test_agreement_exit_zero(self, capsys):
        code, out, _ = run(
            ["oracle", "--accel", "0.5", "--sep", "0.8", "--tau-max", "4",
             "--samples", "9", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)["data"]
        assert max(data["max_abs_diff"]) < 1e-8


class TestGnuplotHint:
    def test_hint_printed_for_csv_file_output(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            ["sweep", "--quantity", "rate", "--sep", "0.3", "--points", "8",
             "--out", str(out), "--gnuplot-hint"],
            capsys,
        )
        assert code == 0
        assert stdout.startswith("# gnuplot:")
        assert str(out) in stdout


class TestExtremeInputs:
    @pytest.mark.parametrize("argv", [
        ["maxc", "--accel", "1", "--sep", "1e300"],
        ["sweep", "--quantity", "rate", "--sep", "1",
         "--sweep-min", "1e-300", "--sweep-max", "1e300"],
        ["rate", "--accel", "1", "--sep", "1e-300"],
        ["sweep", "--quantity", "rate", "--accel", "1",
         "--sweep-min", "1e-300", "--sweep-max", "1", "--points", "5"],
        ["sweep", "--quantity", "rate", "--init", "superposition", "--theta", "0.5",
         "--phi", "0.3", "--sep", "1", "--sweep-min", "1e-300", "--sweep-max", "1e300"],
        ["coeffs", "--accel", "1e155", "--sep", "1e155"],
    ])
    def test_no_overflow_warning_or_traceback(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert "inf" not in out and "nan" not in out

    @pytest.mark.parametrize("argv, error", [
        (["steady", "--accel", "1", "--sep", "1", "--gamma0", "1e308"], "generator-not-finite"),
        (["maxc", "--accel", "1e308", "--sep", "1"], "sampling-too-fine"),
        (["maxc", "--accel", "1", "--sep", "1", "--gamma0", "1e308"], "sampling-too-fine"),
        (["evolve", "--accel", "1e308", "--sep", "1", "--samples", "3"], "tau-overflow"),
        (["sweep", "--quantity", "rate", "--sep", "0.3", "--gamma0", "1e308", "--points", "3"],
         "rate-overflow"),
        (["rate", "--accel", "1", "--sep", "1", "--gamma0", "1e308"], "rate-overflow"),
        (["sweep", "--quantity", "rate", "--sep", "0.3", "--gamma0", "1e308", "--points", "3",
          "--init", "superposition", "--theta", repr(math.pi / 4), "--phi", "0"], "rate-overflow"),
        (["oracle", "--accel", "1", "--sep", "1", "--gamma0", "1e308", "--samples", "3"],
         "rate-overflow"),
        (["oracle", "--accel", "1", "--sep", "1", "--gamma0", "1e307", "--samples", "3"],
         "too-many-steps"),
    ])
    def test_overflowed_rates_are_one_coded_line(self, argv, error, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert (code, out) == (4, "")
        assert err.startswith(f"error: {error}:") and err.count("\n") == 1

    def test_subnormal_separation_is_one_coded_line(self, capsys):
        code, out, err = run(["sweep", "--quantity", "rate", "--sep", "1e-320",
                              "--points", "5"], capsys)
        assert (code, out) == (4, "")
        assert err.startswith("error: d-not-finite:") and err.count("\n") == 1


class TestSampleCeiling:
    @pytest.mark.parametrize("command", ["evolve", "oracle"])
    def test_rejected_before_allocating(self, command, capsys):
        tracemalloc.start()
        try:
            code, out, err = run([command, "--accel", "1", "--sep", "1",
                                  "--samples", "2000000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "")
        assert err.startswith("error: samples-too-many:") and err.count("\n") == 1
        assert peak < 5_000_000  # bytes: nothing sample-sized was allocated

    @pytest.mark.parametrize("quantity", ["rate", "maxc"])
    def test_sweep_points_rejected_before_allocating(self, quantity, capsys):
        tracemalloc.start()
        try:
            code, out, err = run(["sweep", "--quantity", quantity, "--sep", "0.3",
                                  "--points", "100000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, "")
        assert err.startswith("error: resolution-too-large:") and err.count("\n") == 1
        assert peak < 5_000_000  # bytes: the axis was never allocated


def cell_by_cell_csv(columns: dict) -> str:
    """CSV as emit wrote it before it formatted whole columns: one cell at a time."""
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return "{:.16e}".format(float(v))
    names = list(columns)
    n = len(next(iter(columns.values()))) if columns else 0
    rows = [",".join(cell(columns[name][k]) for name in names) for k in range(n)]
    return "".join(line + "\n" for line in [",".join(names), *rows])


def json_dumps_reference(meta: dict, columns: dict) -> str:
    data = {name: [bool(v) if isinstance(v, (bool, np.bool_)) else
                   int(v) if isinstance(v, (int, np.integer)) else float(v) for v in col]
            for name, col in columns.items()}
    return json.dumps({"meta": meta, "data": data}, sort_keys=True, indent=1) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2e-308,
                  1.0, 0.1, -1e300, 0.1, 0.0, -0.0, 5e-324]
TABLES = {
    "special floats": {"x": np.array(SPECIAL_FLOATS), "y": SPECIAL_FLOATS[::-1]},
    "every kind": {
        "f64": np.linspace(-1.0, 1.0, 5), "f32": np.linspace(0.0, 1.0, 5, dtype=np.float32),
        "bool_arr": np.array([True, False, True, True, False]),
        "bool_list": [True, False, np.True_, np.False_, True],
        "int_arr": np.arange(-2, 3), "int_list": [0, -1, 2 ** 70, np.int32(7), 3],
        "mixed": [1, 2.5, True, np.int64(-4), np.float64(-0.0)],
        "tuple": (0.5, 1.5, 2.5, 3.5, 4.5),
    },
    "no rows": {"a": [], "b": np.array([]), "c": np.array([], dtype=bool)},
    "no columns": {},
    "odd names": {"z": [1.0], "a b": [2.0], "\u00e4": [3.0], '"q"': [True], "A": [4]},
}
META = {"command": "test", "nested": {"b": [1, 2.5, None], "a": "\u00e4\n\"q\""}, "empty": {},
        "num": math.inf, "list": []}


class TestEmit:
    @pytest.mark.parametrize("name", list(TABLES))
    def test_csv_matches_the_cell_by_cell_loop(self, name, capsys):
        emit(META, TABLES[name], "csv", None)
        assert capsys.readouterr().out == cell_by_cell_csv(TABLES[name])

    @pytest.mark.parametrize("name", list(TABLES))
    @pytest.mark.parametrize("meta", [META, {}])
    def test_json_matches_json_dumps(self, name, meta, capsys):
        emit(meta, TABLES[name], "json", None)
        assert capsys.readouterr().out == json_dumps_reference(meta, TABLES[name])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_bit_pattern(self, rng, fmt, capsys):
        # random float64 bit patterns: NaN payloads, subnormals and repeats included
        bits = rng.integers(0, 2 ** 64, size=2000, dtype=np.uint64)
        x = np.concatenate([bits, bits[:1000]]).view(np.float64)
        columns = {"x": x, "y": x[::-1].copy(), "flag": x > 0}
        emit({}, columns, fmt, None)
        expected = (cell_by_cell_csv(columns) if fmt == "csv"
                    else json_dumps_reference({}, columns))
        assert capsys.readouterr().out == expected

    def test_file_output_is_the_same_text(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        emit(META, TABLES["every kind"], "json", str(path))
        assert path.read_text(encoding="utf-8") == json_dumps_reference(META, TABLES["every kind"])
