import numpy as np
import pytest

from ndspec import load_ndcorr
from ndspec.cli import main

VI_GEN = [
    "gen", "--gamma", "3,3,3",
    "--peak", "0.1,0.3,0.7:1", "--peak", "0.1,0.6,0.2:1",
    "--plane", "0:0.6:1", "--noise", "0.1",
]


def run(argv):
    return main(argv)


def gen_cube(tmp_path, name="cube.ndcorr"):
    path = tmp_path / name
    assert run(VI_GEN + ["--out", str(path)]) == 0
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestGen:
    def test_cube_file(self, tmp_path):
        path = gen_cube(tmp_path)
        text = path.read_text()
        assert text.startswith("ndcorr 1\ngamma: 3 3 3\n")
        c = load_ndcorr(path)
        assert c.zero_lag == pytest.approx(3.1, rel=1e-15)

    def test_noise_only_single_nonzero_line(self, tmp_path):
        path = tmp_path / "white.ndcorr"
        assert run(["gen", "--gamma", "4", "--noise", "0.1", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "ndcorr 1"
        assert lines[1] == "gamma: 4"
        nonzero = [ln for ln in lines[2:] if ln.split()[-2:] != ["0.0", "0.0"]]
        assert nonzero == ["0 0.1 0.0"]

    def test_missing_gamma_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["gen", "--noise", "0.1"])
        assert info.value.code == 2

    def test_malformed_peak_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run(["gen", "--gamma", "2", "--peak", "nope"])
        assert info.value.code == 2

    def test_invalid_power_is_usage_error(self, tmp_path):
        out = tmp_path / "x"
        assert run(["gen", "--gamma", "2", "--peak", "0.1:0", "--out", str(out)]) == 2

    @pytest.mark.parametrize("flag", [
        ["--noise", "nan"],
        ["--peak", "0.1,0.1:inf"],
        ["--plane", "0:0.2:nan"],
        ["--peak", "nan,0.1:1"],
        ["--peak", "0.1,0.1:1e308", "--peak", "0.2,0.1:1e308"],
    ])
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "x.ndcorr"
        assert run(["gen", "--gamma", "2,2", "--out", str(out)] + flag) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_largest_finite_power_is_kept(self, tmp_path):
        path = tmp_path / "big.ndcorr"
        assert run(["gen", "--gamma", "2", "--peak", "0.5:1e308", "--out", str(path)]) == 0
        assert load_ndcorr(path).zero_lag == 1e308

    def test_symmetrize_gives_real_lags(self, tmp_path):
        path = tmp_path / "sym.ndcorr"
        assert run(["gen", "--gamma", "3", "--peak", "0.2:1", "--noise", "0.1",
                    "--symmetrize", "--out", str(path)]) == 0
        c = load_ndcorr(path)
        assert np.max(np.abs(c.lags.imag)) < 1e-14

    def test_deterministic_bytes(self, tmp_path):
        first = gen_cube(tmp_path, "a.ndcorr")
        second = gen_cube(tmp_path, "b.ndcorr")
        assert first.read_bytes() == second.read_bytes()


class TestEstimate:
    def test_cube_sequential(self, tmp_path):
        corr = gen_cube(tmp_path)
        out = tmp_path / "spec.csv"
        assert run(["estimate", str(corr), "--grid", "10,10,10",
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["f_0", "f_1", "f_2", "power"]
        assert len(rows) == 1000
        powers = np.array([float(r[-1]) for r in rows])
        assert np.all(powers > 0.0) and np.all(np.isfinite(powers))
        # lexicographic order over the grid points
        assert [r[:3] for r in rows[:2]] == [["0.0"] * 3, ["0.0", "0.0", "0.1"]]

    def test_cube_capon_same_shape(self, tmp_path):
        corr = gen_cube(tmp_path)
        out = tmp_path / "capon.csv"
        assert run(["estimate", str(corr), "--grid", "10,10,10",
                    "--method", "capon", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["f_0", "f_1", "f_2", "power"]
        assert len(rows) == 1000
        assert all(float(r[-1]) > 0.0 for r in rows)

    def test_white_1d_constant_column(self, tmp_path):
        corr = tmp_path / "white.ndcorr"
        run(["gen", "--gamma", "3", "--noise", "0.1", "--out", str(corr)])
        out = tmp_path / "white.csv"
        assert run(["estimate", str(corr), "--grid", "16", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        powers = np.array([float(r[-1]) for r in rows])
        np.testing.assert_allclose(powers, 0.1, rtol=1e-12)

    def test_not_positive_definite_exits_3(self, tmp_path, capsys):
        corr = tmp_path / "bad.ndcorr"
        corr.write_text("ndcorr 1\ngamma: 2\n-1 1.0 0.0\n0 0.5 0.0\n1 1.0 0.0\n")
        assert run(["estimate", str(corr), "--grid", "8"]) == 3
        message = capsys.readouterr().err
        assert "stage 1" in message

    def test_ridge_recovers_not_positive_definite_input(self, tmp_path):
        corr = tmp_path / "bad.ndcorr"
        corr.write_text("ndcorr 1\ngamma: 2\n-1 1.0 0.0\n0 0.5 0.0\n1 1.0 0.0\n")
        out = tmp_path / "ridged.csv"
        assert run(["estimate", str(corr), "--grid", "8", "--ridge", "3",
                    "--out", str(out)]) == 0

    def test_missing_file_exits_4(self, tmp_path):
        assert run(["estimate", str(tmp_path / "absent"), "--grid", "8"]) == 4

    def test_malformed_file_exits_4(self, tmp_path):
        corr = tmp_path / "garbage"
        corr.write_text("not a correlation file\n")
        assert run(["estimate", str(corr), "--grid", "8"]) == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lag_file_exits_4(self, tmp_path, capsys, value):
        corr = tmp_path / "bad.ndcorr"
        corr.write_text(f"ndcorr 1\ngamma: 2\n-1 0.5 0.0\n0 1.0 0.0\n1 {value} 0.0\n")
        assert run(["estimate", str(corr), "--grid", "8"]) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1
        spectrum = tmp_path / "flat.csv"
        spectrum.write_text("f_0,power\n0.0,1.0\n0.5,1.0\n")
        assert run(["match", str(spectrum), str(corr)]) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_ridge_is_usage_error(self, tmp_path, capsys, value):
        corr = gen_cube(tmp_path)
        assert run(["estimate", str(corr), "--grid", "4,4,4", "--ridge", value]) == 2
        assert "--ridge" in capsys.readouterr().err

    def test_grid_dimension_mismatch_is_usage_error(self, tmp_path):
        corr = gen_cube(tmp_path)
        assert run(["estimate", str(corr), "--grid", "10,10"]) == 2

    def test_deterministic_bytes(self, tmp_path):
        corr = gen_cube(tmp_path)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["estimate", str(corr), "--grid", "5,5,5", "--out", str(first)])
        run(["estimate", str(corr), "--grid", "5,5,5", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_csv_reparses_losslessly(self, tmp_path):
        from ndspec import SpectralGridSpec, load_ndcorr, sequential_spectrum
        from ndspec.cli import _load_spectrum_csv

        corr = gen_cube(tmp_path)
        out = tmp_path / "spec.csv"
        run(["estimate", str(corr), "--grid", "5,5,5", "--out", str(out)])
        direct = sequential_spectrum(load_ndcorr(corr), SpectralGridSpec((5, 5, 5)))
        loaded = _load_spectrum_csv(out)
        assert loaded.grid.counts == (5, 5, 5)
        assert np.array_equal(loaded.power, direct.power)


class TestCost:
    def test_hand_row(self, capsys):
        assert run(["cost", "--gamma", "2", "--dims", "1",
                    "--grid-sweep", "4:4:1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "C,sequential_ops,capon_ops"
        assert out[1] == "4,14,16"

    def test_sweep_is_monotone(self, tmp_path):
        out = tmp_path / "cost.csv"
        assert run(["cost", "--gamma", "10", "--dims", "5",
                    "--grid-sweep", "2:64:2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 32
        seq = [int(r[1]) for r in rows]
        cap = [int(r[2]) for r in rows]
        assert seq == sorted(seq) and cap == sorted(cap)

    def test_zero_step_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            run(["cost", "--gamma", "2", "--dims", "1", "--grid-sweep", "4:4:0"])
        assert info.value.code == 2

    def test_zero_dims_is_usage_error(self, capsys):
        assert run(["cost", "--gamma", "2", "--dims", "0",
                    "--grid-sweep", "4:4:1"]) == 2


class TestMatch:
    def test_white_round_trip(self, tmp_path):
        corr = tmp_path / "white.ndcorr"
        run(["gen", "--gamma", "2", "--noise", "0.1", "--out", str(corr)])
        spec = tmp_path / "white.csv"
        run(["estimate", str(corr), "--grid", "8", "--out", str(spec)])
        out = tmp_path / "match.csv"
        assert run(["match", str(spec), str(corr), "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t_0", "r_re", "r_im", "rhat_re", "rhat_im",
                          "rel_err", "mode"]
        assert len(rows) == 3
        assert all(float(r[5]) < 1e-12 for r in rows)
        modes = {r[0]: r[6] for r in rows}
        assert modes["0"] == "rel" and modes["1"] == "abs"

    @pytest.mark.parametrize("row", ["nan,1.0", "0.0,nan", "inf,1.0"])
    def test_non_finite_spectrum_file_exits_4(self, tmp_path, capsys, row):
        corr = tmp_path / "white.ndcorr"
        run(["gen", "--gamma", "1", "--noise", "0.1", "--out", str(corr)])
        spectrum = tmp_path / "bad.csv"
        spectrum.write_text(f"f_0,power\n{row}\n")
        assert run(["match", str(spectrum), str(corr)]) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_dimension_mismatch_exits_4(self, tmp_path):
        corr1d = tmp_path / "one.ndcorr"
        run(["gen", "--gamma", "2", "--noise", "0.1", "--out", str(corr1d)])
        corr2d = tmp_path / "two.ndcorr"
        run(["gen", "--gamma", "2,2", "--noise", "0.1", "--out", str(corr2d)])
        spec2d = tmp_path / "two.csv"
        run(["estimate", str(corr2d), "--grid", "8,8", "--out", str(spec2d)])
        assert run(["match", str(spec2d), str(corr1d)]) == 4

    def test_ar1_dense_grid(self, tmp_path):
        corr = tmp_path / "ar1.ndcorr"
        corr.write_text("ndcorr 1\ngamma: 2\n-1 0.5 0.0\n0 1.0 0.0\n1 0.5 0.0\n")
        spec = tmp_path / "ar1.csv"
        run(["estimate", str(corr), "--grid", "256", "--out", str(spec)])
        out = tmp_path / "match.csv"
        assert run(["match", str(spec), str(corr), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert max(float(r[5]) for r in rows) < 1e-3


class TestSlice:
    def make_spectrum(self, tmp_path):
        corr = gen_cube(tmp_path)
        spec = tmp_path / "spec.csv"
        run(["estimate", str(corr), "--grid", "10,10,10", "--out", str(spec)])
        return spec

    def test_plane_cut_is_elevated(self, tmp_path):
        spec = self.make_spectrum(tmp_path)
        out = tmp_path / "plane.csv"
        assert run(["slice", str(spec), "--fix", "0=6", "--out", str(out)]) == 0
        plane = np.array([[float(v) for v in ln.split(",")]
                          for ln in out.read_text().splitlines()])
        assert plane.shape == (10, 10)
        _, rows = read_csv(spec)
        median = np.median([float(r[-1]) for r in rows])
        assert plane.min() >= 2.0 * median

    def test_peak_cut_has_two_maxima(self, tmp_path):
        spec = self.make_spectrum(tmp_path)
        out = tmp_path / "peaks.csv"
        assert run(["slice", str(spec), "--fix", "0=1", "--out", str(out)]) == 0
        plane = np.array([[float(v) for v in ln.split(",")]
                          for ln in out.read_text().splitlines()])
        order = np.argsort(plane, axis=None)[::-1]
        top_two = {np.unravel_index(i, plane.shape) for i in order[:2]}
        assert top_two == {(3, 7), (6, 2)}

    def test_wrong_free_axis_count_is_usage_error(self, tmp_path):
        spec = self.make_spectrum(tmp_path)
        assert run(["slice", str(spec), "--fix", "0=1", "--fix", "1=2",
                    "--fix", "2=3"]) == 2
        assert run(["slice", str(spec)]) == 2

    def test_fix_bounds_are_usage_errors(self, tmp_path):
        spec = self.make_spectrum(tmp_path)
        assert run(["slice", str(spec), "--fix", "7=1"]) == 2
        assert run(["slice", str(spec), "--fix", "0=99"]) == 2


class TestPipeline:
    def test_cube_pipeline_under_five_seconds(self, tmp_path):
        import time

        started = time.perf_counter()
        corr = gen_cube(tmp_path)
        spec = tmp_path / "spec.csv"
        assert run(["estimate", str(corr), "--grid", "10,10,10",
                    "--out", str(spec)]) == 0
        assert run(["match", str(spec), str(corr),
                    "--out", str(tmp_path / "match.csv")]) == 0
        assert time.perf_counter() - started < 5.0
