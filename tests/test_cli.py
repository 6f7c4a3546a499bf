import warnings

import numpy as np
import pytest

from conftest import run_fresh, signed_zero_correlation
from ndspec import CorrelationSignal, load_ndcorr, save_ndcorr
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

    @pytest.mark.parametrize("forward, floor", [([5e-324, 1.0], "0"),
                                                ([1e-310, 1.0, 0.5], "9.88131e-323")])
    def test_overflowing_recursion_exits_3_with_one_line(self, tmp_path, capsys, forward,
                                                         floor):
        corr = tmp_path / "tiny_c0.ndcorr"
        save_ndcorr(CorrelationSignal.from_forward_lags(forward), corr)
        assert run(["estimate", str(corr), "--grid", "8"]) == 3
        assert capsys.readouterr().err == (
            f"ndspec estimate: not positive definite: pivot 1 is -inf (floor {floor}) "
            "[stage 1, initial point]\n")

    @pytest.mark.parametrize("method, where", [("sequential", " [stage 1, initial point]"),
                                               ("capon", "")])
    def test_a_tiny_zero_lag_refusal_names_its_floor_in_the_signal_units(
            self, tmp_path, capsys, method, where):
        # c(0) is 1e-320 of c(1): 1e-12 c(0) underflows at unit scale, but
        # not in the file's units
        corr = tmp_path / "tiny_c0.ndcorr"
        save_ndcorr(CorrelationSignal.from_forward_lags([1e-200, 1e120]), corr)
        assert run(["estimate", str(corr), "--grid", "8", "--method", method]) == 3
        assert capsys.readouterr().err == (
            f"ndspec estimate: not positive definite: pivot 1 is -inf (floor 1e-212){where}\n")

    def test_capon_on_a_tiny_scale_signal(self, tmp_path):
        # R = s [[2, 1], [1, 2]] with s = 1e-310: the Capon spectrum is
        # 3 s / (4 - 2 cos w), though R^{-1} itself overflows
        corr = tmp_path / "tiny.ndcorr"
        corr.write_text("ndcorr 1\ngamma: 2\n-1 1e-310 0.0\n0 2e-310 0.0\n1 1e-310 0.0\n")
        out = tmp_path / "tiny.csv"
        assert run(["estimate", str(corr), "--grid", "4", "--method", "capon",
                    "--out", str(out)]) == 0
        _, rows = read_csv(out)
        w = 2 * np.pi * np.array([float(r[0]) for r in rows])
        powers = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(powers, 3e-310 / (4 - 2 * np.cos(w)), rtol=1e-12)

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

    def test_non_utf8_lag_file_exits_4(self, tmp_path, capsys):
        corr = tmp_path / "bad.ndcorr"
        corr.write_bytes(b"ndcorr 1\ngamma: 2\n-1 0.5 0.0\n0 1.0\xff 0.0\n1 0.5 0.0\n")
        spectrum = tmp_path / "flat.csv"
        spectrum.write_text("f_0,power\n0.0,1.0\n0.5,1.0\n")
        for argv in (["estimate", str(corr), "--grid", "8"],
                     ["estimate", str(corr), "--grid", "8", "--method", "capon"],
                     ["match", str(spectrum), str(corr)]):
            assert run(argv) == 4
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "not UTF-8 text at byte 34" in err[0]

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


SPECTRUM_REFUSALS = {
    "empty": "",
    "header_only": "f_0,f_1,power\n",
    "wrong_header": "f_0,f_1,pow\n0.0,0.0,1.0\n",
    "misnamed_axis": "f_0,zzz,power\n0.0,0.0,1.0\n",
    "repeated_axis_name": "f_0,f_0,power\n0.0,0.0,1.0\n",
    "ragged_row": "f_0,f_1,power\n0.0,0.0,1.0\n0.0,1.0\n",
    "uniform_wrong_width": "f_0,f_1,power\n0.0,0.0,1.0,1.0\n",
    "non_numeric": "f_0,f_1,power\n0.0,0.0,abc\n",
    "non_uniform_axis": "f_0,f_1,power\n0.0,0.0,1.0\n0.3,0.0,1.0\n",
    "missing_row": "f_0,f_1,power\n0.0,0.0,1.0\n0.0,0.5,1.0\n0.5,0.0,1.0\n",
    "repeated_cell": "f_0,f_1,power\n0.0,0.0,1.0\n0.0,0.5,1.0\n0.5,0.0,1.0\n0.5,0.0,1.0\n",
    "non_positive_power": "f_0,f_1,power\n0.0,0.0,1.0\n0.5,0.0,-0.0\n",
    "digit_separator": "f_0,f_1,power\n0.0,0.0,1_0\n",
    "not_utf8": "f_0,f_1,power\n0.0,0.0,1.0\xff\n",
}


class TestSpectrumRefusals:
    """Every malformed spectrum CSV exits 4 with one stderr line and no warning."""

    @pytest.fixture
    def corr(self, tmp_path):
        path = tmp_path / "white.ndcorr"
        assert run(["gen", "--gamma", "1,1", "--noise", "0.1", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("command", ["match", "slice"])
    @pytest.mark.parametrize("case", sorted(SPECTRUM_REFUSALS))
    def test_exits_4_with_one_line(self, tmp_path, corr, capsys, command, case):
        spectrum = tmp_path / "bad.csv"
        # latin-1 writes the ASCII cases as they are and \xff as a byte that is not UTF-8
        spectrum.write_bytes(SPECTRUM_REFUSALS[case].encode("latin-1"))
        argv = ([command, str(spectrum), str(corr)] if command == "match"
                else [command, str(spectrum)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("case, message", [
        ("header_only", "no data rows"),
        ("repeated_cell", "the cell at (0.5, 0.0) is listed 2 times"),
    ])
    def test_message_names_the_fault(self, tmp_path, capsys, case, message):
        spectrum = tmp_path / "bad.csv"
        spectrum.write_text(SPECTRUM_REFUSALS[case])
        assert run(["slice", str(spectrum)]) == 4
        assert message in capsys.readouterr().err

    def test_blank_lines_and_crlf_are_accepted(self, tmp_path):
        from ndspec.cli import _load_spectrum_csv

        spectrum = tmp_path / "loose.csv"
        spectrum.write_bytes(b"\n  \r\n f_0,power \r\n\t\r\n 0.0 , 2.0\r\n \t\n\n0.5,3.0 \n  ")
        loaded = _load_spectrum_csv(spectrum)
        assert loaded.grid.counts == (2,)
        assert loaded.power.tolist() == [2.0, 3.0]


# lag lines of unit white noise at orders (2, 2); the last one is lag (1, 1)
WHITE_ROWS = [f"{a} {b} {1.0 if a == b == 0 else 0.0} 0.0"
              for a in (-1, 0, 1) for b in (-1, 0, 1)]


def ndcorr_text(rows, head="ndcorr 1\ngamma: 2 2\n"):
    return head + "".join(row + "\n" for row in rows)


NDCORR_REFUSALS = {
    "empty": "",
    "bad_magic": ndcorr_text(WHITE_ROWS, "ndcorr 2\ngamma: 2 2\n"),
    "no_gamma": ndcorr_text(WHITE_ROWS, "ndcorr 1\n"),
    "malformed_gamma": ndcorr_text(WHITE_ROWS, "ndcorr 1\ngamma: 2 x\n"),
    "float_lag": ndcorr_text([*WHITE_ROWS[:-1], "1.0 1 0.0 0.0"]),
    "word_lag": ndcorr_text([*WHITE_ROWS[:-1], "x 1 0.0 0.0"]),
    "separator_lag": ndcorr_text([*WHITE_ROWS[:-1], "1 0_1 0.0 0.0"]),
    "separator_value": ndcorr_text([*WHITE_ROWS[:-1], "1 1 0_0.0 0.0"]),
    "d_plus_1_tokens": ndcorr_text([*WHITE_ROWS[:-1], "1 1 0.0"]),
    "d_plus_3_tokens": ndcorr_text([*WHITE_ROWS[:-1], "1 1 0.0 0.0 0.0"]),
    "outside_box": ndcorr_text([*WHITE_ROWS[:-1], "1 2 0.0 0.0"]),
    "duplicate": ndcorr_text([*WHITE_ROWS[:-1], "1 0 0.0 0.0"]),
    "too_few_rows": ndcorr_text(WHITE_ROWS[:-1]),
    "too_many_rows": ndcorr_text([*WHITE_ROWS, "1 1 0.0 0.0"]),
    "nan": ndcorr_text([*WHITE_ROWS[:-1], "1 1 nan 0.0"]),
    "inf": ndcorr_text([*WHITE_ROWS[:-1], "1 1 0.0 inf"]),
    "not_hermitian": ndcorr_text([*WHITE_ROWS[:-1], "1 1 0.5 0.0"]),
    "not_utf8": ndcorr_text([*WHITE_ROWS[:-1], "1 1 0.0\xff 0.0"]),
}


class TestNdcorrRefusals:
    """Every malformed ndcorr file exits 4 with one stderr line and no warning."""

    @pytest.fixture
    def spectrum(self, tmp_path):
        corr, path = tmp_path / "white.ndcorr", tmp_path / "white.csv"
        corr.write_text(ndcorr_text(WHITE_ROWS))
        assert run(["estimate", str(corr), "--grid", "3,3", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("command", ["estimate", "match"])
    @pytest.mark.parametrize("case", sorted(NDCORR_REFUSALS))
    def test_exits_4_with_one_line(self, tmp_path, spectrum, capsys, command, case):
        corr = tmp_path / "bad.ndcorr"
        # latin-1 writes the ASCII cases as they are and \xff as a byte that is not UTF-8
        corr.write_bytes(NDCORR_REFUSALS[case].encode("latin-1"))
        argv = (["estimate", str(corr), "--grid", "3,3"] if command == "estimate"
                else ["match", str(spectrum), str(corr)])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 4
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_crlf_and_whitespace_only_lines_give_the_same_bytes(self, tmp_path, spectrum):
        loose = tmp_path / "loose.ndcorr"
        lines = ndcorr_text(WHITE_ROWS).splitlines()
        loose.write_bytes("\r\n".join([*lines[:5], "  \t", "", *lines[5:], " "]).encode())
        out = tmp_path / "loose.csv"
        assert run(["estimate", str(loose), "--grid", "3,3", "--out", str(out)]) == 0
        assert out.read_bytes() == spectrum.read_bytes()


def reference_spectrum_lines(counts, power):
    """The spectrum CSV formatted one cell at a time."""
    lines = [",".join([f"f_{i}" for i in range(len(counts))] + ["power"])]
    for idx in np.ndindex(*counts):
        freqs = [repr(m / c) for m, c in zip(idx, counts)]
        lines.append(",".join(freqs + [repr(float(power[idx]) + 0.0)]))
    return lines


def fmt(x):
    return repr(float(x) + 0.0)


def reference_match_lines(report):
    """The match CSV formatted one per_lag record at a time."""
    lines = [",".join([f"t_{i}" for i in range(len(report.gamma))]
                      + ["r_re", "r_im", "rhat_re", "rhat_im", "rel_err", "mode"])]
    for e in report.per_lag:
        lines.append(",".join(
            [str(t) for t in e.lag]
            + [fmt(e.original.real), fmt(e.original.imag), fmt(e.reconstructed.real),
               fmt(e.reconstructed.imag), fmt(e.error), e.mode]))
    return lines


class TestWriters:
    @pytest.mark.parametrize("special", [5e-324, 1e-300, 1e300])
    @pytest.mark.parametrize("counts", [(1,), (7,), (3, 5), (2, 3, 4)])
    def test_spectrum_lines_match_per_cell_reference(self, tmp_path, counts, special):
        from ndspec import SpectralGridSpec, SpectrumEstimate
        from ndspec.cli import _load_spectrum_csv, _spectrum_lines, _write_lines

        rng = np.random.default_rng(len(counts))
        power = np.exp(rng.uniform(-700.0, 700.0, size=counts))
        power.flat[-1] = special
        spectrum = SpectrumEstimate(SpectralGridSpec(counts), power)
        lines = _spectrum_lines(spectrum)
        assert lines == reference_spectrum_lines(counts, power)
        path = tmp_path / "spec.csv"
        _write_lines(path, lines)
        loaded = _load_spectrum_csv(path)
        assert loaded.grid.counts == counts
        assert np.array_equal(loaded.power, power)

    def test_csv_rows_collapse_negative_zero(self):
        from ndspec.cli import _csv_rows

        assert _csv_rows([[-0.0, 1.5], [0.1, -2.0]]) == ["0.0,1.5", "0.1,-2.0"]

    def test_match_and_slice_match_per_value_reference(self, tmp_path):
        from ndspec import correlation_match
        from ndspec.cli import _load_spectrum_csv

        corr = gen_cube(tmp_path)
        spec = tmp_path / "spec.csv"
        assert run(["estimate", str(corr), "--grid", "6,5,7", "--out", str(spec)]) == 0
        spectrum = _load_spectrum_csv(spec)

        out = tmp_path / "match.csv"
        assert run(["match", str(spec), str(corr), "--out", str(out)]) == 0
        report = correlation_match(spectrum, load_ndcorr(corr))
        assert out.read_text().splitlines() == reference_match_lines(report)

        out = tmp_path / "plane.csv"
        assert run(["slice", str(spec), "--fix", "1=3", "--out", str(out)]) == 0
        plane = spectrum.power[:, 3, :]
        assert out.read_text().splitlines() == [",".join(fmt(v) for v in row) for row in plane]

    @pytest.mark.parametrize("seed, gamma, counts", [
        (21, (5,), (9,)),
        (22, (3, 4), (5, 8)),
        (23, (2, 3, 2), (3, 6, 4)),
        (24, (1, 4, 2), (2, 7, 3)),
    ])
    def test_match_bytes_match_per_record_reference(self, tmp_path, seed, gamma, counts):
        from ndspec import SpectralGridSpec, SpectrumEstimate, correlation_match, save_ndcorr
        from ndspec.cli import _load_spectrum_csv, _spectrum_lines, _write_lines

        corr, spec, out = tmp_path / "c.ndcorr", tmp_path / "s.csv", tmp_path / "m.csv"
        save_ndcorr(signed_zero_correlation(seed, gamma), corr)
        power = np.exp(np.random.default_rng(seed).uniform(-5.0, 5.0, size=counts))
        _write_lines(spec, _spectrum_lines(SpectrumEstimate(SpectralGridSpec(counts), power)))
        assert run(["match", str(spec), str(corr), "--out", str(out)]) == 0
        report = correlation_match(_load_spectrum_csv(spec), load_ndcorr(corr))
        assert {entry.mode for entry in report.per_lag} == {"abs", "rel"}
        assert out.read_bytes() == ("\n".join(reference_match_lines(report)) + "\n").encode()


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

    def test_repeated_fix_axis_is_usage_error(self, tmp_path, capsys):
        spec = self.make_spectrum(tmp_path)
        capsys.readouterr()
        assert run(["slice", str(spec), "--fix", "0=1", "--fix", "0=2"]) == 2
        assert "axis 0 fixed twice" in capsys.readouterr().err


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


def test_sequential_estimate_and_match_load_no_scipy(tmp_path):
    # ndspec.oracle serves only tests and scripts, and the runtime needs no
    # scipy: a fresh interpreter's sequential and Capon estimates and match
    # import none of them, and neither do refused estimates, whose failing
    # pivot numpy names, nor Capon's single inverse, which numpy's own
    # OpenBLAS runs
    corr, refused = gen_cube(tmp_path), tmp_path / "refused.ndcorr"
    save_ndcorr(CorrelationSignal.from_forward_lags([0.5, 1.0]), refused)
    spectrum, report = str(tmp_path / "s.csv"), str(tmp_path / "m.csv")
    capon = str(tmp_path / "capon.csv")
    script = (
        "import json, sys\n"
        "import ndspec.cli\n"
        f"codes = [ndspec.cli.main(['estimate', {str(corr)!r}, '--grid', '8,8,8', "
        f"'--out', {spectrum!r}]),\n"
        f"         ndspec.cli.main(['match', {spectrum!r}, {str(corr)!r}, '--out', {report!r}]),\n"
        f"         ndspec.cli.main(['estimate', {str(refused)!r}, '--grid', '4']),\n"
        f"         ndspec.cli.main(['estimate', {str(corr)!r}, '--grid', '8,8,8', "
        f"'--method', 'capon', '--out', {capon!r}]),\n"
        f"         ndspec.cli.main(['estimate', {str(refused)!r}, '--grid', '4', "
        f"'--method', 'capon'])]\n"
        "print(json.dumps([codes, 'scipy.linalg' in sys.modules, 'scipy' in sys.modules,\n"
        "                  'ndspec.oracle' in sys.modules]))\n"
    )
    assert run_fresh(script) == [[0, 0, 3, 0, 3], False, False, False]
    for out in ("s.csv", "capon.csv"):
        assert (tmp_path / out).read_text().startswith("f_0,f_1,f_2,power\n")
