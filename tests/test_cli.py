import warnings
from pathlib import Path

import pytest

from latsec import entropy
from latsec.cli import GRID_POINT_CAP, _parse_float_grid, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SMALL_INVOCATIONS = {
    "entropy-check": ["entropy-check", "--trials", "150", "--grid-max", "2",
                      "--grid-step", "6"],
    "entropy-check-grid3": ["entropy-check", "--trials", "50", "--grid-max", "3",
                            "--grid-step", "8"],
    "lattice-verify": ["lattice-verify", "--n", "1", "--m", "4", "--s", "2",
                       "--dither", "random"],
    "lattice-verify-minus": ["lattice-verify", "--n", "1", "--m", "4", "--s", "2",
                             "--sign", "-", "--dither", "random"],
    "lattice-verify-2d": ["lattice-verify", "--n", "2", "--m", "3", "--c", "0.7", "--s", "1",
                          "--sign", "-", "--dither", "random"],
    "hash-bench": ["hash-bench", "--r-max", "2", "--n-max", "3",
                   "--mc-r", "4", "--mc-n", "8", "--mc-trials", "3000"],
    "amplify": ["amplify", "--r", "1", "--n", "2", "--c-list", "1,2"],
    "keygen": ["keygen", "--nbar", "2", "--m", "4", "--r", "1", "--trials", "15"],
    "simulate": ["simulate", "--nbar", "2", "--m", "4", "--r0", "1",
                 "--trials", "8", "--family", "3"],
    "simulate-genie": ["simulate", "--nbar", "2", "--m", "4", "--r0", "1",
                       "--trials", "8", "--family", "3", "--mode", "genie"],
    "leakage-trend": ["leakage-trend", "--nbar", "2:4", "--family", "3"],
    "leakage-trend-random": ["leakage-trend", "--nbar", "2:4", "--family", "3",
                             "--dither", "random", "--decode-trials", "20"],
    "sdof": ["sdof", "--grid", "1.0:2.0:0.25", "--qmax", "5"],
}


@pytest.mark.parametrize("name", sorted(SMALL_INVOCATIONS))
def test_subcommand_runs_and_reproduces(tmp_path, capsys, name):
    args = SMALL_INVOCATIONS[name]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--seed", "3", "--out", str(out1)]) == 0
    assert main(args + ["--seed", "3", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.decode().count("\n") >= 2  # header plus at least one row
    assert b1 == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().err == ""  # no failed check to name


def test_json_format(tmp_path):
    out = tmp_path / "sdof.json"
    rc = main(["sdof", "--grid", "1.1,1.3", "--qmax", "3",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    import json
    obj = json.loads(out.read_text())
    assert obj["columns"][0] == "sqrt_ab"
    assert len(obj["rows"]) == 2


def test_different_seed_changes_seeded_output(tmp_path):
    # the seed draws this table's dithers, hash candidates and decoding noise
    base = SMALL_INVOCATIONS["leakage-trend-random"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    main(base + ["--seed", "1", "--out", str(out1)])
    main(base + ["--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_stdout_when_no_out(capsys):
    assert main(["sdof", "--grid", "1.1", "--qmax", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("sqrt_ab")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# a non-finite parameter; a scaled gain sqrt(ab) that overflows; a scaled
# noise variance b * sigma1^2 that underflows to zero; a finite gain at which
# y1 = x1 + g x2 + noise no longer resolves x1 in float64 (the first three of
# these would also overflow the pair norms or the decoder's bound)
UNUSABLE_CHANNELS = (["keygen", "--sigma1", "inf"], ["keygen", "--a", "inf"],
                        ["simulate", "--b", "inf"],
                        ["keygen", "--a", "1e300", "--b", "1e300", "--trials", "5"],
                        ["simulate", "--a", "1e300", "--b", "1e300", "--trials", "5"],
                        ["keygen", "--b", "1e-30", "--sigma1", "1e-150", "--trials", "5"],
                        ["keygen", "--a", "1e300", "--b", "1e8", "--trials", "5"],
                        ["simulate", "--a", "1e300", "--b", "1e8", "--trials", "5"],
                        ["keygen", "--a", "1e300", "--b", "1e6", "--trials", "5"],
                        ["simulate", "--a", "1e290", "--b", "1e10", "--trials", "5"],
                        ["keygen", "--a", "1e290", "--b", "1e10", "--trials", "5"])

# Monte-Carlo rank checks past the elimination cap: half a day of trials, more
# rows than one draw chunk holds, and minutes of row updates
MC_OVER_CAP = (["hash-bench", "--mc-trials", "100000000000"],
               ["hash-bench", "--mc-r", "20000", "--mc-trials", "10"],
               ["hash-bench", "--mc-r", "2000", "--mc-trials", "1000"])

# used to exit 0 and skip decoding without a word
NEGATIVE_DECODE_TRIALS = ["leakage-trend", "--nbar", "2:3", "--decode-trials", "-1"]

# 2^22 hashes of each source in turn, up to 2048 symbols: still running after 300 s
HASHED_OVER_CAP = ["amplify", "--n", "11", "--r", "2", "--c-list",
                   "0,1,1.5,2,3,4,5,6,7,8,9,10,11"]

# used to end in a traceback (a non-finite or oversized float grid) or, for a
# negative c, in a numpy warning and exit 0; the last grid is one point over the
# cap, refused before np.arange allocates it
BAD_FLOAT_GRIDS = [["sdof", "--grid", "inf"], ["amplify", "--c-list", "nan"],
                   ["amplify", "--c-list", "inf"], ["sdof", "--grid", "1:inf:0.1"],
                   ["entropy-check", "--s", "1:inf:1"], ["sdof", "--grid", "1:2:inf"],
                   ["sdof", "--grid", "1:2:1e-320"], ["amplify", "--c-list=-1"],
                   ["sdof", "--grid", f"0:{GRID_POINT_CAP}:1"]]

# used to print rows of width 0 and leakage 0.0 with exit 0
NON_FINITE_MARGINS = [["leakage-trend", "--eps", "nan"], ["leakage-trend", "--eps", "inf"],
                      ["leakage-trend", "--delta", "inf"]]

# used to print a table of NaN figures (an infinite coarse scale) or a negative
# floor (no hash output bit) with exit 0, to end in a traceback (an overflowing
# q * sqrt(ab), a negative width), to print only a header (no source bit), or to
# run for about a minute (10^8 denominators)
BAD_SIZES = [["lattice-verify", "--n", "1", "--m", "4", "--c", "inf"],
             ["sdof", "--grid", "1e308"], ["sdof", "--qmax", "100000000", "--grid", "1.5"],
             ["amplify", "--r", "-1"], ["amplify", "--r", "0"],
             ["amplify", "--n", "-1"], ["amplify", "--n", "0"]]


def test_config_error_exit_code(capsys):
    for args in (["leakage-trend", "--nbar", "2:3", "--family", "2", "--fixed-r0", "9"],
                 ["leakage-trend", "--nbar", "x"],
                 ["leakage-trend", "--nbar", "5:2"],
                 ["sdof", "--grid", "1:2:0"],
                 ["keygen", "--nbar", "2", "--m", "4", "--r", "1", "--trials", "0"],
                 ["amplify", "--n", "40"],
                 ["hash-bench", "--r-max", "1", "--n-max", "1", "--mc-trials", "0"],
                 ["hash-bench", "--r-max", "1", "--n-max", "1", "--mc-n", "70"],
                 ["hash-bench", "--r-max", "1", "--n-max", "1", "--mc-r", "-1"],
                 *MC_OVER_CAP,
                 ["amplify", "--c-list", "x"],
                 ["leakage-trend", "--nbar", "2", "--family", "0"],
                 NEGATIVE_DECODE_TRIALS,
                 *UNUSABLE_CHANNELS,
                 *BAD_FLOAT_GRIDS,
                 *BAD_SIZES,
                 *NON_FINITE_MARGINS,
                 HASHED_OVER_CAP):
        assert main(args) == 2, args
        assert "error:" in capsys.readouterr().err, args
    # an empty family must be refused before numpy warns about its empty mean,
    # and a non-finite or overflowing channel before any decoding warns
    for args in (["leakage-trend", "--nbar", "2", "--family", "0"], NEGATIVE_DECODE_TRIALS,
                 *UNUSABLE_CHANNELS, *MC_OVER_CAP, *BAD_FLOAT_GRIDS, *BAD_SIZES,
                 *NON_FINITE_MARGINS, HASHED_OVER_CAP):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 2, args
        err = capsys.readouterr().err
        assert not caught and err.startswith("error: ") and err.count("\n") == 1, (args, err)


def test_grid_cap_admits_its_own_size():
    assert len(_parse_float_grid(f"1:{GRID_POINT_CAP}:1")) == GRID_POINT_CAP


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["sdof", "--grid", "1.5", "--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_subnormal_noise_variance_decodes(capsys):
    # sigma1 = 1e-160 squares to a subnormal noise variance
    figures = {}
    for cmd, column in (("keygen", "agreement_rate"), ("simulate", "decode_error_rate")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([cmd, "--sigma1", "1e-160", "--trials", "20"]) == 0, cmd
        captured = capsys.readouterr()
        assert not caught and captured.err == "", (cmd, captured.err)
        header, row = captured.out.splitlines()[:2]
        figures[cmd] = float(dict(zip(header.split(","), row.split(",")))[column])
    assert figures == {"keygen": 1.0, "simulate": 0.0}


@pytest.mark.parametrize("args", [["--max-x", "1"], ["--s", "x"], ["--grid-step", "0"],
                                  ["--grid-step", "-1"], ["--trials", "0"],
                                  ["--trials", "-5"], ["--grid-max", "6"]])
def test_entropy_check_refuses_unusable_input(capsys, args):
    assert main(["entropy-check", "--grid-max", "2"] + args) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("s", ["1e9", "1e18", "1e300"])
def test_entropy_check_takes_huge_s(capsys, s):
    # the bound's limits were found with 2^(2s)-sized integers: 1e300 ended in an
    # OverflowError and 1e18 in a MemoryError, both with rc=1, and 1e9 took 2 s
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["entropy-check", "--s", s]) == 0
    captured = capsys.readouterr()
    assert not caught and captured.err == "", captured.err
    assert captured.out.splitlines()[-1] == "tail_bounds_grid,15609,0,,0.0,0.0"


def test_entropy_check_refuses_the_grid_before_the_floor_sweep(monkeypatch, capsys):
    def floor_sweep(*args, **kwargs):
        raise AssertionError("the floor sweep ran before the grid was refused")

    monkeypatch.setattr(entropy, "conditional_entropy_floor_sweep", floor_sweep)
    for args in (["--grid-step", "0"], ["--grid-max", "6"]):
        assert main(["entropy-check"] + args) == 2, args
        assert capsys.readouterr().err.startswith("error: "), args


def test_lattice_verify_needs_half_integral_s(capsys):
    # the renyi2 and min audits decide each drop exactly, which needs 2s integral
    assert main(["lattice-verify", "--n", "1", "--m", "4", "--s", "1.3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_certain_hash_outputs_print_positive_zero_entropy(capsys):
    # at n = 1, c = 0 the flat source has one symbol, so every hashed output is
    # certain and the average entropy is +0.0, not -0.0
    assert main(["amplify", "--n", "1", "--r", "1", "--c-list", "0"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    flat = dict(zip(rows[0], next(row for row in rows if row[3] == "flat1")))
    assert flat["avg_entropy"] == "0.0"


def test_layer_stacks_refused_by_keygen_and_simulate():
    # every codebook is one nested-lattice pair, so no subcommand takes --layers
    for cmd in ("keygen", "simulate", "leakage-trend"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--nbar", "4", "--layers", "2"])
        assert exc.value.code == 2, cmd


def test_failed_check_is_named(tmp_path, capsys):
    # the fitted log2 slope is +0.05 here and every row passes the family screen
    out = tmp_path / "trend.csv"
    assert main(["leakage-trend", "--m", "4", "--nbar", "2:8", "--family", "4",
                 "--seed", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "check failed: slope\n"
    assert captured.out == ""
    assert out.read_text().count("\n") == 8
