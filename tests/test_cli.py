"""End-to-end command-line interface tests."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import harmonic_range
from harmonic_range.arcs import ArcSet
from harmonic_range.cli import SCHEMAS, main
from harmonic_range.expressions import parse_map
from harmonic_range.ranges import phi_profile, sample_range


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_eval_formats_zero(capsys):
    code, doc = run(capsys, "eval", "--map", "u=re(z); v=im(exp(z))",
                    "--z", "0")
    assert code == 0
    assert doc["formatted"] == "0+0i"


def test_eval_complex_point(capsys):
    code, doc = run(capsys, "eval", "--map", "u=re(z); v=im(z)",
                    "--z", "1+2i")
    assert code == 0
    assert doc["w"] == [1.0, 2.0]


def test_map_file_error_position_counts_from_the_file_start(tmp_path, capsys):
    path = tmp_path / "map.txt"
    path.write_text("\nu=re(z);\nv=im(z+)\n")
    assert main(["eval", "--map-file", str(path), "--z", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: map parse error: ")
    assert "(at position 17)" in err


def test_directions_catalog_cross(capsys):
    code, doc = run(capsys, "directions", "--catalog", "exp-exp-cross")
    assert code == 0
    centers = [0.5 * (a + b) for a, b in doc["arcs"]]
    want = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    for w in want:
        d = min(min(abs(c - w), 2 * math.pi - abs(c - w)) for c in centers)
        assert math.degrees(d) < 2.0


def test_check_log2_exit_zero(capsys):
    code, doc = run(capsys, "check", "--theorem", "log2",
                    "--n", "100000", "--seed", "7")
    assert code == 0
    assert doc["conclusion"]["holds"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of the stdout of check --theorem log2 at (n, seed): one point, one
# point past a block of 2^16, and the default 10^6
@pytest.mark.parametrize("n, seed, digest", [
    (1, 0, "9b58698a96afec19e23a16d34803b5be8a91be9add2d52f3a55301f90e802904"),
    (65_537, 3, "3e2745a12641f493a9174c908d3006ba315f4d8c909d6b95b3995f5b472a12fb"),
    (1_000_000, 7, "101a9ea5027f53937e54177395bf3486edb6cc2012c40da1873227fa1e7f969a"),
])
def test_check_log2_stdout_is_pinned(capsys, n, seed, digest):
    assert main(["check", "--theorem", "log2", "--n", str(n),
                 "--seed", str(seed)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == digest


@pytest.mark.parametrize("extra, flag", [
    (["--catalog", "identity"], "--catalog"),
    (["--map", "u=re(z); v=im(z)"], "--map"),
    (["--map-file", "map.txt"], "--map-file"),
    (["--R", "5"], "--R"),
    (["--n-grid", "64"], "--n-grid"),
    (["--R", "5", "--catalog", "identity"], "--catalog"),
])
def test_check_log2_refuses_the_flags_it_does_not_read(capsys, extra, flag):
    # these once exited 0 with the bytes of the plain call
    assert main(["check", "--theorem", "log2", "--n", "10", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag} is not read by --theorem log2, "
                            "which samples D(0, 100) from --n and --seed only\n")


def test_check_log2_takes_the_default_radius_and_grid(capsys):
    plain = main(["check", "--theorem", "log2", "--n", "10"]), capsys.readouterr()
    given = (main(["check", "--theorem", "log2", "--n", "10", "--R", "30",
                   "--n-grid", "256"]), capsys.readouterr())
    assert plain == given
    assert plain[0] == 0


@pytest.mark.parametrize("theorem, extra, flag", [
    # once exited 0 with the bytes of the call without the last five flags
    ("lewis", ["--alpha", "0.3", "--bins", "7", "--b", "4", "--n", "5",
               "--inner-R", "3"], "--bins"),
    ("lewis", ["--inner-R", "3"], "--inner-R"),
    ("murdoch-kuran", ["--C", "9", "--bins", "7"], "--bins"),
    ("murdoch-kuran", ["--C", "9"], "--C"),
    ("antipodal", ["--b", "4"], "--b"),
    ("halfplane", ["--n", "5"], "--n"),
    ("cor-alpha", ["--bins", "7"], "--bins"),
])
def test_check_refuses_the_flags_its_theorem_does_not_read(capsys, theorem,
                                                           extra, flag):
    assert main(["check", "--theorem", theorem, *IDENTITY, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} is not read by --theorem {theorem}\n"


def test_check_refuses_an_unread_flag_of_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "check.cfg"
    cfg.write_text("alpha=0.3\n")
    assert main(["--config", str(cfg), "check", "--theorem", "lewis",
                 *IDENTITY]) == 2
    assert capsys.readouterr().err == ("error: --alpha is not read by "
                                       "--theorem lewis\n")


def test_check_takes_the_defaults_of_flags_it_does_not_read(capsys):
    # a catalog's params are defaults, and every theorem of a map reads
    # exp-wedge's (R, n_grid, seed)
    code, doc = run(capsys, "check", "--theorem", "lewis", "--catalog",
                    "exp-wedge")
    assert code == 0
    assert doc["theorem"] == "lewis"
    plain = main(["check", "--theorem", "lewis", *IDENTITY]), capsys.readouterr()
    given = (main(["check", "--theorem", "lewis", *IDENTITY, "--alpha", "0",
                   "--bins", "720", "--n", "1000000"]), capsys.readouterr())
    assert plain == given


@pytest.mark.parametrize("argv, digest", [
    (["plot", "--catalog", "exp-wedge"],
     "b5b50468e2abeba31a166780be742f44310ee0e39d8f9e96d606f4cc4baad050"),
    (["sample", "--catalog", "exp-wedge", "--n-grid", "256"],
     "6e3402a0847b1739ffdbe748d897a2bfec1c8f02f154f1a9103e9af0bb25a50b"),
], ids=["plot-svg", "sample-csv"])
def test_artifact_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "artifact"
    assert main(argv + ["--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == digest


def test_check_verdict_mismatch_exit_one(capsys):
    # nonconstant map violating the constancy conclusion under a true
    # hypothesis is impossible; force exit 1 with an inconsistent check:
    # halfplane with directions inside the arc but nonconstant combination
    # cannot be made, so use lewis with a huge C on a nonconstant map
    code, doc = run(capsys, "check", "--theorem", "lewis", "--C", "1e9",
                    "--map", "u=re(z); v=re(z)", "--R", "5", "--n-grid", "64")
    assert code == 1
    assert doc["hypothesis"]["holds"] and not doc["conclusion"]["holds"]


def test_usage_error_exit_two(capsys):
    code = main(["eval", "--map", "u=re(z); v=im(z)",
                 "--catalog", "identity", "--z", "0"])
    assert code == 2


def test_schema_flag(capsys):
    code, doc = run(capsys, "directions", "--schema")
    assert code == 0
    assert doc["command"] == "directions"
    assert "arcs" in doc["schema"]["properties"]


def test_catalog_listing(capsys):
    code, doc = run(capsys, "catalog")
    assert code == 0
    names = [e["name"] for e in doc["entries"]]
    assert "lewis-cross" in names and len(names) >= 12


@pytest.mark.parametrize("tol", [None, 0.3])
def test_antipodal_gap_alpha_keeps_the_tolerance(capsys, tol):
    argv = ["antipodal", "--catalog", "lewis-cross"]
    if tol is not None:
        argv += ["--tol", str(tol)]
    code, doc = run(capsys, *argv)
    assert code == 0
    tol = math.radians(1.0) if tol is None else tol
    arcs = ArcSet.from_intervals(doc["arcs"])
    alpha = doc["gap_alpha"]
    assert alpha is not None
    for probe in (alpha - math.pi / 2, alpha, alpha + math.pi / 2):
        assert arcs.distance(probe) >= tol - 1e-12


def test_normalization_holds_the_rotation_and_the_slope(capsys):
    code, doc = run(capsys, "normalize", "--catalog", "lewis-cross")
    assert code == 0
    assert sorted(doc["normalization"]) == ["a", "theta"]


def test_phi_profile_is_the_library_profile(capsys):
    src = "u=re(z^2); v=im(z^2)"
    code, doc = run(capsys, "phi", "--map", src, "--R", "10",
                    "--n-grid", "64", "--seed", "3", "--bins", "50")
    assert code == 0
    samples = sample_range(parse_map(src), 10.0, n_grid=64, seed=3)
    assert doc["profile"] == phi_profile(samples, bins=50).to_dict()


def test_sample_csv_artifact(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, doc = run(capsys, "sample", "--map", "u=re(z); v=im(z)",
                    "--R", "5", "--n-grid", "64", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z_re,z_im,w_re,w_im"
    assert len(lines) == doc["count"] + 1


def test_plot_svg_artifact(tmp_path, capsys):
    out = tmp_path / "p.svg"
    code, doc = run(capsys, "plot", "--catalog", "exp-exp-cross",
                    "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_determinism_byte_identical(tmp_path, capsys):
    argv = ["directions", "--catalog", "exp-exp-cross"]
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("R=5\nn_grid=64\n")
    code, doc = run(capsys, "--config", str(cfg), "sample",
                    "--map", "u=re(z); v=im(z)")
    assert code == 0
    assert doc["metadata"]["radius"] == 5.0
    assert isinstance(doc["metadata"]["radius"], float)
    assert doc["metadata"]["n_grid"] == 64


def test_flag_precedence(tmp_path, capsys):
    """Command line over config over catalog params over built-in."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("R=5\n")
    base = ["sample", "--catalog", "constant"]  # params R=10, n_grid=64
    assert run(capsys, *base)[1]["metadata"]["radius"] == 10.0
    assert run(capsys, "--config", str(cfg), *base)[1]["metadata"]["radius"] == 5.0
    code, doc = run(capsys, "--config", str(cfg), *base, "--R", "7")
    assert doc["metadata"]["radius"] == 7.0
    assert doc["metadata"]["n_grid"] == 64 and doc["metadata"]["seed"] == 0
    code, doc = run(capsys, "sample", "--map", "u=re(z); v=im(z)", "--R", "5")
    assert doc["metadata"]["n_grid"] == 256 and doc["metadata"]["seed"] == 0


def test_schema_flag_after_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("R=20\n")
    code, doc = run(capsys, "--config", str(cfg), "directions", "--schema")
    assert code == 0
    assert doc == {"command": "directions", "schema": SCHEMAS["directions"]}


@pytest.mark.parametrize("command, line", [
    ("sample", "ngrid=64"),             # no such flag
    ("lewis-discs", "component=w"),     # not one of the choices
    ("sample", "seed=1.5"),             # not an int
    ("sample", "R=abc"),                # not a float
    ("sample", "no equals sign"),
])
def test_bad_config_line_exits_two(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), command, "--map", "u=re(z^2); v=im(z^2)",
                 "--R", "5", "--n-grid", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err
    assert "Traceback" not in captured.err


def test_flag_prefix_is_not_the_flag(tmp_path, capsys):
    """A prefix of a flag name is rejected, on the command line and as a
    config key, instead of being read as the flag it starts."""
    prefix, full = tmp_path / "prefix.cfg", tmp_path / "full.cfg"
    prefix.write_text("n=64\n")
    full.write_text("n_grid=64\n")
    head = ["sample", "--map", "u=re(z); v=im(z)"]
    assert main(["--config", str(full)] + head) == 0
    capsys.readouterr()
    for argv in (head + ["--n", "64"], ["--config", str(prefix)] + head,
                 ["--conf", str(full)] + head):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: ") == 1
        assert "Traceback" not in captured.err


def _stdout(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


_FLAG_VALUES = {
    "sample": {"R": ["3", "5.5", "1e1"], "n_grid": ["64", "80"],
               "seed": ["0", "4", "17"]},
    "directions": {"R": ["3", "5.5", "1e1"], "n_grid": ["64", "80"],
                   "seed": ["0", "4"], "bins": ["90", "360", "720"]},
}


@st.composite
def _split_flags(draw):
    """A subcommand, some of its flags with values, and which of them go
    through the config file (with key spelled `_` or `-`)."""
    command = draw(st.sampled_from(sorted(_FLAG_VALUES)))
    choices = _FLAG_VALUES[command]
    keys = draw(st.lists(st.sampled_from(sorted(choices)), unique=True))
    flags = {k: draw(st.sampled_from(choices[k])) for k in keys}
    in_config = {k: draw(st.sampled_from(["_", "-"]))
                 for k in keys if draw(st.booleans())}
    return command, flags, in_config


@settings(max_examples=25, deadline=None)
@given(_split_flags())
def test_config_line_acts_like_its_flag(split):
    command, flags, in_config = split
    head = [command, "--map", "u=re(z^2+z); v=im(z^2+z)"]
    cli = [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()]
    want = _stdout(head + cli)
    lines = [f"{k.replace('_', sep)}={flags[k]}" for k, sep in in_config.items()]
    rest = [f"--{k.replace('_', '-')}={v}" for k, v in flags.items()
            if k not in in_config]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        got = _stdout(["--config", str(cfg)] + head + rest)
    assert want[0] == 0
    assert got == want


@pytest.mark.parametrize("argv", [
    ["eval", "--map", "u=re(" + "(" * 3000 + "z" + ")" * 3000 + "); v=im(z)",
     "--z", "0"],
    ["sample", "--map", "u=re(z); v=im(z)", "--R", "-1", "--n-grid", "64"],
    ["sample", "--map", "u=re(z); v=im(z)", "--R", "nan", "--n-grid", "64"],
    ["check", "--theorem", "log2", "--n", "0"],
    # exp overflows to inf, which JSON cannot carry
    ["eval", "--z", "0.1", "--map",
     "u=re(" + "exp(" * 200 + "z" + ")" * 200 + "); v=im(z)"],
    # a long sum nests no brackets but builds a tree 3000 deep
    ["eval", "--z", "0", "--map", "u=re(" + "+".join(["z"] * 3000) + "); v=im(z)"],
])
def test_bad_input_exit_two_without_traceback(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["lewis-discs", "--map", "u=re(z); v=im(z)", "--R", "nan"],
    ["lewis-discs", "--map", "u=re(z); v=im(z)", "--R", "inf"],
    ["lewis-discs", "--map", "u=re(z); v=im(z)", "--R", "4", "--budget", "nan"],
    ["rescale", "--map", "u=re(z); v=im(z)", "--schedule", "2,nan"],
    ["zeros", "--map", "u=re(z); v=im(z)", "--box=-1,1,-1,1", "--step", "nan"],
    ["zeros", "--map", "u=re(z); v=im(z)", "--box=-1,1,-1,nan"],
    ["zeros", "--map", "u=re(z); v=im(z)", "--box=1,-1,-1,1"],
    ["tracts", "--map", "u=re(z^2); v=im(z)", "--R", "nan"],
    ["tracts", "--map", "u=re(z^2); v=im(z)", "--R", "inf"],
])
def test_a_non_finite_or_empty_input_exits_two_saying_so(capsys, argv):
    # these once exited 0 with an empty or unmet answer, or 2 blaming an
    # overflow of the map or the JSON encoder
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "must be finite" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, name", [
    (["check", "--theorem", "cor-alpha", "--map", "u=re(z); v=im(z)", "--a", "nan",
      "--alpha", "0.5", "--b", "0.1"], "a"),
    (["check", "--theorem", "lewis", "--map", "u=re(z); v=im(z)", "--C", "inf"], "C"),
    (["dependence", "--map", "u=re(z); v=im(0.5*i*z)", "--a", "nan"], "a"),
])
def test_a_non_finite_parameter_exits_two_naming_it(capsys, argv, name):
    # these once exited 2 only through the JSON encoder's complaint about
    # the echoed parameter, or decided a verdict on it
    assert main(argv + ["--n-grid", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be finite, got ")
    assert "Traceback" not in captured.err


IDENTITY = ["--map", "u=re(z); v=im(z)", "--n-grid", "64"]
# each once exited 0 with the bytes of a finite value, 1 with a false
# violation, or 2 blaming the arc endpoints, the sample's cover, an
# overflow of the map or the JSON encoder
NON_FINITE_FLAGS = [
    (["antipodal", *IDENTITY, "--tol", "nan"], "tol"),
    (["antipodal", *IDENTITY, "--tol", "inf"], "tol"),
    (["check", "--theorem", "antipodal", *IDENTITY, "--R", "nan"], "R"),
    (["rescale", "--map", "u=re(z); v=im(z)", "--schedule", "2,inf"], "schedule"),
    (["check", "--theorem", "halfplane", *IDENTITY, "--alpha", "nan"], "alpha"),
    # u is not a polynomial: the hypothesis is inapplicable, R unused
    (["check", "--theorem", "murdoch-kuran", "--map", "u=re(exp(z)); v=im(z)",
      "--n-grid", "64", "--inner-R", "nan"], "inner-R"),
    (["check", "--theorem", "murdoch-kuran", *IDENTITY, "--inner-R", "inf"],
     "inner-R"),
    (["dependence", *IDENTITY, "--inner-R", "nan"], "inner-R"),
    (["local-structure", "--map", "u=re(z); v=im(z)", "--z0", "nan+0i"], "z0"),
    (["local-structure", "--map", "u=re(z); v=im(z)", "--z0", "0",
      "--probe-radius", "nan"], "probe-radius"),
    (["eval", "--map", "u=re(z); v=im(z)", "--z", "nan"], "z"),
]


def _non_finite_ids(case) -> str:
    argv, flag = case
    return "-".join([argv[0], argv[2] if argv[0] == "check" else flag, argv[-1]])


@pytest.mark.parametrize("argv, flag", NON_FINITE_FLAGS,
                         ids=[_non_finite_ids(c) for c in NON_FINITE_FLAGS])
def test_a_non_finite_flag_exits_two_naming_it(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    value = argv[-1].split(",")[-1]
    assert captured.err == f"error: {flag} must be finite, got {value}\n"


@pytest.mark.parametrize("argv", [["directions", *IDENTITY],
                                  ["check", "--theorem", "antipodal", *IDENTITY]],
                         ids=["directions", "check"])
def test_the_cutoffs_flag_is_refused(capsys, argv):
    # it once chose a modulus ladder in place of the growth rule
    assert main(argv + ["--cutoffs", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --cutoffs 1,2\n")
    assert "Traceback" not in captured.err


def test_a_catalog_entry_takes_the_growth_rule(capsys):
    # exp-wedge's params once carried a modulus ladder
    code, doc = run(capsys, "directions", "--catalog", "exp-wedge")
    assert code == 0
    assert doc["cutoffs"] == [] and doc["stabilization_index"] == 0


def test_a_non_finite_config_line_exits_two_naming_its_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=-inf\n")
    assert main(["--config", str(cfg), "antipodal", *IDENTITY]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tol must be finite, got -inf\n"


def test_a_finite_flag_value_keeps_its_bytes(capsys):
    # the flag's type reads a finite value as float does
    argv = ["antipodal", *IDENTITY, "--tol", "0.25"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    assert main(argv[:-1] + ["2.5e-1"]) == 0
    assert capsys.readouterr().out == want
    assert json.loads(want)["pairs"]


EXP_EXP = "u=re(exp(exp(z))); v=im(exp(exp(z)))"
# 1368 of its 131,072 samples at R 8, n_grid 256, seed 3 are not finite
EXP_EXP_U = ["--map", "u=re(exp(exp(z))); v=im(z)", "--R", "8", "--seed", "3"]
# each once exited 0 or 1 with a wrong answer, or 2 with a bare
# OverflowError or the JSON encoder's complaint about inf; an --out path
# is relative, and the tests run in an empty directory that must stay empty
OVERFLOWS = [
    ["tracts", "--map", "u=re(z^300-z^299); v=im(z)", "--R", "40"],
    ["zeros", "--map", EXP_EXP, "--box=-8,8,-8,8"],
    ["zeros", "--map", "u=re(exp(z^3)); v=im(z)", "--box=-8,8,-8,8"],
    ["lewis-discs", "--map", "u=re(z^100000); v=im(z)", "--R", "2"],
    ["lewis-discs", "--map", "u=re(z^100000); v=im(z)", "--R", "30"],
    ["local-structure", "--map", "u=re(z^400); v=im(z)", "--z0", "0",
     "--probe-radius", "8"],
    ["eval", "--map", "u=re(z+10^400); v=im(z)", "--z", "0"],
    ["eval", "--map", "u=re(exp(exp(z))); v=im(z)", "--z", "10"],
    ["sample", *EXP_EXP_U, "--out", "range.csv"],
    ["check", "--theorem", "cor-alpha", *EXP_EXP_U, "--a", "0", "--alpha", "0.5",
     "--b", "-1"],
    ["check", "--theorem", "lewis", *EXP_EXP_U, "--C", "4"],
]


@pytest.mark.parametrize("argv", [
    ["lewis-discs", "--map", EXP_EXP, "--R", "30"],
    ["dependence", "--map", EXP_EXP, "--R", "30", "--n-grid", "128"],
    # 5042 of the 32768 samples overflow; once they crashed on a cast to int
    ["directions", "--map", EXP_EXP, "--R", "30", "--n-grid", "128"],
    ["antipodal", "--map", EXP_EXP, "--R", "30", "--n-grid", "128"],
    ["normalize", "--map", EXP_EXP, "--R", "30", "--n-grid", "128"],
    ["phi", "--map", EXP_EXP, "--R", "30", "--n-grid", "128"],
    ["plot", "--map", EXP_EXP, "--R", "30", "--n-grid", "128", "--out", os.devnull],
    *OVERFLOWS,
])
def test_overflow_is_a_typed_error(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "overflow" in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_nan_circle_maximum_is_a_typed_error(capsys):
    # inf - inf is NaN on part of |z| = 7; the NaN samples once made u look
    # constant there
    argv = ["lewis-discs", "--map", "u=re(exp(exp(z))-exp(exp(z))); v=im(z)",
            "--R", "14"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: 153 of 4096 samples of u on the circle of radius 7 about 0 ")
    assert "overflows" in captured.err


def test_unexpected_exception_exits_two(capsys, monkeypatch):
    import harmonic_range.cli as cli

    def crash(args):
        raise IndexError("index 7 is out of bounds")
    monkeypatch.setattr(cli, "_cmd_eval", crash)
    assert main(["eval", "--map", "u=re(z); v=im(z)", "--z", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: IndexError: index 7 is out of bounds\n"


def _subprocess_env():
    src = str(Path(harmonic_range.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("argv", [
    pytest.param([command, "--map", EXP_EXP, "--R", "30"], id=command)
    for command in ("lewis-discs", "dependence")] + OVERFLOWS)
def test_overflow_stderr_is_one_error_line(argv, tmp_path):
    """numpy's overflow warnings stay off stderr; only the typed error shows."""
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_range.cli", *argv],
        env=_subprocess_env(), capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "overflows" in lines[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", NON_FINITE_FLAGS,
                         ids=[_non_finite_ids(c) for c in NON_FINITE_FLAGS])
def test_a_non_finite_flag_exits_two_naming_it_in_a_subprocess(argv, flag, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_range.cli", *argv],
        env=_subprocess_env(), capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    value = argv[-1].split(",")[-1]
    assert proc.stderr == f"error: {flag} must be finite, got {value}\n"


def test_dependence_does_not_depend_on_the_blas_threads():
    """b and the residual are sums over the samples beyond R; BLAS would
    sum them in an order that changes with its thread count."""
    flags = ["--map", "u=re(z); v=im(0.37*i*z)", "--R", "100", "--n-grid", "128"]
    code = ("from harmonic_range.cli import main\n"
            f"main({['dependence', *flags]!r})\n"
            f"main({['check', '--theorem', 'murdoch-kuran', *flags]!r})\n")
    outs = []
    for threads in ("1", "2"):
        env = dict(_subprocess_env(), OPENBLAS_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   check=True, capture_output=True).stdout)
    assert outs[0].count(b'"b"') == 2
    assert outs[0] == outs[1]


def test_cli_import_does_not_load_scipy():
    """Nor jsonschema, which only the tests use."""
    code = ("import harmonic_range.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


MAP = "u=re(z^2+z); v=im(z^2+z)"
SMALL = ["--map", MAP, "--R", "5", "--n-grid", "64"]


SCHEMA_CASES = [
    ["eval", "--map", MAP, "--z", "1+2i"],
    ["sample", *SMALL],
    ["directions", *SMALL],
    ["directions", "--catalog", "lewis-cross"],
    ["antipodal", *SMALL],
    ["normalize", *SMALL],
    ["lewis-discs", "--map", "u=im(exp(z)); v=re(exp(z))", "--R", "8"],
    ["rescale", "--map", "u=re(z); v=im(z)", "--schedule", "2,4"],
    ["zeros", "--map", MAP, "--box=-1,1,-1,1"],
    ["local-structure", "--map", MAP, "--z0", "0"],
    ["tracts", "--map", MAP, "--R", "10"],
    ["dependence", "--map", "u=re(z); v=im(3*i*z)", "--R", "50", "--n-grid", "64"],
    ["phi", *SMALL],
    ["check", "--theorem", "lewis", *SMALL],
    ["catalog", "--name", "identity"],
    ["plot", *SMALL, "--out", "{tmp}/p.svg"],
]


def test_every_subcommand_has_a_schema_case():
    assert {argv[0] for argv in SCHEMA_CASES} == set(SCHEMAS)


@pytest.mark.parametrize("argv", SCHEMA_CASES, ids=lambda argv: argv[0] + (
    "-lewis-cross" if "lewis-cross" in argv else ""))
def test_stdout_matches_the_strict_schema(tmp_path, capsys, argv):
    jsonschema = pytest.importorskip("jsonschema")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, doc = run(capsys, *argv)
    assert code in (0, 1)
    jsonschema.validate(doc, SCHEMAS[argv[0]])
