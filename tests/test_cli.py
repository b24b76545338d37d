"""End-to-end command-line interface tests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harmonic_range
from harmonic_range.cli import main


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
    assert doc["metadata"]["n_grid"] == 64


@pytest.mark.parametrize("argv", [
    ["eval", "--map", "u=re(" + "(" * 3000 + "z" + ")" * 3000 + "); v=im(z)",
     "--z", "0"],
    ["sample", "--map", "u=re(z); v=im(z)", "--R", "-1", "--n-grid", "64"],
    ["sample", "--map", "u=re(z); v=im(z)", "--R", "nan", "--n-grid", "64"],
    ["check", "--theorem", "log2", "--n", "0"],
])
def test_bad_input_exit_two_without_traceback(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_cli_import_does_not_load_scipy():
    src = str(Path(harmonic_range.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import harmonic_range.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
