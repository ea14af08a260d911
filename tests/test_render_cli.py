import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hendecafold
from hendecafold import polynomials, render, scriptio
from hendecafold.cli import main
from hendecafold.construction import (
    VERTEX_IDS,
    FoldScript,
    FoldStep,
    WrongLandmarkKind,
    hendecagon_script,
    run_script,
)
from hendecafold.render import DiagramSpec, IoFailure, emit_svg, write_svgs
from hendecafold.scriptio import (
    decode_script,
    encode_number,
    encode_script,
    encode_two_fold_config,
)
from hendecafold.folds import TwoFoldConfig
from hendecafold.geometry import Line, Point


def up_to_figure(script, figure):
    """The script cut to the steps whose first figure is at most `figure`."""
    return replace(script, steps=tuple(s for s in script.steps if min(s.figures) <= figure))


@pytest.fixture(scope="module")
def state():
    return run_script(hendecagon_script())


# -- SVG emission ---------------------------------------------------------------

def test_full_run_emits_20_steps_plus_final(state):
    docs = emit_svg(state, DiagramSpec())
    names = [name for name, _ in docs]
    assert names == [f"step_{k:02d}" for k in range(1, 21)] + ["final"]


def test_empty_step_range(state):
    assert emit_svg(state, DiagramSpec(figures=())) == []


def test_svg_documents_are_wellformed_xml(state):
    for name, text in emit_svg(state, DiagramSpec()):
        root = ET.fromstring(text)
        assert root.tag.endswith("svg"), name
        viewbox = [float(v) for v in root.get("viewBox").split()]
        # the declared viewport must contain the whole sheet [-4,4] x [-5,3]
        xmin, ysvgmin, width, height = viewbox
        assert xmin <= -4 and xmin + width >= 4
        assert ysvgmin <= -3 and ysvgmin + height >= 5


def test_final_diagram_has_eleven_sides(state):
    docs = dict(emit_svg(state, DiagramSpec()))
    assert docs["final"].count('class="side"') == 11


def test_emission_is_deterministic(state):
    first = emit_svg(state, DiagramSpec())
    second = emit_svg(state, DiagramSpec())
    assert first == second


def test_landmarks_appear_cumulatively(state):
    docs = dict(emit_svg(state, DiagramSpec()))
    assert "gamma" not in docs["step_07"]  # gamma not yet folded
    assert ">gamma<" in docs["step_08"]
    assert ">delta<" in docs["step_09"]
    assert ">delta<" not in docs["step_08"]  # revealed one plate later
    assert ">Q<" in docs["step_03"]


def test_subset_of_figures(state):
    docs = emit_svg(state, DiagramSpec(figures=(3, 5)))
    assert [name for name, _ in docs] == ["step_03", "step_05"]


def test_subset_plates_equal_the_full_render(state):
    full = dict(emit_svg(state, DiagramSpec()))
    subset = emit_svg(state, DiagramSpec(figures=(3, 5, 20)))
    assert [name for name, _ in subset] == ["step_03", "step_05", "step_20", "final"]
    for name, text in subset:
        assert text == full[name], name


def test_a_vertex_bound_to_a_line_fails_the_final_plate_only():
    steps = tuple(FoldStep(id=f"bind_{z}", kind="crease_segment",
                           args={"along": "sheet_left"}, outputs=(z,), figures=(k + 1,))
                  for k, z in enumerate(VERTEX_IDS))
    bad = run_script(FoldScript(steps=steps, frame=hendecagon_script().frame))
    with pytest.raises(WrongLandmarkKind, match="landmark 'z0' is Line, expected Point"):
        emit_svg(bad, DiagramSpec())
    # a subset without the final plate never reads the vertices
    docs = emit_svg(bad, DiagramSpec(figures=(1, 2)))
    assert [name for name, _ in docs] == ["step_01", "step_02"]


def test_only_named_figures_are_drawn():
    # one script field must not make the default render write a plate per
    # integer below it
    script = hendecagon_script()
    steps = script.steps[:-1] + (replace(script.steps[-1], figures=(40,)),)
    docs = emit_svg(run_script(replace(script, steps=steps)))
    names = [name for name, _ in docs]
    assert names == [f"step_{k:02d}" for k in range(1, 21)] + ["step_40", "final"]


def test_each_shown_line_is_clipped_once(state, monkeypatch):
    calls = []

    def counted(line, box):
        calls.append(line)
        return clip_line(line, box)

    clip_line = render._clip_line
    monkeypatch.setattr(render, "_clip_line", counted)
    emit_svg(state, DiagramSpec())
    shown = [name for name, value in state.landmarks.items()
             if isinstance(value, Line) and not name.startswith("sheet_")]
    assert len(calls) == len(shown) == 34


def test_a_crease_along_a_line_ignores_stray_point_arguments():
    # the runner creases `along` when it is given; the plate must show that
    # line, not a segment between unused p and q arguments
    script = hendecagon_script()
    steps = tuple(replace(s, args={**s.args, "p": "P", "q": "Q"})
                  if s.id == "mark_m" else s for s in script.steps)
    stray = dict(emit_svg(run_script(replace(script, steps=steps))))
    assert stray == dict(emit_svg(run_script(script)))
    steps = tuple(replace(s, args={**s.args, "p": ["P"]})
                  if s.id == "mark_m" else s for s in script.steps)
    assert dict(emit_svg(run_script(replace(script, steps=steps)))) == stray


def _golden_plate_cases():
    """(label, state, spec) for the plate golden: the hendecagon and scripts
    that reach every branch of the markup."""
    script = hendecagon_script()
    state = run_script(script)
    yield "hendecagon", state, DiagramSpec()
    for figures in ((3, 5, 20), (8, 9), (1, 14, 14)):
        yield f"hendecagon {figures}", state, DiagramSpec(figures=figures)
    yield "up to figure 7", run_script(up_to_figure(script, 7)), DiagramSpec()
    with pytest.warns(UserWarning, match="skipping degenerate fold parameter"):
        degenerate = run_script(decode_script(json.dumps(_degenerate_root_script_doc())))
    yield "degenerate root", degenerate, DiagramSpec()
    odd = tuple(replace(s, annotation="Fold A & B: x < y > z, é → ∞")
                if s.id == "fold_ell" else s for s in script.steps) + (
        FoldStep(id="mark_odd", kind="mark_point", args={"l1": "ell", "l2": "n"},
                 outputs=("c&<é→>",), figures=(3,), annotation="<c> & é → c"),
        FoldStep(id="fold_odd", kind="single_fold",
                 args={"variant": "line_onto_line", "moving": "sheet_left",
                       "target": "sheet_right"},
                 outputs=("ell→&<é>",), figures=(20,), mv="valley"))
    yield "escaped text", run_script(replace(script, steps=odd)), DiagramSpec()
    # figures reversed, so registry order runs against figure order, and a
    # two-output step that lists figure 3 twice
    shuffled = tuple(replace(s, figures=(3, 3, 5)) if s.id == "fold_rotate_A"
                     else replace(s, figures=tuple(21 - f for f in s.figures))
                     for s in script.steps)
    yield "shuffled figures", run_script(replace(script, steps=shuffled)), DiagramSpec()
    # the corner (-4, 3) reflected across the right edge is (12, 3); the
    # vertical through it misses the viewport, a segment to it does not
    far = (
        FoldStep(id="corner", kind="mark_point",
                 args={"l1": "sheet_left", "l2": "sheet_top"}, outputs=("A",), figures=(1,)),
        FoldStep(id="pivot", kind="mark_point",
                 args={"l1": "sheet_right", "l2": "sheet_top"}, outputs=("B",), figures=(1,)),
        FoldStep(id="reflect", kind="rotate_length",
                 args={"center": "B", "frm": "A", "axis": "sheet_right"},
                 outputs=("F",), figures=(2,), annotation="Off the sheet."),
        FoldStep(id="miss", kind="single_fold",
                 args={"variant": "perpendicular", "through": "F", "to": "sheet_top"},
                 outputs=("x12",), figures=(2,), annotation="A crease out of view."),
        FoldStep(id="segment", kind="crease_segment", args={"p": "A", "q": "F"},
                 outputs=("AF",), figures=(3,), mv="mountain"))
    yield "missed viewport", run_script(FoldScript(steps=far, frame=script.frame)), \
        DiagramSpec()


# sha256 over each case's label and the name and bytes of each of its plates
_PLATES_SHA256 = "b43fdfb9f54ead35fd4d22f27f7727b271448aaf6f894061b45ecaa6b6855c30"


def test_plates_match_the_golden_digest():
    digest = hashlib.sha256()
    for label, state, spec in _golden_plate_cases():
        digest.update(label.encode() + b"\0")
        for name, text in emit_svg(state, spec):
            digest.update(name.encode() + b"\0" + text.encode("utf-8") + b"\0")
    assert digest.hexdigest() == _PLATES_SHA256


def test_write_svgs(tmp_path, state):
    paths = write_svgs(emit_svg(state, DiagramSpec(figures=(1,))), tmp_path)
    assert [p.name for p in paths] == ["step_01.svg"]
    assert paths[0].read_text().startswith("<?xml")


def test_write_svgs_wraps_os_errors(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where a directory is needed")
    with pytest.raises(IoFailure):
        write_svgs([("x", "<svg/>")], blocker / "sub")


def test_write_svgs_over_a_longer_file_leaves_exactly_the_new_plate(tmp_path, state):
    [(name, text)] = docs = emit_svg(state, DiagramSpec(figures=(1,)))
    path = tmp_path / f"{name}.svg"
    path.write_bytes(b"\xff junk of other bytes \x00" * (len(text) // 10))
    assert path.stat().st_size > len(text)
    write_svgs(docs, tmp_path)
    assert path.read_bytes() == text.encode("utf-8")


def test_write_svgs_of_identical_text_advances_the_mtime(tmp_path):
    # the bench oracle dates every file to the epoch and takes one still
    # there after the next op for a plate that op did not write
    [path] = write_svgs([("x", "<svg/>\n")], tmp_path)
    os.utime(path, ns=(0, 0))
    write_svgs([("x", "<svg/>\n")], tmp_path)
    assert path.stat().st_mtime_ns > 0
    assert path.read_text(encoding="utf-8") == "<svg/>\n"


_NON_ASCII_PLATE = '<svg>\n<text>A &amp; B: é → ∞</text>\n</svg>\n'


def test_write_svgs_writes_non_ascii_text_as_its_utf8_bytes(tmp_path):
    [path] = write_svgs([("x", _NON_ASCII_PLATE)], tmp_path)
    assert path.read_bytes() == _NON_ASCII_PLATE.encode("utf-8")


def test_write_svgs_onto_a_directory_raises_io_failure(tmp_path):
    (tmp_path / "x.svg").mkdir()
    with pytest.raises(IoFailure, match="x.svg"):
        write_svgs([("x", "<svg/>\n")], tmp_path)


def test_write_svgs_finishes_a_plate_through_short_writes(tmp_path, monkeypatch):
    sizes = []

    def short_write(fd, data):
        sizes.append(len(data))
        return write(fd, bytes(data[:7]))

    write = os.write
    data = _NON_ASCII_PLATE.encode("utf-8") * 3
    monkeypatch.setattr(os, "write", short_write)
    [path] = write_svgs([("x", data.decode("utf-8"))], tmp_path)
    monkeypatch.undo()
    assert path.read_bytes() == data
    assert sizes == list(range(len(data), 0, -7))


def test_cli_construct_onto_a_directory_is_one_line_exit_1(tmp_path, capsys):
    blocker = tmp_path / "out" / "step_01.svg"
    blocker.mkdir(parents=True)
    assert main(["construct", "--out", str(tmp_path / "out")]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: cannot write diagrams to") and str(blocker) in line


# -- CLI ------------------------------------------------------------------------

def test_cli_poly_11(capsys):
    assert main(["poly", "11"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 -4 -3 3 1"


def test_cli_poly_7(capsys):
    assert main(["poly", "7"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 -2 -1"


def test_cli_poly_rejects_even(capsys):
    assert main(["poly", "12"]) == 2


# sha256 of `poly n` stdout for n = 3, 5, ..., 81 in turn
POLY_DIGEST = "d72199a106469b486d4b16f43a5d4fb505bfce92f8816654bb81396ea78842a6"


def test_cli_poly_outputs_match_the_golden_digest(capsys):
    digest = hashlib.sha256()
    for n in range(3, 82, 2):
        assert main(["poly", str(n)]) == 0
        out = capsys.readouterr().out
        digest.update(out.encode())
    assert digest.hexdigest() == POLY_DIGEST
    # the last report is the one the CI smoke step diffs against
    assert out == (Path(__file__).parent / "data" / "poly_81.txt").read_text()


def test_cli_classify(capsys):
    assert main(["classify", "12"]) == 0
    out = capsys.readouterr().out
    assert "single_fold_constructible: true" in out
    assert "r: 2" in out and "s: 1" in out
    assert main(["classify", "11"]) == 0
    out = capsys.readouterr().out
    assert "single_fold_constructible: false" in out
    assert "obstruction" in out
    assert main(["classify", "25"]) == 0
    out = capsys.readouterr().out
    assert "exponent 2" in out


def test_cli_solve_default(capsys):
    assert main(["solve"]) == 0
    out = capsys.readouterr().out
    assert "solutions: 5" in out
    assert "t: 1.68250706566" in out


def test_cli_solve_config_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(encode_two_fold_config(TwoFoldConfig.hendecagon()))
    assert main(["solve", "--config", str(config_path)]) == 0
    assert "solutions: 5" in capsys.readouterr().out


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("args, golden", [
    ([], "solve_hendecagon.txt"),
    (["--config", str(DATA / "tilted_config.json")], "solve_tilted.txt"),
    (["--config", str(DATA / "float_config.json")], "solve_float.txt"),
])
def test_cli_solve_prints_its_golden_report(capsys, args, golden):
    # the tilted config is exact, with fraction entries in every line; the
    # float config has one unit-normal line, decoded as stored, and two
    # non-unit lines, canonicalized
    assert main(["solve", *args]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_cli_solve_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["solve", "--config", str(bad)]) == 2


def test_cli_solve_config_with_roots_far_apart_keeps_the_exit_contract(tmp_path):
    # Q = (0, 10**160) puts the eliminant's coefficients beyond the float
    # range and isolates a root in an interval wider than it; the crease
    # pairs square Q's coordinates, which leaves the float range
    doc = _config_doc()
    doc["P"] = {"point": ["-5/2", "-3"]}
    doc["Q"] = {"point": ["0", str(10**160)]}
    doc["ell"], doc["m"], doc["n"] = ({"line": line} for line in (
        ["1", "0", "0"], ["1", "0", "-2"], ["0", "1", "1"]))
    config = tmp_path / "huge_q.json"
    config.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(hendecafold.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "hendecafold.cli", "solve", "--config",
                           str(config)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    [line] = done.stderr.splitlines()
    assert line.startswith("error: fold pair at t=") and "float range" in line


@pytest.mark.parametrize("n", [["3/99989", "99991/99987", "99991/99983"],
                               ["1/10000000000000", "1", "1"]])
def test_cli_solve_exact_n_near_the_axis_finds_all_five_pairs(tmp_path, capsys, n):
    # n's coprime triple has entries near 10^10 or 10^13, and the fold
    # parameter's unit must not shrink with them
    doc = _config_doc()
    doc["n"] = {"line": n}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["solve", "--config", str(config)]) == 0
    assert capsys.readouterr().out.startswith("solutions: 5\n")


def test_cli_solve_config_with_the_foot_of_q_beyond_floats_is_one_line(tmp_path):
    # every number is a float or fits one, but Q's foot on the tilted n
    # lies beyond the float range
    doc = _config_doc()
    doc["Q"] = {"point": ["-1.7976931348623157e308"] * 2}
    doc["n"] = {"line": ["19/4", "-13/3", "5019/1217"]}
    config = tmp_path / "foot.json"
    config.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(hendecafold.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "hendecafold.cli", "solve", "--config",
                           str(config)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["error: the foot of Q on n is beyond the float range"]


def test_cli_solve_config_spanning_the_float_range_isolates_in_few_chain_evaluations(
        tmp_path, capsys, monkeypatch):
    # P.x, m.b and n.b at the largest float: four of the eliminant's five
    # roots lie within +-8, but its power-of-two root bound is 2^1024, so
    # halving down to them took 2,045 chain evaluations of about 33 ms each;
    # exponent splits cross those binary orders in a few steps (133 in all)
    doc = _config_doc()
    big = "1.7976931348623157e+308"
    doc["P"] = {"point": [big, "4.333333333333333"]}
    doc["Q"] = {"point": ["-1.5", "5.25"]}
    doc["ell"] = {"line": ["-1.0", "1.0", "-1.0"]}
    doc["m"] = doc["n"] = {"line": ["3.0", big, "-1.5"]}
    config = tmp_path / "float_range.json"
    config.write_text(json.dumps(doc))
    evaluations = []

    def counted(chain, num, den, *head):
        evaluations.append(num)
        return chain_values(chain, num, den, *head)

    chain_values = polynomials._chain_values
    monkeypatch.setattr(polynomials, "_chain_values", counted)
    assert main(["solve", "--config", str(config), "--tol", "1e-6"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: fold pair at t=") and "float range" in line
    assert len(evaluations) < 200


def test_cli_construct_writes_outputs(tmp_path, capsys):
    assert main(["construct", "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    assert "max residual" in out
    assert (tmp_path / "d" / "final.svg").exists()
    assert (tmp_path / "d" / "residuals.txt").exists()
    assert len(list((tmp_path / "d").glob("step_*.svg"))) == 20


def test_cli_construct_matches_golden_digest(tmp_path, capsys):
    # sha256 over sorted file names and bytes, as the benchmark's oracle
    # hashes the 21 plates and residuals.txt; a rerun into the same directory
    # writes over longer files and must leave the same bytes.  Both the
    # built-in script and the committed file the benchmark decodes
    golden = Path(__file__).parents[1] / "perfbench" / "data" / "construct.sha256"
    script = Path(__file__).parents[1] / "perfbench" / "data" / "hendecagon_script.json"

    def digest(out):
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        return h.hexdigest()

    for label, source in (("built_in", []), ("decoded", ["--script", str(script)])):
        out = tmp_path / label
        assert main(["construct", *source, "--out", str(out)]) == 0
        assert digest(out) == golden.read_text().split()[0]
        for path in out.iterdir():
            path.write_bytes(path.read_bytes() + b"junk past the old end\n" * 50)
        assert main(["construct", *source, "--out", str(out)]) == 0
        assert digest(out) == golden.read_text().split()[0]


def test_cli_construct_custom_script(tmp_path, capsys):
    script_path = tmp_path / "script.json"
    script_path.write_text(encode_script(up_to_figure(hendecagon_script(), 7)))
    assert main(["construct", "--script", str(script_path),
                 "--out", str(tmp_path / "e")]) == 0
    assert len(list((tmp_path / "e").glob("step_*.svg"))) == 7


# the config of test_folds' skipped-root test: at its root t = 0 delta is
# parallel to ell, so the solver skips that root with a warning
_DEGENERATE_ROOT_CONFIG = TwoFoldConfig(P=Point(5, 1), Q=Point(1, 0), ell=Line(1, 0, 0),
                                        m=Line(1, -1, -2), n=Line(1, 0, -3))


def _degenerate_root_script_doc():
    """Folds that crease that config on a side-8 sheet centred at (1, 0), then
    the two-fold on it."""
    def fold(moving, target):
        return "single_fold", {"variant": "line_onto_line", "moving": moving, "target": target}

    made = {
        "v": fold("sheet_left", "sheet_right"),              # x = 1
        "h": fold("sheet_bottom", "sheet_top"),              # y = 0
        "Q": ("mark_point", {"l1": "v", "l2": "h"}),         # (1, 0)
        "x_1": fold("sheet_left", "v"),                      # x = -1
        "ell": fold("x_1", "v"),                             # x = 0
        "n": fold("sheet_right", "v"),                       # x = 3
        "y2": fold("h", "sheet_top"),                        # y = 2
        "y1": fold("h", "y2"),                               # y = 1
        "P": ("mark_point", {"l1": "sheet_right", "l2": "y1"}),  # (5, 1)
        "x2": fold("v", "n"),                                # x = 2
        "m0": ("mark_point", {"l1": "x2", "l2": "h"}),       # (2, 0)
        "m1": ("mark_point", {"l1": "n", "l2": "y1"}),       # (3, 1)
        "m": ("crease_segment", {"p": "m0", "q": "m1"}),
    }
    steps = [{"id": f"make_{out}", "kind": kind, "args": args, "outputs": [out],
              "figures": [1]} for out, (kind, args) in made.items()]
    steps.append({"id": "twofold", "kind": "two_fold",
                  "args": {name: name for name in ("P", "Q", "ell", "m", "n")},
                  "outputs": ["gamma", "delta"], "figures": [2]})
    return {"format": "fold-script", "version": 1,
            "frame": {"center": ["1", "0"], "side": "8"}, "steps": steps}


@pytest.mark.parametrize("command", ["construct", "solve"])
def test_a_skipped_root_is_one_warning_line_in_a_real_process(tmp_path, command):
    if command == "construct":
        path = tmp_path / "script.json"
        path.write_text(json.dumps(_degenerate_root_script_doc()))
        argv = ["construct", "--script", str(path), "--out", str(tmp_path / "out")]
    else:
        path = tmp_path / "config.json"
        path.write_text(encode_two_fold_config(_DEGENERATE_ROOT_CONFIG))
        argv = ["solve", "--config", str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(hendecafold.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "hendecafold.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "UserWarning" not in done.stderr and "Traceback" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("warning: skipping degenerate fold parameter t=0.0")


def test_cli_construct_byte_deterministic(tmp_path):
    main(["construct", "--out", str(tmp_path / "a")])
    main(["construct", "--out", str(tmp_path / "b")])
    for left in sorted((tmp_path / "a").glob("*.svg")):
        right = tmp_path / "b" / left.name
        assert left.read_bytes() == right.read_bytes()


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2


def test_cli_verify_reports_six_of_seven(capsys):
    # the stated gamma check cannot hold and is reported as FAIL, not hidden
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 6
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL gamma_parameterization_identity:")
    assert lines[-1] == "6/7 criteria passed"


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_cli_verify_prints_its_golden_report(monkeypatch, capsys, cpus):
    # the whole report, in-process on one CPU and with the oracle scans
    # shared by the parent and one or two forked workers; every detail,
    # scan-backed or not, is pinned byte for byte
    from hendecafold import verification
    monkeypatch.setattr(verification, "_usable_cpus", lambda: cpus)
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == (DATA / "verify.txt").read_text()


def _dying_in_a_worker(scan):
    """`scan`, except that in a forked worker it kills the process."""
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return scan(*args)
    return dying


def _fork_failing_at(call):
    """An os.fork that works until its `call`-th use, which fails with EAGAIN."""
    fork, calls = os.fork, []

    def flaky():
        calls.append(None)
        if len(calls) >= call:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()
    return flaky


@pytest.mark.parametrize("failure", ["first_fork", "second_fork", "worker_dies"])
def test_cli_verify_pool_failure_is_one_line_exit_1(monkeypatch, capsys, failure):
    from hendecafold import verification
    # three CPUs: the parent and two forked workers, so a second fork is made
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 3)
    if failure == "worker_dies":
        # every kind of scan dies in a worker, never in the parent, so the
        # first scan a worker takes kills it
        for name in ("reflection_suite", "sign_scan_root_count",
                     "oracle_count_point_onto_line_through_point",
                     "oracle_count_two_points_onto_two_lines"):
            monkeypatch.setattr(verification, name,
                                _dying_in_a_worker(getattr(verification, name)))
        message = "terminated abruptly"
    else:
        monkeypatch.setattr(os, "fork", _fork_failing_at(1 if failure == "first_fork" else 2))
        message = "Resource temporarily unavailable"
    assert main(["verify"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err
    # a worker started before the failure is killed and reaped, not left running
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising_in_a_worker():
    """A criterion that raises StepFailed in a forked worker; in the parent
    it takes about 50 ms and passes, so that a worker takes one of
    criteria 1-6."""
    from hendecafold.construction import StepFailed
    from hendecafold.verification import CriterionResult
    parent = os.getpid()

    def criterion():
        if os.getpid() != parent:
            raise StepFailed("fold_ell", math.inf, "planted")
        time.sleep(0.05)
        return CriterionResult("planted", True, "")
    return criterion


@pytest.mark.parametrize("cpus", [2, 3])
def test_cli_verify_criterion_failing_in_a_worker_is_one_line_exit_1(
        monkeypatch, capsys, cpus):
    # the worker's StepFailed comes back pickled and prints the line it
    # prints when a criterion raises it in the process itself
    from hendecafold import verification
    monkeypatch.setattr(verification, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(verification, "ALL_CRITERIA", (_raising_in_a_worker(),) * 6)
    fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    assert main(["verify"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: step 'fold_ell' failed (planted)"]
    assert len(forks) == cpus - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- malformed input exits 2, failing runs exit 1, each with one line ----------

def _script_doc():
    return json.loads(encode_script(hendecagon_script()))


def _config_doc():
    return json.loads(encode_two_fold_config(TwoFoldConfig.hendecagon()))


def _step(doc, step_id):
    return next(s for s in doc["steps"] if s["id"] == step_id)


def _edit_step(step_id, edit):
    def apply(doc):
        edit(_step(doc, step_id))
        return doc
    return apply


def _drop_step(step_id):
    def edit(doc):
        doc["steps"] = [s for s in doc["steps"] if s["id"] != step_id]
        return doc
    return edit


def _edit_config(**changes):
    def edit(doc):
        doc.update(changes)
        return doc
    return edit


def _other_two_fold_root(doc):
    # another root of the quintic gives another polygon; no expectation
    # stops the run, so the polygon checks fail
    for step in doc["steps"]:
        step.pop("expect", None)
        if step["kind"] == "two_fold":
            step["args"]["select"] = 1
    return doc


BAD_INPUTS = [
    # (case, "script" or "config", edit of the document, exit code, message part)
    ("script_not_utf8", "script", lambda doc: b"\xff", 2, "can't decode byte 0xff"),
    ("script_array", "script", lambda doc: [doc], 2, "not a fold-script document"),
    ("config_array", "config", lambda doc: [doc], 2, "not a two-fold-config document"),
    ("missing_frame", "script", lambda doc: {k: v for k, v in doc.items() if k != "frame"},
     2, "missing field 'frame'"),
    ("empty_steps", "script", lambda doc: {**doc, "steps": []},
     2, "steps must be a nonempty list"),
    ("frame_side_huge_exact", "script",
     lambda doc: {**doc, "frame": {**doc["frame"], "side": "1" + "0" * 400}},
     2, "number out of range"),
    # each number fits, the right or bottom edge, center -+ side / 2, does not
    ("frame_right_edge_beyond_float_range", "script",
     lambda doc: {**doc, "frame": {"center": ["1.5e308", "0"], "side": "1e308"}},
     2, "frame edges leave the float range"),
    ("frame_bottom_edge_beyond_float_range_exact", "script",
     lambda doc: {**doc, "frame": {"center": ["0", "-17" + "0" * 307], "side": "1" + "0" * 308}},
     2, "frame edges leave the float range"),
    # json.loads fails on nesting too deep for its parser and on an integer
    # literal over Python's limit of 4,300 digits, not only on bad syntax
    *((f"{kind}_nested_too_deep", kind, lambda doc: b"[" * 100_000,
       2, "not valid structured text")
      for kind in ("script", "config")),
    *((f"{kind}_version_over_the_digit_limit", kind,
       lambda doc: json.dumps(doc).replace('"version": 1', '"version": 1' + "0" * 4999).encode(),
       2, "not valid structured text")
      for kind in ("script", "config")),
    ("missing_variant", "script",
     _edit_step("fold_ell", lambda s: s["args"].pop("variant")),
     2, "unknown single_fold variant None"),
    ("unknown_variant", "script",
     _edit_step("fold_ell", lambda s: s["args"].update(variant="fold_twice")),
     2, "unknown single_fold variant 'fold_twice'"),
    ("unknown_kind", "script",
     _edit_step("mark_center", lambda s: s.update(kind="crumple")),
     2, "unknown step kind 'crumple'"),
    ("figure_zero", "script",
     _edit_step("fold_ell", lambda s: s.update(figures=[0])),
     2, "figures must be a nonempty list of positive integers"),
    # mv is case-sensitive: an unknown value would draw with the crease
    # dashes but the fold colour
    ("mv_not_one_of_three", "script",
     _edit_step("fold_ell", lambda s: s.update(mv="Mountain")),
     2, "mv must be mountain, valley or crease, got 'Mountain'"),
    ("select_string", "script",
     _edit_step("twofold", lambda s: s["args"].update(select="0")),
     2, "select must be a nonnegative integer"),
    ("short_point", "config", _edit_config(P={"point": ["1"]}),
     2, "a point needs a list of 2 numbers"),
    ("config_P_is_line", "config", _edit_config(P={"line": ["1", "0", "0"]}),
     2, "config P must be a point"),
    ("config_P_on_m", "config", _edit_config(P={"point": ["-3/2", "-3"]}),
     2, "P lies on m"),
    # off m by 1e-20 exactly, on m in floats
    ("config_P_on_m_in_floats", "config", _edit_config(
        P={"point": ["100000000000000000001/100000000000000000000", "0"]},
        m={"line": ["1", "0", "-1"]}),
     2, "P lies on m"),
    ("config_huge_exact_number", "config", _edit_config(P={"point": ["1" + "0" * 400, "0"]}),
     2, "number out of range"),
    # each number fits, the line x = -2*10**400 does not
    ("config_line_beyond_float_range", "config",
     _edit_config(n={"line": ["1/1" + "0" * 400, "0", "2"]}),
     2, "line offset leaves the float range"),
    ("wrong_landmark_kind", "script",
     _edit_step("mark_Q", lambda s: s["args"].update(l2="center")),
     1, "step 'mark_Q' failed (landmark 'center' is Point, expected Line)"),
    ("line_onto_itself", "script",
     _edit_step("fold_ell", lambda s: s["args"].update(target="sheet_left")),
     1, "step 'fold_ell' failed (line onto itself"),
    ("rebinds_landmark", "script",
     _edit_step("fold_n", lambda s: s.update(outputs=["ell"])),
     1, "step 'fold_n' failed (rebinds landmark 'ell')"),
    ("dangling_reference", "script", _drop_step("fold_ell"),
     1, "step 'mark_center': unknown landmark 'ell'"),
    ("expect_line_mixed_modes", "script",
     _edit_step("fold_ell", lambda s: s["expect"].update(ell={"line": ["1.0", "0", "0"]})),
     2, "mixed numeric modes"),
    # a script's exact expectations are made as lines too, so decode rejects this
    ("expect_line_beyond_float_range", "script",
     _edit_step("fold_ell", lambda s: s["expect"].update(
         ell={"line": ["1/1" + "0" * 400, "0", "2"]})),
     2, "line offset leaves the float range"),
    ("polygon_checks_fail", "script", _other_two_fold_root,
     1, "error: 2 of 3 polygon checks failed"),
    ("vertices_are_lines", "script",
     lambda doc: {**doc, "steps": [
         {"id": f"bind_{z}", "kind": "crease_segment", "args": {"along": "sheet_left"},
          "outputs": [z], "figures": [1]} for z in VERTEX_IDS]},
     1, "landmark 'z0' is Line, expected Point"),
    ("residuals_txt_is_a_directory", "script", lambda doc: doc,
     1, "cannot write "),
    ("step_03_svg_is_a_directory", "script", lambda doc: doc,
     1, "cannot write diagrams to "),
    # outputs name one landmark each, for every step kind
    ("extra_output", "script",
     _edit_step("mark_Q", lambda s: s.update(outputs=["Q", "center"])),
     1, "step 'mark_Q' failed (2 outputs listed, 1 made)"),
    ("two_fold_three_outputs", "script",
     _edit_step("twofold", lambda s: s.update(outputs=["gamma", "delta", "ghost"])),
     1, "step 'twofold' failed (3 outputs listed, 2 made)"),
]

# (case, kind, --tol value): a tolerance must be finite and positive
BAD_TOLS = [(f"{command}_tol_{tol}", kind, tol)
            for kind, command in (("script", "construct"), ("config", "solve"))
            for tol in ("0", "-1", "nan", "inf")]

BAD_ARGV = [(case, kind, edit, code, message, ()) for case, kind, edit, code, message
            in BAD_INPUTS] + [
    (case, kind, lambda doc: doc, 2, f"argument --tol: must be a positive finite "
     f"number, got '{tol}'", ("--tol", tol)) for case, kind, tol in BAD_TOLS]


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case, kind, edit, code, message, extra", BAD_ARGV,
                         ids=[case[0] for case in BAD_ARGV])
def test_cli_bad_input_is_one_line_and_exit_code(tmp_path, capsys, case, kind,
                                                 edit, code, message, extra):
    doc = edit(_script_doc() if kind == "script" else _config_doc())
    path = tmp_path / f"{case}.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    if case.endswith("_is_a_directory"):
        stem, suffix = case.removesuffix("_is_a_directory").rsplit("_", 1)
        (tmp_path / "out" / f"{stem}.{suffix}").mkdir(parents=True)
    if kind == "script":
        argv = ["construct", "--script", str(path), "--out", str(tmp_path / "out")]
    else:
        argv = ["solve", "--config", str(path)]
    assert _exit_code(argv + list(extra)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err
    if case == "vertices_are_lines":
        # the run fails before any plate is written, the final one included
        assert not list((tmp_path / "out").glob("*.svg"))


# -- what one input may make construct write ----------------------------------

def _crease_script(steps: int) -> str:
    """`steps` creases along the left edge, all in figure 1, in compact JSON."""
    return json.dumps({
        "format": "fold-script", "version": 1,
        "frame": {"center": ["0.0", "-1.0"], "side": "8.0"},
        "steps": [{"id": f"s{k}", "kind": "crease_segment", "args": {"along": "sheet_left"},
                   "outputs": [f"c{k}"], "figures": [1]} for k in range(steps)]},
        separators=(",", ":"))


@pytest.mark.parametrize("over", [0, 1], ids=["at_the_cap", "one_byte_over"])
@pytest.mark.parametrize("command, option", [("construct", "--script"),
                                             ("solve", "--config")])
def test_cli_reads_an_input_file_up_to_the_byte_cap(tmp_path, capsys, command, option, over):
    # a valid document padded with spaces to the cap runs; one byte more is
    # refused before it is decoded, and construct writes nothing
    text = json.dumps(_script_doc() if command == "construct" else _config_doc()).encode()
    path = tmp_path / "input.json"
    path.write_bytes(text + b" " * (scriptio.MAX_INPUT_BYTES - len(text) + over))
    out = tmp_path / "out"
    argv = [command, option, str(path)] + (["--out", str(out)] if command == "construct" else [])
    assert main(argv) == 2 * over
    err = capsys.readouterr().err
    if over:
        [line] = err.splitlines()
        assert line == (f"error: {path} is over the input cap of "
                        f"{scriptio.MAX_INPUT_BYTES} bytes")
        assert not out.exists()
    else:
        assert err == ""


@pytest.mark.parametrize("over", [0, 1], ids=["at_the_cap", "one_step_over"])
def test_cli_runs_a_script_up_to_the_step_cap(tmp_path, capsys, over):
    # every crease is drawn on one plate, so the run at the cap is small
    path = tmp_path / "creases.json"
    path.write_text(_crease_script(scriptio.MAX_STEPS + over))
    assert path.stat().st_size < scriptio.MAX_INPUT_BYTES
    out = tmp_path / "out"
    assert main(["construct", "--script", str(path), "--out", str(out)]) == 2 * over
    captured = capsys.readouterr()
    if over:
        [line] = captured.err.splitlines()
        assert line == (f"error: a script has at most {scriptio.MAX_STEPS} steps, "
                        f"got {scriptio.MAX_STEPS + 1}")
        assert not out.exists()
    else:
        assert f"steps executed: {scriptio.MAX_STEPS}" in captured.out
        assert sorted(p.name for p in out.iterdir()) == ["residuals.txt", "step_01.svg"]


@pytest.mark.parametrize("cap, message", [
    (lambda size: size, None),
    (lambda size: size - 1, "the output passes the cap of"),
    (lambda size: 1000, "the plates pass the output cap of"),
], ids=["at_the_cap", "one_byte_under", "under_the_first_plate"])
def test_cli_construct_writes_up_to_the_output_cap_and_nothing_past_it(
        tmp_path, capsys, monkeypatch, cap, message):
    # measured, not computed: the cap set to the built-in run's own output
    # (21 plates and residuals.txt) lets it all be written; one byte less and
    # nothing is, and a cap below one plate stops emission at that plate
    assert main(["construct", "--out", str(tmp_path / "full")]) == 0
    size = sum(p.stat().st_size for p in (tmp_path / "full").iterdir())
    assert size > 5 * 10**4
    monkeypatch.setattr(render, "MAX_OUTPUT_BYTES", cap(size))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["construct", "--out", str(out)]) == (2 if message else 0)
    err = capsys.readouterr().err
    if message:
        assert err == f"error: {message} {cap(size)} bytes\n"
        assert not out.exists()
    else:
        assert err == "" and sum(p.stat().st_size for p in out.iterdir()) == size


@pytest.mark.parametrize("what", ["missing", "directory"])
@pytest.mark.parametrize("command, option", [("construct", "--script"),
                                             ("solve", "--config")])
def test_cli_unreadable_input_file_is_exit_2(tmp_path, capsys, command, option, what):
    path = tmp_path / "input.json"
    if what == "directory":
        path.mkdir()
    assert main([command, option, str(path), "--tol", "1e-9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(path) in line


# the third n is a prime above classify's cap, which trial division would
# take minutes to factor; the last is above poly's cap, whose coefficients
# would take minutes to sum
@pytest.mark.parametrize("argv", [["classify", "1"], ["poly", "12"],
                                  ["classify", "1000000000000000003"],
                                  ["poly", "1000001"]])
def test_cli_invalid_n_is_one_line_and_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: need ")


# -- a closed stdout ends the run quietly with exit 1 ---------------------------

class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: a write, or only the flush of what
    was buffered, raises BrokenPipeError."""

    def __init__(self, fd, buffered):
        self._fd, self._buffered = fd, buffered

    def fileno(self):
        return self._fd

    def write(self, text):
        if not self._buffered:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(text)

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("buffered", [False, True], ids=["write", "flush"])
@pytest.mark.parametrize("argv", [["poly", "11"], ["classify", "25"], ["solve"],
                                  ["construct", "--out", "{tmp}"]],
                         ids=["poly", "classify", "solve", "construct"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, capsys, monkeypatch, argv,
                                                 buffered):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd, buffered))
        assert main([a.format(tmp=tmp_path / "out") for a in argv]) == 1
        # later writes and the flush at exit go to devnull
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_closed_pipe_in_a_real_process_has_no_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(hendecafold.__file__).parents[1]))
    try:
        done = subprocess.run([sys.executable, "-m", "hendecafold.cli", "poly", "11"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("case", ["polygon_checks_fail", "vertices_are_lines"])
def test_closed_pipe_and_a_failed_run_print_one_line(tmp_path, case):
    # the polygon check prints to a buffered stdout before it fails, so the
    # flush at the end meets the closed pipe after the error line is out;
    # the vertex bound to a line fails before anything is printed
    edit, message = next((edit, message) for name, _, edit, _, message in BAD_INPUTS
                         if name == case)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(edit(_script_doc())))
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(hendecafold.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        done = subprocess.run([sys.executable, "-m", "hendecafold.cli", "construct",
                               "--script", str(script), "--out", str(tmp_path / "out")],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


# -- fuzz: `solve --config` on geometry-aware configs -------------------------

_RATIONALS = st.fractions(-6, 6, max_denominator=4)
# the largest float, the least positive one, and the reach of 10^±300
_EXTREMES = (1.7976931348623157e308, -1.7976931348623157e308, 5e-324, 1e300, -1e300, 1e160)
_LONG_RATIONALS = st.builds(Fraction, st.integers(1 - 10**40, 10**40 - 1),
                            st.integers(1, 10**40 - 1))
_SPECIAL = st.one_of(st.sampled_from(_EXTREMES), _LONG_RATIONALS)
_CONFIG_CASES = ("random", "m_parallel_n", "ell_parallel_n", "ell_is_n",
                 "m_is_n", "ell_is_m", "Q_on_n", "P_on_m")


def _point_on(line, free):
    a, b, c = line
    if b != 0:
        return [free, -(a * free + c) / b]
    return [-c / a, free]


@st.composite
def _two_fold_configs(draw):
    def line():
        return [Fraction(draw(st.integers(-3, 3))), Fraction(draw(st.integers(-3, 3))),
                draw(_RATIONALS)]

    P, Q = [draw(_RATIONALS), draw(_RATIONALS)], [draw(_RATIONALS), draw(_RATIONALS)]
    ell, m, n = line(), line(), line()
    # up to two numbers become a float extreme or a long rational: an
    # exact config's cost grows with its digits, and no size cap bounds it
    for _ in range(draw(st.integers(0, 2))):
        values = draw(st.sampled_from((P, Q, ell, m, n)))
        values[draw(st.integers(0, len(values) - 1))] = draw(_SPECIAL)
    case = draw(st.sampled_from(_CONFIG_CASES))
    if case.endswith("parallel_n"):
        moved = [n[0], n[1], draw(_RATIONALS)]
        ell, m = (moved, m) if case.startswith("ell") else (ell, moved)
    elif case == "ell_is_n":
        ell = list(n)
    elif case == "m_is_n":
        m = list(n)
    elif case == "ell_is_m":
        ell = list(m)
    elif case == "Q_on_n" and any(n[:2]):
        Q = _point_on(n, Q[0])
    elif case == "P_on_m" and any(m[:2]):
        P = _point_on(m, P[0])

    def as_float(v):
        try:
            return repr(float(v))
        except OverflowError:  # beyond the float range: left exact
            return encode_number(v)

    enc = as_float if draw(st.booleans()) else encode_number
    return json.dumps({
        "format": "two-fold-config", "version": 1,
        "P": {"point": [enc(v) for v in P]}, "Q": {"point": [enc(v) for v in Q]},
        "ell": {"line": [enc(v) for v in ell]}, "m": {"line": [enc(v) for v in m]},
        "n": {"line": [enc(v) for v in n]},
    })


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(_two_fold_configs(), st.sampled_from(["1e-9", "1e-6"]))
def test_cli_solve_fuzz_keeps_the_exit_contract(fuzz_dir, text, tol):
    path = fuzz_dir / "config.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--config", str(path), "--tol", tol])
    # a hang, not a slow host: the slowest case seen took a few seconds
    assert time.perf_counter() - start < 60
    assert code in (0, 1, 2)
    err_lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err_lines) == 1 and err_lines[0].startswith("error: "), err_lines
        return
    assert all(line.startswith("warning: ") for line in err_lines), err_lines
    residuals = [float(line.rsplit(":", 1)[1]) for line in out.getvalue().splitlines()
                 if line.startswith("  residual ")]
    assert residuals and max(residuals) <= float(tol)


# -- fuzz: `construct --script` on mutants of the hendecagon script -------------

_BAD_VALUES = (
    None, True, 0, -1, 2.5, "", "nan", "NaN", "inf", "-inf", "1/0", "0/0", "1e999",
    "1" + "0" * 400, "1/" + "1" + "0" * 400, "-1", [], {}, ["0", "0"],
    {"point": ["nan", "0"]}, {"point": ["1/0", "0"]}, {"point": ["0", "-1"]},
    {"line": ["0", "0", "1"]}, {"line": ["0.0", "0.0", "1.0"]},
    {"line": ["1", "0", "0"]}, {"line": ["1.0", "0", "0"]},
    "ell", "n", "center", "sheet_left", "z0",
    "single_fold", "two_fold", "mark_point", "crease_segment", "rotate_length",
    "line_onto_line", "two_points_onto_two_lines", "point_onto_point",
)


def _retyped(value):
    """The same content as another JSON type: a string number as a JSON
    number, a list as an object, anything else wrapped in a list."""
    if isinstance(value, str):
        try:
            return json.loads(value)
        except ValueError:
            return [value]
    if isinstance(value, list):
        return dict(enumerate(value))
    return [value] if not isinstance(value, dict) else list(value.values())


@st.composite
def _script_mutants(draw):
    doc = _script_doc()
    for _ in range(draw(st.integers(1, 3))):
        # walk down from the root, stopping below it with chance 1/5 a level
        parent, node = None, doc
        while isinstance(node, (dict, list)) and node and \
                (parent is None or draw(st.integers(0, 4))):
            parent = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = parent[key]
        if parent is None:
            break
        how = draw(st.sampled_from(["drop", "retype", "replace"]))
        if how == "drop":
            del parent[key]
        elif how == "retype":
            parent[key] = _retyped(node)
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
    return json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(_script_mutants())
def test_cli_construct_fuzz_keeps_the_exit_contract(fuzz_dir, text):
    path = fuzz_dir / "script.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(["construct", "--script", str(path),
                           "--out", str(fuzz_dir / "plates")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        err_lines = err.getvalue().splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("error: "), err_lines
    else:
        assert err.getvalue() == ""
