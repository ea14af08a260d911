import dataclasses
import hashlib
import json
import math
import pickle
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from hendecafold.construction import (
    ConstructionState,
    FoldScript,
    FoldStep,
    Sheet,
    StepFailed,
    UnknownLandmark,
    VERTEX_IDS,
    WrongLandmarkKind,
    expected_vertices,
    hendecagon_script,
    rotate_length,
    run_script,
    verify_hendecagon,
)
from hendecafold import InputError, geometry
from hendecafold.cyclotomic import InvalidN
from hendecafold.geometry import (CoincidentPoints, Line, MixedModes, ParallelLines, Point,
                                  line_through, point_distance)
from hendecafold.render import DiagramSpec, IoFailure, emit_svg
from hendecafold.scriptio import (
    FormatError,
    decode_number,
    decode_script,
    decode_two_fold_config,
    encode_number,
    encode_script,
    encode_two_fold_config,
)
from hendecafold.folds import (SINGLE_FOLDS, DegenerateParameter, DegenerateProblem,
                               NoRealSolutions, TwoFoldConfig, solve_single_fold,
                               solve_two_fold)

T11 = 2 * math.cos(2 * math.pi / 11)


def up_to_figure(script, figure):
    """The script cut to the steps whose first figure is at most `figure`."""
    return replace(script, steps=tuple(s for s in script.steps if min(s.figures) <= figure))


@pytest.fixture(scope="module")
def state():
    return run_script(hendecagon_script())


# -- the built-in script ------------------------------------------------------

def test_script_has_one_two_fold_step():
    script = hendecagon_script()
    two_folds = [s for s in script.steps if s.kind == "two_fold"]
    assert len(two_folds) == 1
    assert set(two_folds[0].figures) == {8, 9}


def test_script_covers_twenty_figures():
    script = hendecagon_script()
    figures = {f for s in script.steps for f in s.figures}
    assert figures == set(range(1, 21))


def test_run_succeeds_within_tolerance(state):
    assert state.max_residual() <= 1e-9
    assert all(value.mode == "float" for value in state.landmarks.values())
    assert len(state.residual_log) > 30


def test_qprime_distance_from_center(state):
    qp = state.landmarks["Qp"]
    center = state.landmarks["center"]
    assert abs(point_distance(qp, center) - 4 * math.cos(2 * math.pi / 11)) < 1e-9


def test_vertex_count_and_values(state):
    vertices = [state.landmarks[v] for v in VERTEX_IDS]
    assert len(vertices) == 11
    for v, e in zip(vertices, expected_vertices(Point(0.0, -1.0), 4.0)):
        assert point_distance(v, e) < 1e-9


def test_truncated_script_yields_frame_configuration(state):
    partial = run_script(up_to_figure(hendecagon_script(), 7))
    marks = partial.landmarks
    assert marks["P"] == Point(-2.5, -3.0)
    assert marks["Q"] == Point(0.0, 1.0)
    assert marks["ell"] == Line(1.0, 0.0, 0.0)
    assert marks["m"] == Line(1.0, 0.0, 1.5)
    assert marks["n"] == Line(0.0, 1.0, 1.0)
    assert "gamma" not in marks and "z0" not in marks
    # prefix invariant: the truncated run is a bit-identical prefix
    for name, value in marks.items():
        assert state.landmarks[name] == value


def test_determinism(state):
    again = run_script(hendecagon_script())
    assert again.landmarks == state.landmarks
    assert again.residual_log == state.residual_log


def test_landmarks_stay_on_sheet(state):
    sheet = state.sheet
    for name, value in state.landmarks.items():
        if isinstance(value, Point):
            assert sheet.contains(value), name


def test_unknown_landmark():
    script = FoldScript(
        steps=(FoldStep(id="bad", kind="mark_point",
                        args={"l1": "nope", "l2": "ell"},
                        outputs=("x",), figures=(1,)),),
        frame=Sheet(center=Point(0.0, -1.0), side=8.0))
    with pytest.raises(UnknownLandmark):
        run_script(script)


def test_violated_expectation_fails_fast():
    script = FoldScript(
        steps=(FoldStep(id="wrong", kind="mark_point",
                        args={"l1": "sheet_left", "l2": "sheet_bottom"},
                        outputs=("corner",), figures=(1,),
                        expect={"corner": Point(0.0, 0.0)}),),
        frame=Sheet(center=Point(0.0, -1.0), side=8.0))
    with pytest.raises(StepFailed) as err:
        run_script(script)
    assert err.value.step_id == "wrong"
    assert err.value.residual > 1.0


def test_rebinding_a_landmark_is_an_error():
    step = FoldStep(id="dup", kind="mark_point",
                    args={"l1": "sheet_left", "l2": "sheet_bottom"},
                    outputs=("sheet_top",), figures=(1,))
    script = FoldScript(steps=(step,), frame=Sheet(center=Point(0.0, -1.0), side=8.0))
    with pytest.raises(ValueError):
        run_script(script)


@pytest.mark.parametrize("step_id, found", [("fold_rotate_A", 2), ("twofold", 5)])
def test_a_negative_select_fails_either_fold_step_alike(step_id, found):
    # decode rejects a negative select; the library API reaches the check
    script = hendecagon_script()
    steps = tuple(replace(s, args={**s.args, "select": -1}) if s.id == step_id else s
                  for s in script.steps)
    with pytest.raises(StepFailed, match=f"wanted solution -1, found {found}") as err:
        run_script(replace(script, steps=steps))
    assert err.value.step_id == step_id


def _exception_cases():
    return [
        StepFailed("fold_ell", math.inf, "planted"),
        StepFailed("fold_ell", 2.5e-3),
        StepFailed("twofold", 0.125, "wanted solution 7, found 5"),
        UnknownLandmark("nope", "bad"),
        UnknownLandmark("nope"),
        WrongLandmarkKind("landmark 'ell' is a Line, not a Point"),
        FormatError("unsupported version 2"),
        InvalidN("n must be odd, got 4"),
        InputError("cannot read script.json"),
        DegenerateProblem("the target lines are parallel"),
        DegenerateParameter("t = 1 is singular"),
        NoRealSolutions("no real root"),
        CoincidentPoints("P and Q coincide"),
        ParallelLines("lines do not meet"),
        MixedModes("exact and float scalars mixed"),
        IoFailure("cannot write diagrams to out/step_01.svg"),
    ]


@pytest.mark.parametrize("exc", _exception_cases(), ids=lambda exc: type(exc).__name__)
def test_every_package_exception_survives_pickling(exc):
    # a verify criterion may raise in a forked worker, which sends the
    # exception back to the parent pickled
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


# -- rotate_length and expected_vertices ---------------------------------------

def test_rotate_length_reaches_next_vertex():
    center = Point(0.0, -1.0)
    verts = expected_vertices(center, 4.0)
    axis = line_through(center, verts[1])
    image = rotate_length(verts[0], axis)
    assert point_distance(image, verts[2]) < 1e-12


def test_rotate_length_fixes_points_on_axis():
    center = Point(0.0, -1.0)
    frm = Point(3.0, -1.0)
    axis = line_through(center, frm)
    assert rotate_length(frm, axis) == frm


def test_rotate_length_preserves_radius():
    center = Point(0.25, -0.5)
    frm = Point(3.0, 1.0)
    axis = line_through(center, Point(-1.0, 2.0))
    image = rotate_length(frm, axis)
    assert abs(point_distance(image, center) - point_distance(frm, center)) < 1e-12


def test_expected_vertices_geometry():
    verts = expected_vertices(Point(0.0, -1.0), 4.0)
    assert verts[0] == Point(4.0, -1.0)
    assert abs(verts[1].x - 4 * math.cos(2 * math.pi / 11)) < 1e-15
    side = 8 * math.sin(math.pi / 11)
    for k in range(11):
        assert abs(point_distance(verts[k], verts[(k + 1) % 11]) - side) < 1e-12
    with pytest.raises(ValueError):
        expected_vertices(Point(0.0, 0.0), 0.0)


# -- verification report --------------------------------------------------------

def test_verify_passes_on_real_run(state):
    report = verify_hendecagon(state, 1e-9)
    assert report.passed


def test_verify_accepts_analytic_vertices():
    landmarks = {"center": Point(0.0, -1.0)}
    for vid, v in zip(VERTEX_IDS, expected_vertices(Point(0.0, -1.0), 4.0)):
        landmarks[vid] = v
    fake = ConstructionState(landmarks=landmarks, residual_log=[],
                             script=hendecagon_script())
    assert verify_hendecagon(fake, 1e-12).passed


def test_verify_detects_perturbed_vertex(state):
    landmarks = dict(state.landmarks)
    bad = landmarks["z3"]
    landmarks["z3"] = Point(bad.x + 1e-6, bad.y)
    fake = ConstructionState(landmarks=landmarks, residual_log=[],
                             script=state.script)
    report = verify_hendecagon(fake, 1e-9)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.passed}
    assert "side_lengths" in failed and "vertex_positions" in failed


@pytest.mark.parametrize("name", ["z4", "center"])
def test_verify_names_a_landmark_that_is_not_a_point(state, name):
    landmarks = dict(state.landmarks, **{name: state.landmarks["ell"]})
    fake = ConstructionState(landmarks=landmarks, residual_log=[],
                             script=state.script)
    with pytest.raises(WrongLandmarkKind, match=f"landmark '{name}' is Line"):
        verify_hendecagon(fake)


def test_verify_needs_all_vertices(state):
    landmarks = {k: v for k, v in state.landmarks.items() if k != "z5"}
    fake = ConstructionState(landmarks=landmarks, residual_log=[],
                             script=state.script)
    with pytest.raises(UnknownLandmark):
        verify_hendecagon(fake)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda state, tol: run_script(hendecagon_script(), tol),
    lambda state, tol: verify_hendecagon(state, tol),
    lambda state, tol: solve_two_fold(TwoFoldConfig.hendecagon(), tol),
], ids=["run_script", "verify_hendecagon", "solve_two_fold"])
def test_a_tol_that_is_not_positive_and_finite_is_refused(state, call, tol):
    # a nan tol would pass every expectation and fail every check
    message = re.escape(f"tol must be positive and finite, got {tol!r}")
    with pytest.raises(ValueError, match=message) as exc:
        call(state, tol)
    assert type(exc.value) is ValueError


# -- serialization ---------------------------------------------------------------

def test_number_roundtrip():
    for value in (Fraction(-5, 2), Fraction(7), 1.5, -0.25, T11, 8.0):
        assert decode_number(encode_number(value)) == value
    assert encode_number(Fraction(-5, 2)) == "-5/2"
    assert encode_number(Fraction(7)) == "7"
    with pytest.raises(FormatError):
        decode_number("abc")


# recorded from the decoder that converted every exact number through float()
@pytest.mark.parametrize("text, kind, value", [
    ("3", Fraction, Fraction(3)),
    ("-3", Fraction, Fraction(-3)),
    (" 3", Fraction, Fraction(3)),
    ("1_0", Fraction, Fraction(10)),
    ("+3/4", Fraction, Fraction(3, 4)),
    ("1/2", Fraction, Fraction(1, 2)),
    ("2.5", float, 2.5),
    ("1e400", None, "number out of range '1e400'"),
    ("inf", None, "unreadable number 'inf'"),
    ("nan", None, "unreadable number 'nan'"),
    ("1/0", None, "unreadable number '1/0'"),
    ("abc", None, "unreadable number 'abc'"),
    ("9" * 400, None, f"number out of range '{'9' * 400}'"),
    ("1/" + "7" * 400, Fraction, Fraction(1, int("7" * 400))),
])
def test_decode_number_table(text, kind, value):
    if kind is None:
        with pytest.raises(FormatError) as err:
            decode_number(text)
        assert str(err.value) == value
    else:
        decoded = decode_number(text)
        assert type(decoded) is kind and decoded == value



# one grammar for p/q on every Python: int()'s digits and underscores on each
# side, the sign on p alone, no space at the "/", space around the whole text
@pytest.mark.parametrize("text, value", [
    ("1_0/3", Fraction(10, 3)),
    (" -1/2\n", Fraction(-1, 2)),
    ("+1_000/2_0", Fraction(50)),
    ("4/6", Fraction(2, 3)),
    ("1 / 2", None),
    ("1 /2", None),
    ("1/ 2", None),
    ("1/+2", None),
    ("1/-2", None),
    ("1__0/3", None),
    ("1_/3", None),
    ("1/_3", None),
    ("1.5/2", None),
    ("/2", None),
    ("1/", None),
    ("-/2", None),
    ("1/2/3", None),
    ("- 1/2", None),
])
def test_decode_number_reads_p_over_q_by_one_grammar(text, value):
    if value is None:
        with pytest.raises(FormatError) as err:
            decode_number(text)
        assert str(err.value) == f"unreadable number {text!r}"
    else:
        decoded = decode_number(text)
        assert type(decoded) is Fraction and decoded == value


def _decode_golden_documents():
    """A seeded stream of two-fold config documents: canonical-family exact,
    tilted exact with non-unit denominators, float with unit-normal lines
    (decoded as stored) and with non-unit lines (canonicalized), and a few
    malformed ones."""
    rng = random.Random(2026)

    def rational(lo, hi, dens=(2, 3, 5, 7, 9, 12)):
        d = rng.choice(dens)
        return Fraction(rng.randint(lo * d, hi * d), d)

    def unit_line():
        angle = rng.uniform(-math.pi / 2, math.pi / 2)
        return math.cos(angle), math.sin(angle), rng.uniform(-5, 5)

    def document(P, Q, ell, m, n):
        point = lambda p: {"point": [encode_number(v) for v in p]}
        line = lambda l: {"line": [encode_number(v) for v in l]}
        return {"format": "two-fold-config", "version": 1, "P": point(P), "Q": point(Q),
                "ell": line(ell), "m": line(m), "n": line(n)}

    docs = []
    for _ in range(80):
        mx = rational(-5, 5, (1, 2, 3, 4, 6, 8))
        P = (rational(-5, 5, (1, 2, 3, 4, 6, 8)), rational(-6, 4, (1, 2, 3, 4, 6, 8)))
        docs.append(document(P, (0, 1), (1, 0, 0), (1, 0, -mx), (0, 1, 1)))
    for _ in range(80):
        values = [rational(-5, 5) for _ in range(13)]
        docs.append(document(values[:2], values[2:4], values[4:7], values[7:10], values[10:]))
    for _ in range(60):
        P, Q = [(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(2)]
        docs.append(document(P, Q, unit_line(), unit_line(), unit_line()))
    for _ in range(60):
        values = [rng.uniform(-5, 5) for _ in range(13)]
        docs.append(document(values[:2], values[2:4], values[4:7], values[7:10], values[10:]))
    breaks = [
        ("m", {"line": ["1", "0.5", "2"]}), ("n", {"line": ["0", "0", "1"]}),
        ("ell", {"line": ["0.0", "0.0", "1.0"]}), ("P", {"point": ["abc", "1"]}),
        ("Q", {"point": ["1e400", "1"]}), ("n", {"line": ["1/1" + "0" * 400, "0", "2"]}),
        ("m", {"line": ["1", "0"]}), ("ell", {"line": ["-0.6", "-0.8", "1.25"]}),
        ("P", {"point": ["0.5", "-1.25"]}),
    ]
    for k, (key, value) in enumerate(breaks * 3):
        doc = json.loads(json.dumps(docs[k * 11 % len(docs)]))
        doc[key] = value
        docs.append(doc)
    for doc in docs[:5]:
        # P on m, x = -m.c: the gamma fold degenerates
        docs.append({**doc, "P": {"point": [encode_number(-Fraction(doc["m"]["line"][2])), "1"]}})
    return [json.dumps(doc) for doc in docs]


def _decode_record(text):
    """One line: each decoded value's repr, mode and float form in hex, or
    the FormatError message."""
    try:
        config = decode_two_fold_config(text)
    except FormatError as exc:
        return f"FormatError: {exc}"
    parts = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        twin = value.to_float()
        bits = " ".join(getattr(twin, g.name).hex() for g in dataclasses.fields(twin))
        parts.append(f"{value!r} {value.mode} {bits}")
    return " | ".join(parts)


def test_decode_two_fold_config_matches_the_golden_digest():
    # every decoded value, its mode and float form, and every message of 312
    # config documents: a faster decode must leave this digest as it is
    lines = [_decode_record(text) for text in _decode_golden_documents()]
    assert 10 < sum(line.startswith("FormatError") for line in lines) < 40
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fec0e56f5a144e70c1e2c93ce4ce6e5974dcc18d2ff9868f1549ee896b99ffb7"

SCRIPT_FILE = Path(__file__).parents[1] / "perfbench" / "data" / "hendecagon_script.json"


def _step_mutations():
    """(field, value or _DROP) single-field edits of a script step: missing
    and wrong-typed required fields, unknown kinds and variants, bad mv and
    select, and expectations that are not a point or a line."""
    drop = object()
    edits = [(key, drop) for key in ("id", "kind", "args", "outputs", "figures")]
    edits += [("id", v) for v in (3, None, ["fold_ell"])]
    edits += [("kind", v) for v in (3, None, ["single_fold"], "fold", "Single_fold", "")]
    edits += [("args", v) for v in ([], "moving", None, 0)]
    edits += [("outputs", v) for v in ("ell", [], [1], None, ["ell", 2], {"ell": 1})]
    edits += [("figures", v) for v in ([0], [1.0], [True], "1", [], None, [-2], [1, "2"])]
    edits += [("annotation", v) for v in (None, 5, ["text"])]
    edits += [("mv", v) for v in ("Mountain", None, 1, "fold", "")]
    edits += [("expect", v) for v in ([], "ell", None)]
    edits += [("args.variant", v) for v in ("line_onto_lines", None, 7, "")]
    edits += [("args.select", v) for v in (-1, 1.0, "0", True, None, 2)]
    edits += [("args.ref", v) for v in (None, 4, ["Q"])]
    edits += [("expect.value", v) for v in (
        {"point": ["1", "2", "3"]}, {"line": ["1", "0"]}, {"circle": ["1"]}, [1, 2],
        {"point": ["0.5", "1"]}, {"line": ["1.0", "0", "0"]}, {"line": ["0", "0", "1"]},
        {"point": ["abc", "1"]}, {"point": ["1e400", "0.0"]}, {"point": [1, 2]},
        {"line": ["1/1" + "0" * 400, "0", "2"]}, {"point": ["1", "2"], "line": ["1", "0", "0"]},
        {"line": ["-0.6", "-0.8", "1.25"]}, {"line": ["0.6", "0.8", "1.25"]},
        {"point": ["3/7", "-2"]}, {"line": ["3", "4", "-5/2"]})]
    return drop, edits


def _decode_script_documents():
    """The committed script and 360 seeded single-field mutants of its steps."""
    rng = random.Random(39)
    base = json.loads(SCRIPT_FILE.read_text())
    drop, edits = _step_mutations()
    docs = [base]
    for _ in range(360):
        doc = json.loads(json.dumps(base))
        step = rng.choice(doc["steps"])
        key, value = rng.choice(edits)
        if key == "args.ref":
            refs = sorted(k for k, v in step["args"].items()
                          if k not in ("variant", "select") and isinstance(v, str))
            step["args"][rng.choice(refs)] = value
        elif key == "expect.value":
            step.setdefault("expect", {})[rng.choice(step["outputs"])] = value
        elif "." in key:
            step["args"][key.split(".")[1]] = value
        elif value is drop:
            step.pop(key)
        else:
            step[key] = value
        docs.append(doc)
    return [json.dumps(doc) for doc in docs]


def _decode_script_record(text):
    """One line: every decoded step's fields, each expectation with its
    mode and float bits in hex, or the FormatError message."""
    try:
        script = decode_script(text)
    except FormatError as exc:
        return f"FormatError: {exc}"
    parts = [repr(script.frame)]
    for step in script.steps:
        expect = [f"{name}={value!r} {value.mode} "
                  + " ".join(getattr(value, f.name).hex() for f in dataclasses.fields(value)
                             if type(getattr(value, f.name)) is float)
                  for name, value in step.expect.items()]
        parts.append(f"{step.id!r} {step.kind!r} {json.dumps(step.args, sort_keys=True)} "
                     f"{step.outputs!r} {step.figures!r} {step.annotation!r} {step.mv!r} "
                     + "; ".join(expect))
    return " | ".join(parts)


def test_decode_script_matches_the_golden_digest():
    # every decoded step, and the message of every refused one, of the
    # committed script and 360 single-field mutants: a leaner step decoder
    # must leave this digest as it is
    lines = [_decode_script_record(text) for text in _decode_script_documents()]
    assert 200 < sum(line.startswith("FormatError") for line in lines) < 340
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e97fac12168219f5e0696cd0c7b73f6c0db60671fcea096b0fd295e002bfa25b"


def test_committed_script_file_is_the_built_in_script():
    # the benchmark decodes this file; it must stay the built-in script
    path = Path(__file__).parents[1] / "perfbench" / "data" / "hendecagon_script.json"
    assert json.loads(path.read_text()) == json.loads(encode_script(hendecagon_script()))


def test_the_script_path_makes_few_lines_and_walks_no_fields(monkeypatch):
    # decoding, running and drawing the committed script once: landmarks
    # keep their float twins, line_defect makes no line, and the step
    # parameters are tables made at import (151 lines and 59 walks before)
    text = SCRIPT_FILE.read_text()

    def once():
        emit_svg(run_script(decode_script(text)), DiagramSpec())

    once()
    lines, walks = [], []
    line_init, fields = Line.__init__, dataclasses.fields

    def counting_init(self, *args):
        lines.append(args)
        line_init(self, *args)

    def counting_fields(*args):
        walks.append(args)
        return fields(*args)

    monkeypatch.setattr(Line, "__init__", counting_init)
    monkeypatch.setattr(dataclasses, "fields", counting_fields)
    for name, module in list(sys.modules.items()):
        if name.startswith("hendecafold") and getattr(module, "fields", None) is fields:
            monkeypatch.setattr(module, "fields", counting_fields)
    once()
    assert 0 < len(lines) <= 70
    assert walks == []


def test_script_roundtrip_lossless():
    script = hendecagon_script()
    text = encode_script(script)
    back = decode_script(text)
    assert back == script
    assert encode_script(back) == text


def test_roundtripped_script_runs_identically(state):
    back = decode_script(encode_script(hendecagon_script()))
    rerun = run_script(back)
    assert rerun.landmarks == state.landmarks


def test_script_format_guards():
    with pytest.raises(FormatError):
        decode_script("{not json")
    with pytest.raises(FormatError):
        decode_script('{"format": "something-else", "version": 1}')
    with pytest.raises(FormatError):
        decode_script('{"format": "fold-script", "version": 99}')


def test_decoded_line_must_not_mix_modes():
    doc = json.loads(encode_script(hendecagon_script()))
    doc["steps"][0]["expect"] = {"ell": {"line": ["1.0", "0", "0"]}}
    with pytest.raises(FormatError, match="mixed numeric modes"):
        decode_script(json.dumps(doc))


def test_two_fold_config_roundtrip():
    config = TwoFoldConfig.hendecagon()
    text = encode_two_fold_config(config)
    assert decode_two_fold_config(text) == config
    with pytest.raises(FormatError):
        decode_two_fold_config('{"format": "fold-script", "version": 1}')


def test_an_exact_config_converts_each_line_to_floats_once(monkeypatch):
    # decode makes each line with its float line; the degeneracy test and
    # the solver read the stored one
    text = encode_two_fold_config(TwoFoldConfig.hendecagon())
    made = []
    float_line = geometry._float_line

    def counting(*triple):
        made.append(triple)
        return float_line(*triple)

    monkeypatch.setattr(geometry, "_float_line", counting)
    assert len(solve_two_fold(decode_two_fold_config(text))) == 5
    assert made == [(1, 0, 0), (2, 0, 3), (0, 1, 1)]


# -- every single-fold variant through the script runner ---------------------

CORNERS = {
    "c_ll": ("sheet_left", "sheet_bottom"),
    "c_lr": ("sheet_right", "sheet_bottom"),
    "c_ur": ("sheet_right", "sheet_top"),
    "c_ul": ("sheet_left", "sheet_top"),
}

VARIANT_ARGS = {
    "through_two_points": {"p": "c_ll", "q": "c_ur"},
    "point_onto_point": {"moving": "c_ll", "target": "c_ur"},
    "line_onto_line": {"moving": "sheet_left", "target": "sheet_bottom"},
    "perpendicular": {"through": "c_ll", "to": "sheet_top"},
    "point_onto_line_through_point": {
        "moving": "c_lr", "target": "sheet_top", "pivot": "c_ul"},
    "two_points_onto_two_lines": {
        "moving1": "c_ll", "target1": "sheet_top",
        "moving2": "c_lr", "target2": "sheet_left"},
    "point_onto_line_perpendicular_to": {
        "moving": "c_ll", "target": "sheet_top", "perpendicular_to": "sheet_left"},
}


def test_variant_args_cover_the_table():
    assert set(VARIANT_ARGS) == set(SINGLE_FOLDS)


@pytest.mark.parametrize("variant", sorted(SINGLE_FOLDS))
def test_runner_solves_every_single_fold_variant(variant):
    frame = Sheet(center=Point(0.0, -1.0), side=8.0)
    corners = tuple(
        FoldStep(id=f"mark_{name}", kind="mark_point", args={"l1": l1, "l2": l2},
                 outputs=(name,), figures=(1,))
        for name, (l1, l2) in CORNERS.items())
    marked = run_script(FoldScript(steps=corners, frame=frame)).landmarks
    refs = VARIANT_ARGS[variant]
    cls, _ = SINGLE_FOLDS[variant]
    expected = solve_single_fold(cls(**{name: marked[ref] for name, ref in refs.items()}))
    assert expected
    outputs = tuple(f"crease{k}" for k in range(len(expected)))
    step = FoldStep(id="fold", kind="single_fold", args={"variant": variant, **refs},
                    outputs=outputs, figures=(2,))
    state = run_script(FoldScript(steps=corners + (step,), frame=frame))
    assert [state.landmarks[out] for out in outputs] == expected
