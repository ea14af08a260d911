"""Declarative fold-script engine with verified landmark expectations.

A script is an ordered list of steps over a square sheet.  Each step is one
of five kinds (a single-fold alignment, the coupled two-fold operation, a
crease along known geometry, marking an intersection point, or rotating a
length by a reflection fold) and binds its results to named landmarks.
Steps may declare expected landmark values; the runner checks every
declared expectation against the computed value and aborts on the first
violation, so a finished run certifies the whole construction within the
requested tolerance.

The built-in instance, the regular hendecagon of radius 4 centered on its
sheet, is stated once, in the block `SHEET`, `RADIUS`, `VERTEX_IDS`.  Its
script creases the reference frame, runs the two folds that solve the
quintic, transports the cosine length to the first vertex, and walks the
other vertices around the circle by reflections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Mapping, Union

from . import DEFAULT_TOL, _checked_tol
from .folds import (SINGLE_FOLDS, TwoFoldConfig, delta_line, gamma_line_from_t,
                    solve_single_fold, solve_two_fold)
from .geometry import (
    Line,
    Point,
    Scalar,
    intersect,
    line_defect,
    line_through,
    point_distance,
    reflect_point,
)

Landmark = Union[Point, Line]


class StepFailed(ValueError):
    """A step could not be carried out (residual inf) or missed an
    expectation by `residual`."""

    def __init__(self, step_id: str, residual: float, detail: str = ""):
        super().__init__(step_id, residual, detail)
        self.step_id, self.residual, self.detail = step_id, residual, detail

    def __str__(self) -> str:
        if self.residual == math.inf:
            what = "failed"
        else:
            what = f"missed an expectation by {self.residual:.3e}"
        return f"step {self.step_id!r} {what}" + (f" ({self.detail})" if self.detail else "")


class WrongLandmarkKind(TypeError, ValueError):
    """A landmark is a Point where a Line is needed, or the other way round."""


class UnknownLandmark(KeyError, ValueError):
    """A step referenced a landmark that no earlier step produced."""

    def __init__(self, ref: str, step_id: str = None):
        super().__init__(ref)
        self.ref = ref
        self.step_id = step_id

    def __str__(self) -> str:
        where = f"step {self.step_id!r}: " if self.step_id else ""
        return f"{where}unknown landmark {self.ref!r}"


# how far outside its edges a point still counts as on the sheet
_SHEET_SLACK = 1e-9


@dataclass(frozen=True)
class Sheet:
    """The paper square: center point and side length, float units."""

    center: Point
    side: float

    @property
    def xmin(self) -> float:
        return self.center.x - self.side / 2

    @property
    def xmax(self) -> float:
        return self.center.x + self.side / 2

    @property
    def ymin(self) -> float:
        return self.center.y - self.side / 2

    @property
    def ymax(self) -> float:
        return self.center.y + self.side / 2

    def edge_lines(self) -> dict:
        return {
            "sheet_left": Line(1.0, 0.0, -self.xmin),
            "sheet_right": Line(1.0, 0.0, -self.xmax),
            "sheet_bottom": Line(0.0, 1.0, -self.ymin),
            "sheet_top": Line(0.0, 1.0, -self.ymax),
        }

    def contains(self, p: Point) -> bool:
        return (self.xmin - _SHEET_SLACK <= p.x <= self.xmax + _SHEET_SLACK
                and self.ymin - _SHEET_SLACK <= p.y <= self.ymax + _SHEET_SLACK)


@dataclass(frozen=True)
class FoldStep:
    """One script step.

    kind is one of single_fold / two_fold / crease_segment / mark_point /
    rotate_length; args holds the kind-specific landmark references (and,
    for single folds, the alignment variant and optional solution index).
    mv is display metadata: mountain, valley or crease.
    """

    id: str
    kind: str
    args: Mapping
    outputs: tuple
    figures: tuple
    annotation: str = ""
    mv: str = "crease"
    expect: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class FoldScript:
    steps: tuple
    frame: Sheet

    def max_figure(self) -> int:
        return max(f for s in self.steps for f in s.figures)


@dataclass
class ConstructionState:
    """Landmark registry after a run; treat as immutable once returned."""

    landmarks: dict
    residual_log: list
    script: FoldScript

    @property
    def sheet(self) -> Sheet:
        return self.script.frame

    def max_residual(self) -> float:
        return max((r for _, r in self.residual_log), default=0.0)


def rotate_length(frm: Point, fold_axis: Line) -> Point:
    """Carry a length by folding: reflect `frm` across the crease.

    A crease through a center (as in every script use) preserves the
    distance from that center, which is what transports a radius to the
    next polygon vertex.
    """
    return reflect_point(frm, fold_axis)


def expected_vertices(center: Point, radius: Scalar) -> list:
    """Analytic vertices of the regular hendecagon, counterclockwise."""
    if not float(radius) > 0:
        raise ValueError("radius must be positive")
    cx, cy, r = float(center.x), float(center.y), float(radius)
    return [
        Point(cx + r * math.cos(2 * math.pi * k / SIDES),
              cy + r * math.sin(2 * math.pi * k / SIDES))
        for k in range(SIDES)
    ]


def polygon_vertices(state: ConstructionState) -> dict | None:
    """Vertex id -> Point, or None if one is unbound (WrongLandmarkKind if a line)."""
    if all(v in state.landmarks for v in VERTEX_IDS):
        return {v: _resolve(state.landmarks, None, v, Point) for v in VERTEX_IDS}
    return None


def _params(cls) -> Mapping:
    return MappingProxyType({f.name: f.type for f in fields(cls)})


# the tables `landmark_params` returns, made once at import
_VARIANT_PARAMS = {variant: _params(cls) for variant, (cls, _) in SINGLE_FOLDS.items()}
_KIND_PARAMS = {"two_fold": _params(TwoFoldConfig),
                "mark_point": MappingProxyType({"l1": Line, "l2": Line}),
                "rotate_length": MappingProxyType({"center": Point, "frm": Point, "axis": Line})}
_ALONG, _ENDS = MappingProxyType({"along": Line}), MappingProxyType({"p": Point, "q": Point})


def landmark_params(kind: str, args: Mapping) -> Mapping:
    """The landmark arguments a step reads: argument name -> Point or Line,
    as a read-only table shared by every step of that kind and variant.

    Raises ValueError for an unknown step kind or single-fold variant.
    """
    if kind == "single_fold":
        variant = args.get("variant")
        if not isinstance(variant, str) or variant not in _VARIANT_PARAMS:
            raise ValueError(f"unknown single_fold variant {variant!r}")
        return _VARIANT_PARAMS[variant]
    if kind == "crease_segment":
        return _ALONG if "along" in args else _ENDS
    if isinstance(kind, str) and kind in _KIND_PARAMS:
        return _KIND_PARAMS[kind]
    raise ValueError(f"unknown step kind {kind!r}")


def _resolve(landmarks: dict, step_id: str, ref: str, want: type) -> Landmark:
    try:
        value = landmarks[ref]
    except KeyError:
        raise UnknownLandmark(ref, step_id) from None
    if not isinstance(value, want):
        raise WrongLandmarkKind(f"landmark {ref!r} is {type(value).__name__}, "
                                f"expected {want.__name__}")
    return value


def _selected(step: FoldStep, found: list):
    """The solution that the step's `select` (default 0) names."""
    select = step.args.get("select", 0)
    if not 0 <= select < len(found):
        raise StepFailed(step.id, math.inf, f"wanted solution {select}, found {len(found)}")
    return found[select]


def _execute_step(step: FoldStep, landmarks: dict, tol: float) -> list:
    kind, args = step.kind, step.args
    refs = {name: _resolve(landmarks, step.id, args[name], want)
            for name, want in landmark_params(kind, args).items()}
    if kind == "single_fold":
        cls, _ = SINGLE_FOLDS[args["variant"]]
        folds = solve_single_fold(cls(**refs))
        return folds if args.get("select") is None else [_selected(step, folds)]
    if kind == "two_fold":
        chosen = _selected(step, solve_two_fold(TwoFoldConfig(**refs), tol))
        return [chosen.gamma, chosen.delta]
    if kind == "mark_point":
        return [intersect(refs["l1"], refs["l2"])]
    if kind == "crease_segment":
        if "along" in refs:
            return [refs["along"]]
        return [line_through(refs["p"], refs["q"])]
    # rotate_length
    center, frm = refs["center"], refs["frm"]
    image = rotate_length(frm, refs["axis"])
    drift = abs(point_distance(image, center) - point_distance(frm, center))
    if drift > tol:
        raise StepFailed(step.id, drift, "rotation changed the radius")
    return [image]


def _expectation_residual(value: Landmark, expected: Landmark) -> float:
    if isinstance(value, Point) and isinstance(expected, Point):
        return point_distance(value.to_float(), expected.to_float())
    if isinstance(value, Line) and isinstance(expected, Line):
        return line_defect(value, expected)
    raise TypeError(f"cannot compare {value!r} with {expected!r}")


def run_script(script: FoldScript, tol: float = DEFAULT_TOL) -> ConstructionState:
    """Execute every step in order, checking declared expectations.

    Raises UnknownLandmark on a dangling reference and StepFailed on any
    other failing step: an expectation missed beyond tol, a wrong-kind
    landmark, a degenerate fold, a rebound landmark or outputs of the wrong
    length.  Landmarks are float mode and never overwritten, so a truncated
    script yields a prefix of the full run's registry, bit for bit.
    """
    _checked_tol(tol)
    landmarks = dict(script.frame.edge_lines())
    residual_log = []
    for step in script.steps:
        try:
            produced = _execute_step(step, landmarks, tol)
            if len(produced) != len(step.outputs):
                raise StepFailed(step.id, math.inf, f"{len(step.outputs)} outputs "
                                 f"listed, {len(produced)} made")
            for out_id, value in zip(step.outputs, produced):
                if out_id in landmarks:
                    raise StepFailed(step.id, math.inf, f"rebinds landmark {out_id!r}")
                landmarks[out_id] = value
            for out_id, expected in step.expect.items():
                if out_id not in landmarks:
                    raise UnknownLandmark(out_id, step.id)
                residual = _expectation_residual(landmarks[out_id], expected)
                residual_log.append((f"{step.id}/{out_id}", residual))
                if residual > tol:
                    raise StepFailed(step.id, residual, f"landmark {out_id!r}")
        except (StepFailed, UnknownLandmark):
            raise
        except (TypeError, ValueError) as exc:
            # a landmark of the wrong kind or a degenerate fold
            raise StepFailed(step.id, math.inf, str(exc)) from exc
    return ConstructionState(landmarks=landmarks, residual_log=residual_log,
                             script=script)


# ----------------------------------------------------------------------
# The built-in instance, the radius-4 hendecagon, and its script
# ----------------------------------------------------------------------

SHEET = Sheet(center=Point(0.0, -1.0), side=8.0)
RADIUS = 4.0
VERTEX_IDS = tuple(f"z{k}" for k in range(11))
SIDES = len(VERTEX_IDS)


def hendecagon_script() -> FoldScript:
    """The twenty-figure construction of the regular hendecagon.

    Figures 1..7 crease the frame landmarks (the two reference axes, Q, m
    and P), figures 8..9 are the simultaneous two-fold solve, figures 10..11
    transport the solved cosine to the vertical vertex guide, 12..14 rotate
    the radius onto the first two vertices, 15..19 walk the remaining
    vertices around the circle, and figure 20 creases the eleven sides.
    Every named landmark carries its analytic expected value.
    """
    t = 2 * math.cos(2 * math.pi / SIDES)
    verts = expected_vertices(SHEET.center, RADIUS)
    frame = TwoFoldConfig.hendecagon()
    steps = []

    def add(step_id, kind, args, outputs, figures, ann="", mv="crease", expect=None):
        steps.append(FoldStep(
            id=step_id, kind=kind, args=args, outputs=tuple(outputs),
            figures=tuple(figures), annotation=ann, mv=mv,
            expect=dict(expect or {})))

    add("fold_ell", "single_fold",
        {"variant": "line_onto_line", "moving": "sheet_left", "target": "sheet_right"},
        ["ell"], [1], "Fold the left edge onto the right edge: vertical axis.",
        "valley", {"ell": frame.ell.to_float()})
    add("fold_n", "single_fold",
        {"variant": "line_onto_line", "moving": "sheet_bottom", "target": "sheet_top"},
        ["n"], [1], "Fold the bottom edge onto the top edge: horizontal axis.",
        "valley", {"n": frame.n.to_float()})
    add("mark_center", "mark_point", {"l1": "ell", "l2": "n"},
        ["center"], [1], "The crease intersection is the paper center.",
        expect={"center": SHEET.center})

    add("fold_left_half", "single_fold",
        {"variant": "line_onto_line", "moving": "sheet_left", "target": "ell"},
        ["crease_left_half"], [2], "Fold the left edge onto the vertical axis.",
        expect={"crease_left_half": Line(1.0, 0.0, 2.0)})

    add("fold_top_half", "single_fold",
        {"variant": "line_onto_line", "moving": "sheet_top", "target": "n"},
        ["crease_top_half"], [3], "Fold the top edge onto the horizontal axis.",
        expect={"crease_top_half": Line(0.0, 1.0, -1.0)})
    add("mark_Q", "mark_point", {"l1": "crease_top_half", "l2": "ell"},
        ["Q"], [3], "The crease meets the vertical axis at Q.",
        expect={"Q": frame.Q.to_float()})

    add("fold_left_34", "single_fold",
        {"variant": "line_onto_line", "moving": "sheet_left", "target": "crease_left_half"},
        ["crease_left_34"], [4], "Fold the left edge onto the previous crease.",
        expect={"crease_left_34": Line(1.0, 0.0, 3.0)})

    add("fold_m_position", "single_fold",
        {"variant": "line_onto_line", "moving": "crease_left_34", "target": "ell"},
        ["crease_m_prelim"], [5],
        "A short crease at the bottom marks where line m will lie.",
        expect={"crease_m_prelim": frame.m.to_float()})

    add("mark_m", "crease_segment", {"along": "crease_m_prelim"},
        ["m"], [6], "Fold the paper backwards along the mark: line m.",
        "mountain", {"m": frame.m.to_float()})

    add("fold_bottom_half", "single_fold",
        {"variant": "line_onto_line", "moving": "sheet_bottom", "target": "n"},
        ["crease_bottom_half"], [7], "Fold the bottom edge onto the horizontal axis.",
        expect={"crease_bottom_half": Line(0.0, 1.0, 3.0)})
    add("fold_p_vertical", "single_fold",
        {"variant": "line_onto_line", "moving": "crease_left_half",
         "target": "crease_left_34"},
        ["crease_p_vertical"], [7], "Fold one quarter crease onto the other.",
        expect={"crease_p_vertical": Line(1.0, 0.0, 2.5)})
    add("mark_P", "mark_point",
        {"l1": "crease_p_vertical", "l2": "crease_bottom_half"},
        ["P"], [7], "The crease intersection defines P.",
        expect={"P": frame.P.to_float()})

    add("twofold", "two_fold",
        {"P": "P", "Q": "Q", "ell": "ell", "m": "m", "n": "n", "select": 0},
        ["gamma", "delta"], [8, 9],
        "Fold simultaneously: gamma carries P onto m while delta carries "
        "Q onto n and lays the vertical axis onto gamma.",
        "valley",
        {"gamma": gamma_line_from_t(t), "delta": delta_line(t)})

    add("fold_horizontal_mid", "single_fold",
        {"variant": "line_onto_line", "moving": "crease_top_half", "target": "n"},
        ["midline_horizontal"], [10], "Crease the horizontal through R.",
        expect={"midline_horizontal": Line(0.0, 1.0, 0.0)})
    add("mark_R", "mark_point", {"l1": "delta", "l2": "midline_horizontal"},
        ["R"], [10], "Delta crosses the horizontal midline at R.",
        expect={"R": Point(t, 0.0)})
    add("mark_Qp", "rotate_length", {"center": "R", "frm": "Q", "axis": "delta"},
        ["Qp"], [10], "Refolding along delta carries Q onto Q'.",
        expect={"Qp": Point(2.0 * t, -1.0)})

    add("fold_vertical_Qp", "single_fold",
        {"variant": "perpendicular", "through": "Qp", "to": "n"},
        ["vertex_guide"], [11], "Fold the vertical line through Q'.",
        expect={"vertex_guide": Line(1.0, 0.0, -2.0 * t)})
    add("mark_A", "mark_point", {"l1": "n", "l2": "sheet_right"},
        ["z0"], [11], "Point A on the right edge is adopted as the first vertex.",
        expect={"z0": verts[0]})

    add("fold_rotate_A", "single_fold",
        {"variant": "point_onto_line_through_point",
         "moving": "z0", "target": "vertex_guide", "pivot": "center"},
        ["rot_up", "rot_dn"], [12, 13],
        "Fold through the center placing A onto the vertical guide; "
        f"both creases rotate the {RADIUS:g}-unit radius.")

    add("mark_z1", "rotate_length",
        {"center": "center", "frm": "z0", "axis": "rot_up"},
        ["z1"], [14], "The upward rotation lands on vertex D.",
        expect={"z1": verts[1]})
    add("mark_z10", "rotate_length",
        {"center": "center", "frm": "z0", "axis": "rot_dn"},
        ["z10"], [14], "The downward rotation lands on the mirror vertex.",
        expect={"z10": verts[10]})

    chain = [
        # (figure, axis id, through vertex, rotated vertex, new vertex)
        (15, "axis1", "z1", "z0", "z2"),
        (16, "axis2", "z2", "z1", "z3"),
        (16, "axis10", "z10", "z0", "z9"),
        (17, "axis3", "z3", "z2", "z4"),
        (17, "axis9", "z9", "z10", "z8"),
        (18, "axis4", "z4", "z3", "z5"),
        (18, "axis8", "z8", "z9", "z7"),
        (19, "axis7", "z7", "z8", "z6"),
    ]
    for figure, axis_id, through, frm, new in chain:
        add(f"crease_{axis_id}", "single_fold",
            {"variant": "through_two_points", "p": "center", "q": through},
            [axis_id], [figure], f"Crease the radius through {through}.")
        add(f"mark_{new}", "rotate_length",
            {"center": "center", "frm": frm, "axis": axis_id},
            [new], [figure], f"Rotate {frm} across the radius to {new}.",
            expect={new: verts[int(new[1:])]})

    for k in range(SIDES):
        a, b = VERTEX_IDS[k], VERTEX_IDS[(k + 1) % SIDES]
        add(f"crease_side_{k}", "crease_segment", {"p": a, "q": b},
            [f"side_{k}"], [20], f"Fold the side {a}-{b}.", "mountain",
            expect={f"side_{k}": line_through(verts[k], verts[(k + 1) % SIDES])})

    return FoldScript(steps=tuple(steps), frame=SHEET)


# ----------------------------------------------------------------------
# Verification against the analytic polygon
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_hendecagon(state: ConstructionState, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the constructed polygon against the analytic one of `RADIUS`.

    Verifies vertex positions, the side lengths against the chord
    2 * r * sin(pi / SIDES), and every radius.  Raises UnknownLandmark for a
    missing vertex and WrongLandmarkKind for a vertex or center that is not
    a point.
    """
    _checked_tol(tol)
    center = _resolve(state.landmarks, None, "center", Point) \
        if "center" in state.landmarks else state.sheet.center
    vertices = [_resolve(state.landmarks, None, v, Point) for v in VERTEX_IDS]

    expected = expected_vertices(center, RADIUS)
    vertex_worst = max(point_distance(v, e) for v, e in zip(vertices, expected))

    side = 2 * RADIUS * math.sin(math.pi / SIDES)
    side_worst = max(abs(point_distance(v, w) - side)
                     for v, w in zip(vertices, vertices[1:] + vertices[:1]))

    radius_worst = max(abs(point_distance(v, center) - RADIUS) for v in vertices)

    checks = (
        CheckResult("vertex_positions", vertex_worst <= tol, vertex_worst, tol),
        CheckResult("side_lengths", side_worst <= tol, side_worst, tol),
        CheckResult("radii", radius_worst <= tol, radius_worst, tol),
    )
    return VerificationReport(checks=checks)
