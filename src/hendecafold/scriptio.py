"""Lossless structured-text serialization of fold scripts and fold configs.

The on-disk format is versioned JSON in which every geometric number is a
string: exact rationals as "p/q" (or a bare integer), floats via repr, which
round-trips exactly.  Points are {"point": [x, y]}, lines {"line": [a, b, c]}.
The same conventions serve both fold-script files and the standalone
two-fold configuration files accepted by the command line.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from fractions import Fraction

from . import InputError
from .construction import FoldScript, FoldStep, Sheet, landmark_params
from .folds import DegenerateProblem, TwoFoldConfig
from .geometry import Line, MixedModes, Point, Scalar

SCRIPT_FORMAT = "fold-script"
CONFIG_FORMAT = "two-fold-config"
FORMAT_VERSION = 1
# 14 times the built-in script's 18.5 KB and 21 times its 48 steps; 1,000
# one-figure creases write 72 MB, under `render.MAX_OUTPUT_BYTES`
MAX_INPUT_BYTES, MAX_STEPS = 256 * 1024, 1000
_CONFIG_FIELDS = tuple((f.name, f.type) for f in fields(TwoFoldConfig))  # (name, Point or Line)


class FormatError(InputError):
    """Malformed or unsupported script/config document."""


def encode_number(value: Scalar) -> str:
    if isinstance(value, float):
        return repr(value)
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def decode_number(text: str) -> Scalar:
    if not isinstance(text, str):
        raise FormatError(f"numbers must be encoded as strings, got {text!r}")
    try:
        if "/" in text:
            # p/q as int() reads each: the sign on p alone, no space at the "/"
            num, _, den = text.strip().partition("/")
            if not (num[-1:].isdecimal() and den[:1].isdecimal()):
                raise ValueError
            value = Fraction(int(num), int(den))
        elif "." in text or "e" in text or "E" in text:
            value = float(text)
        else:
            value = Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"unreadable number {text!r}") from exc
    try:
        # an exact number must convert too: the solvers work in floats
        in_range = math.isfinite(value if type(value) is float
                                 else value.numerator / value.denominator)
    except OverflowError:
        in_range = False
    if not in_range:
        raise FormatError(f"number out of range {text!r}")
    return value


def _numbers(values, count: int, what: str) -> list:
    if not (isinstance(values, list) and len(values) == count):
        raise FormatError(f"{what} needs a list of {count} numbers, got {values!r}")
    return [decode_number(v) for v in values]


def _encode_value(value):
    if isinstance(value, Point):
        return {"point": [encode_number(value.x), encode_number(value.y)]}
    if isinstance(value, Line):
        return {"line": [encode_number(value.a), encode_number(value.b),
                         encode_number(value.c)]}
    raise FormatError(f"cannot encode {value!r}")


def _decode_value(obj):
    if not (isinstance(obj, dict) and len(obj) == 1 and ("point" in obj or "line" in obj)):
        raise FormatError(f"expected a point/line object, got {obj!r}")
    if "point" in obj:
        make, values = Point, _numbers(obj["point"], 2, "a point")
    else:
        make, values = Line.from_canonical, _numbers(obj["line"], 3, "a line")
    try:
        return make(*values)
    except (ValueError, MixedModes) as exc:
        raise FormatError(f"bad {obj!r}: {exc}") from None


def _field(obj: dict, key: str, what: str):
    try:
        return obj[key]
    except KeyError:
        raise FormatError(f"{what} missing field {key!r}") from None


def _step_to_obj(step: FoldStep) -> dict:
    return {
        "id": step.id,
        "kind": step.kind,
        "args": dict(step.args),
        "outputs": list(step.outputs),
        "figures": list(step.figures),
        "annotation": step.annotation,
        "mv": step.mv,
        "expect": {k: _encode_value(v) for k, v in step.expect.items()},
    }


def _step_from_obj(obj) -> FoldStep:
    if not isinstance(obj, dict):
        raise FormatError(f"a step must be an object, got {obj!r}")
    step_id = _field(obj, "id", "step")
    if not isinstance(step_id, str):
        raise FormatError(f"step id must be a string, got {step_id!r}")
    where = f"step {step_id!r}"
    try:
        kind, args, outputs, figures = obj["kind"], obj["args"], obj["outputs"], obj["figures"]
    except KeyError as exc:
        raise FormatError(f"{where} missing field {exc.args[0]!r}") from None
    annotation, mv = obj.get("annotation", ""), obj.get("mv", "crease")
    expect = obj.get("expect", {})
    if not isinstance(args, dict):
        raise FormatError(f"{where}: args must be an object")
    if not (isinstance(outputs, list) and outputs
            and all([isinstance(out, str) for out in outputs])):
        raise FormatError(f"{where}: outputs must be a nonempty list of names")
    if not (isinstance(figures, list) and figures
            and all([type(f) is int and f >= 1 for f in figures])):
        raise FormatError(f"{where}: figures must be a nonempty list of positive integers")
    if not isinstance(annotation, str):
        raise FormatError(f"{where}: annotation must be a string")
    if mv not in ("mountain", "valley", "crease"):
        raise FormatError(f"{where}: mv must be mountain, valley or crease, got {mv!r}")
    if not isinstance(expect, dict):
        raise FormatError(f"{where}: expect must be an object")
    try:
        params = landmark_params(kind, args)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None
    for name in params:
        if not isinstance(args.get(name), str):
            raise FormatError(f"{where}: argument {name!r} must name a landmark")
    select = args.get("select", 0)
    if not (type(select) is int and select >= 0):
        raise FormatError(f"{where}: select must be a nonnegative integer, got {select!r}")
    return FoldStep(
        id=step_id, kind=kind, args=args, outputs=tuple(outputs),
        figures=tuple(figures), annotation=annotation, mv=mv,
        expect={k: _decode_value(v) for k, v in expect.items()},
    )


def _document(text: str, fmt: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer over Python's digit limit, or nesting too deep
        raise FormatError(f"not valid structured text: {exc}") from exc
    if not (isinstance(doc, dict) and doc.get("format") == fmt):
        raise FormatError(f"not a {fmt} document")
    if doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported version {doc.get('version')!r}")
    return doc


def encode_script(script: FoldScript) -> str:
    doc = {
        "format": SCRIPT_FORMAT,
        "version": FORMAT_VERSION,
        "frame": {
            "center": [encode_number(script.frame.center.x),
                       encode_number(script.frame.center.y)],
            "side": encode_number(script.frame.side),
        },
        "steps": [_step_to_obj(s) for s in script.steps],
    }
    return json.dumps(doc, indent=1)


def decode_script(text: str) -> FoldScript:
    doc = _document(text, SCRIPT_FORMAT)
    frame = _field(doc, "frame", "script")
    if not isinstance(frame, dict):
        raise FormatError(f"frame must be an object, got {frame!r}")
    cx, cy = _numbers(_field(frame, "center", "frame"), 2, "frame center")
    side = float(decode_number(_field(frame, "side", "frame")))
    if not side > 0:
        raise FormatError(f"frame side must be positive, got {side!r}")
    sheet = Sheet(center=Point(float(cx), float(cy)), side=side)
    if not all(map(math.isfinite, (sheet.xmin, sheet.xmax, sheet.ymin, sheet.ymax))):
        raise FormatError(f"frame edges leave the float range: {frame!r}")
    steps = _field(doc, "steps", "script")
    if not (isinstance(steps, list) and steps):
        raise FormatError("steps must be a nonempty list")
    if len(steps) > MAX_STEPS:
        raise FormatError(f"a script has at most {MAX_STEPS} steps, got {len(steps)}")
    return FoldScript(steps=tuple(_step_from_obj(o) for o in steps), frame=sheet)


def encode_two_fold_config(config: TwoFoldConfig) -> str:
    doc = {"format": CONFIG_FORMAT, "version": FORMAT_VERSION}
    for name, _ in _CONFIG_FIELDS:
        doc[name] = _encode_value(getattr(config, name))
    return json.dumps(doc, indent=1)


def decode_two_fold_config(text: str) -> TwoFoldConfig:
    doc = _document(text, CONFIG_FORMAT)
    values = {}
    for name, kind in _CONFIG_FIELDS:
        value = _decode_value(_field(doc, name, "config"))
        if not isinstance(value, kind):
            raise FormatError(f"config {name} must be a "
                              f"{kind.__name__.lower()}, got {value!r}")
        values[name] = value
    try:
        return TwoFoldConfig(**values)
    except DegenerateProblem as exc:
        raise FormatError(str(exc)) from None
