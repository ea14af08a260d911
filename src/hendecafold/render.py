"""Deterministic SVG diagrams of construction states.

One document per requested figure: the sheet, every landmark visible by that
figure (creases style-coded by their mountain/valley/crease metadata, points
as labeled dots), with the figure's new landmarks highlighted.  A final
document shows the finished polygon.  One pass over the landmark registry
derives each shown landmark's first figure and its markup in both styles,
as drawn in a later figure and as drawn new (highlight colour, 1.8x stroke
and, for a line, its label); each plate selects from those parts.  Output
bytes depend only on the input state and spec: floats are printed with a
fixed format and landmarks are drawn in registry order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .construction import RADIUS, ConstructionState, Sheet, polygon_vertices
from .geometry import Line, Point


def escape(text: str) -> str:
    """XML-escape &, < and > (ampersand first), as xml.sax.saxutils does;
    that module's import pulls in urllib, http, email, ssl and socket."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class IoFailure(OSError):
    """Could not write a diagram to disk."""


# blank border around the sheet, world units
MARGIN = 0.75
STROKE_WIDTH = 0.035
DASHES = {"mountain": "0.45 0.12 0.1 0.12", "valley": "0.3 0.18", "crease": "0.1 0.16"}
CREASE_COLOR = "#8a8a8a"
FOLD_COLOR = "#1f4f8f"
HIGHLIGHT_COLOR = "#c22a1d"
INK_COLOR = "#111111"


@dataclass(frozen=True)
class DiagramSpec:
    """Which figures to draw."""

    figures: tuple = None          # None means every figure plus the final plate


def _fmt(v: float) -> str:
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _viewport(sheet: Sheet) -> tuple:
    return (sheet.xmin - MARGIN, sheet.ymin - MARGIN,
            sheet.xmax + MARGIN, sheet.ymax + MARGIN)


def _clip_line(l: Line, box: tuple):
    """Endpoints of the line clipped to the box, or None if it misses."""
    xmin, ymin, xmax, ymax = box
    pts = []
    if abs(l.b) > 1e-15:
        for x in (xmin, xmax):
            y = -(l.a * x + l.c) / l.b
            if ymin - 1e-9 <= y <= ymax + 1e-9:
                pts.append((x, y))
    if abs(l.a) > 1e-15:
        for y in (ymin, ymax):
            x = -(l.b * y + l.c) / l.a
            if xmin - 1e-9 <= x <= xmax + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if not any(abs(p[0] - q[0]) < 1e-9 and abs(p[1] - q[1]) < 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    uniq.sort()
    return uniq[0], uniq[-1]


def _svg_line(p1, p2, color, width, dash="", cls="") -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    cls_attr = f' class="{cls}"' if cls else ""
    return (f'<line{cls_attr} x1="{_fmt(p1[0])}" y1="{_fmt(-p1[1])}" '
            f'x2="{_fmt(p2[0])}" y2="{_fmt(-p2[1])}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{dash_attr} />')


def _svg_point(p: Point, color: str, label: str) -> list:
    parts = [f'<circle cx="{_fmt(p.x)}" cy="{_fmt(-p.y)}" r="0.07" '
             f'fill="{color}" />']
    if label:
        parts.append(
            f'<text x="{_fmt(p.x + 0.12)}" y="{_fmt(-p.y - 0.12)}" '
            f'font-family="sans-serif" font-size="0.3" fill="{color}">'
            f'{escape(label)}</text>')
    return parts


def _landmark_parts(state: ConstructionState, box: tuple) -> list:
    """(first figure, markup as drawn later, markup as drawn new) for each
    shown landmark, in registry order.

    A step spanning several figures reveals its outputs one per figure in
    order (the simultaneous fold pair is presented as two plates).
    """
    owner = {out: (step, i) for step in state.script.steps
             for i, out in enumerate(step.outputs)}
    parts = []
    for name, value in state.landmarks.items():
        if name not in owner:
            continue
        step, i = owner[name]
        figure = step.figures[min(i, len(step.figures) - 1)]
        if isinstance(value, Point):
            parts.append((figure, _svg_point(value, INK_COLOR, name),
                          _svg_point(value, HIGHLIGHT_COLOR, name)))
            continue
        clipped = _clip_line(value, box)
        ends, cls = clipped, "crease"
        if step.kind == "crease_segment" and "along" not in step.args:
            p, q = (state.landmarks[step.args[k]] for k in "pq")
            ends, cls = ((p.x, p.y), (q.x, q.y)), "side"
        dash = DASHES.get(step.mv, DASHES["crease"])
        color = CREASE_COLOR if step.mv == "crease" else FOLD_COLOR
        later, new = [], []
        if ends:
            later.append(_svg_line(*ends, color, STROKE_WIDTH, dash, cls))
            new.append(_svg_line(*ends, HIGHLIGHT_COLOR, STROKE_WIDTH * 1.8, dash, cls))
        if clipped:
            new.append(_line_label(clipped, name, HIGHLIGHT_COLOR))
        parts.append((figure, later, new))
    return parts


def _line_label(clipped: tuple, name: str, color: str) -> str:
    (x1, y1), (x2, y2) = clipped
    lx, ly = x1 + 0.82 * (x2 - x1), y1 + 0.82 * (y2 - y1)
    return (f'<text x="{_fmt(lx + 0.1)}" y="{_fmt(-ly - 0.1)}" '
            f'font-family="sans-serif" font-size="0.3" font-style="italic" '
            f'fill="{color}">{escape(name)}</text>')


def _sheet_rect(sheet: Sheet) -> str:
    return (f'<rect x="{_fmt(sheet.xmin)}" y="{_fmt(-sheet.ymax)}" '
            f'width="{_fmt(sheet.side)}" height="{_fmt(sheet.side)}" '
            f'fill="#fdfbf4" stroke="#555555" stroke-width="0.04" />')


def _final_doc(state: ConstructionState, vertices: dict, box: tuple) -> str:
    body = [_sheet_rect(state.sheet)]
    points = list(vertices.values())
    for v, w in zip(points, points[1:] + points[:1]):
        body.append(_svg_line((v.x, v.y), (w.x, w.y), INK_COLOR,
                              STROKE_WIDTH * 1.8, cls="side"))
    center = state.landmarks.get("center")
    if isinstance(center, Point):
        body.extend(_svg_point(center, INK_COLOR, "center"))
    for name, v in vertices.items():
        body.extend(_svg_point(v, INK_COLOR, name))
    return _document("Finished polygon", f"The regular hendecagon, radius {RADIUS:g}.",
                     body, box)


def _document(title: str, caption: str, body: list, box: tuple) -> str:
    xmin, ymin, xmax, ymax = box
    width, height = xmax - xmin, ymax - ymin
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width * 56)}" height="{_fmt(height * 56)}" '
        f'viewBox="{_fmt(xmin)} {_fmt(-ymax)} {_fmt(width)} {_fmt(height)}">',
        f'<title>{escape(title)}</title>',
    ]
    if caption:
        head.append(f'<text x="{_fmt(xmin + 0.15)}" y="{_fmt(-ymax + 0.45)}" '
                    f'font-family="sans-serif" font-size="0.26" '
                    f'fill="#333333">{escape(caption)}</text>')
    return "\n".join(head + body + ["</svg>"]) + "\n"


def emit_svg(state: ConstructionState, spec: DiagramSpec = None) -> list:
    """Render diagrams as (name, document) pairs.

    spec.figures selects the plates; None draws every figure that some step
    names plus the final polygon plate (appended whenever the last figure is
    included and the state has vertices; WrongLandmarkKind if one is a line).
    """
    spec = spec or DiagramSpec()
    box = _viewport(state.sheet)
    steps = state.script.steps
    figures = spec.figures
    if figures is None:
        figures = {f for step in steps for f in step.figures}
    parts = _landmark_parts(state, box)
    docs = []
    for figure in sorted(set(figures)):
        body = [_sheet_rect(state.sheet)]
        for first, later, new in parts:
            if first < figure:
                body.extend(later)
            elif first == figure:
                body.extend(new)
        caption = " ".join(s.annotation for s in steps
                           if figure in s.figures and s.annotation)
        docs.append((f"step_{figure:02d}",
                     _document(f"Figure {figure}", caption, body, box)))
    if figures and max(figures) >= state.script.max_figure() and \
            (vertices := polygon_vertices(state)):
        docs.append(("final", _final_doc(state, vertices, box)))
    return docs


def _open_untruncated(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def overwrite_text(path, text: str) -> None:
    """Write text as UTF-8, with the bytes `Path.write_text` writes, over the
    file's old bytes and then cut to the new length.  Opening with O_TRUNC
    instead frees an existing file's blocks, allocates them again and
    starts writeback at close, which costs more than the write."""
    with open(path, "w", encoding="utf-8", opener=_open_untruncated) as f:
        f.write(text)
        f.truncate()


def write_svgs(docs: list, out_dir) -> list:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, text in docs:
            path = out / f"{name}.svg"
            overwrite_text(path, text)
            paths.append(path)
    except OSError as exc:
        raise IoFailure(f"cannot write diagrams to {out}: {exc}") from exc
    return paths
