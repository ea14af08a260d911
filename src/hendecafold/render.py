"""Deterministic SVG diagrams of construction states.

One document per requested figure: the sheet, every landmark visible by that
figure (creases style-coded by their mountain/valley/crease metadata, points
as labeled dots), with the figure's new landmarks highlighted.  A final
document shows the finished polygon.  One pass over the landmark registry
formats each shown landmark once and derives its first figure and its markup
in both styles, as drawn in a later figure and as drawn new (highlight
colour, 1.8x stroke and, for a line, its label); each plate concatenates
those parts, each led by its newline, below a head and sheet formatted once
per call.  Output bytes depend only on the input state and spec: floats are
printed with a fixed format and landmarks are drawn in registry order.
Files are written as UTF-8 bytes with `\n` line ends on every platform.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from . import InputError
from .construction import RADIUS, ConstructionState, Sheet, polygon_vertices
from .geometry import Line, Point


def escape(text: str) -> str:
    """XML-escape &, < and > (ampersand first), as xml.sax.saxutils does;
    that module's import pulls in urllib, http, email, ssl and socket."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class IoFailure(OSError):
    """Could not write a diagram to disk."""


# what `construct` may write for one script, plates and residuals.txt together
MAX_OUTPUT_BYTES = 100_000_000


def _utf8_size(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode())


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


# a crease's stroke width as drawn later and as drawn new
_WIDTH, _BOLD = _fmt(STROKE_WIDTH), _fmt(STROKE_WIDTH * 1.8)


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


def _svg_line(ends: tuple, cls: str, dash: str, styles: tuple) -> list:
    """The line's markup in each (colour, formatted width) style."""
    (x1, y1), (x2, y2) = ends
    cls_attr = f' class="{cls}"' if cls else ""
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    head = (f'\n<line{cls_attr} x1="{_fmt(x1)}" y1="{_fmt(-y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(-y2)}" stroke="')
    return [f'{head}{color}" stroke-width="{width}"{dash_attr} />'
            for color, width in styles]


def _svg_point(p: Point, label: str, colors: tuple) -> list:
    """The labeled dot's markup in each colour."""
    dot = f'\n<circle cx="{_fmt(p.x)}" cy="{_fmt(-p.y)}" r="0.07" fill="'
    if not label:
        return [f'{dot}{color}" />' for color in colors]
    text = (f'<text x="{_fmt(p.x + 0.12)}" y="{_fmt(-p.y - 0.12)}" '
            f'font-family="sans-serif" font-size="0.3" fill="')
    label = escape(label)
    return [f'{dot}{color}" />\n{text}{color}">{label}</text>' for color in colors]


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
            parts.append((figure, *_svg_point(value, name, (INK_COLOR, HIGHLIGHT_COLOR))))
            continue
        clipped = _clip_line(value, box)
        ends, cls = clipped, "crease"
        if step.kind == "crease_segment" and "along" not in step.args:
            p, q = (state.landmarks[step.args[k]] for k in "pq")
            ends, cls = ((p.x, p.y), (q.x, q.y)), "side"
        dash = DASHES.get(step.mv, DASHES["crease"])
        color = CREASE_COLOR if step.mv == "crease" else FOLD_COLOR
        later, new = _svg_line(ends, cls, dash, ((color, _WIDTH), (HIGHLIGHT_COLOR, _BOLD))) \
            if ends else ("", "")
        if clipped:
            new += _line_label(clipped, name)
        parts.append((figure, later, new))
    return parts


def _line_label(clipped: tuple, name: str) -> str:
    (x1, y1), (x2, y2) = clipped
    lx, ly = x1 + 0.82 * (x2 - x1), y1 + 0.82 * (y2 - y1)
    return (f'\n<text x="{_fmt(lx + 0.1)}" y="{_fmt(-ly - 0.1)}" '
            f'font-family="sans-serif" font-size="0.3" font-style="italic" '
            f'fill="{HIGHLIGHT_COLOR}">{escape(name)}</text>')


def _frame(sheet: Sheet, box: tuple) -> tuple:
    """The markup every plate shares: the head up to the title's text, the
    caption's <text> open tag and the sheet."""
    xmin, ymin, xmax, ymax = box
    width, height = xmax - xmin, ymax - ymin
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width * 56)}" height="{_fmt(height * 56)}" '
            f'viewBox="{_fmt(xmin)} {_fmt(-ymax)} {_fmt(width)} {_fmt(height)}">\n'
            '<title>')
    caption = (f'<text x="{_fmt(xmin + 0.15)}" y="{_fmt(-ymax + 0.45)}" '
               f'font-family="sans-serif" font-size="0.26" fill="#333333">')
    rect = (f'<rect x="{_fmt(sheet.xmin)}" y="{_fmt(-sheet.ymax)}" '
            f'width="{_fmt(sheet.side)}" height="{_fmt(sheet.side)}" '
            f'fill="#fdfbf4" stroke="#555555" stroke-width="0.04" />')
    return head, caption, rect


def _document(frame: tuple, title: str, caption: str, body: str) -> str:
    head, caption_tag, rect = frame
    if caption:
        caption = f"\n{caption_tag}{escape(caption)}</text>"
    return f"{head}{escape(title)}</title>{caption}\n{rect}{body}\n</svg>\n"


def _final_doc(state: ConstructionState, vertices: dict, frame: tuple) -> str:
    body = []
    points = list(vertices.values())
    for v, w in zip(points, points[1:] + points[:1]):
        body += _svg_line(((v.x, v.y), (w.x, w.y)), "side", "", ((INK_COLOR, _BOLD),))
    center = state.landmarks.get("center")
    if isinstance(center, Point):
        body += _svg_point(center, "center", (INK_COLOR,))
    for name, v in vertices.items():
        body += _svg_point(v, name, (INK_COLOR,))
    return _document(frame, "Finished polygon",
                     f"The regular hendecagon, radius {RADIUS:g}.", "".join(body))


def emit_svg(state: ConstructionState, spec: DiagramSpec = None) -> list:
    """Render diagrams as (name, document) pairs.

    spec.figures selects the plates; None draws every figure that some step
    names plus the final polygon plate (appended whenever the last figure is
    included and the state has vertices; WrongLandmarkKind if one is a line).
    Raises InputError once the plates made so far pass MAX_OUTPUT_BYTES.
    """
    spec = spec or DiagramSpec()
    box = _viewport(state.sheet)
    steps = state.script.steps
    figures = spec.figures
    if figures is None:
        figures = {f for step in steps for f in step.figures}
    captions = {figure: [] for figure in sorted(set(figures))}
    for step in steps:
        if step.annotation:
            for figure in set(step.figures):
                if figure in captions:
                    captions[figure].append(step.annotation)
    frame = _frame(state.sheet, box)
    parts = _landmark_parts(state, box)
    docs, size = [], 0
    for figure, caption in captions.items():
        body = "".join([later if first < figure else new
                        for first, later, new in parts if first <= figure])
        docs.append((f"step_{figure:02d}",
                     _document(frame, f"Figure {figure}", " ".join(caption), body)))
        size += _utf8_size(docs[-1][1])
        if size > MAX_OUTPUT_BYTES:  # stop before the plates fill memory
            raise InputError(f"the plates pass the output cap of {MAX_OUTPUT_BYTES} bytes")
    if figures and max(figures) >= state.script.max_figure() and \
            (vertices := polygon_vertices(state)):
        docs.append(("final", _final_doc(state, vertices, frame)))
    return docs


def overwrite_text(path, text: str) -> None:
    """Write text as UTF-8 bytes, `\\n` line ends on every platform, over the
    file's old bytes and then cut the file to the new length.  Opening with
    O_TRUNC instead frees an existing file's blocks, allocates them again and
    starts writeback at close, which costs more than the write."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
