"""Origami fold-construction engine.

Exact/float plane geometry, certified real-root isolation over the
rationals, cosine polynomials of regular polygons with a single-fold
constructibility classifier, the seven single-fold alignment solvers plus
the quintic-solving two-simultaneous-fold operation, and a verified fold
script that constructs the regular hendecagon with SVG diagrams.

Importing the package loads only the algebra core, `polynomials` and
`cyclotomic`; every other public name, and every other submodule, is
imported on first use (PEP 562), so a command pays only for what it runs.
"""

import importlib
import math

__version__ = "0.1.0"

#: Default incidence tolerance for float mode, in paper-plane units; stated
#: here, where `geometry` and the command-line parser both read it, so the
#: parser need not import `geometry`.
DEFAULT_TOL = 1e-9


def _checked_tol(tol: float) -> float:
    """Return tol, or raise ValueError if it is not positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    return tol


class InputError(ValueError):
    """Input that a command cannot take: the command line exits 2.  Any
    other ValueError or OSError is a run failure and exits 1."""


# after InputError, which `cyclotomic.InvalidN` subclasses
from . import cyclotomic, polynomials

# public name -> the module that defines it
_HOME = {
    **dict.fromkeys((
        "Line", "Point", "distance", "incident", "intersect", "line_through",
        "midpoint", "perpendicular_bisector", "reflect_line", "reflect_point",
    ), "geometry"),
    **dict.fromkeys((
        "RatFunc", "RatPoly", "RootInterval", "count_real_roots",
        "isolate_real_roots", "refine_root",
    ), "polynomials"),
    **dict.fromkeys((
        "ConstructibilityReport", "NgonPolynomial", "classify_constructible",
        "halved_cyclotomic",
    ), "cyclotomic"),
    **dict.fromkeys((
        "SingleFoldProblem", "TwoFoldConfig", "TwoFoldSolution", "delta_line",
        "eliminate_to_quintic", "gamma_line_from_s", "gamma_line_from_t",
        "s_from_t", "solve_single_fold", "solve_two_fold",
    ), "folds"),
    **dict.fromkeys((
        "ConstructionState", "FoldScript", "FoldStep", "expected_vertices",
        "hendecagon_script", "rotate_length", "run_script", "verify_hendecagon",
    ), "construction"),
    **dict.fromkeys(("DiagramSpec", "emit_svg", "write_svgs"), "render"),
    **dict.fromkeys(("decode_script", "decode_two_fold_config", "encode_script"),
                    "scriptio"),
}

_SUBMODULES = ("geometry", "polynomials", "cyclotomic", "folds", "construction",
               "scriptio", "render", "verification", "cli")

__all__ = [*_HOME, "__version__"]

# the core's names are bound now; the rest on first use
globals().update({name: getattr(globals()[module], name)
                  for name, module in _HOME.items()
                  if module in ("polynomials", "cyclotomic")})


def __getattr__(name):
    # Not cached: the package reads the defining module's current binding,
    # so a function patched or restored there is seen the same way here.
    # An imported submodule is bound in this namespace, and `globals()` finds
    # it faster than the import system does.
    if name in _HOME:
        home = _HOME[name]
        module = globals().get(home) or importlib.import_module(f".{home}", __name__)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
