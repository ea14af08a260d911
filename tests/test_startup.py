"""What importing the package and the CLI loads, and what failing commands
print, each checked in a fresh interpreter where that matters."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hendecafold
from hendecafold import cli, geometry

CORE = {"hendecafold", "hendecafold.polynomials", "hendecafold.cyclotomic"}


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(hendecafold.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_loads_only_the_algebra_core():
    out = _python("import sys, json, hendecafold.cli\n"
                  "print(json.dumps([m for m in sys.modules if m.startswith('hendecafold')]))")
    assert set(json.loads(out)) == CORE | {"hendecafold.cli"}


def test_verify_on_two_cpus_loads_no_pool_machinery():
    # the scans are shared through raw forks and pipes, not a process pool
    pool = ("multiprocessing", "concurrent")
    out = _python("import contextlib, io, json, sys\n"
                  "import hendecafold.verification as v\n"
                  "from hendecafold.cli import main\n"
                  "v._usable_cpus = lambda: 2\n"
                  "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
                  "    status = main(['verify'])\n"
                  "print(json.dumps([status, text.getvalue().splitlines()[-1],\n"
                  f"                  [m for m in sys.modules if m.startswith({pool!r})]]))")
    assert json.loads(out) == [1, "6/7 criteria passed", []]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="scans run in workers only with fork")
def test_the_scan_grids_are_built_on_first_in_process_use_only():
    # on 2 CPUs the parent shares the scans with one worker, so it builds
    # each grid on its first scan of that kind, as on 1 CPU; none at import
    out = _python("import json, hendecafold.verification as v\n"
                  "grids = (v._scan_grid, v._o6_grid)\n"
                  "sizes = [[g.cache_info().currsize for g in grids]]\n"
                  "v._usable_cpus = lambda: 2\n"
                  "assert v.run_all()[-1].passed\n"
                  "sizes.append([g.cache_info().currsize for g in grids])\n"
                  "v._usable_cpus = lambda: 1\n"
                  "assert v.run_all()[-1].passed\n"
                  "sizes.append([g.cache_info().currsize for g in grids])\n"
                  "print(json.dumps(sizes))")
    assert json.loads(out) == [[0, 0], [1, 1], [1, 1]]


def test_poly_loads_only_the_algebra_core():
    out = _python("import contextlib, io, json, sys\n"
                  "from hendecafold.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
                  "    status = main(['poly', '11'])\n"
                  "print(json.dumps([status, text.getvalue(),\n"
                  "                  [m for m in sys.modules if m.startswith('hendecafold')]]))")
    status, text, modules = json.loads(out)
    assert (status, text) == (0, "1 1 -4 -3 3 1\n")
    assert set(modules) == CORE | {"hendecafold.cli"}


def test_every_public_name_resolves_on_first_use_to_its_module_binding():
    out = _python("""
import importlib, json
import hendecafold
wrong = []
for name in set(hendecafold.__all__) - {"__version__"}:
    value, home = getattr(hendecafold, name), f"hendecafold.{hendecafold._HOME[name]}"
    # a class or function also names its module; a typing alias names "typing"
    defined_in = getattr(value, "__module__", home)
    if (getattr(importlib.import_module(home), name) is not value
            or defined_in.startswith("hendecafold.") and defined_in != home):
        wrong.append(name)
star = {}
exec("from hendecafold import *", star)
print(json.dumps([wrong, sorted(set(hendecafold.__all__) - set(star)),
                  hendecafold.verification.__name__]))
""")
    wrong, unbound, verification = json.loads(out)
    assert wrong == []
    assert unbound == []
    assert verification == "hendecafold.verification"


def test_dir_lists_every_public_name_and_unknown_names_fail():
    assert set(hendecafold.__all__) <= set(dir(hendecafold))
    with pytest.raises(AttributeError, match="no_such_name"):
        hendecafold.no_such_name
    assert not hasattr(hendecafold, "no_such_name")


def test_tol_default_is_the_geometry_default():
    parser = cli.build_parser()
    for command in ("solve", "construct"):
        assert parser.parse_args([command]).tol == geometry.DEFAULT_TOL


# each failure class, as `module.Name`, and the exit code `main` gives it;
# `main` knows only `InputError` (2) and ValueError and OSError (1)
_EXIT_CODES = {
    "hendecafold.InputError": 2,
    "hendecafold.scriptio.FormatError": 2,
    "hendecafold.cyclotomic.InvalidN": 2,
    "builtins.ValueError": 1,
    "builtins.OSError": 1,
    "hendecafold.render.IoFailure": 1,
    "hendecafold.construction.UnknownLandmark": 1,
    "hendecafold.construction.WrongLandmarkKind": 1,
}


@pytest.mark.parametrize("qualname", _EXIT_CODES)
def test_each_mapped_failure_is_one_line_and_its_exit_code(monkeypatch, capsys, qualname):
    module, _, name = qualname.rpartition(".")
    cls = getattr(importlib.import_module(module), name)

    def stub(args):
        raise cls("stub failure")

    monkeypatch.setattr(cli, "_cmd_classify", stub)
    assert cli.main(["classify", "11"]) == _EXIT_CODES[qualname]
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "stub failure" in line


def test_an_unmapped_failure_is_not_turned_into_an_exit_code(monkeypatch):
    def stub(args):
        raise RuntimeError("kernel fault: stub")

    monkeypatch.setattr(cli, "_cmd_classify", stub)
    with pytest.raises(RuntimeError, match="stub"):
        cli.main(["classify", "11"])
