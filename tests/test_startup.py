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


def test_only_running_the_oracle_scans_loads_the_pool_machinery():
    pool = ("multiprocessing", "concurrent")
    out = _python("import sys, json, hendecafold.cli, hendecafold.verification\n"
                  f"print(json.dumps([m for m in sys.modules if m.startswith({pool!r})]))")
    assert json.loads(out) == []


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


# a `classify` command whose stub raises the named class; its module is
# imported only by the stub, as a command that needs it would
_RAISE_FROM_CLASSIFY = """
import contextlib, importlib, io, json, sys
import hendecafold.cli as cli
module, _, name = sys.argv[1].rpartition(".")
loaded = module in sys.modules

def stub(args):
    raise getattr(importlib.import_module(module), name)("stub failure")

cli._cmd_classify = stub
err = io.StringIO()
with contextlib.redirect_stderr(err):
    status = cli.main(["classify", "11"])
print(json.dumps([status, err.getvalue().splitlines(), loaded]))
"""


@pytest.mark.parametrize("qualname", cli._INPUT_ERRORS + cli._RUN_FAILURES)
def test_each_mapped_failure_is_one_line_and_its_exit_code(qualname):
    module, _, name = qualname.rpartition(".")
    assert issubclass(getattr(importlib.import_module(module), name), Exception)
    status, lines, loaded = json.loads(_python(_RAISE_FROM_CLASSIFY, qualname))
    assert status == (2 if qualname in cli._INPUT_ERRORS else 1)
    [line] = lines
    assert line.startswith("error: ") and "stub failure" in line
    assert loaded == (module in CORE or module == "builtins")


def test_an_unmapped_failure_is_not_turned_into_an_exit_code(monkeypatch):
    def stub(args):
        raise RuntimeError("kernel fault: stub")

    monkeypatch.setattr(cli, "_cmd_classify", stub)
    with pytest.raises(RuntimeError, match="stub"):
        cli.main(["classify", "11"])
