"""The `setup` layer: interpreter start plus import of `hendecafold.cli`.

Each sample is a fresh interpreter, so it pays what every CLI invocation
pays.  The child reads the system-wide monotonic clock as soon as the import
has finished; the sample is that reading minus the parent's reading just
before the spawn, so interpreter teardown is not counted.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

MODULES = ("hendecafold", "geometry", "polynomials", "cyclotomic", "folds",
           "construction", "scriptio", "render", "verification", "cli")

_PROBE = ("import time, hendecafold.cli as c; "
          "print(time.monotonic_ns(), c.__file__)")


def _run(src: Path, extra=()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *extra, "-c", _PROBE], env=env,
                          cwd=src.parent, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import of hendecafold.cli failed: {proc.stderr.strip()}")
    imported = Path(proc.stdout.split(maxsplit=1)[1].strip()).resolve()
    if not imported.is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {imported}, not the checkout's {src}")
    return proc


def setup_seconds(src: Path, samples: int, between) -> list:
    """Wall seconds from spawning a fresh interpreter to `import
    hendecafold.cli` finished, once per sample, after one warm-up start
    that leaves the bytecode cache filled as an installed package has it.
    `between()` runs before each sample."""
    _run(src)
    out = []
    for _ in range(samples):
        between()
        t0 = time.monotonic_ns()
        proc = _run(src)
        out.append((int(proc.stdout.split()[0]) - t0) / 1e9)
    return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative import ms of each package module from `-X importtime`."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        name = fields[2].strip()
        if name == "hendecafold" or name.startswith("hendecafold."):
            try:
                out[name.split(".")[-1]] = int(fields[1]) / 1000.0
            except ValueError:
                continue
    return out


def import_ms(src: Path, samples: int, between) -> dict:
    """Median cumulative import ms per module over `samples` fresh starts;
    `between()` runs before each start."""
    _run(src)
    runs = []
    for _ in range(samples):
        between()
        runs.append(parse_importtime(_run(src, ("-X", "importtime")).stderr))
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in MODULES}
