"""Fold-engine benchmark: one closed-loop client running one workload.

Run from the root of a checkout that holds `src/hendecafold`:

    python3 perfbench/run.py --workload two_fold --seed 7 --seconds 20 --trace 0

The client is single-threaded and sends its next op only when the previous
one has finished and its output has been checked.  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it runs the workload for
half the time untraced and half traced, and reports the per-layer metrics,
the `-X importtime` breakdown of the setup layer and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import fold_workloads
import layer_trace
import startup_time

SETUP_SAMPLES = 15
IMPORTTIME_SAMPLES = 5
TAIL_MIN_OPS = 100
WORKDIR = ".perfbench_work"

# Every reported time is in reference-host units.  On a shared host the CPU
# speed a process gets drifts by tens of percent within minutes, so right
# after each op (or op segment, see OpClock) the run times `reference_kernel`
# (at least once, and in all for CALIBRATION_SHARE of the op time so far) and
# divides the wall time by the ratio of those kernel times to
# REFERENCE_KERNEL_S.  Changing the kernel or the constant changes every
# reported time, so neither may change once a baseline exists.
REFERENCE_KERNEL_S = 0.001
CALIBRATION_SHARE = 0.1
CALIBRATION_BURST = 20


def reference_kernel() -> Fraction:
    """Fixed exact-arithmetic work that does not touch the program."""
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(1, k)
    return acc


class HostSpeed:
    """Reference-kernel timings taken between measurements."""

    def __init__(self):
        self.samples = []
        self.total = 0.0

    def sample(self, count: int = 1) -> float:
        """Run the kernel `count` times; the host factor of these runs."""
        first = len(self.samples)
        for _ in range(count):
            t0 = time.perf_counter()
            reference_kernel()
            elapsed = time.perf_counter() - t0
            self.samples.append(elapsed)
            self.total += elapsed
        return statistics.mean(self.samples[first:]) / REFERENCE_KERNEL_S

    def after_op(self, busy: float) -> float:
        """Sample at least once and until the kernel has run for
        CALIBRATION_SHARE of `busy`; the host factor of the new samples."""
        first = len(self.samples)
        self.sample()
        while self.total < CALIBRATION_SHARE * busy:
            self.sample()
        return statistics.mean(self.samples[first:]) / REFERENCE_KERNEL_S

    @property
    def factor(self) -> float:
        """How much slower than the reference host the run was, overall."""
        return statistics.mean(self.samples) / REFERENCE_KERNEL_S


class OpClock:
    """Times one op as a sum of segments, each scaled by the kernel runs
    that follow it; `pause()` ends a segment.  A workload whose op is a
    sequence of calls pauses between them, so long ops are scaled by the
    host speed of their own stretch of time."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self.busy = 0.0

    def start(self) -> None:
        self.raw = self.scaled = 0.0
        self._t0 = time.perf_counter()

    def pause(self) -> None:
        elapsed = time.perf_counter() - self._t0
        self.raw += elapsed
        self.busy += elapsed
        self.scaled += elapsed / self.host.after_op(self.busy)
        self._t0 = time.perf_counter()


class Phase:
    """Op timings, failures and host speed of one measured loop."""

    def __init__(self):
        self.times = []           # wall seconds
        self.scaled = []          # reference-host seconds
        self.failed = 0
        self.errors = []
        self.host = HostSpeed()

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.scaled) * 1e3

    @property
    def ops_per_s(self) -> float:
        """Ops per second of op time in the closed loop."""
        return len(self.scaled) / sum(self.scaled)


def measure(workload, items, seconds: float, tracer=None) -> Phase:
    phase = Phase()
    clock = OpClock(phase.host)
    start = time.perf_counter()
    for item in items:
        if not workload.one_pass and time.perf_counter() - start >= seconds:
            break
        span = tracer.begin(layer_trace.ROOT) if tracer else None
        error = output = None
        clock.start()
        try:
            output = workload.op(item, clock.pause)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = exc
        if span:
            tracer.end(span)
        clock.pause()
        phase.times.append(clock.raw)
        phase.scaled.append(clock.scaled)
        if error is None:
            try:
                workload.check(item, output)
            except Exception as exc:
                error = exc
        if error is not None:
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(f"{type(error).__name__}: {error}")
    return phase


def tail(times: list):
    """(percentile, value) of the highest percentile that has at least ten
    samples beyond it, or None when the run has too few ops for a tail."""
    n = len(times)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(times)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def source_info(root: Path) -> dict:
    files = sorted((root / "src" / "hendecafold").glob("*.py"))
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup_s: float) -> dict:
    return {
        "op_p50_ms": metric(phase.p50_ms, "ms"),
        "ops_per_s": metric(phase.ops_per_s, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced: Phase, traced: Phase, tracer, imports: dict) -> dict:
    out = layer_trace.span_metrics(tracer.summary(), traced.host.factor)
    out["trace.overhead_pct"] = metric(
        (traced.p50_ms / untraced.p50_ms - 1.0) * 100.0, "%")
    for module in startup_time.MODULES:
        out[f"setup.import.{module}.ms"] = metric(imports[module], "ms")
    return out


def report(phases: list, metrics: dict) -> None:
    times = [t for p in phases for t in p.times]
    attempted = len(times)
    failed = sum(p.failed for p in phases)
    print(f"fail_ratio {failed / attempted!r} ({failed} of {attempted} ops)")
    for p in phases:
        for error in p.errors:
            print(f"failed op: {error}")
    last = phases[-1].scaled
    t = tail(last)
    if t is None:
        print(f"op_tail_ms omitted: {len(last)} ops, fewer than {TAIL_MIN_OPS}")
    else:
        print(f"op_tail_ms {t[1] * 1e3!r} ms (p{t[0]:.2f}, 10 of {len(last)} ops beyond)")
    for p in phases:
        print(f"# host factor {p.host.factor!r} ({len(p.host.samples)} kernel runs); "
              f"raw op p50 {statistics.median(p.times) * 1e3!r} ms")
    for key, m in metrics.items():
        print(f"{key} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(fold_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hendecafold" / "__init__.py").is_file():
        print(f"error: no src/hendecafold under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hendecafold
    if not Path(hendecafold.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported {hendecafold.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# meta {json.dumps(source_info(root))}")
    work = root / WORKDIR
    rundir = work / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        workload = fold_workloads.WORKLOADS[args.workload](hendecafold, rundir)
        items = workload.inputs(args.seed)
        if args.trace == 0:
            host, factors = HostSpeed(), []
            setup = startup_time.setup_seconds(
                src, SETUP_SAMPLES,
                lambda: factors.append(host.sample(CALIBRATION_BURST)))
            print(f"# setup raw median {statistics.median(setup)!r} s, "
                  f"host factor {host.factor!r}")
            setup_s = statistics.median(s / f for s, f in zip(setup, factors))
            phase = measure(workload, items, args.seconds)
            report([phase], end_to_end(phase, setup_s))
        else:
            host = HostSpeed()
            imports = startup_time.import_ms(
                src, IMPORTTIME_SAMPLES, lambda: host.sample(CALIBRATION_BURST))
            imports = {m: v / host.factor for m, v in imports.items()}
            untraced = measure(workload, items, args.seconds / 2)
            tracer = layer_trace.Tracer()
            missing = tracer.install()
            try:
                traced = measure(workload, items, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            for layer in missing:
                print(f"# layer module hendecafold.{layer} not found")
            tracer.write(work / f"spans-{args.workload}.jsonl")
            report([untraced, traced],
                   per_layer(untraced, traced, tracer, imports))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
