"""merocon benchmark: one seeded workload, timed, checked, reported as JSON.

    python3 benchmarks/run.py --workload classify --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and imports merocon from its
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
replay of the items an untraced pass just ran.  Earlier lines give a readable
table (with the raw timings beside the reference-speed ones), the sample
counts and the provenance of the run.  See README.md in this directory for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
SAMPLE_EVERY_S = 0.05  # raw timed seconds between two reference-kernel samples
NEAREST_SAMPLES = 15


@dataclass
class Phase:
    """What one pass over the units measured.

    ``raw_s`` and ``raw_latencies`` are wall-clock; ``ref_s`` and
    ``latencies`` are at reference speed.
    """

    raw_s: float = 0.0
    ref_s: float = 0.0
    raw_latencies: list = field(default_factory=list)  # seconds per item, one per unit
    latencies: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    units: list = field(default_factory=list)

    def rescale(self, timings: list, samples: list) -> None:
        """Fill the timings in, raw and at reference speed.

        A unit's scale is the median of the ``NEAREST_SAMPLES`` kernel
        samples nearest its midpoint: one kernel run reads the machine's
        speed of the moment, which jitters far more than its speed over a
        second or over a long call.
        """
        times = [t for t, _ in samples]
        self.scales = [scale for _, scale in samples]
        for dt, n, mid in timings:
            at = bisect.bisect(times, mid)
            near = sorted(
                samples[max(0, at - NEAREST_SAMPLES): at + NEAREST_SAMPLES],
                key=lambda sample: abs(sample[0] - mid),
            )[:NEAREST_SAMPLES]
            scale = statistics.median(f for _, f in near)
            self.raw_s += dt
            self.ref_s += dt * scale
            self.raw_latencies.append(dt / n)
            self.latencies.append(dt * scale / n)


def run_phase(wl, seconds: float = math.inf, rounds: int | None = None, units=None,
              check: bool = True, keep_units: bool = False) -> Phase:
    """Run whole rounds until ``seconds`` of timed calls or ``rounds`` rounds,
    or replay ``units``.

    Only the call into merocon is timed; checks, input generation and the
    reference kernel run between the timed calls.
    """
    phase = Phase()
    clock = time.perf_counter
    timings: list[tuple[float, int, float]] = []  # (raw seconds, items, midpoint)
    samples = [(clock(), reference.scale())]  # (time, scale) of the kernel samples
    done = 0
    timed = since_sample = 0.0
    while True:
        batch = units if units is not None else wl.next_round()
        done += 1
        for unit in batch:
            n = len(unit.items)
            start = clock()
            try:
                result = wl.run(unit)
            except Exception as exc:  # an item that raises is a failed item
                dt = clock() - start
                reasons = [f"{type(exc).__name__}: {exc}"] * n
                digests = [("raised", type(exc).__name__, str(exc))] * n
            else:
                dt = clock() - start
                reasons = wl.check(unit, result) if check else [None] * n
                digests = wl.digest(unit, result)
            timings.append((dt, n, start + dt / 2))
            timed += dt
            since_sample += dt
            if since_sample >= SAMPLE_EVERY_S:
                samples.append((clock(), reference.scale()))
                since_sample = 0.0
            phase.attempted += n
            bad = [r for r in reasons if r is not None]
            phase.failed += len(bad)
            phase.failures.extend(bad)
            phase.digests.extend(digests)
            if keep_units:
                phase.units.append(unit)
        if units is not None or done == rounds or timed >= seconds:
            break
    samples.append((clock(), reference.scale()))
    phase.rescale(timings, samples)
    return phase


def quantile(values: list, q: float) -> float:
    """Inclusive quantile, exact on every sample count."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def provenance(args, import_s: list) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "merocon").glob("*.py")):
        sources.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": sources.hexdigest(),
        "merocon_threads": "unset (batch_sweep runs its library default)",
        "reference_kernel_s": reference.REFERENCE_KERNEL_S,
        "import_s": import_s,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def emit(table: dict, extra: dict, prov: dict, attempted: int, failed: int, correct: bool) -> None:
    for name, (value, unit) in {**table, **extra}.items():
        print(f"{name:<44} {value!r:>24} {unit}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "merocon" / "__init__.py").is_file():
        print(f"error: no merocon sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("MEROCON_THREADS", None)
    sys.path.insert(0, str(SRC))

    imports = [timed_import() for _ in range(SETUP_REPEATS)]
    merocon = sys.modules["merocon"]
    if Path(merocon.__file__).resolve().parent != SRC / "merocon":
        print(f"error: imported merocon from {merocon.__file__}", file=sys.stderr)
        return 2

    # imported only now, so that they bind the modules of the last import
    import tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, WORKLOADS[args.workload], workdir, imports, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


def timed_import() -> tuple[float, float]:
    """Import merocon afresh; (raw, reference) seconds.

    numpy stays loaded, so the first of these imports also pays for numpy
    and the median over the repeats is merocon's own import.
    """
    for name in [n for n in sys.modules if n == "merocon" or n.startswith("merocon.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("merocon")
    raw = time.perf_counter() - start
    return raw, raw * reference.scale()


def measure(args, cls, workdir: Path, imports: list, tracer) -> int:
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = cls(args.seed, workdir)
        wl.prepare()
        wl.warm_up()
        raw = time.perf_counter() - start
        raw_setups.append(raw)
        setups.append(raw * reference.scale())
    prov = provenance(args, [raw for raw, _ in imports])

    tracer.assert_pristine()
    if not args.trace:
        phase = run_phase(wl, args.seconds)
        tracer.assert_pristine()
        lat_ms = [x * 1e3 for x in phase.latencies]
        raw_ms = [x * 1e3 for x in phase.raw_latencies]
        table = {
            "setup_s": (
                statistics.median(ref for _, ref in imports) + statistics.median(setups), "s"
            ),
            "items_per_s": (phase.attempted / phase.ref_s, "1/s"),
            "item_p50_ms": (statistics.median(lat_ms), "ms"),
            "item_p90_ms": (quantile(lat_ms, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {
            "failed_frac": (phase.failed / phase.attempted, "ratio"),
            "latency_samples": (len(lat_ms), "count"),
            "raw.setup_s": (
                statistics.median(raw for raw, _ in imports) + statistics.median(raw_setups), "s"
            ),
            "raw.items_per_s": (phase.attempted / phase.raw_s, "1/s"),
            "raw.item_p50_ms": (statistics.median(raw_ms), "ms"),
            "raw.item_p90_ms": (quantile(raw_ms, 0.9), "ms"),
            "raw.timed_s": (phase.raw_s, "s"),
            "reference.scale_median": (statistics.median(phase.scales), "ratio"),
        }
        report_failures(phase)
        emit(table, extra, prov, phase.attempted, phase.failed, phase.failed == 0)
        return 0

    # traced: an untraced pass over about half the time, then the same units
    # again with every public function wrapped; outputs must agree bit for bit
    rounds = max(1, round(args.seconds / 2 / cls.round_s))
    plain = run_phase(wl, rounds=rounds, keep_units=True)
    tracer.assert_pristine()
    spans = tracer.Tracer()
    spans.install()
    try:
        traced = run_phase(wl, units=plain.units, check=False)
    finally:
        spans.restore()
    tracer.assert_pristine()
    if traced.digests != plain.digests:
        bad = sum(a != b for a, b in zip(traced.digests, plain.digests))
        print(f"error: traced outputs differ from untraced ones on {bad} items",
              file=sys.stderr)
        return 1
    scale = statistics.median(traced.scales)
    table = {
        name: (value * scale if unit == "s" else value, unit)
        for name, (value, unit) in spans.metrics().items()
    }
    table["trace.overhead_frac"] = (traced.ref_s / plain.ref_s - 1, "ratio")
    extra = {
        "failed_frac": (plain.failed / plain.attempted, "ratio"),
        "raw.untraced_timed_s": (plain.raw_s, "s"),
        "raw.traced_timed_s": (traced.raw_s, "s"),
        "reference.scale_median": (scale, "ratio"),
    }
    report_failures(plain)
    emit(table, extra, prov, plain.attempted, plain.failed, plain.failed == 0)
    return 0


def report_failures(phase: Phase) -> None:
    for reason in phase.failures[:10]:
        print(f"failed item: {reason}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
