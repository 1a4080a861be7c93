"""rv32x benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rv32x is imported from its `src/`. The
workloads are in workloads.py and the metric names, units and bounds in
BENCHMARK.json at the root. With `--trace 0` the run repeats rounds of the
workload untraced and reports the end-to-end metrics. With `--trace 1` it
alternates an untraced and a traced section of identical work (the
workload's once-per-run part plus one round) and reports per-layer self
times and counters of the traced sections, with the tracing overhead as the
difference between the two. The last line of stdout is one JSON object;
lines before it report digests, emitted-code rows and failures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("ir", "midend", "target", "isel", "codegen", "sim", "driver")
MIN_ROUNDS = 2  # every output is produced at least twice and compared
SETUP_SAMPLES = 11


def _rv32x_modules() -> dict:
    return {k: v for k, v in sys.modules.items()
            if k == "rv32x" or k.startswith("rv32x.")}


def time_setup(clock) -> float:
    """Seconds to import rv32x and load the default target description,
    measured on a fresh copy of the package; the copy in use is kept."""
    saved = _rv32x_modules()
    for name in saved:
        del sys.modules[name]
    gc.collect()  # no garbage from earlier copies, as in a fresh process
    t0 = clock.mark()
    importlib.import_module("rv32x.driver")
    sys.modules["rv32x.target"].load_default_desc()
    seconds = clock.since(t0)
    for name in _rv32x_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return seconds


def load_rv32x():
    """The rv32x modules the workloads use, and the default description."""
    importlib.import_module("rv32x.driver")
    rv = SimpleNamespace(**{m: sys.modules[f"rv32x.{m}"] for m in MODULES})
    return rv, rv.target.load_default_desc()


def run_plain(make, seconds: float):
    """Untraced: once, then rounds until the next would pass the deadline."""
    deadline = perf_counter() + seconds
    wl = make()
    wl.once()
    r = 0
    while True:
        t0 = perf_counter()
        wl.round(r)
        r += 1
        now = perf_counter()
        if r >= MIN_ROUNDS and now + (now - t0) > deadline:
            return wl


def run_traced(make, seconds: float, tracer, spans_path):
    """Pairs of untraced and traced sections of identical work."""
    deadline = perf_counter() + seconds
    plain, traced, layers = [], [], []
    while True:
        t0 = perf_counter()
        for tracing in (False, True):
            wl = make()
            if tracing:
                tracer.reset()
                tracer.install()
            t1 = perf_counter()
            try:
                wl.once()
                wl.round(0)
            finally:
                tracer.uninstall()
            (traced if tracing else plain).append(perf_counter() - t1)
        layers.append(tracer.collect())
        now = perf_counter()
        if now + (now - t0) > deadline:
            break
    tracer.write(spans_path)
    out = {key: statistics.median(layer.get(key, 0.0) for layer in layers)
           for key in set().union(*layers)}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["trace.overhead_ratio"] = out["trace.overhead_s"] / statistics.median(plain)
    return wl, out


def end_to_end(meter, setup: list[float]) -> dict[str, float]:
    p50, p90 = meter.latency_ms()
    return {
        "setup_s": statistics.median(setup),
        "compile_ir_insts_per_s": meter.rate("compile"),
        "oracle_trials_per_s": meter.rate("trial"),
        "sim_steps_per_s": meter.rate("sim"),
        "cmd_ms_p50": p50,
        "cmd_ms_p90": p90,
        "static_insts": sum(meter.static.values()),
        "dyn_insts": sum(meter.dyn.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "rv32x" / "__init__.py").is_file():
        print(f"perfbench: no rv32x sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, Meter

    # the program sees only the generated inputs: no default --mattr
    os.environ.pop("RV32X_MATTR", None)
    sys.path.insert(0, str(ROOT / "src"))
    meter = Meter()

    def make():
        return WORKLOADS[args.workload](rv, args.seed, meter, ROOT, desc)

    if args.trace:
        # no host probes from the timer: their time would land in the spans
        rv, desc = load_rv32x()
        wl, values = run_traced(make, args.seconds, Tracer(rv),
                                ROOT / ".bench_out" / f"{args.workload}.spans.json")
        wanted = spec["per_layer"]
    else:
        meter.clock.start_ticking()
        try:
            setup = [time_setup(meter.clock) for _ in range(SETUP_SAMPLES)]
            rv, desc = load_rv32x()
            wl = run_plain(make, args.seconds)
        finally:
            meter.clock.stop_ticking()
        values = end_to_end(meter, setup)
        wanted = spec["end_to_end"]

    # a traced run repeats the once-per-run part: print its lines once
    for line in dict.fromkeys(meter.report + wl.rows()):
        print(line)
    for job, (asm, obj) in sorted(meter.digests.items()):
        print(f"digest {job} asm={asm} obj={obj}")
    for op, err in sorted(meter.failures.items()):
        print(f"failed {op}: {err}")
    for what in meter.wrong:
        print(f"WRONG {what}")
    print(f"summary attempted={meter.attempted} failed={meter.failed} "
          f"failed_ratio={meter.failed / meter.attempted:.6f}")
    # a per-layer counter that never fired reads 0
    metrics = {m["name"]: {"value": float(values[m["name"]] if not args.trace
                                          else values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not meter.wrong,
                      "attempted": meter.attempted,
                      "failed": meter.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
