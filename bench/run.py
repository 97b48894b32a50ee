"""Benchmark of sparsewatch: calibrated delay studies and a p = 400 monitor.

    python3 bench/run.py --workload study-p15 --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``study-p15``, ``oracle-pool-p15`` and
``monitor-kron400``.  A run does as many whole rounds of seeded work as
fill ``--seconds`` at the reference speed (a count fixed by ``--seconds``
alone), checks every round's outputs, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones ``BENCHMARK.json``
declares, timed with no tracing (all but ``setup_s`` rescaled to the
reference speed, see ``reference.py``); with ``--trace 1`` they are its
per-layer ones, from spans recorded around the program's functions.  A
record of the run, with the machine's facts and the times as the clock read
them, goes to ``bench/out/``.

The program is imported from ``src/`` next to this directory; BLAS is
pinned to one thread per process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5


def prepare_environment() -> bool:
    """Pin BLAS threads and put the checkout's ``src`` first on the import path."""
    if not (SRC / "sparsewatch" / "__init__.py").is_file():
        return False
    os.environ.update(THREAD_PINS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    return True


def setup_seconds(workload: str) -> list[float]:
    """Fresh interpreter to a ready engine, timed from outside, several times."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
        samples.append(elapsed)
    return samples


# ── Entry point ───────────────────────────────────────────────────────────


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study-p15", "oracle-pool-p15", "monitor-kron400"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare_environment():
        print(f"error: the program's source {SRC} is missing; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    import sparsewatch

    if not Path(sparsewatch.__file__).resolve().is_relative_to(SRC):
        print(f"error: sparsewatch imported from {sparsewatch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    monitor = isinstance(spec, workloads.MonitorSpec)
    if args.trace:
        runner = harness.monitor_traced if monitor else harness.study_traced
    else:
        runner = harness.monitor_untraced if monitor else harness.study_untraced
    with open(SPEC, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values, attempted, failures, extra = runner(spec, args.seed, args.seconds)
    if not args.trace:
        setup = setup_seconds(args.workload)
        values["setup_s"] = statistics.median(setup)
        extra["setup_samples_s"] = setup

    facts = harness.machine_facts(THREAD_PINS)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "spec": harness.spec_record(spec),
              "metrics": values, "failures": failures, **extra}
    harness.OUT_DIR.mkdir(exist_ok=True)
    with open(harness.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    if "streams" in extra and not args.trace:
        n = len(extra["streams"])
        print("streams whose changed column does not end above 0.5 and highest (not gated): "
              f"{extra['streams_not_ending_localized']} of {n}")
        print("streams ending with another column above 0.5 (not gated): "
              f"{extra['streams_ending_with_another_column_above_half']} of {n}")
    if "step_p99_us" in extra:
        print(f"step_p99_us (not gated): {extra['step_p99_us']:.1f} "
              f"over {extra['latency_samples']} steps")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
