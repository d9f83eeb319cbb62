"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--scale paper|tiny]

Run from the repository root.  Prints one line per metric (name, value,
unit), the attempted and failed operation counts and the host
fingerprint, then, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics (from spans recorded around each layer's entry points)
and the tracing overhead.  ``--scale tiny`` shrinks the wedges for the
self-test; the benchmark proper runs at paper geometry.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The repository root replaces this script's directory on the import path,
# so the benchmark's modules are imported as ``perfbench.*``.
sys.path[0] = str(ROOT)

from perfbench.host import (  # noqa: E402
    adopt_orphans,
    fingerprint,
    pin_threads,
    source_digest,
    stop_descendants,
)

pin_threads(os.environ)  # before the first numpy import


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    return parser.parse_args(argv)


#: A run that has not finished after this long is stopped: every process
#: it started is killed and it exits with status 3, printing no result.
#: SIGTERM stops a run the same way.  A run that ends normally or fails
#: stops every process it started too (see ``_exit``).
RUN_LIMIT_S = 170


def _stop_run(signum, frame) -> None:
    print(f"perfbench: stopping the run ({signal.Signals(signum).name})",
          file=sys.stderr, flush=True)
    stop_descendants()
    for run_dir in (ROOT / ".perfbench_run").glob(f"*-{os.getpid()}"):
        shutil.rmtree(run_dir, ignore_errors=True)
    os._exit(3)


def _number(value):
    value = float(value)
    return value if math.isfinite(value) else None


def _exit(code: int) -> None:
    """Stop every process the run started, wait for each, and exit.

    ``os._exit`` skips interpreter shutdown, so no exit hook can start a
    new multiprocessing resource tracker after the old one was reaped.
    """

    try:
        stop_descendants()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("perfbench: run from a repository checkout (src/repro and "
              "BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    spec = json.loads(spec_path.read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(names)}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _stop_run)
    signal.signal(signal.SIGTERM, _stop_run)
    signal.alarm(RUN_LIMIT_S)

    from perfbench import workloads
    from perfbench.spans import Tracer, install

    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    tracer = None
    if args.trace:
        (run_dir / "spans").mkdir()
        tracer = Tracer(run_dir / "spans")
        install(tracer)
    ctx = workloads.Context(root=ROOT, run_dir=run_dir, seed=args.seed,
                            seconds=args.seconds, scale=args.scale,
                            tracer=tracer, source_digest=source_digest(ROOT))
    w = workloads.WORKLOADS[args.workload]
    try:
        if w.kind == "ingest":
            import asyncio

            outcome = asyncio.run(workloads.run_ingest(ctx, w))
        else:
            outcome = workloads.run_decode(ctx, w)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.per_layer if args.trace else outcome.end_to_end
    unknown = set(values) - {m["name"] for m in table}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if args.trace:
        # Layers the workload does not exercise report 0.
        values = {m["name"]: values.get(m["name"], 0.0) for m in table}
    metrics = {m["name"]: {"value": _number(values[m["name"]]),
                           "unit": m["unit"]} for m in table}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}  scale {args.scale}")
    print("host " + json.dumps(fingerprint(ROOT, args.seed)))
    print("notes " + json.dumps(outcome.notes, default=float))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']!s:>14} {m['unit']}")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}  "
          f"correct {str(outcome.correct).lower()}")
    print(json.dumps({"correct": bool(outcome.correct),
                      "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    adopt_orphans()
    code = 1
    try:
        code = main()
    except SystemExit as exc:       # argparse errors
        code = exc.code if isinstance(exc.code, int) else 2
    except BaseException:
        traceback.print_exc()
    finally:
        _exit(code)
