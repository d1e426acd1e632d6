"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload embed-update --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``embed-update``, ``embed-process``, ``serve`` (see
``perfbench/inputs.py`` and ``perfbench/METRICS.md``).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the journey untraced
and then traced, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the host fingerprint.  Traced runs also write their spans to
``.perfbench/trace-<workload>-seed<seed>.json``.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def stop_helpers() -> None:
    """Stop and reap every process the run started.

    Pools and engines join their workers when closed; this catches any
    child still alive and the multiprocessing resource tracker, which the
    first shared-memory segment starts and which would otherwise outlive
    the run while it cleans up after the interpreter exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helpers()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(package):
        print(f"perfbench: the program's sources are missing "
              f"(no {os.path.relpath(package)}); run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Before NumPy loads: the BLAS reads its thread count once.
    from hostenv import fingerprint, pin_environment

    cleared = pin_environment(os.environ)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from inputs import WORKLOADS
    from journey import run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    trace_path = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    result, problems = run(WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace), trace_path)
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"fingerprint": fingerprint(ROOT),
                      "cleared_env": cleared,
                      "workload": args.workload, "seed": args.seed}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
