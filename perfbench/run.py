"""Wall-clock commit benchmark: end-to-end and per-layer figures.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload bus_burst --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` measures the end-to-end metrics (``setup_s``,
``txn_per_s``, ``cpu_ms_per_txn``, ``peak_rss_mb``) with no
instrumentation.  ``--trace 1``
runs the same units untraced and then traced, checks that the traced
run's deterministic outcomes are unchanged, and reports the per-layer
metrics, writing span traces under ``.perfbench_out/``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (undecided transactions or trials) and ``metrics``.  A run
that fails a correctness check prints no numbers and exits 1.

Workloads, and the layers each loads, are described in
``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = (
    "sim_trials",
    "sim_trials_fast",
    "bus_burst",
    "disk_recover",
    "tcp_cluster",
)

#: Other names of ``txn_per_s`` on the sim workloads, where one commit
#: trial decides one transaction.
ALIASES = {
    "sim_trials": "trials_per_s",
    "sim_trials_fast": "fast_trials_per_s",
}

#: Set-ups per in-process run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def host_fingerprint() -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from abharness import host_metadata
    except ImportError:
        return {}
    finally:
        sys.path.pop(0)
    return host_metadata()


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters doing the workload's
    set-up: imports, building the first unit, one warm-up unit."""
    samples = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_workload(args: argparse.Namespace, out: Path):
    import workloads

    trace = bool(args.trace)
    if args.workload == "tcp_cluster":
        import tcp

        return tcp.tcp_cluster(args.seed, args.seconds, trace, out, ROOT)
    setup = None if trace else setup_seconds(args.workload, args.seed)
    workloads.setup(args.workload, args.seed, out)
    if args.workload.startswith("sim_trials"):
        core = "fast" if args.workload == "sim_trials_fast" else "reference"
        outcome = workloads.sim_trials(
            args.seed, args.seconds, trace, out, core
        )
    else:
        outcome = workloads.service_burst(
            args.seed, args.seconds, trace, out,
            disk=args.workload == "disk_recover",
        )
    if setup is not None and outcome.correct:
        outcome.metrics["setup_s"] = (setup, "s")
        outcome.metrics["peak_rss_mb"] = (workloads.peak_rss_mb(), "MiB")
    return outcome


def report(workload: str, outcome, trace: bool) -> dict:
    """Print the human-readable lines; return the result object."""
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{workload}  {name} = {value:.6g} {unit}")
        if name == "txn_per_s" and workload in ALIASES:
            print(f"{workload}  {ALIASES[workload]} = {value:.6g} {unit}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{workload}  undecided_share = {share:.6g} "
          f"({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes:
        print(f"{workload}  {note}")
    for problem in outcome.problems:
        print(f"{workload}  FAILED CHECK: {problem}")
    metrics = {}
    if outcome.correct and trace:
        import layers

        outcome.metrics = {
            name: outcome.metrics.get(name, (0.0, unit))
            for name, unit in layers.PER_LAYER.items()
        }
    if outcome.correct:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        }
    return {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; exit 1 if any fails."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[workload] = {"correct": False}
    failed = [w for w, r in results.items() if not r.get("correct")]
    if failed:
        print(f"failed workloads: {', '.join(failed)}")
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 1 if failed else 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args)
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    if args.setup_only:
        import workloads

        workloads.setup(args.workload, args.seed, out)
        return 0
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    print(f"host: {json.dumps(host_fingerprint(), sort_keys=True)}")
    try:
        outcome = run_workload(args, out)
    except Exception:  # report any crash as a failed run, not a number
        traceback.print_exc()
        from workloads import Outcome

        outcome = Outcome(correct=False, problems=["the workload raised"])
    result = report(args.workload, outcome, bool(args.trace))
    if not args.trace:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
