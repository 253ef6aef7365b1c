"""Run one ``repro service start`` node with the benchmark's layer timers.

Usage (from a repository checkout)::

    python3 perfbench/node.py --out DIR -- service start --node 0 ...

Installs the same :class:`layers.Tracer` wrappers the in-process
workloads use, with an enabled telemetry registry for the counter
cross-check, then calls the CLI entry point.  When SIGTERM halts the
node, it writes ``DIR/layers.json`` (aggregates, serving wall time and
any cross-check problems) and ``DIR/spans.jsonl`` (a
``repro.span-trace``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import layers
    import repro.cli
    from repro.telemetry.registry import MetricsRegistry, use_registry
    from workloads import telemetry_problems

    node = argv[argv.index("--node") + 1] if "--node" in argv else "?"
    tracer = layers.Tracer(track=f"node{node}")
    registry = MetricsRegistry(enabled=True)
    started = time.perf_counter()
    with use_registry(registry), tracer.installed(), tracer.unit("serve"):
        code = repro.cli.main(argv)
    doc = tracer.export()
    doc["wall"] = time.perf_counter() - started
    doc["exit"] = code
    doc["problems"] = telemetry_problems(registry, doc)
    args.out.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(args.out / "spans.jsonl")
    (args.out / "layers.json").write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
