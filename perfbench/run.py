"""The DSLog benchmark: one command, three workloads, one seed.

    python3 perfbench/run.py --workload paper-query --seed 1 --seconds 10 --trace 0

Workloads:

* ``paper-query``  — in-process fig8/fig9 path queries over a 4-shard catalog;
* ``serve-read``   — a child-process server answering one HTTP and one RPC
  client (Zipf streams, batches, partial cache hits);
* ``ingest-serve`` — durable ingest through ``LineageService`` with an RPC
  reader beside it, then a durability check on reopen.

Every answer is checked against an independent decode+join oracle.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, their
timings scaled to a reference machine speed (``calibrate``); with
``--trace 1`` it carries the per-layer metrics of a traced run (spans
recorded around the program's public callables from this directory's
``tracer`` module) plus the tracing overhead.  The lines before it are a
human-readable report: every metric by name and unit, the run's
environment, and the workload properties any later claim must cite.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-query", "serve-read", "ingest-serve")
SPAN_RECORDS_KEPT = 20_000


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_spans(args, trace: dict, values: dict) -> Path:
    """Write the traced run's spans out: per-span aggregates of both
    processes plus the generator's raw span records (capped)."""
    import tracer

    out = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    records = tracer.records()[:SPAN_RECORDS_KEPT]
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": trace["ops"],
        "spans": trace["snapshot"]["spans"],
        "counters": trace["snapshot"]["counters"],
        "per_layer": values,
        "records": [dict(zip(("span", "request", "parent", "start", "end"), r)) for r in records],
    }
    out.write_text(json.dumps(payload))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import common

    common.pin_environment()
    import layers

    cpu_before = common.cpu_times()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "paper-query":
            import paper_query as workload
        elif args.workload == "serve-read":
            import serve_read as workload
        else:
            import ingest_serve as workload
        result = workload.run(work, args.seed, args.seconds, bool(args.trace))
        env = common.environment_record(args.seed, work)
        env["cpu_steal_share"] = common.steal_share(cpu_before, common.cpu_times())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong, lost, failed = result["wrong"], result["lost"], result["failed"]
    bad = wrong + lost + failed
    attempted = max(int(result["attempted"]), 1)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# end-to-end metrics (tracing off), gated in BENCHMARK.json; timings at the reference speed")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:<28} {_fmt(value):>14} {unit}")
    wall, cpu = result["slowdown"]
    print(f"# machine slowdown against the reference kernel: wall {_fmt(wall)}, CPU {_fmt(cpu)}; "
          "the scaled timings as read:")
    for name, value in result["raw"].items():
        print(f"#   {name:<26} {_fmt(value):>14}")
    print("# end-to-end metrics (tracing off), reported only, as read")
    for name, (value, unit) in result["workload_metrics"].items():
        print(f"{name:<28} {_fmt(value):>14} {unit}")
    print(f"{'error_rate':<28} {_fmt(bad / attempted):>14} ratio  "
          f"(failed {failed} + wrong {wrong} + lost {lost}) / attempted {attempted}")
    for kind, summary in result["samples"].items():
        print(f"# {kind}: n={summary['n']} p50={_fmt(summary['p50'])} ms p99={_fmt(summary['p99'])} ms "
              f"highest percentile with >=10 samples beyond it: p{_fmt(summary['tail_pct'])}="
              f"{_fmt(summary['tail'])} ms")
    print("# workload properties " + json.dumps(result["properties"], sort_keys=True, default=str))
    for message in result["errors"]:
        print(f"# error: {message}")

    correct = bad == 0
    if args.trace:
        trace = result["trace"]
        values = layers.compute(trace["snapshot"], trace["ops"], trace["extras"])
        problem = layers.self_check(args.workload, trace["snapshot"])
        print(f"# per-layer metrics (traced slices of the window, {trace['ops']} end-to-end ops)")
        for layer, ms in layers.layer_self_ms(trace["snapshot"], trace["ops"]).items():
            calls = layers.layer_calls(trace["snapshot"])[layer]
            print(f"# layer {layer:<18} self {ms:9.4f} ms/op  calls {calls}")
        if problem:
            print(f"# self-check FAILED: {problem}")
            correct = False
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit, _better in layers.metric_specs()
        }
        dump = _write_spans(args, trace, values)
        print(f"# spans written to {dump.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if wrong:
        print(f"# WRONG ANSWERS: {wrong}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": bad, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
