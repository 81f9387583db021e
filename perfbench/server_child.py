"""Child server of ``serve-read``: ``DSLog.load`` + ``serve(transport="both")``.

    python3 perfbench/server_child.py --root DIR --cache-bytes N

Prints one JSON line with the HTTP URL and RPC address once serving, then
answers line commands on stdin, one JSON line each:

* ``trace on`` / ``trace off`` — switch the same span wrappers as the
  generator's on or off (installed on the first ``trace on``);
* ``stats`` — span aggregates, result-cache and table-cache counters, peak RSS;
* ``cpu``   — CPU seconds of this process;
* ``quit``  — close the server and the catalog, then exit.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
import tracer


def _stats(server, log) -> dict:
    return {
        "trace": tracer.snapshot(),
        "result_cache": server.executor.cache.stats(),
        "table_cache": log.store.cache_stats(),
        "peak_rss_mb": common.peak_rss_mb(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--cache-bytes", type=int, required=True)
    args = parser.parse_args()
    common.pin_environment()

    from repro.dslog import DSLog

    log = DSLog.load(args.root, cache_bytes=args.cache_bytes)
    server = log.serve(transport="both", coalesce_ms=0)
    try:
        print(json.dumps({"http": server.url, "rpc": server.rpc_address}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command in ("trace on", "trace off"):
                tracer.switch(command == "trace on")
                reply = {"ok": True}
            elif command == "stats":
                reply = _stats(server, log)
            elif command == "cpu":
                reply = {"cpu_s": common.cpu_seconds()}
            elif command == "quit":
                break
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        server.close()
        log.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
