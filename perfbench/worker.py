"""Query server for the in-process workloads.

Run as `python worker.py [TRACE_FILE]` with cycloperm importable.  It imports
cycloperm, prints a ready line, then answers one JSON query per stdin line
with one JSON line:

    {"fn": "zonotope.volume_bruteforce", "args": [7], "kwargs": {"jobs": 1}}
    {"fn": "linkage.validate", "args": [["1", "3/2"]], "store": "L0"}
    {"fn": "linkage.a_profile", "args": [{"$ref": "L0"}]}
    {"op": "quit"}

The function is looked up on its module at call time, so installed trace
wrappers see the call.  Each reply carries the call's duration and the
machine-speed calibrations (speed.py) taken just before, during and just
after it; time spent calibrating during the call is not counted in its
duration.  `quit` is answered with the peak
RSS and, when tracing, the trace is written to TRACE_FILE first.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

import speed


def encode(value):
    """JSON form of a cycloperm result, compared against the references."""
    if hasattr(value, "radicand"):
        return {"coeff": str(value.coeff), "radicand": value.radicand}
    if hasattr(value, "lengths"):
        return {"bars": len(value.lengths)}
    if hasattr(value, "a"):
        return list(value.a)
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


def main(argv: list[str]) -> int:
    trace_file = argv[1] if len(argv) > 1 else None
    import cycloperm  # noqa: F401  set-up ends when this returns

    tracer = None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    out.write('{"ready": true}\n')
    out.flush()
    stored = {}
    sampler = None
    previous = None
    for line in sys.stdin:
        query = json.loads(line)
        if query.get("op") == "quit":
            break
        if sampler is None:  # after set-up, which ends at the ready line
            previous = speed.calibrate()
            sampler = speed.Sampler()
        module_name, fn_name = query["fn"].split(".")
        fn = getattr(importlib.import_module(f"cycloperm.{module_name}"), fn_name)
        args = [stored.get(a["$ref"]) if isinstance(a, dict) else a for a in query["args"]]
        reply = {}
        if tracer:
            before = tracer.counters()
            tracer.begin_query(query.get("id"))
        sampler.samples.clear()
        spent = sampler.spent
        start = time.perf_counter()
        try:
            result = fn(*args, **query.get("kwargs", {}))
        except Exception as exc:  # reported as a failed query
            reply["error"] = f"{type(exc).__name__}: {exc}"
        reply["seconds"] = time.perf_counter() - start - (sampler.spent - spent)
        if tracer:
            tracer.end_query()
            counts = tracer.counters()
            reply["counters"] = {k: v - before.get(k, 0) for k, v in counts.items() if v != before.get(k, 0)}
        during = list(sampler.samples)
        after = speed.calibrate()
        reply["calibrations"] = [previous, *during, after]
        previous = after
        if "error" not in reply:
            if "store" in query:
                stored[query["store"]] = result
            reply["value"] = encode(result)
        out.write(json.dumps(reply) + "\n")
        out.flush()
    if sampler is not None:
        sampler.stop()
    if tracer:
        tracer.dump(trace_file)
    out.write(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
