"""Benchmark for cycloperm: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the repository root.  The client sends each query only after the last
one returned.  `brute-sweep`, `closed-forms` and `linkage-sweep` call the
library in a fresh worker process (worker.py); `cli` starts one
`python -m cycloperm.cli` process per query.  Every answer is checked
(workloads.py).  Whole rounds of queries run until S seconds have passed.

Times are rescaled to a nominal machine speed (speed.py), because the
shared machine's speed swings by up to 2x within seconds; the raw times
are printed beside them and kept in perfbench/out/.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json.
--trace 1 runs one round untraced and one round under tracer.py, and prints
the per-layer metrics; the spans go to perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every answer was right; 2 when the
cycloperm sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PACKAGE = ROOT / "src" / "cycloperm"
SETUP_SAMPLES = 9
SPEED_FILE_VAR = "CYCLOPERM_BENCH_SPEED_FILE"  # read by site/sitecustomize.py
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it


# --- processes --------------------------------------------------------


def _child_env(speed_file: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src", str(HERE / "site")])
    env.pop(SPEED_FILE_VAR, None)
    if speed_file is not None:
        env[SPEED_FILE_VAR] = str(speed_file)
    return env


def rescale(seconds: float, baselines=(), calibrations=()) -> float:
    """`seconds` at nominal machine speed, the speed being the mean of
    nominal/measured over the reference samples taken around and during the
    work (speed.py)."""
    factors = [speed.BASELINE_NOMINAL_S / b for b in baselines]
    factors += [speed.CAL_NOMINAL_S / c for c in calibrations]
    return seconds * statistics.fmean(factors)


class WorkerLost(Exception):
    """The worker gave no reply within the deadline, or exited."""


class Worker:
    """One fresh worker.py process, spoken to in JSON lines."""

    def __init__(self, trace_file: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace_file is not None:
            cmd.append(str(trace_file))
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        self._buf = b""

    def _read(self, timeout: float) -> dict:
        fd = self.proc.stdout.fileno()
        end = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = end - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise WorkerLost(f"no reply within {timeout} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerLost(f"worker exited with code {self.proc.wait()}")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def ready(self) -> float:
        """Seconds from launch until `import cycloperm` returned."""
        self._read(workloads.QUERY_DEADLINE_S)
        return time.perf_counter() - self.launched

    def request(self, query: dict, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps(query).encode() + b"\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self) -> float:
        """Stop the worker; returns its peak RSS in MB."""
        reply = self.request({"op": "quit"}, workloads.QUERY_DEADLINE_S)
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        return reply["maxrss_kb"] / 1024

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_child(argv: list[str], deadline: float, speed_file: Path | None = None) -> dict:
    """Run one process to exit: wall time, exit code, output, peak RSS of
    it and its children.  Past the deadline its process group is killed.
    With speed_file, the process samples machine speed into it."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(speed_file), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    chunks = {"out": [], "err": []}
    readers = [
        threading.Thread(target=lambda s=s, k=k: chunks[k].extend(iter(lambda: s.read(1 << 16), b"")))
        for s, k in ((proc.stdout, "out"), (proc.stderr, "err"))
    ]
    for r in readers:
        r.start()
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        _kill_group(proc.pid)

    timer = threading.Timer(deadline, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        timer.join()
    _kill_group(proc.pid)  # pool workers left behind, if any
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return {
        "wall": wall,
        "code": proc.returncode,
        "out": b"".join(chunks["out"]).decode(),
        "err": b"".join(chunks["err"]).decode(),
        "rss_mb": usage.ru_maxrss / 1024,
        "timed_out": timed_out.is_set(),
    }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def baseline() -> float:
    run = run_child(speed.BASELINE_ARGV, workloads.QUERY_DEADLINE_S)
    if run["code"] != 0:
        raise RuntimeError(f"baseline interpreter exited {run['code']}")
    return run["wall"]


# --- one pass over the queries ----------------------------------------


class Pass:
    """Latencies (raw and rescaled to nominal speed) and outcomes of the
    queries one client sent."""

    def __init__(self):
        self.scaled: list[float] = []
        self.raw: list[float] = []
        self.failures: list[str] = []
        self.records: list[dict] = []
        self.rounds = 0
        self.elapsed = 0.0
        self.peak_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return self.attempted - len(self.failures)

    def add(self, label: str, raw: float | None, scaled: float | None, reason: str | None, **extra) -> None:
        if raw is not None:
            self.raw.append(raw)
            self.scaled.append(scaled)
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
        self.records.append({"query": label, "raw_s": raw, "scaled_s": scaled, "ok": reason is None, **extra})


def _label(query: dict) -> str:
    if "argv" in query:
        return " ".join(query["argv"])
    args = ", ".join("spec" if isinstance(a, dict) else json.dumps(a) for a in query["args"])
    return f"{query['fn']}({args})"


def run_library(queries: list[dict], seconds: float | None, trace_file: Path | None = None) -> Pass:
    """Whole rounds through one fresh worker until `seconds` have passed
    (one round when None).  A query's latency is its call's duration in the
    worker, rescaled by the calibrations taken around and during it."""
    result = Pass()
    worker = Worker(trace_file)
    try:
        try:
            worker.ready()
        except WorkerLost as exc:
            result.add("set-up", None, None, str(exc))
            return result  # the worker is killed below
        start = time.perf_counter()
        while True:
            for i, query in enumerate(queries):
                wire = {k: query[k] for k in ("fn", "args", "kwargs", "store") if k in query}
                wire["id"] = i
                try:
                    reply = worker.request(wire, workloads.QUERY_DEADLINE_S)
                except WorkerLost as exc:
                    result.add(_label(query), None, None, str(exc))
                    result.elapsed = time.perf_counter() - start
                    return result  # the worker is killed below
                raw = reply["seconds"]
                scaled = rescale(raw, calibrations=reply["calibrations"])
                reason = reply.get("error") or workloads.check_answer(query, reply["value"])
                result.add(_label(query), raw, scaled, reason, counters=reply.get("counters"))
            result.rounds += 1
            if seconds is None or time.perf_counter() - start >= seconds:
                break
        result.elapsed = time.perf_counter() - start
        result.peak_rss_mb = worker.close()
        worker = None
    finally:
        if worker is not None:
            worker.kill()
    return result


def run_cli(queries: list[dict], seconds: float | None, trace_dir: Path | None = None) -> Pass:
    """Whole rounds, one CLI process per query.  Its wall time is rescaled by
    the baseline processes before and after it and by the speed samples it
    took; traced through cli_traced.py into trace_dir when given."""
    result = Pass()
    speed_file = OUT / f"speed-{os.getpid()}.txt"
    start = time.perf_counter()
    count = 0
    before = baseline()
    while True:
        for query in queries:
            if trace_dir is None:
                cmd = [sys.executable, "-m", "cycloperm.cli", *query["argv"]]
            else:
                cmd = [sys.executable, str(HERE / "cli_traced.py"), str(trace_dir / f"{count}.json"), *query["argv"]]
            count += 1
            speed_file.unlink(missing_ok=True)
            run = run_child(cmd, workloads.QUERY_DEADLINE_S, speed_file)
            spent, *calibrations = map(float, speed_file.read_text().split()) if speed_file.exists() else [0.0]
            after = baseline()
            if run["timed_out"]:
                result.add(_label(query), None, None, f"no exit within {workloads.QUERY_DEADLINE_S} s")
            else:
                scaled = rescale(run["wall"] - spent, [before, after], calibrations)
                reason = workloads.check_cli(query, run["code"], run["out"], run["err"])
                result.add(_label(query), run["wall"], scaled, reason)
                result.peak_rss_mb = max(result.peak_rss_mb, run["rss_mb"])
            before = after
        result.rounds += 1
        if seconds is None or time.perf_counter() - start >= seconds:
            break
    result.elapsed = time.perf_counter() - start
    speed_file.unlink(missing_ok=True)
    return result


def measure_setup() -> tuple[list[float], list[float], str | None]:
    """Launch-to-import times of fresh workers, raw and rescaled by the
    baseline processes around each launch, and why a launch failed, if one
    did.  The first launch, which may write bytecode caches, is left out."""
    raw, scaled = [], []
    before = None
    for i in range(SETUP_SAMPLES + 1):
        worker = Worker()
        try:
            ready = worker.ready()
            worker.close()
        except WorkerLost as exc:
            return raw, scaled, f"launch {i}: {exc}"
        finally:
            if worker.proc.returncode is None:
                worker.kill()
        after = baseline()
        if i:
            raw.append(ready)
            scaled.append(rescale(ready, [before, after]))
        before = after
    return raw, scaled, None


# --- metrics ----------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND  # 1-based rank
    return ordered[k - 1], 100.0 * (k - 1) / (n - 1)


def end_to_end(run: Pass, setup_raw: list[float], setup_scaled: list[float]) -> tuple[dict, dict]:
    """Metrics and notes; all 0 when no query or no set-up came back (the
    run has failed then)."""
    if not (run.scaled and setup_scaled):
        return dict.fromkeys(("queries_per_s", "query_p50_ms", "query_tail_ms", "peak_rss_mb", "setup_s"), 0.0), {}
    tail_s, tail_pct = tail(run.scaled)
    raw_tail_s, _ = tail(run.raw)
    values = {
        "queries_per_s": run.completed / sum(run.scaled),
        "query_p50_ms": statistics.median(run.scaled) * 1000,
        "query_tail_ms": tail_s * 1000,
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": statistics.median(setup_scaled),
    }
    notes = {
        "queries_per_s": f"{run.completed} queries in {run.rounds} rounds; raw {run.completed / run.elapsed:.4g}/s over {run.elapsed:.2f} s wall",
        "query_p50_ms": f"raw {statistics.median(run.raw) * 1000:.4g} ms",
        "query_tail_ms": f"p{tail_pct:.1f} of {len(run.scaled)} samples, {TAIL_BEYOND} beyond it; raw {raw_tail_s * 1000:.4g} ms",
        "setup_s": f"median of {len(setup_scaled)} launches; raw {statistics.median(setup_raw):.4g} s",
    }
    return values, notes


def merge_traces(files: list[Path]) -> dict:
    merged = {"stats": {}, "edges": {}, "yields": {}, "brute_dets": 0, "brute_nonzero_dets": 0,
              "admissible_partitions": 0, "import_s": [], "spans": []}
    for proc, path in enumerate(files):
        if not path.exists():  # the process died before writing it
            continue
        data = json.loads(path.read_text())
        for name, values in data["stats"].items():
            acc = merged["stats"].setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for key in ("edges", "yields"):
            for parent, child, n in data[key]:
                merged[key][(parent, child)] = merged[key].get((parent, child), 0) + n
        for key in ("brute_dets", "brute_nonzero_dets", "admissible_partitions"):
            merged[key] += data[key]
        if "import_s" in data["extra"]:
            merged["import_s"].append(data["extra"]["import_s"])
        merged["spans"].extend([proc, *span] for span in data["spans"])
    return merged


def per_layer(trace: dict, extra: dict):
    """Metric name -> value; `<function>.<calls|busy_s|self_s|yielded>` are
    read off the trace aggregates, the rest are derived here or in `extra`."""
    stats = trace["stats"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    semiopen = "intlin.semiopen_lattice_count"
    values = {
        f"{semiopen}.minors_per_call": ratio(
            trace["edges"].get((semiopen, "intlin.det_rows"), 0), stats.get(semiopen, [0])[0]
        ),
        "zonotope.brute.nonzero_det_ratio": ratio(trace["brute_nonzero_dets"], trace["brute_dets"]),
        "linkage.f_vector.admissible_ratio": ratio(
            trace["admissible_partitions"],
            trace["yields"].get(("linkage.f_vector", "forests.set_partitions"), 0),
        ),
        "cli.import_s": statistics.median(trace["import_s"]) if trace["import_s"] else 0.0,
        **extra,
    }
    fields = {"calls": 0, "busy_s": 1, "self_s": 2, "yielded": 3}

    def lookup(metric: str) -> float:
        if metric in values:
            return values[metric]
        name, field = metric.rsplit(".", 1)
        return stats.get(name, [0, 0.0, 0.0, 0])[fields[field]]

    return lookup


def reconcile(records: list[dict]) -> list[str]:
    """Per-query work counters against the figures in ROADMAP.md."""
    expected = {
        "zonotope.lattice_count_bruteforce(6)": {
            "intlin.det_rows.calls": 154_310, "intlin.semiopen_lattice_count.calls": 27_896},
        "forests.forest_count(30)": {"forests.integer_partitions.yielded": 5_604},
    }
    lines = []
    for label, counts in expected.items():
        seen = next((r["counters"] for r in records if r["query"] == label and r.get("counters")), None)
        if seen is None:
            continue
        for key, want in counts.items():
            got = seen.get(key, 0)
            lines.append(f"counter {label} {key} = {got} ({'matches' if got == want else 'differs from'} {want})")
    return lines


def jobs2_speedup(reference: dict) -> tuple[Pass, float]:
    """The brute calls of `verify --n-max VERIFY_N_MAX` timed at jobs=1 and
    jobs=2 in one untraced worker: jobs=1 time / jobs=2 time.  The worker
    takes no calibrations while a fork pool runs (speed.py), so a jobs=2
    call is rescaled by those taken around it and in its serial stretches."""
    table = reference["values"]
    queries = [
        {"fn": fn, "args": [n], "kwargs": {"jobs": jobs}, "expect": table[fn][str(n)]}
        for fn in ("zonotope.volume_bruteforce", "zonotope.lattice_count_bruteforce")
        for n in range(2, workloads.VERIFY_N_MAX + 1)
        for jobs in (1, 2)  # interleaved, so drift in machine speed hits both
    ]
    run = run_library(queries, None)
    if len(run.scaled) != len(queries):
        return run, 0.0
    return run, sum(run.scaled[0::2]) / sum(run.scaled[1::2])


def run_probes(seed: int) -> tuple[int, list[str]]:
    """Inputs that hang at the seed, each under PROBE_DEADLINE_S."""
    failed = 0
    lines = []
    for probe in workloads.cli_probes(seed):
        run = run_child([sys.executable, "-m", "cycloperm.cli", *probe["argv"]], workloads.PROBE_DEADLINE_S)
        if run["timed_out"]:
            reason = f"no answer and no exit 2 within {workloads.PROBE_DEADLINE_S} s"
        else:
            reason = workloads.check_probe(probe, run["code"], run["out"], run["err"])
        failed += reason is not None
        lines.append(f"probe {' '.join(probe['argv'])[:60]}: {'FAILED ' + reason if reason else 'ok'}")
    return failed, lines


# --- environment ------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "commit": _commit(),
    }


def _commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None  # an exported checkout; src_sha256 identifies the code
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# --- main -------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float, reference: dict):
    queries = workloads.ROUNDS[workload](seed, reference)
    setup_raw, setup_scaled, setup_failure = measure_setup()
    if setup_failure:
        run = Pass()
        run.add("set-up", None, None, setup_failure)
    else:
        run = (run_cli if workload == "cli" else run_library)(queries, seconds)
    values, notes = end_to_end(run, setup_raw, setup_scaled)
    lines = [f"fail_ratio {len(run.failures) / run.attempted:.6g} ({len(run.failures)} of {run.attempted} queries)"]
    return [run], values.__getitem__, notes, lines


def traced_run(workload: str, seed: int, reference: dict):
    lines = []
    if workload == "cli":  # fork children would not report trace data back
        queries = workloads.cli_round(seed, reference, verify_jobs=1)
        untraced = run_cli(queries, None)
        with tempfile.TemporaryDirectory(dir=OUT) as trace_dir:
            traced = run_cli(queries, None, Path(trace_dir))
            trace = merge_traces(sorted(Path(trace_dir).glob("*.json"), key=lambda p: int(p.stem)))
        speedup_pass, speedup = jobs2_speedup(reference)
        probes_failed, probe_lines = run_probes(seed)
        lines += probe_lines
        passes = [untraced, traced, speedup_pass]
        extra = {"zonotope.jobs2_speedup": speedup, "cli.probe_failed": probes_failed}
    else:
        queries = workloads.ROUNDS[workload](seed, reference)
        untraced = run_library(queries, None)
        with tempfile.TemporaryDirectory(dir=OUT) as trace_dir:
            trace_file = Path(trace_dir) / "worker.json"
            traced = run_library(queries, None, trace_file)
            trace = merge_traces([trace_file])
        passes = [untraced, traced]
        extra = {"zonotope.jobs2_speedup": 0.0, "cli.probe_failed": 0}
    extra["trace.overhead_ratio"] = sum(traced.scaled) / sum(untraced.scaled) if untraced.scaled else 0.0
    spans_file = OUT / f"{workload}-s{seed}.spans.jsonl"
    with open(spans_file, "w") as fh:
        fh.write(json.dumps(["proc", "id", "parent", "query", "name", "start", "end", "self_s"]) + "\n")
        for span in trace["spans"]:
            fh.write(json.dumps(span) + "\n")
    lines += reconcile(traced.records)
    lines.append(f"spans {len(trace['spans'])} written to {spans_file.relative_to(ROOT)}")
    return passes, per_layer(trace, extra), {}, lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no cycloperm sources at {PACKAGE}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = workloads.load_reference()
    env = environment(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        passes, lookup, notes, lines = traced_run(args.workload, args.seed, reference)
        wanted = spec["per_layer"]
    else:
        passes, lookup, notes, lines = timed_run(args.workload, args.seed, args.seconds, reference)
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": lookup(m["name"]), "unit": m["unit"]} for m in wanted}
    failures = [f for p in passes for f in p.failures]
    summary = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps({
        "env": env, "summary": summary, "notes": notes, "lines": lines,
        "failures": failures, "queries": [r for p in passes for r in p.records],
    }, indent=1) + "\n")

    print("env " + json.dumps(env))
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    for line in lines:
        print(line)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
