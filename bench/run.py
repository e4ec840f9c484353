"""gchodge benchmark: three workloads, checked answers, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {corpus,scale8,dense6} --seed N --seconds S --trace {0,1}

Run from the repository root.  Every CLI command runs in a fresh interpreter
(`bench/worker.py`), serially, one worker at a time.  Every job's exit code,
ordered (check, verdict) list and report digest is checked against
`bench/reference.json`.

--trace 0 (end-to-end): whole passes over the workload while the next one,
judged by the last, fits in --seconds (at least one), with set-up probes
spread over the first pass.  Times are rescaled to a reference machine
speed measured around and during every job (`bench/speed.py`).
Prints pass_s, job_p50_s, setup_s and peak_rss_mb, and as information the
wall time of a pass and, with at least 100 jobs, the p90 job time.

--trace 1 (per layer): one untraced pass, one traced pass (spans around every
public engine entry point, `bench/tracer.py`), one counting pass (scalar ops
and vec_axpy calls) and the scalar multiply-add probe.  Prints the per-layer
metrics and the tracing overhead.  Traced and counted reports must be
byte-identical to the untraced ones.  Spans are written to
`.bench_build/trace/<workload>/`.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Scratch files go to `.bench_build/` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OPERANDS = HERE / "operands.json"
SETUP_SAMPLES = 20      # set-up probes per run, spread over its first pass
WORKER_TIMEOUT_S = 150
MADD_REPEATS = 9

END_TO_END = {"pass_s": "s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
P90_MIN_JOBS = 100


class Bench:
    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.build = root / ".bench_build"
        self.build.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=self.build))
        self._n = 0
        self.setups: list[float] = []     # set-up times of the probes
        self.probe_s = 0.0                # wall time spent in probes

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def spawn(self, command: str, files: list[str], mode: str, **extra):
        """Run one worker to completion; its result dict, or None if it
        crashed or timed out."""
        self._n += 1
        out = self.tmp / f"out-{self._n}.json"
        spec_path = self.tmp / f"spec-{self._n}.json"
        spec = {"src": str(self.src), "command": command, "files": files,
                "mode": mode, "out": str(out), **extra}
        if extra.get("speed"):
            spec["spawn_kernel"] = speed.kernel()
        spec_path.write_text(json.dumps(spec))
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(spec_path), repr(spawn)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.exists():
            return None
        return json.loads(out.read_text())

    def run_pass(self, plan, mode: str, probes: int = 0, **extra):
        """[(command, files, result or None)] for one pass over the plan,
        with `probes` set-up probes before each worker."""
        out = []
        for i, (cmd, files) in enumerate(plan):
            self.probe(probes)
            kw = dict(extra)
            if "spans" in kw:
                kw["spans"] = f"{kw['spans']}/{i:02d}-{cmd}"
            out.append((cmd, files, self.spawn(cmd, files, mode, **kw)))
        return out

    def probe(self, n: int):
        """Spawn n workers that only start up (`emit` over no files) and keep
        their set-up times."""
        t0 = time.monotonic()
        for _ in range(n):
            r = self.spawn("emit", [], "plain", speed=True)
            if r:
                self.setups.append(r["setup_norm"])
        self.probe_s += time.monotonic() - t0


# -- checking -------------------------------------------------------------------

def expected_answers(workload: str, seed: int, ref: dict):
    """key -> (exit code, verdict list, sha256 or None)."""
    if workload in ("corpus", "scale8"):
        return {k: (v["exit"], v["verdicts"], v["sha256"])
                for k, v in ref[workload].items()}
    digests = ref["dense6"].get(str(seed), {})
    return {k: (v["exit"], v["verdicts"], digests.get(k))
            for k, v in ref["corpus"].items()}


def check_pass(results, expected, failures: list, like=None):
    """Count attempted and failed jobs of one pass.  `like` is another pass
    of the same plan whose reports this one must reproduce byte for byte."""
    attempted = failed = 0
    pids = set()
    digests = {}
    for cmd, files, res in results:
        if res is not None:
            if res["pid"] in pids:
                res = None
                failures.append(f"{cmd}: worker process reused")
            else:
                pids.add(res["pid"])
        for n, path in enumerate(files):
            key = workloads.reference_key(cmd, path)
            attempted += 1
            why = None
            if res is None:
                why = "worker crashed or timed out"
            else:
                job = res["jobs"][n]
                code, verdicts, sha = expected[key]
                digests[key] = job["sha256"]
                if job["error"]:
                    why = "traceback: " + job["error"].strip().splitlines()[-1]
                elif job["code"] != code:
                    why = f"exit {job['code']}, expected {code}"
                elif job["verdicts"] != verdicts:
                    why = "verdict list differs from the reference"
                elif sha is not None and job["sha256"] != sha:
                    why = "report digest differs from the reference"
                elif like is not None and like.get(key) != job["sha256"]:
                    why = "report differs from the untraced pass"
            if why:
                failed += 1
                failures.append(f"{key}: {why}")
    return attempted, failed, digests


def pass_seconds(results) -> float:
    """Wall time from each worker's first job start to its last job end,
    summed over the serial workers: interpreter start is excluded."""
    return sum(r["jobs"][-1]["end"] - r["jobs"][0]["start"]
               for _c, _f, r in results if r and r["jobs"])


def norm_pass_seconds(results) -> float:
    """Time to verdict summed over the jobs of one pass, each job rescaled
    to the reference speed (`bench/speed.py`)."""
    return sum(j["norm"] for _c, _f, r in results if r for j in r["jobs"])


def job_seconds(passes) -> list[float]:
    """Time to verdict per (command, file) job at the reference speed, the
    median over passes."""
    times: dict[tuple, list[float]] = {}
    for results in passes:
        for cmd, files, r in results:
            if r:
                for path, j in zip(files, r["jobs"]):
                    times.setdefault((cmd, path), []).append(j["norm"])
    return [statistics.median(t) for t in times.values()]


def nearest_rank(values: list[float], q: float) -> float:
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


# -- the two kinds of run -----------------------------------------------------

def end_to_end(bench: Bench, plan, expected, seconds: float, failures):
    bench.spawn("emit", [], "plain")      # warm-up: byte-compiles the engine
    speed.kernel()                        # warm-up of the calibration kernel
    probes = math.ceil(SETUP_SAMPLES / len(plan))
    passes = []
    attempted = failed = 0
    spent = 0.0                           # wall time of the passes, probes excluded
    while True:
        p0, q0 = time.monotonic(), bench.probe_s
        res = bench.run_pass(plan, "plain", probes=0 if passes else probes,
                             speed=True)
        took = time.monotonic() - p0 - (bench.probe_s - q0)
        spent += took
        passes.append(res)
        a, f, _ = check_pass(res, expected, failures)
        attempted += a
        failed += f
        if spent + took > seconds:
            break
    jobs = job_seconds(passes) or [0.0]
    workers = [r for p in passes for _c, _f, r in p if r]
    setups = bench.setups + [r["setup_norm"] for r in workers]
    metrics = {
        "pass_s": statistics.median(norm_pass_seconds(p) for p in passes),
        "job_p50_s": statistics.median(jobs),
        "setup_s": statistics.median(setups or [0.0]),
        "peak_rss_mb": max((r["maxrss_kb"] for r in workers), default=0) / 1024,
    }
    # The p90 is printed, not gated: a gated metric must be reported by every
    # workload, and scale8 and dense6 have too few jobs for a p90.
    info = {"passes": len(passes),
            "wall pass_s": f"{statistics.median(pass_seconds(p) for p in passes):.6g} s",
            "setup samples": len(setups),
            "job samples": len(jobs)}
    if len(jobs) >= P90_MIN_JOBS:
        info["job_p90_s"] = f"{nearest_rank(jobs, 0.9):.6g} s"
    return attempted, failed, metrics, info


def per_layer(bench: Bench, workload: str, plan, expected, failures):
    plain = bench.run_pass(plan, "plain")
    a0, f0, digests = check_pass(plain, expected, failures)
    span_dir = bench.build / "trace" / workload
    shutil.rmtree(span_dir, ignore_errors=True)
    span_dir.mkdir(parents=True)
    traced = bench.run_pass(plan, "trace", spans=str(span_dir))
    a1, f1, _ = check_pass(traced, expected, failures, like=digests)
    counted = bench.run_pass(plan, "count")
    a2, f2, _ = check_pass(counted, expected, failures, like=digests)

    summaries = [r["trace"] for _c, _f, r in traced if r]
    tallies = [r["count"] for _c, _f, r in counted if r]
    busy = {layer: sum(s["busy"][layer] for s in summaries)
            for layer in tracer.LAYERS}
    m = {k: sum(s["counts"][k] for s in summaries) for k in tracer.COUNTED}
    inserts = m["linalg.insert.calls"]
    twisted = m["cohomology.twisted_builds"]
    useful = sum(s["insert_useful"] for s in summaries)
    models = sum(s["models_per_job"] for s in summaries)
    base = pass_seconds(plain)
    m.update({
        "scalars.ops": sum(t["ops"] for t in tallies),
        "scalars.madd_ns": madd_ns(bench, workload),
        "linalg.axpy.calls": sum(t["axpy"] for t in tallies),
        "linalg.insert_useful_ratio": useful / inserts if inserts else 1.0,
        "linalg.rep_bits_max": max((s["rep_bits_max"] for s in summaries), default=0),
        "gcs.struct_init_s": sum(s["struct_init_s"] for s in summaries),
        "cohomology.twisted_useful_ratio": models / twisted if twisted else 1.0,
        "cli.self_s": busy.pop("cli"),
        "trace.overhead": pass_seconds(traced) / base if base else 0.0,
    })
    m.update({f"{layer}.busy_s": t for layer, t in busy.items()})
    return a0 + a1 + a2, f0 + f1 + f2, m


def madd_ns(bench: Bench, workload: str) -> float:
    """ns per QI multiply-add over operands sampled from this workload's
    counting run at the seed commit, rebuilt through the public QI(re, im)."""
    sys.path.insert(0, str(bench.src))
    from gchodge.scalars import QI
    pairs = [(QI(Fraction(ar), Fraction(ai)), QI(Fraction(br), Fraction(bi)))
             for ar, ai, br, bi in json.loads(OPERANDS.read_text())[workload]]
    times = []
    for _ in range(MADD_REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            a * b + a
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(pairs) * 1e9


UNITS = {"scalars.madd_ns": "ns", "trace.overhead": "ratio",
         "linalg.insert_useful_ratio": "ratio",
         "cohomology.twisted_useful_ratio": "ratio",
         "linalg.rep_bits_max": "bits"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # SIGTERM unwinds like an exit, so `Bench.spawn` kills its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = Path.cwd()
    if not (root / "src" / "gchodge" / "cli.py").is_file() \
            or not (root / "corpus").is_dir():
        print("run from the repository root: src/gchodge and corpus/ are "
              "missing here", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE.read_text())
    bench = Bench(root)
    failures: list[str] = []
    try:
        plan = workloads.plan(args.workload, root, bench.build, args.seed)
        expected = expected_answers(args.workload, args.seed, ref)
        if args.trace:
            attempted, failed, metrics = per_layer(
                bench, args.workload, plan, expected, failures)
            info = {}
        else:
            attempted, failed, metrics, info = end_to_end(
                bench, plan, expected, args.seconds, failures)
    finally:
        bench.close()

    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {END_TO_END.get(name) or unit_of(name)}")
    units = END_TO_END if not args.trace else {k: unit_of(k) for k in metrics}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
