"""One fresh interpreter running one CLI command over a list of model files.

    python3 bench/worker.py <spec.json> <spawn time>

The spec names the command, the files, the mode (`plain`, `trace` or
`count`) and where to write the result.  The files are run in order through
`gchodge.cli.main([command, file, "--json"])`, which is what
`gchodge <command> <dir> --all --json` does per file, with each report's
stdout captured.  `<spawn time>` is the parent's `time.monotonic()` just
before it started this process, so set-up time covers interpreter start and
the import of `gchodge.cli`.

With `"speed": true` in the spec (end-to-end runs) the worker also measures
the machine's speed (`bench/speed.py`): one calibration round after set-up,
one after each job and one every TICK_S seconds inside each job.  Each job
then carries `own` (its wall time minus the time spent sampling) and `norm`
(`own` rescaled to the reference speed), and the result carries
`setup_norm`, set-up time rescaled by the parent's round just before the
spawn and this process's round just after it.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402


def run_jobs(spec: dict, spawn: float) -> dict:
    sys.path.insert(0, spec["src"])
    import gchodge.cli as cli
    setup_s = time.monotonic() - spawn

    sampler = speed.Sampler() if spec.get("speed") else None
    if sampler:
        speed.kernel()                  # first round warms the code up
        sampler.round()
        kernel_s = (spec["spawn_kernel"] + sampler.rounds[-1][1]) / 2
        setup_norm = setup_s * speed.REF_S / kernel_s

    tool = None
    if spec["mode"] != "plain":
        import tracer
        tool = (tracer.Tracer() if spec["mode"] == "trace"
                else tracer.Counter(spec.get("sample_every", 0)))
        tool.install()

    jobs = []
    for n, path in enumerate(spec["files"]):
        if spec["mode"] == "trace":
            tool.start_job(n)
        buf = io.StringIO()
        error = None
        code = None
        if sampler:
            spent0 = sampler.spent
            sampler.arm()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main([spec["command"], path, "--json"])
        except (Exception, SystemExit):  # a failed job, not a failed run
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if spec["mode"] == "trace":
            tool.end_job()
        out = buf.getvalue()
        job = {"file": os.path.basename(path), "code": code,
               "start": t0, "end": t1, "error": error,
               "sha256": hashlib.sha256(out.encode()).hexdigest(),
               "verdicts": _verdicts(out)}
        if sampler:
            sampler.disarm()
            job["own"] = t1 - t0 - (sampler.spent - spent0)
            sampler.round()
        jobs.append(job)
    if sampler:
        for job in jobs:
            kernel_s = sampler.kernel_s(job["start"], job["end"])
            job["norm"] = job["own"] * speed.REF_S / kernel_s

    result = {"pid": os.getpid(), "setup_s": setup_s, "jobs": jobs,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if sampler:
        result["setup_norm"] = setup_norm
    if spec["mode"] == "trace":
        result["trace"] = tool.summary()
        if spec.get("spans"):
            tool.dump(spec["spans"])
    elif spec["mode"] == "count":
        result["count"] = {"ops": tool.ops, "axpy": tool.axpy,
                           "samples": tool.samples}
    return result


def _verdicts(out: str):
    try:
        doc = json.loads(out)
        return [[c["name"], c["verdict"]] for c in doc["checks"]]
    except (ValueError, KeyError, TypeError):
        return None


def main():
    spawn = float(sys.argv[2])
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = run_jobs(spec, spawn)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
