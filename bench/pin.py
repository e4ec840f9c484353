"""Record the reference answers and the multiply-add operands.

    python3 bench/pin.py

Run from the repository root at the commit the references should describe.
Writes `bench/reference.json`:

- corpus, scale8: per "<command> <file>" job its exit code, ordered
  (check, verdict) list and the sha256 of its `--json` stdout;
- dense6: per seed in 0..DENSE_SEEDS-1 the report digests.  Exit codes and
  verdict lists of dense6 jobs are not stored: they must equal the base
  model's corpus entry, and this script refuses to pin a seed where they do
  not.

and `bench/operands.json`: per workload, about 2000 (re, im) operand pairs
taken from every k-th QI multiplication of a counting pass (dense6 at seed 0).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads

SAMPLE_EVERY = 97
DENSE_SEEDS = 32
MAX_SAMPLES = 2000


def answers(results) -> dict:
    out = {}
    for cmd, files, res in results:
        if res is None:
            raise SystemExit(f"{cmd}: worker crashed or timed out")
        for path, job in zip(files, res["jobs"]):
            key = workloads.reference_key(cmd, path)
            if job["error"] or job["verdicts"] is None:
                raise SystemExit(f"{key}: no valid report\n{job['error']}")
            out[key] = {"exit": job["code"], "verdicts": job["verdicts"],
                        "sha256": job["sha256"]}
    return out


def main() -> int:
    bench = run.Bench(Path.cwd())
    ref: dict = {"dense6": {}}
    operands = {}
    try:
        for workload in workloads.WORKLOADS:
            plan = workloads.plan(workload, bench.root, bench.build, 0)
            counted = bench.run_pass(plan, "count", sample_every=SAMPLE_EVERY)
            samples = [s for _c, _f, r in counted for s in r["count"]["samples"]]
            step = max(1, len(samples) // MAX_SAMPLES)
            operands[workload] = samples[::step][:MAX_SAMPLES]
            if workload != "dense6":
                ref[workload] = answers(bench.run_pass(plan, "plain"))
        for seed in range(DENSE_SEEDS):
            plan = workloads.plan("dense6", bench.root, bench.build, seed)
            got = answers(bench.run_pass(plan, "plain"))
            for key, job in got.items():
                base = ref["corpus"][key]
                if (job["exit"], job["verdicts"]) != (base["exit"], base["verdicts"]):
                    raise SystemExit(f"dense6 seed {seed}, {key}: answer differs "
                                     "from the base model's")
            ref["dense6"][str(seed)] = {k: v["sha256"] for k, v in got.items()}
            print(f"dense6 seed {seed} pinned", file=sys.stderr)
    finally:
        bench.close()
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    run.OPERANDS.write_text("{\n" + ",\n".join(
        f"{json.dumps(w)}: [\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]"
        for w, rows in operands.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
