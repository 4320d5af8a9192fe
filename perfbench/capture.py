"""Capture the reference stdout digests and exit codes of every benchmark job.

Run from the repository root, on the commit whose output is the reference::

    python3 perfbench/capture.py

Every job of every workload (all ``structure-pipeline`` variants) and
``--version`` runs twice; the two runs must agree byte for byte and pass the
oracle before ``references.json`` is written.
"""

from __future__ import annotations

import json
import random
import sys

import oracle
from run import REFERENCES, VERSION_JOB, child_env, digest, git_commit, job_key, run_job
from workloads import WORKLOADS


def main() -> int:
    env = child_env()
    jobs = [VERSION_JOB]
    for workload in WORKLOADS.values():
        jobs += workload.every_job()
    references = {}
    rng = random.Random(0)
    for args in jobs:
        first, second = run_job(args, env), run_job(args, env)
        if first.timed_out or (first.exit_code, first.stdout) != (second.exit_code, second.stdout):
            print(f"not deterministic: {job_key(args)}", file=sys.stderr)
            return 1
        problems = oracle.check(args, first.stdout.decode("utf-8"), rng)
        if problems:
            print(f"oracle rejects {job_key(args)}: {problems[:3]}", file=sys.stderr)
            return 1
        references[job_key(args)] = {
            "exit_code": first.exit_code,
            "sha256": digest(first.stdout),
            "bytes": len(first.stdout),
        }
        print(f"{first.wall_s:7.3f} s  {job_key(args)[:90]}", file=sys.stderr)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"commit": git_commit(), "jobs": references}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
