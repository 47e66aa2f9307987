"""Record the reference digests the benchmark checks every output against.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose outputs are the reference.
It makes every call any workload can make (each scene with each pipeline
seed), refuses a report that breaks an invariant, and writes
perfbench/reference_digests.json: per reference section, report file name ->
payload digest and "<scene>_<seed>/summary.*" -> file digest.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    from handover import cli, suite

    work = os.path.join(run.ROOT, ".perfbench_work", f"record-{os.getpid()}")
    sections: dict[str, dict[str, str]] = {}
    try:
        for name, workload in run.WORKLOADS.items():
            if workload.reference in sections:
                continue
            digests = sections[workload.reference] = {}
            scenes = run.make_inputs(suite, workload, os.path.join(work, workload.reference))
            for scene in run.SCENES:
                for seed in run.PIPELINE_SEEDS:
                    out, target = run.fresh_output(workload, work, scene, seed)
                    code, _, err = run.call_cli(cli, run.argv_for(workload, scenes[scene], seed, target))
                    if code != 0:
                        raise SystemExit(f"{name} {scene} seed {seed}: exit {code} {err}")
                    reports, summaries = run.expected_outputs(workload, scene, seed)
                    for report_name in reports:
                        with open(os.path.join(out, report_name), "rb") as fh:
                            raw = fh.read()
                        problems = run.report_problems(json.loads(raw))
                        if problems:
                            raise SystemExit(f"{report_name}: {'; '.join(problems)}")
                        digests[report_name] = run.payload_digest(raw)
                    for summary_name in summaries:
                        with open(os.path.join(out, summary_name), "rb") as fh:
                            digests[f"{scene}_{seed}/{summary_name}"] = run.file_digest(fh.read())
                    print(f"{workload.reference}: {scene} seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(sections, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
