"""Record the input and output digests that run.py checks, per workload and seed.

    python3 perfbench/record_digests.py

Each (workload, seed) for seeds 0-99 is generated and solved once,
untimed, and the digests of its instance texts and of its outputs are
written to `digests.json`.  Re-record only when a change to the workloads is meant;
output bytes must stay the same across changes to the solver.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import sys

import run

SEEDS = range(100)
JOBS = 2


def _digest(task: tuple[str, int]) -> tuple[str, int, dict[str, str]]:
    name, seed = task
    run._import_package()
    import workloads

    wl = workloads.build(name, seed)
    workdir = run.OUT / f"record-{name}-{seed}"
    try:
        caller = run.Caller(wl, workdir)
        caller.parse_all()
        outputs = [caller(i)[1] for i in range(len(wl.calls))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return name, seed, run.digests(wl, outputs)


def main() -> int:
    tasks = [(name, seed) for seed in SEEDS for name in run.NAMES]
    recorded: dict[str, dict[str, dict[str, str]]] = {name: {} for name in run.NAMES}
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        for name, seed, found in pool.imap_unordered(_digest, tasks):
            recorded[name][str(seed)] = found
            print(f"{name} {seed} {found['outputs'][:16]}", file=sys.stderr)
    for name in recorded:
        recorded[name] = dict(sorted(recorded[name].items(), key=lambda kv: int(kv[0])))
    run.DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
