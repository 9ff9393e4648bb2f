"""Mine the pool of long-trail pairs that planted-families draws from.

    python3 perfbench/mine_trails.py

Random pairs (rank <=3, image length <=5) are drawn from a fixed seed and
kept when the solver's reduction trail has at least 4 steps.  The texts are
written to `long_trails.json`.  Mining calls the solver, so it is done once
and the pool is committed: the workload then does not depend on the code
under test.  Re-mine only when a change to the workload is meant, and then
re-record the digests.
"""

from __future__ import annotations

import json
import random
import sys

import run

POOL_SEED = "long-trails"
POOL_SIZES = {"monoid": 200, "group": 60}


def main() -> int:
    run._import_package()
    import generators as gen
    import workloads

    rng = random.Random(POOL_SEED)
    pool = {}
    for mode, want in POOL_SIZES.items():
        pairs = gen.mine_long_trails(rng, mode, want)
        if len(pairs) < want:
            raise SystemExit(f"error: only {len(pairs)} of {want} {mode} pairs found")
        pool[mode] = [gen.to_text(p) for p in pairs]
    workloads.LONG_TRAILS.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
