"""The benchmark's workloads, built from a seed as `.pcp` instance texts.

Each workload is a fixed list of calls; the timed loop cycles through it.
Why each workload exists, and what it should and should not move, is in
README.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import generators as gen
from markedpcp.instances import Instance
from markedpcp.words import GROUP, MONOID, Alphabet

# Oracle radii: the largest that keep the brute-force check of every
# distinct instance to a few seconds per run.
SMALL_MONOID_RADIUS = 6
SMALL_GROUP_RADIUS = 4
LARGE_GROUP_RADIUS = 2

SMALL_GROUPS = 1000       # small-mixed: group pairs, each preceded by
MONOIDS_PER_GROUP = 3     # this many monoid pairs (about half the time each)
LARGE_PAIRS = 200         # group-large
LARGE_MAX_RANK = 10
LARGE_MAX_LEN = 60
FAMILIES_PER_MODE = 100   # planted-families: 3-map families per mode
TRAIL_MONOID_PAIRS = 40   # planted-families: pairs with trails >= 4, drawn
TRAIL_GROUP_PAIRS = 12    # from the pool that mine_trails.py wrote
LONG_TRAILS = Path(__file__).resolve().parent / "long_trails.json"


@dataclass(frozen=True)
class Call:
    """One call of the closed loop: an instance text and how to solve it."""

    text: str
    mode: str
    family: bool  # solved as a family (`solve --set`), else as a pair
    radius: int   # radius of the independent oracle check


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    calls: tuple[Call, ...]
    via_cli: bool  # calls go through `markedpcp.cli.run`, else `solve_pair`
    counts: dict[str, int]


def _small_mixed(rng: random.Random) -> tuple[list[Call], dict[str, int]]:
    calls = []
    for _ in range(SMALL_GROUPS):
        for _ in range(MONOIDS_PER_GROUP):
            inst = gen.random_monoid_instance(rng, 3, 4)
            calls.append(Call(gen.to_text(inst), MONOID, False, SMALL_MONOID_RADIUS))
        inst = gen.random_group_instance(rng, 3, 4)
        calls.append(Call(gen.to_text(inst), GROUP, False, SMALL_GROUP_RADIUS))
    counts = {"monoid_pairs": SMALL_GROUPS * MONOIDS_PER_GROUP, "group_pairs": SMALL_GROUPS}
    return calls, counts


def _group_large(rng: random.Random) -> tuple[list[Call], dict[str, int]]:
    # Ranks (|Sigma|, |Delta|) run through a fixed schedule rather than being
    # drawn at random: solve time grows steeply with rank, and a random rank
    # mix moves the median from seed to seed more than any code change would.
    calls = []
    for i in range(LARGE_PAIRS):
        k = 1 + i % LARGE_MAX_RANK
        m = k + (i // LARGE_MAX_RANK) % (LARGE_MAX_RANK + 1 - k)
        sigma = Alphabet(tuple(f"a{j}" for j in range(k)), GROUP)
        delta = Alphabet(tuple(f"x{j}" for j in range(m)), GROUP)
        g = gen.random_immersion(rng, sigma, delta, LARGE_MAX_LEN)
        h = gen.random_immersion(rng, sigma, delta, LARGE_MAX_LEN)
        calls.append(Call(gen.to_text(Instance(g, h)), GROUP, False, LARGE_GROUP_RADIUS))
    return calls, {"group_pairs": LARGE_PAIRS}


def _radius(mode: str) -> int:
    return SMALL_MONOID_RADIUS if mode == MONOID else SMALL_GROUP_RADIUS


def _planted_families(rng: random.Random) -> tuple[list[Call], dict[str, int]]:
    streams = []
    for mode in (MONOID, GROUP):
        fams = [gen.planted_family(rng, mode) for _ in range(FAMILIES_PER_MODE)]
        streams.append([Call(gen.to_text(f), mode, True, _radius(mode)) for f in fams])
    pool = json.loads(LONG_TRAILS.read_text(encoding="utf-8"))
    for mode, want in ((MONOID, TRAIL_MONOID_PAIRS), (GROUP, TRAIL_GROUP_PAIRS)):
        texts = rng.sample(pool[mode], want)
        streams.append([Call(text, mode, False, _radius(mode)) for text in texts])
    # round-robin, so every stretch of the loop sees every kind of call
    calls = []
    for i in range(max(len(s) for s in streams)):
        calls += [s[i] for s in streams if i < len(s)]
    counts = {
        "monoid_families": len(streams[0]),
        "group_families": len(streams[1]),
        "monoid_long_trails": len(streams[2]),
        "group_long_trails": len(streams[3]),
    }
    return calls, counts


def build(name: str, seed: int) -> Workload:
    """The workload `name` for `seed`; the same pair always gives the same texts."""
    makers = {
        "small-mixed": _small_mixed,
        "group-large": _group_large,
        "planted-families": _planted_families,
    }
    rng = random.Random(f"{name}/{seed}")
    calls, counts = makers[name](rng)
    return Workload(name, seed, tuple(calls), name == "planted-families", counts)
