"""Spans around the calls into each layer of markedpcp, for the traced run.

`traced(recorder)` replaces each layer-boundary function by a wrapper in
every markedpcp module namespace that binds it (`iteration_bound` is bound
in both `group` and `monoid`, `apply` in `morphisms`, `monoid` and `group`),
so calls between modules are recorded too.  Leaving the block restores the
originals.  Each span records its id, its parent span, the benchmark call
it belongs to, the layer function's name, and its start and end time.
Spans stay in memory; `summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

from markedpcp import stallings
from markedpcp.instances import ReductionStep
from markedpcp.words import Word

# Layer-boundary functions that get a span, by defining module.
SPANNED = {
    "morphisms": ("apply", "is_immersion", "is_marked", "require_marked", "require_immersion"),
    "instances": ("canonical_form",),
    "group": ("prefix_complexity", "iteration_bound", "reduce_group_instance", "solve_pair", "solve_set"),
    "monoid": ("compute_blocks", "reduce_instance", "solve_pair", "solve_set"),
    "stallings": ("bouquet", "core_of_pair", "petals_to_morphisms"),
    "fileformat": ("parse", "serialize"),
    "cli": ("run",),
}
SELFCHECKS = frozenset(f"morphisms.{n}" for n in SPANNED["morphisms"] if n != "apply")
STEP_CHECK = "instances.ReductionStep"

# Unwrapped, so that derived sizes do not add to the call counts.
_bouquet = stallings.bouquet

Span = tuple[int, int, int, str, int, int]  # id, parent, call, name, start_ns, end_ns


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack = [0]  # span ids; 0 is the benchmark call itself
        self.next_id = 1
        self.call = 0
        self.word_inits = 0
        self.blocks_found = 0
        self.core_pairs: list[tuple[object, object, int]] = []


def _spanned(rec: Recorder, name: str, fn: Callable, after: Callable | None) -> Callable:
    clock = time.perf_counter_ns
    stack = rec.stack
    spans = rec.spans

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.next_id
        rec.next_id = sid + 1
        parent = stack[-1]
        stack.append(sid)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            spans.append((sid, parent, rec.call, name, start, end))
        if after is not None:
            after(rec, args, result)
        return result

    return wrapper


def _count_blocks(rec: Recorder, args: tuple, result: tuple) -> None:
    rec.blocks_found += len(result)


def _keep_pair(rec: Recorder, args: tuple, result: tuple) -> None:
    rec.core_pairs.append((args[0], args[1], result[0].num_vertices))


_AFTER = {"monoid.compute_blocks": _count_blocks, "stallings.core_of_pair": _keep_pair}


@contextlib.contextmanager
def traced(rec: Recorder) -> Iterator[None]:
    wrappers = {}
    for modname, names in SPANNED.items():
        module = importlib.import_module(f"markedpcp.{modname}")
        for n in names:
            fn = getattr(module, n)
            wrappers[id(fn)] = (fn, _spanned(rec, f"{modname}.{n}", fn, _AFTER.get(f"{modname}.{n}")))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "markedpcp" and not modname.startswith("markedpcp."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, hit[1])

    step_check = ReductionStep.__post_init__
    word_check = Word.__post_init__

    def counted_word_check(self) -> None:
        rec.word_inits += 1
        word_check(self)

    patched += [(ReductionStep, "__post_init__", step_check), (Word, "__post_init__", word_check)]
    ReductionStep.__post_init__ = _spanned(rec, STEP_CHECK, step_check, None)
    Word.__post_init__ = counted_word_check
    try:
        yield
    finally:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)


def summarize(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times in seconds."""
    parent_of: dict[int, int] = {}
    name_of: dict[int, str] = {}
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _, name, start, end in rec.spans:
        parent_of[sid] = parent
        name_of[sid] = name
        child_ns[parent] += end - start

    count: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    selfcheck_ns = 0
    for sid, parent, _, name, start, end in rec.spans:
        d = end - start
        count[name] += 1
        total_ns[name] += d
        self_ns[name] += d - child_ns[sid]
        if name in SELFCHECKS:
            # only the outermost self-check, so nested checks are not counted twice
            p = parent
            while p and name_of[p] not in SELFCHECKS:
                p = parent_of[p]
            if not p:
                selfcheck_ns += d

    def s(ns: int) -> float:
        return ns / 1e9

    product = sum(_bouquet(g).num_vertices * _bouquet(h).num_vertices for g, h, _ in rec.core_pairs)
    core = sum(n for _, _, n in rec.core_pairs)
    return {
        "words.word_inits": rec.word_inits,
        "morphisms.selfcheck_s": s(selfcheck_ns),
        "morphisms.apply_calls": count["morphisms.apply"],
        "morphisms.apply_s": s(total_ns["morphisms.apply"]),
        "instances.step_check_s": s(total_ns[STEP_CHECK]),
        "instances.canonical_form_s": s(total_ns["instances.canonical_form"]),
        "group.prefix_complexity_s": s(total_ns["group.prefix_complexity"]),
        "group.reduce_s": s(total_ns["group.reduce_group_instance"]),
        "group.steps": count["group.reduce_group_instance"],
        "group.solve_self_s": s(self_ns["group.solve_pair"] + self_ns["group.solve_set"]),
        "monoid.compute_blocks_s": s(total_ns["monoid.compute_blocks"]),
        "monoid.blocks_found": rec.blocks_found,
        "monoid.reduce_s": s(total_ns["monoid.reduce_instance"]),
        "monoid.steps": count["monoid.reduce_instance"],
        "monoid.solve_self_s": s(self_ns["monoid.solve_pair"] + self_ns["monoid.solve_set"]),
        "stallings.core_of_pair_s": s(total_ns["stallings.core_of_pair"]),
        "stallings.core_of_pair_calls": count["stallings.core_of_pair"],
        "stallings.petals_to_morphisms_s": s(total_ns["stallings.petals_to_morphisms"]),
        "stallings.bouquet_calls": count["stallings.bouquet"],
        "stallings.product_vertices": product,
        "stallings.core_vertices": core,
        "stallings.core_share": core / product if product else 0.0,
        "fileformat.parse_s": s(total_ns["fileformat.parse"]),
        "fileformat.serialize_s": s(total_ns["fileformat.serialize"]),
        "cli.run_self_s": s(self_ns["cli.run"]),
    }


def write_spans(rec: Recorder, path) -> None:
    """One line per span: id, parent, call, name, start_ns, end_ns."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("id,parent,call,name,start_ns,end_ns\n")
        for span in rec.spans:
            out.write(",".join(map(str, span)) + "\n")
