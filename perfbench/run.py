"""Seeded benchmark of markedpcp: solve latency, throughput, set-up time and
memory, with a traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; markedpcp is imported from `src/`.
The workload's instances are generated from the seed as `.pcp` texts.  The
loop is closed with one client: one call at a time, one thread, making
whole passes through the workload's calls until S seconds have passed.
Every distinct call's output is checked against the brute-force oracle
after the timed phase, every repeated call's output against the first, and
the digests of inputs and outputs against `digests.json`.

With --trace 0 the end-to-end metrics are printed; with --trace 1 untraced
and traced passes alternate and the per-layer metrics are printed.  The
last line of stdout is one JSON object; the lines before it are a readable
summary.  README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
# Set-up is measured in three rounds (before the timed loop, after it, and
# after the checks) so that its median spans the run's changes in machine speed.
SETUP_PROBES_PER_ROUND = 3
PROBE_TIMEOUT_S = 120

NAMES = ("small-mixed", "group-large", "planted-families")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package() -> None:
    """Put the checkout's package and the benchmark's modules on the path."""
    if not (SRC / "markedpcp" / "__init__.py").is_file():
        raise SystemExit(f"error: no markedpcp package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path[:0] = [str(SRC), str(HERE)]


# ---------------------------------------------------------------- calls


class Caller:
    """Runs call i of a workload and returns (seconds, output text or None).

    The time covers the call into the public API only: `solve_pair` on a
    parsed instance, or `cli.run` on the instance file.  Functions are
    looked up on their modules at every call, so the traced run sees them.
    """

    def __init__(self, wl, workdir: Path) -> None:
        from markedpcp import cli, fileformat, group, monoid

        self.wl = wl
        self.cli = cli
        self.fileformat = fileformat
        self.solvers = {"monoid": monoid, "group": group}
        self.problems: list = []
        self.argvs: list[list[str]] = []
        if wl.via_cli:
            workdir.mkdir(parents=True, exist_ok=True)
            for i, call in enumerate(wl.calls):
                path = workdir / f"{i:04d}.pcp"
                path.write_text(call.text, encoding="utf-8")
                self.argvs.append(["solve", "--set", str(path)] if call.family else ["solve", str(path)])

    def parse_all(self) -> None:
        """Parse every text (the set-up work, repeated in each traced pass)."""
        if not self.wl.via_cli:
            self.problems = [self.fileformat.parse(c.text) for c in self.wl.calls]

    def __call__(self, i: int) -> tuple[float, str | None]:
        clock = time.perf_counter
        if self.wl.via_cli:
            buf = io.StringIO()
            with redirect_stdout(buf):
                start = clock()
                code = self.cli.run(self.argvs[i])
                elapsed = clock() - start
            return elapsed, buf.getvalue() if code == 0 else None
        solver = self.solvers[self.wl.calls[i].mode]
        start = clock()
        result = solver.solve_pair(self.problems[i])
        elapsed = clock() - start
        return elapsed, self.fileformat.serialize(result)


class Tally:
    """Outputs of the first pass, and per-call failures of later passes."""

    def __init__(self, n: int) -> None:
        self.first: list[str | None] = [None] * n
        self.calls = [0] * n
        self.failed = [0] * n
        # 8 bytes a call, so that the number of calls barely moves peak_rss_mb
        self.times = array.array("d")

    def run(self, caller: Caller, i: int, first_pass: bool) -> float | None:
        self.calls[i] += 1
        try:
            elapsed, out = caller(i)
        except Exception as exc:  # a failing call is counted, and the loop goes on
            print(f"call {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        if first_pass:
            self.first[i] = out
        if out is None or out != self.first[i]:
            self.failed[i] += 1
            return None
        self.times.append(elapsed)
        return elapsed

    def failures(self, checked: list[bool]) -> int:
        """Failed calls: raised, differed from the first output, or belong
        to an instance whose output failed the oracle check."""
        return sum(c if not ok else f for c, f, ok in zip(self.calls, self.failed, checked))


def timed_loop(caller: Caller, n: int, seconds: float) -> tuple[Tally, float]:
    """Whole passes through the workload's calls until the deadline has
    passed, so that every call is made equally often.  Returns the tally
    and the wall time of the loop."""
    tally = Tally(n)
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    first_pass = True
    while first_pass or time.perf_counter() < deadline:
        for i in range(n):
            tally.run(caller, i, first_pass)
        first_pass = False
    return tally, time.perf_counter() - start


# ---------------------------------------------------------------- checks


def _read_result(text: str, problem):
    """The EqualiserResult printed by `serialize`, rebuilt from its text."""
    from markedpcp.instances import EqualiserResult
    from markedpcp.morphisms import Morphism
    from markedpcp.words import Alphabet, parse_word

    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("case ") or not lines[1].startswith("basis "):
        raise ValueError("not a result")
    if len(lines) != 2 + int(lines[1][len("basis "):]):
        raise ValueError("basis size does not match its lines")
    names, words = [], []
    for line in lines[2:]:
        name, sep, word = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed basis line {line!r}")
        names.append(name)
        words.append(parse_word(problem.sigma, word))
    embedding = Morphism(Alphabet(tuple(names), problem.mode), problem.sigma, tuple(words))
    return EqualiserResult(embedding, embedding.images, (), lines[0][len("case "):])


def oracle_check(wl, outputs: list[str | None]) -> list[bool]:
    """Per distinct call: does its output pass `oracle.check_result`?"""
    from markedpcp.fileformat import parse
    from markedpcp.oracle import BallSpec, check_result

    ok = []
    for call, out in zip(wl.calls, outputs):
        if out is None:
            ok.append(False)
            continue
        problem = parse(call.text)
        try:
            result = _read_result(out, problem)
        except ValueError as exc:
            print(f"unreadable output: {exc}", file=sys.stderr)
            ok.append(False)
            continue
        report = check_result(problem, result, BallSpec(call.radius, call.mode))
        if not report.passed:
            print("\n".join(report.lines()), file=sys.stderr)
        ok.append(report.passed)
    return ok


def digests(wl, outputs: list[str | None]) -> dict[str, str]:
    inputs = hashlib.sha256()
    for call in wl.calls:
        kind = "set" if call.family else "pair"
        inputs.update(f"{call.mode} {kind}\n{call.text}\0".encode())
    produced = hashlib.sha256()
    for out in outputs:
        produced.update(((out or "<failed>") + "\0").encode())
    return {"inputs": inputs.hexdigest(), "outputs": produced.hexdigest()}


def digest_problems(wl, found: dict[str, str]) -> list[str]:
    """Mismatches against the digests recorded for this workload and seed."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = recorded.get(wl.name, {}).get(str(wl.seed))
    if expected is None:
        return []
    return [f"{k} digest {found[k]} != recorded {expected[k]}" for k in expected if found[k] != expected[k]]


# ---------------------------------------------------------------- metrics


def setup_times(wl, probes: int) -> list[float]:
    """Seconds that fresh processes take to import markedpcp and parse every text."""
    payload = json.dumps([c.text for c in wl.calls])
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=payload,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
            cwd=ROOT,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(tally: Tally, wall_s: float, setup_s: float, rss_mb: float) -> dict[str, tuple[float, str]]:
    times = tally.times  # empty only when every call failed; the run is then not correct
    p50 = statistics.median(times) * 1e3 if times else 0.0
    return {
        "solve_ms_p50": (p50, "ms"),
        "solve_ms_p90": (statistics.quantiles(times, n=10)[-1] * 1e3 if len(times) > 1 else p50, "ms"),
        "solves_per_s": (len(times) / wall_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


UNITS = {"_s": "s", "_calls": "count", "_inits": "count", ".steps": "count", "_found": "count",
         "_vertices": "count", "_share": "share", ".overhead": "ratio"}


def _unit(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def traced_passes(caller: Caller, wl, seconds: float, spans_path: Path) -> tuple[Tally, dict]:
    """Alternate untraced and traced passes (at least one of each) for the
    given time.  Each pass parses every text, makes every call, and
    serializes every result.  Per-layer times are medians over traced
    passes; counts, and the share derived from them, come from the first
    and must repeat exactly."""
    import tracing

    n = len(wl.calls)
    tally = Tally(n)
    walls: dict[bool, list[float]] = {False: [], True: []}
    call_s: list[float] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + seconds
    traced = False
    while not (walls[False] and walls[True]) or time.perf_counter() < deadline:
        rec = tracing.Recorder()
        gc.collect()
        start = time.perf_counter()
        with tracing.traced(rec) if traced else nullcontext():
            caller.parse_all()
            spent = 0.0
            first_pass = not walls[False]  # the first pass is untraced
            for i in range(n):
                rec.call = i + 1
                spent += tally.run(caller, i, first_pass) or 0.0
        walls[traced].append(time.perf_counter() - start)
        if traced:
            call_s.append(spent)
            layers.append(tracing.summarize(rec))
            if len(layers) == 1:
                tracing.write_spans(rec, spans_path)
        traced = not traced
    first = layers[0]
    per_layer = {k: statistics.median(d[k] for d in layers) if k.endswith("_s") else v for k, v in first.items()}
    repeat = all(d[k] == v for d in layers for k, v in first.items() if not k.endswith("_s"))
    per_layer["trace.overhead"] = statistics.median(t / u for t, u in zip(walls[True], walls[False]))
    per_layer["trace.call_s"] = statistics.median(call_s)
    ranks = [out is not None and not out.splitlines()[1].endswith(" 0") for out in tally.first]
    per_layer["result.nonzero_rank_share"] = sum(ranks) / n
    return tally, {"per_layer": per_layer, "counts_repeat": repeat, "traced_passes": len(layers)}


# ---------------------------------------------------------------- main


def environment(wl) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": wl.name,
        "seed": wl.seed,
        "instances": wl.counts,
        "distinct_calls": len(wl.calls),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    _import_package()
    import workloads

    wl = workloads.build(args.workload, args.seed)
    workdir = OUT / f"{wl.name}-{wl.seed}-{os.getpid()}"
    rounds = 0 if args.trace else SETUP_PROBES_PER_ROUND
    setup = setup_times(wl, rounds)
    try:
        caller = Caller(wl, workdir)
        if args.trace:
            OUT.mkdir(exist_ok=True)
            tally, traced = traced_passes(caller, wl, args.seconds, OUT / f"spans-{wl.name}-{wl.seed}.csv")
        else:
            caller.parse_all()
            tally, wall_s = timed_loop(caller, len(wl.calls), args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup += setup_times(wl, rounds)

    checked = oracle_check(wl, tally.first)
    setup += setup_times(wl, rounds)
    failed = tally.failures(checked)
    attempted = sum(tally.calls)
    found = digests(wl, tally.first)
    problems = digest_problems(wl, found)
    if args.trace and not traced["counts_repeat"]:
        problems.append("per-layer counts differ between traced passes")
    correct = failed == 0 and not problems

    env = environment(wl)
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# digests {json.dumps(found, sort_keys=True)}")
    for p in problems:
        print(f"# FAIL {p}")
    print(f"# calls attempted {attempted}, failed {failed}")
    if args.trace:
        print(f"# traced passes {traced['traced_passes']}, spans of the first in {OUT.name}/")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in traced["per_layer"].items()}
    else:
        metrics = {
            k: {"value": v, "unit": u}
            for k, (v, u) in end_to_end(tally, wall_s, statistics.median(setup), rss_mb).items()
        }
    for k, m in metrics.items():
        print(f"{k:34s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        # zero whenever the run is correct, so it is reported here and through
        # `attempted`/`failed` rather than as a metric with a relative bound
        print(f"{'fail_frac':34s} {failed / attempted:>14.6g} share")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
