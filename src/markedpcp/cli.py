"""Command-line front door: solve, check, reduce, oracle, density, export-dot.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 a
check or oracle found a failing property, 2 usage/file/parse errors, 3 a
solver precondition (markedness / immersion) is violated, 4 an internal
check (a self-check or the iteration backstop) failed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import group as group_solver
from . import monoid as monoid_solver
from .fileformat import parse, serialize, serialize_instance
from .instances import EqualiserResult, Instance, SetInstance, prefix_complexity, reduce_step
from .morphisms import NotMarkedError, is_immersion, is_marked
from .words import GROUP, MONOID

# `density.MARKED_MONOID` and `density.IMMERSION_GROUP`, named here so that
# building the parser does not import `density`
DENSITY_KINDS = ("marked-monoid", "immersion-group")


def _read(path: str) -> Instance | SetInstance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _solve(problem: Instance | SetInstance, force_set: bool) -> EqualiserResult:
    if len(problem.morphisms) < 2:
        raise ValueError("solve needs a file with at least two maps")
    solver = group_solver if problem.mode == GROUP else monoid_solver
    if isinstance(problem, Instance) and not force_set:
        return solver.solve_pair(problem)
    return solver.solve_set(list(problem.morphisms), problem.sigma, problem.delta)


def _write_trace(result: EqualiserResult, directory: str) -> None:
    from .stallings import export_dot  # deferred: only the trace draws graphs

    os.makedirs(directory, exist_ok=True)
    for i, step in enumerate(result.trail):
        base = os.path.join(directory, f"step_{i:03d}")
        with open(base + ".pcp", "w", encoding="utf-8") as handle:
            handle.write(serialize_instance(step.after))
        if step.core is not None:
            with open(base + "_core.dot", "w", encoding="utf-8") as handle:
                handle.write(export_dot(step.core))


def _cmd_solve(args: argparse.Namespace) -> int:
    problem = _read(args.file)
    result = _solve(problem, args.set)
    if args.trace:
        _write_trace(result, args.trace)
    sys.stdout.write(serialize(result))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    problem = _read(args.file)
    ok = True
    for name, f in zip(problem.names, problem.morphisms):
        if f.mode == MONOID:
            marked = is_marked(f)
            ok = ok and marked
            sys.stdout.write(f"{name}: marked={str(marked).lower()}\n")
        else:
            answers = {
                "marked": is_immersion(f, "marked"),
                "folded": is_immersion(f, "folded"),
                "lengths": is_immersion(f, "lengths"),
            }
            ok = ok and all(answers.values())
            rendered = " ".join(f"{k}={str(v).lower()}" for k, v in answers.items())
            sys.stdout.write(f"{name}: {rendered}\n")
    return 0 if ok else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    problem = _read(args.file)
    if not isinstance(problem, Instance):
        raise ValueError("reduce needs a file with exactly two maps")
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    before = prefix_complexity(problem)
    current = problem
    for _ in range(args.steps):
        current = reduce_step(current).after
    after = prefix_complexity(current)
    sys.stdout.write(f"prefix_complexity_before {before}\n")
    sys.stdout.write(f"prefix_complexity_after {after}\n")
    sys.stdout.write(serialize_instance(current))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import BallSpec, check_result  # deferred: no other command uses it

    problem = _read(args.file)
    ball = BallSpec(args.radius, problem.mode)
    result = _solve(problem, force_set=False)
    report = check_result(problem, result, ball)
    for line in report.lines():
        sys.stdout.write(line + "\n")
    return 0 if report.passed else 1


def _cmd_density(args: argparse.Namespace) -> int:
    from .density import DensityParams, measure_density  # deferred, as oracle

    params = DensityParams(args.k, args.m, args.n, args.samples)
    empirical, predicted = measure_density(params, args.kind, seed=args.seed)
    sys.stdout.write("kind,k,m,n,samples,empirical,predicted\n")
    sys.stdout.write(
        f"{args.kind},{args.k},{args.m},{args.n},{args.samples},{empirical},{predicted}\n"
    )
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    from .stallings import bouquet, core_of_pair, export_dot, product  # deferred, as oracle

    problem = _read(args.file)
    morphisms = problem.morphisms
    if args.graph in ("h", "product", "core") and len(morphisms) < 2:
        raise ValueError(f"graph {args.graph!r} needs a file with two maps")
    if args.graph == "g":
        graph = bouquet(morphisms[0])
    elif args.graph == "h":
        graph = bouquet(morphisms[1])
    elif args.graph == "product":
        graph = product(bouquet(morphisms[0]), bouquet(morphisms[1]))
    else:
        graph, _, _ = core_of_pair(morphisms[0], morphisms[1])
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(export_dot(graph))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first `run` and shared: `parse_args` returns a fresh
    namespace per call, and importing the module stays cheap."""
    parser = argparse.ArgumentParser(
        prog="markedpcp",
        description="equalisers of marked free-monoid morphisms and free-group immersions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute the equaliser basis of an instance file")
    p.add_argument("file")
    p.add_argument("--set", action="store_true", help="treat the maps as a family")
    p.add_argument("--trace", metavar="DIR", help="dump each reduction step into DIR")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="report marked/immersion status per morphism")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="print the instance after N reductions")
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="solve, then verify against brute-force enumeration")
    p.add_argument("file")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("density", help="measure marked/immersion density")
    p.add_argument("--kind", choices=DENSITY_KINDS, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("export-dot", help="write a graph of the instance as DOT")
    p.add_argument("file")
    p.add_argument("--graph", choices=("g", "h", "product", "core"), required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NotMarkedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(run())
