"""A mutation sampler: how many small deliberate faults tier-1 catches.

Run by hand from the repository root; pytest does not collect this module
(its name does not match `test_*.py`), and CI does not run it:

    python tests/mutation_sample.py src/markedpcp/words.py src/markedpcp/morphisms.py \
        --count 40 --seed 1

It lists every mutation site of the named modules with the stdlib `ast`:
a comparison swapped for its negation (`==`/`!=`, `<`/`>=`, `is`/`is not`,
`in`/`not in`, ...), an int constant + 1, a `raise` dropped, `and`/`or`
swapped, a `not` dropped.  It draws `--count` sites with a seeded
generator, and for each one copies the checkout (`src/`, `tests/`,
`perfbench/`, `pyproject.toml`) to a fresh temporary directory, writes the
mutated module there with `ast.unparse`, and runs tier-1 with `-x` on the
copy.  A mutant is killed when the tests fail or time out and survives
when they pass.  One line per mutant, then the score; a survivor is either
equivalent (no input can tell it apart) or a gap that a test should pin.
Mutants run one after another, each a single pytest process.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")

NEGATED = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.Gt: ast.LtE,
    ast.LtE: ast.Gt,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}


def sites(tree: ast.AST) -> list[tuple[int, str, int]]:
    """Every mutation site as (position in `ast.walk` order, kind, operand)."""
    out = []
    for pos, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            out += [(pos, "compare", i) for i, op in enumerate(node.ops) if type(op) in NEGATED]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((pos, "int+1", 0))
        elif isinstance(node, ast.Raise):
            out.append((pos, "drop-raise", 0))
        elif isinstance(node, ast.BoolOp):
            out.append((pos, "and/or", 0))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((pos, "drop-not", 0))
    return out


class _Mutate(ast.NodeTransformer):
    def __init__(self, target: ast.AST, kind: str, operand: int) -> None:
        self.target, self.kind, self.operand = target, kind, operand

    def visit(self, node: ast.AST) -> ast.AST:
        if node is not self.target:
            return self.generic_visit(node)
        if self.kind == "compare":
            node.ops[self.operand] = NEGATED[type(node.ops[self.operand])]()
        elif self.kind == "int+1":
            node.value += 1
        elif self.kind == "drop-raise":
            return ast.Pass()
        elif self.kind == "and/or":
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        elif self.kind == "drop-not":
            return node.operand
        return node


def mutant(source: str, site: tuple[int, str, int]) -> tuple[str, int]:
    """The module text with one site mutated, and the site's line."""
    pos, kind, operand = site
    tree = ast.parse(source)
    target = next(node for i, node in enumerate(ast.walk(tree)) if i == pos)
    line = target.lineno
    tree = ast.fix_missing_locations(_Mutate(target, kind, operand).visit(tree))
    return ast.unparse(tree), line


def killed(module: pathlib.Path, text: str, timeout: float) -> bool:
    """Run tier-1 with `-x` on a copy of the checkout holding `text` as `module`."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=IGNORED)
            else:
                shutil.copy2(src, copy / name)
        (copy / module.relative_to(ROOT)).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
        try:
            run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return True
        return run.returncode != 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=pathlib.Path)
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    args = parser.parse_args(argv)

    pool = []
    for module in args.modules:
        module = module.resolve()
        source = module.read_text()
        pool += [(module, source, site) for site in sites(ast.parse(source))]
    drawn = random.Random(args.seed).sample(pool, min(args.count, len(pool)))
    survivors = 0
    for module, source, site in drawn:
        text, line = mutant(source, site)
        dead = killed(module, text, args.timeout)
        survivors += not dead
        name = module.relative_to(ROOT)
        print(f"{'killed  ' if dead else 'SURVIVED'} {name}:{line} {site[1]}", flush=True)
    print(f"{len(drawn) - survivors} of {len(drawn)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
