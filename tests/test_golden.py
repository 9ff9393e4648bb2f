"""CLI output pinned byte for byte on the fixtures: `solve` stdout, the
`solve --trace` step files, `solve --set` on a planted family of three
monoid maps and of three immersions, `export-dot --graph core` and `--graph g`,
`check` on maps of no generators and on a map that is no immersion,
`oracle` on every fixture whose maps are marked or immersions, the
error that `reduce` and `solve` print for a pair whose first map is not an
immersion, and the one that `solve` and `oracle` print for a file of one
map.  The files under `fixtures/golden` were written when the group
reduction still decoded the petals of the pair core graph, and the monoid
one still ran the overhang search, so they hold the chain walk to the old
output.  Those of `zero_generators`, `rank0_group_pair` and the `check`
files were written while the `folded` check still built a bouquet of a map
with no generators, so they hold the check that builds none to the old
output.  The `solve --set` files were written while `monoid` and `group`
still passed their self-checks and messages into the driver.  The
`oracle` files were written while `oracle.enumerate_equaliser` still
walked the ball with image stacks and an undo log.
"""

import pytest

from markedpcp.cli import run

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["immersed_pair", "marked_pair", "rank0_group_pair"])
def test_solve_and_trace(name, capsys, tmp_path):
    trace = tmp_path / "trace"
    assert run(["solve", str(FIXTURES / f"{name}.pcp"), "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}_solve.txt").read_bytes()
    assert _files(trace) == _files(GOLDEN / f"{name}_trace")


@pytest.mark.parametrize("name", ["planted_monoid_family", "planted_group_family"])
def test_solve_set(name, capsys):
    assert run(["solve", "--set", str(FIXTURES / f"{name}.pcp")]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{name}_solve_set.txt").read_bytes()
    assert captured.err == ""


@pytest.mark.parametrize(
    "name, radius",
    [
        ("marked_pair", 8),
        ("immersed_pair", 6),
        ("rank0_group_pair", 6),
        ("zero_generators", 6),
        ("planted_monoid_family", 6),
        ("planted_group_family", 6),
    ],
)
def test_oracle(name, radius, capsys):
    assert run(["oracle", str(FIXTURES / f"{name}.pcp"), "--radius", str(radius)]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{name}_oracle.txt").read_bytes()
    assert captured.err == ""


def test_export_core(tmp_path):
    dot = tmp_path / "core.dot"
    assert run(["export-dot", str(FIXTURES / "immersed_pair.pcp"), "--graph", "core", "-o", str(dot)]) == 0
    assert dot.read_bytes() == (GOLDEN / "immersed_pair_core.dot").read_bytes()


def test_zero_generators(capsys, tmp_path):
    # the bouquet of a map with no generators is the base vertex alone
    dot = tmp_path / "g.dot"
    assert run(["export-dot", str(FIXTURES / "zero_generators.pcp"), "--graph", "g", "-o", str(dot)]) == 0
    assert dot.read_bytes() == (GOLDEN / "zero_generators_g.dot").read_bytes()
    assert run(["solve", str(FIXTURES / "zero_generators.pcp")]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "zero_generators_solve.txt").read_bytes()


@pytest.mark.parametrize("name, status", [("zero_generators", 0), ("unfoldable_map", 1)])
def test_check(name, status, capsys):
    assert run(["check", str(FIXTURES / f"{name}.pcp")]) == status
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{name}_check.txt").read_bytes()
    assert captured.err == ""


@pytest.mark.parametrize("command", ["reduce", "solve"])
def test_precondition_error(command, capsys):
    assert run([command, str(FIXTURES / "unimmersed_pair.pcp")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == (GOLDEN / "unimmersed_pair_stderr.txt").read_bytes()


@pytest.mark.parametrize("command", ["reduce", "solve"])
def test_monoid_precondition_error_names_the_map(command, capsys):
    # the maps are f and k, so a reduce that named them g and h would differ
    assert run([command, str(FIXTURES / "unmarked_pair.pcp")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == (GOLDEN / "unmarked_pair_stderr.txt").read_bytes()


@pytest.mark.parametrize("argv", [["solve"], ["oracle", "--radius", "2"]])
def test_one_map_is_not_a_set_solve(argv, capsys):
    # one map and no --set asked for, so the error must not name a set solve
    assert run([argv[0], str(FIXTURES / "unfoldable_map.pcp"), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.encode() == (GOLDEN / "unfoldable_map_solve_stderr.txt").read_bytes()
