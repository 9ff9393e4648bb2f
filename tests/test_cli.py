import itertools
import os
import pathlib
import subprocess
import sys

import markedpcp
from markedpcp import cli, group, instances, stallings
from markedpcp.cli import _build_parser, run
from markedpcp.fileformat import parse
from markedpcp.oracle import MAX_RADIUS

from conftest import FIXTURES

MARKED = str(FIXTURES / "marked_pair.pcp")
IMMERSED = str(FIXTURES / "immersed_pair.pcp")
RANK0 = str(FIXTURES / "rank0_group_pair.pcp")
UNFOLDABLE = str(FIXTURES / "unfoldable_map.pcp")


class TestSolve:
    def test_marked_pair(self, capsys):
        assert run(["solve", MARKED]) == 0
        assert capsys.readouterr().out == "case cycle\nbasis 1\np0 = a b\n"

    def test_immersed_pair_has_trivial_equaliser(self, capsys):
        assert run(["solve", IMMERSED]) == 0
        out = capsys.readouterr().out
        assert "basis 0" in out

    def test_set_flag(self, capsys):
        assert run(["solve", MARKED, "--set"]) == 0
        assert "basis 1" in capsys.readouterr().out

    def test_trace_files(self, capsys, tmp_path):
        trace = tmp_path / "steps"
        assert run(["solve", IMMERSED, "--trace", str(trace)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in trace.iterdir())
        assert names[0] == "step_000.pcp"
        assert "step_000_core.dot" in names

    def test_trace_writes_the_core_each_step_built(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = stallings.core_of_pair

        def counting(g, h):
            calls.append((g, h))
            return real(g, h)

        monkeypatch.setattr(stallings, "core_of_pair", counting)
        trace = tmp_path / "steps"
        assert run(["solve", IMMERSED, "--trace", str(trace)]) == 0
        capsys.readouterr()
        monkeypatch.undo()
        result = group.solve_pair(parse(pathlib.Path(IMMERSED).read_text()))
        assert len(calls) == len(result.trail) > 0
        cores = sorted(p.name for p in trace.glob("*_core.dot"))
        assert cores == [f"step_{i:03d}_core.dot" for i in range(len(result.trail))]
        for i, step in enumerate(result.trail):
            core, _, _ = stallings.core_of_pair(step.before.g, step.before.h)
            expected = stallings.export_dot(core).encode()
            assert (trace / f"step_{i:03d}_core.dot").read_bytes() == expected

    def test_deterministic_output(self, capsys):
        run(["solve", MARKED])
        first = capsys.readouterr().out
        run(["solve", MARKED])
        assert capsys.readouterr().out == first

    def test_unmarked_input_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.pcp"
        bad.write_text(
            "mode monoid\nsigma a b\ndelta x\nmap g\na = x\nb = x x\n"
            "map h\na = x\nb = x\n"
        )
        assert run(["solve", str(bad)]) == 3
        assert "not marked" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert run(["solve", "no-such-file.pcp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.pcp"
        bad.write_text("mode monoid\nsigma a\ndelta x\nmap g\na = w\n")
        assert run(["solve", str(bad)]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_internal_check_failure_exits_four(self, capsys, monkeypatch):
        # every instance looks new and the bound sits just above its floor
        # (|Delta|+1)^(2|Sigma|), so the iteration backstop fires
        fresh = itertools.count()
        monkeypatch.setattr(instances, "canonical_form", lambda _: next(fresh))
        monkeypatch.setattr(instances, "iteration_bound", lambda _: 3**4 + 2)
        assert run(["solve", MARKED]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal check failed: iteration bound exceeded: reduction did not cycle\n"
        )

    def test_failed_self_check_is_named(self, capsys, monkeypatch):
        monkeypatch.setattr(instances, "is_immersion", lambda f, method="all": False)
        assert run(["solve", IMMERSED]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal check failed: petal maps must be immersions\n"

    def test_failed_self_check_is_named_under_python_O(self):
        # `python -O` strips `assert` statements; the solver's self-checks
        # raise on their own and still end in exit 4
        code = (
            "import sys; from markedpcp import cli, instances; "
            "print(sys.flags.optimize); "
            "instances.is_immersion = lambda f, method='all': False; "
            f"sys.exit(cli.run(['solve', {IMMERSED!r}]))"
        )
        fresh = _fresh_python(["-O", "-c", code], check=False)
        assert fresh.returncode == 4
        assert fresh.stdout == "1\n"
        assert fresh.stderr == "error: internal check failed: petal maps must be immersions\n"


class TestCheck:
    def test_unfoldable_map_fails_thrice(self, capsys):
        assert run(["check", UNFOLDABLE]) == 1
        out = capsys.readouterr().out
        assert out == "g: marked=false folded=false lengths=false\n"

    def test_immersed_pair_passes(self, capsys):
        assert run(["check", IMMERSED]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "g: marked=true folded=true lengths=true"
        assert out[1] == "h: marked=true folded=true lengths=true"

    def test_monoid_reports_markedness_only(self, capsys):
        assert run(["check", MARKED]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["g: marked=true", "h: marked=true"]


class TestReduce:
    def test_one_step(self, capsys):
        assert run(["reduce", IMMERSED, "--steps", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "prefix_complexity_before 16"
        assert out[1] == "prefix_complexity_after 8"
        assert "sigma p0 p1" in out

    def test_monoid_reduce(self, capsys):
        assert run(["reduce", MARKED]) == 0
        out = capsys.readouterr().out
        assert "map g" in out


class TestOracle:
    def test_marked_pair(self, capsys):
        assert run(["oracle", MARKED, "--radius", "8"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_immersed_pair(self, capsys):
        assert run(["oracle", IMMERSED, "--radius", "5"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_single_map_file_cannot_be_solved(self, capsys):
        assert run(["oracle", UNFOLDABLE, "--radius", "3"]) == 2
        assert capsys.readouterr().err != ""

    def test_radius_beyond_the_maximum_is_rejected_before_solving(self, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the radius")

        monkeypatch.setattr(cli, "_solve", no_solve)
        assert run(["oracle", MARKED, "--radius", str(MAX_RADIUS + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "radius" in lines[0]

    def test_maximum_radius_is_reachable(self, capsys, tmp_path):
        # one generator mapped alike: the walk follows a^n all the way down
        one = tmp_path / "one.pcp"
        one.write_text("mode monoid\nsigma a\ndelta x\nmap g\na = x\nmap h\na = x\n")
        assert run(["oracle", str(one), "--radius", str(MAX_RADIUS)]) == 0
        assert capsys.readouterr().out.startswith(
            f"PASS: radius-{MAX_RADIUS} ball: {MAX_RADIUS + 1} equaliser elements"
        )

    def test_maximum_radius_is_reachable_in_group_mode(self, capsys, tmp_path):
        # a^n and a^-n: both walks, image_ball's included, recurse to full depth
        one = tmp_path / "one.pcp"
        one.write_text("mode group\nsigma a\ndelta x\nmap g\na = x\nmap h\na = x\n")
        assert run(["oracle", str(one), "--radius", str(MAX_RADIUS)]) == 0
        assert capsys.readouterr().out.startswith(
            f"PASS: radius-{MAX_RADIUS} ball: {2 * MAX_RADIUS + 1} equaliser elements"
        )

    def test_immersed_pair_at_a_large_radius(self, capsys):
        # the walks are pruned on immersions, so the cost follows the
        # equaliser, not the ball, which holds over 6 * 5^39 reduced words
        assert run(["oracle", IMMERSED, "--radius", "40"]) == 0
        assert capsys.readouterr().out.startswith("PASS")


class TestDensity:
    def test_exact_row(self, capsys):
        assert run([
            "density", "--kind", "marked-monoid", "-k", "2", "-m", "2", "-n", "10",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "kind,k,m,n,samples,empirical,predicted"
        assert out[1] == "marked-monoid,2,2,10,0,2093058/4190209,1/2"

    def test_sampled_row_is_deterministic(self, capsys):
        argv = [
            "density", "--kind", "immersion-group", "-k", "1", "-m", "2",
            "-n", "5", "--samples", "200", "--seed", "9",
        ]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        assert capsys.readouterr().out == first

    def test_sampling_past_the_float_range_exits_two(self, capsys):
        argv = [
            "density", "--kind", "immersion-group", "-k", "1", "-m", "2",
            "-n", "1000", "--samples", "1",
        ]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sampling counts the words of length <= n as a float, which holds"
            " fewer than 2^1024; m = 2, n = 1000 give at least 2^1585\n"
        )


class TestExportDot:
    def test_core_graph(self, capsys, tmp_path):
        out_path = tmp_path / "core.dot"
        assert run(["export-dot", IMMERSED, "--graph", "core", "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("digraph stallings {")
        assert text.count("->") == 8

    def test_monoid_file_rejected(self, capsys):
        assert run(["export-dot", MARKED, "--graph", "g", "-o", "/tmp/unused.dot"]) == 2
        assert "group" in capsys.readouterr().err

    def test_core_of_a_monoid_file_exits_two(self, capsys, tmp_path):
        out_path = tmp_path / "core.dot"
        assert run(["export-dot", MARKED, "--graph", "core", "-o", str(out_path)]) == 2
        assert capsys.readouterr().err == "error: bouquets are built from group-mode morphisms\n"
        assert not out_path.exists()

    def test_bad_flags_exit_two(self, capsys):
        assert run(["export-dot", IMMERSED, "--graph", "nonsense", "-o", "x"]) == 2
        capsys.readouterr()


def _fresh_python(args: list[str], check: bool = True) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(markedpcp.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=check,
    )


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_import_builds_no_parser(self):
        code = "import markedpcp.cli as c; print(c._build_parser.cache_info().currsize)"
        fresh = _fresh_python(["-c", code])
        assert fresh.stdout == "0\n"

    def test_repeated_calls_match_fresh_processes(self, capsys):
        for argv in (["solve", MARKED, "--set"], ["solve", MARKED]):
            assert run(argv) == 0
            fresh = _fresh_python(["-m", "markedpcp.cli", *argv])
            assert capsys.readouterr().out == fresh.stdout

    def test_trace_does_not_carry_over(self, capsys, tmp_path, monkeypatch):
        def files():
            return {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*")}

        monkeypatch.chdir(tmp_path)
        assert run(["solve", IMMERSED, "--trace", "steps"]) == 0
        written = files()
        assert written
        assert run(["solve", IMMERSED]) == 0
        assert files() == written

    def test_usage_error_then_valid_call(self, capsys):
        assert run(["solve"]) == 2
        assert "usage: markedpcp solve" in capsys.readouterr().err
        assert run(["solve", MARKED]) == 0
        assert capsys.readouterr().out == "case cycle\nbasis 1\np0 = a b\n"


class TestColdImport:
    """`solve`, `check` and `reduce` load no oracle or density code, and the
    graph module only when a graph is folded or drawn."""

    def test_cli_import_leaves_oracle_and_density_out(self):
        code = (
            "import sys, markedpcp.cli; "
            "print(sorted({'markedpcp.oracle', 'markedpcp.density'} & set(sys.modules)))"
        )
        assert _fresh_python(["-c", code]).stdout == "[]\n"

    def test_solve_leaves_oracle_and_density_out(self):
        code = (
            "import sys, markedpcp.cli as c; "
            f"c.run(['solve', {IMMERSED!r}]); c.run(['check', {MARKED!r}]); "
            f"c.run(['reduce', {MARKED!r}]); "
            "print(sorted({'markedpcp.oracle', 'markedpcp.density'} & set(sys.modules)), "
            "file=sys.stderr)"
        )
        assert _fresh_python(["-c", code]).stderr == "[]\n"

    @staticmethod
    def _graph_module_loaded(*argvs: list[str]) -> str:
        """Exit codes of `run` on each argv in one fresh process, then
        whether `markedpcp.stallings` was loaded, as stderr."""
        code = (
            "import sys, markedpcp.cli as c; "
            "loaded = 'markedpcp.stallings' in sys.modules; "
            f"codes = [c.run(argv) for argv in {list(argvs)!r}]; "
            "print(loaded, codes, 'markedpcp.stallings' in sys.modules, file=sys.stderr)"
        )
        return _fresh_python(["-c", code]).stderr

    def test_solve_check_and_reduce_leave_the_graph_module_out(self):
        argvs = [["solve", MARKED], ["check", MARKED], ["reduce", MARKED], ["solve", RANK0]]
        assert self._graph_module_loaded(*argvs) == "False [0, 0, 0, 0] False\n"

    def test_folding_or_drawing_loads_the_graph_module(self, tmp_path):
        dot, trace = str(tmp_path / "core.dot"), str(tmp_path / "steps")
        for argv in (
            ["solve", IMMERSED],
            ["export-dot", IMMERSED, "--graph", "core", "-o", dot],
            ["solve", RANK0, "--trace", trace],
        ):
            assert self._graph_module_loaded(argv) == "False [0] True\n", argv

    def test_density_kinds_are_the_density_module_names(self):
        from markedpcp.density import IMMERSION_GROUP, MARKED_MONOID

        assert cli.DENSITY_KINDS == (MARKED_MONOID, IMMERSION_GROUP)
        density = _build_parser()._subparsers._group_actions[0].choices["density"]
        kind = next(a for a in density._actions if a.dest == "kind")
        assert kind.choices == (MARKED_MONOID, IMMERSION_GROUP)
