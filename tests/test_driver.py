"""The reduction driver shared by the monoid and group solvers."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import markedpcp
from markedpcp import group, monoid
from markedpcp.fileformat import parse
from markedpcp.instances import Instance
from markedpcp.morphisms import NotMarkedError
from markedpcp.words import GROUP

from conftest import FIXTURES

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("entry", ["solve_pair", "solve_set"])
@pytest.mark.parametrize("mode", ["group", "monoid"])
def test_wrong_mode_is_reported_before_the_precondition(
    mode, entry, marked_pair, unfoldable_map
):
    # each input also fails the other solver's precondition, so the mode
    # check has to come first for the message to name the mode
    solver, inst = {
        "group": (group, marked_pair),
        "monoid": (monoid, Instance(unfoldable_map, unfoldable_map)),
    }[mode]
    with pytest.raises(ValueError, match="this solver handles") as caught:
        if entry == "solve_pair":
            solver.solve_pair(inst)
        else:
            solver.solve_set([inst.g, inst.h], inst.sigma, inst.delta)
    assert not isinstance(caught.value, NotMarkedError)


def test_monoid_does_not_import_group():
    src = str(pathlib.Path(markedpcp.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, markedpcp.monoid; print('markedpcp.group' in sys.modules)"
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert fresh.stdout == "False\n"


@pytest.mark.parametrize("fixture", ["marked_pair.pcp", "immersed_pair.pcp"])
def test_solving_keeps_no_state_on_the_inputs(fixture):
    # a benchmark that solves the same parsed objects again would time a
    # cache kept on them, not the solver
    inst = parse((FIXTURES / fixture).read_text())
    inputs = [inst, *inst.morphisms, *inst.g.images, *inst.h.images]
    before = [dict(vars(x)) for x in inputs]
    solver = group if inst.mode == GROUP else monoid
    solver.solve_pair(inst)
    solver.solve_set([inst.g, inst.h], inst.sigma, inst.delta)
    assert [vars(x) for x in inputs] == before


class TestTracedBenchmark:
    @pytest.fixture
    def tracing(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("tracing")

    def test_every_spanned_name_resolves(self, tracing):
        for modname, names in tracing.SPANNED.items():
            module = importlib.import_module(f"markedpcp.{modname}")
            for name in names:
                assert callable(getattr(module, name, None)), f"{modname}.{name}"

    def test_steps_and_solve_spans_per_mode(self, tracing, immersed_pair, marked_pair):
        rec = tracing.Recorder()
        with tracing.traced(rec):
            g_res = group.solve_pair(immersed_pair)
            m_res = monoid.solve_pair(marked_pair)
        assert g_res.trail and m_res.trail
        metrics = tracing.summarize(rec)
        assert metrics["group.steps"] == len(g_res.trail)
        assert metrics["monoid.steps"] == len(m_res.trail)
        names = [span[3] for span in rec.spans]
        assert names.count("group.solve_pair") == 1
        assert names.count("monoid.solve_pair") == 1
