"""The reduction driver shared by the monoid and group solvers."""

import importlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

import markedpcp
from markedpcp import group, instances, monoid, morphisms
from markedpcp.cli import run
from markedpcp.fileformat import parse, serialize_instance
from markedpcp.instances import CASE_CYCLE, Instance, _shape
from markedpcp.morphisms import (
    Morphism,
    NotMarkedError,
    compose,
    is_marked,
    require_immersion,
    require_marked,
)
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, Word

from conftest import FIXTURES
from reduction_reference import reference_reduce_to_basis
from support import (
    morphism,
    random_group_instance,
    random_group_morphism,
    random_immersion,
    random_marked_morphism,
    random_monoid_instance,
)

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


def _alphabets(mode, k, m):
    sigma = Alphabet(tuple(f"a{i}" for i in range(k)), mode)
    return sigma, Alphabet(tuple(f"x{i}" for i in range(m)), mode)


def _embedding(rng, mode, sigma, delta, max_len):
    """A random marked map (monoid mode) or immersion (group mode)."""
    if mode == GROUP:
        return random_immersion(rng, sigma, delta, max(max_len, 2))
    return random_marked_morphism(rng, sigma, delta, max_len)


def _composite_pair(rng, mode, max_rank, max_len):
    """g and g after a short phi: Sigma -> Sigma.  These trails are long and
    usually end in a cycle."""
    k = rng.randint(2, max_rank)
    sigma, delta = _alphabets(mode, k, rng.randint(k, max_rank))
    g = _embedding(rng, mode, sigma, delta, max_len)
    return Instance(g, compose(g, _embedding(rng, mode, sigma, sigma, 3)))


def _cycling_pairs():
    """The group pair that reduces six times and then repeats an earlier
    instance up to renaming, the monoid fixture pair that cycles at once,
    and each with its maps swapped."""
    sigma, delta = Alphabet(("a", "b"), GROUP), Alphabet(("x", "y"), GROUP)
    cycling = Instance(morphism(sigma, delta, "y y x", "x y"), morphism(sigma, delta, "x", "y"))
    marked = parse((FIXTURES / "marked_pair.pcp").read_text())
    return [cycling, Instance(cycling.h, cycling.g), marked, Instance(marked.h, marked.g)]


def _solver(mode):
    return (group, group.reduce_group_instance) if mode == GROUP else (monoid, monoid.reduce_instance)


class TestCycleDetectionByShape:
    """`reduce_to_basis` keys an instance by its canonical form only when an
    earlier instance of the trail has its shape."""

    @pytest.fixture
    def keyed(self, monkeypatch):
        calls = []
        canonical_form = instances.canonical_form

        def counted(instance):
            calls.append(instance)
            return canonical_form(instance)

        monkeypatch.setattr(instances, "canonical_form", counted)
        return calls

    def test_same_solves_as_keying_every_instance(self, keyed):
        rng = random.Random(2113)
        pairs = _cycling_pairs()
        for n in range(440):
            mode = GROUP if n % 2 else MONOID
            if n % 4 < 2:
                random_instance = random_group_instance if mode == GROUP else random_monoid_instance
                pairs.append(random_instance(rng, max_rank=4, max_len=6))
            else:
                pairs.append(_composite_pair(rng, mode, max_rank=5, max_len=8))
        cycles = collisions_without_repeat = 0
        for inst in pairs:
            solver, reduce = _solver(inst.mode)
            case, trail, basis = reference_reduce_to_basis(inst, reduce)
            keyed.clear()
            result = solver.solve_pair(inst)
            assert (result.case, result.trail, result.basis) == (case, trail, basis)
            # every instance is keyed at most once, and only trail instances are
            assert len(keyed) <= len(trail) + 1
            assert len({id(i) for i in keyed}) == len(keyed)
            trail_instances = {id(inst), *(id(step.after) for step in result.trail)}
            assert all(id(i) in trail_instances for i in keyed)
            cycles += case == CASE_CYCLE
            # a trail stops at its first repeat, so a third key means that
            # an earlier shape recurred with another canonical form
            collisions_without_repeat += len(keyed) > 2
        assert cycles >= 200
        assert collisions_without_repeat >= 50

    def test_cycling_pairs_key_only_shapes_that_recur(self, keyed):
        for inst in _cycling_pairs():
            solver, _ = _solver(inst.mode)
            keyed.clear()
            result = solver.solve_pair(inst)
            assert result.case == CASE_CYCLE
            shapes = [_shape(inst), *(_shape(step.after) for step in result.trail)]
            assert keyed
            assert all(shapes.count(_shape(i)) > 1 for i in keyed)

    def test_distinct_shapes_need_no_canonical_form(self, monkeypatch):
        rng = random.Random(4)
        sigma, delta = _alphabets(GROUP, 10, 10)
        # a random pair, as in the large benchmark tier, and g against g
        # with two generators swapped, whose equaliser has rank 8
        swap = morphism(sigma, sigma, "a1", "a0", *(f"a{i}" for i in range(2, 10)))
        pairs = []
        for _ in range(3):
            g = random_immersion(rng, sigma, delta, 60)
            pairs += [Instance(g, random_immersion(rng, sigma, delta, 60)), Instance(g, compose(g, swap))]
        expected = [reference_reduce_to_basis(inst, group.reduce_group_instance) for inst in pairs]

        def refuse(instance):
            raise AssertionError("canonical form computed")

        monkeypatch.setattr(instances, "canonical_form", refuse)
        for inst, (case, trail, basis) in zip(pairs, expected):
            assert max(len(img) for f in inst.morphisms for img in f.images) > 40
            shapes = [_shape(inst), *(_shape(step.after) for step in trail)]
            assert len(set(shapes)) == len(shapes)
            result = group.solve_pair(inst)
            assert (result.case, result.trail, result.basis) == (case, trail, basis)
        assert {len(b) for _, _, b in expected} >= {0, 8}


def _arbitrary_map(rng, sigma, delta, max_len):
    if sigma.mode == GROUP:
        return random_group_morphism(rng, sigma, delta, max_len)
    images = [
        Word(delta, tuple(Letter(rng.randrange(len(delta)), 1) for _ in range(rng.randint(1, max_len))))
        for _ in sigma.symbols
    ]
    return Morphism(sigma, delta, tuple(images))


def _signed_firsts(f):
    firsts = [img.first for img in f.images]
    inverse_firsts = [img.last.inverse() for img in f.images] if f.mode == GROUP else []
    return firsts, inverse_firsts


def _with_clash(rng, sigma, delta):
    while True:
        f = _arbitrary_map(rng, sigma, delta, 5)
        if not is_marked(f):
            return f


def _inverse_clash_only(rng, sigma, delta):
    # the images start with distinct letters, none of them the first letter
    # of an inverse image, and two inverse images start alike
    while True:
        f = _arbitrary_map(rng, sigma, delta, 5)
        firsts, inverse_firsts = _signed_firsts(f)
        if (
            len(set(firsts)) == len(firsts)
            and not set(firsts) & set(inverse_firsts)
            and len(set(inverse_firsts)) < len(inverse_firsts)
        ):
            return f


def _with_empty_image(rng, sigma, delta):
    f = _embedding(rng, sigma.mode, sigma, delta, 5)
    images = list(f.images)
    images[rng.randrange(len(images))] = Word(delta, ())
    return Morphism(sigma, delta, tuple(images))


BAD_PAIRS = {
    "clash in g": lambda rng, s, d: (_with_clash(rng, s, d), _embedding(rng, s.mode, s, d, 5)),
    "clash in h": lambda rng, s, d: (_embedding(rng, s.mode, s, d, 5), _with_clash(rng, s, d)),
    "clashes in both": lambda rng, s, d: (_with_clash(rng, s, d), _with_clash(rng, s, d)),
    "empty image": lambda rng, s, d: (_embedding(rng, s.mode, s, d, 5), _with_empty_image(rng, s, d)),
    "inverse images only": lambda rng, s, d: (_inverse_clash_only(rng, s, d), _embedding(rng, s.mode, s, d, 5)),
}


def _first_failure(require, named_maps):
    """The error `require` raises for the first failing map."""
    for f, name in named_maps:
        try:
            require(f, name)
        except NotMarkedError as exc:
            return exc
    raise AssertionError("every map passes")


def _error(exc):
    return type(exc), str(exc), exc.morphism_name, exc.generator


class TestPreconditionParity:
    """A pair that is not marked (no pair of immersions) is reported as the
    precondition check reports its first bad map, at every entry point."""

    @pytest.mark.parametrize(
        "mode, kind",
        # monoid maps have no inverse images
        [(m, k) for m in (GROUP, MONOID) for k in BAD_PAIRS if (m, k) != (MONOID, "inverse images only")],
    )
    def test_entry_points_raise_the_precondition_error(self, mode, kind, tmp_path, capsys):
        require = require_immersion if mode == GROUP else require_marked
        solver, reduce = _solver(mode)
        rng = random.Random(f"{mode} {kind}")
        for n in range(6):
            sigma, delta = _alphabets(mode, rng.randint(2, 3), 3)
            g, h = BAD_PAIRS[kind](rng, sigma, delta)
            inst = Instance(g, h, ("f", "k"))
            reduce_names = inst.names
            expected = {
                "reduce": _first_failure(require, zip((g, h), reduce_names)),
                "solve_pair": _first_failure(require, zip((g, h), inst.names)),
                "solve_set": _first_failure(require, [(g, "morphism 0"), (h, "morphism 1")]),
            }
            calls = {
                "reduce": lambda: reduce(inst),
                "solve_pair": lambda: solver.solve_pair(inst),
                "solve_set": lambda: solver.solve_set([g, h], sigma, delta),
            }
            for entry, call in calls.items():
                with pytest.raises(NotMarkedError) as caught:
                    call()
                assert _error(caught.value) == _error(expected[entry]), entry
            path = tmp_path / f"{n}.pcp"
            path.write_text(serialize_instance(inst))
            for command, entry in (("reduce", "reduce"), ("solve", "solve_pair")):
                assert run([command, str(path)]) == 3
                captured = capsys.readouterr()
                assert (captured.out, captured.err) == ("", f"error: {expected[entry]}\n")


class TestOneCheckPerMap:
    """Each input map gets one marking / immersion check per solve, at the
    entry point, however long the trail."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        for module in (morphisms, instances, group, monoid):
            for name in ("require_immersion", "require_marked"):
                require = getattr(module, name, None)
                if require is None:
                    continue

                def counted(f, *args, _require=require):
                    calls.append(f)
                    return _require(f, *args)

                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("mode", [GROUP, MONOID])
    def test_pair_and_family_solves(self, mode, checked):
        solver, _ = _solver(mode)
        rng = random.Random(f"one check {mode}")
        longest = 0
        for _ in range(40):
            inst = _composite_pair(rng, mode, max_rank=5, max_len=8)
            checked.clear()
            result = solver.solve_pair(inst)
            assert checked == [inst.g, inst.h]
            longest = max(longest, len(result.trail))
            family = [inst.g, inst.h, compose(inst.g, _embedding(rng, mode, inst.sigma, inst.sigma, 3))]
            checked.clear()
            solver.solve_set(family, inst.sigma, inst.delta)
            assert checked == family
        assert longest >= 10


def _rank_one_pairs():
    """A monoid and a group pair with a non-empty trail and a basis of one
    word, and each with a chain whose u and v differ."""
    ms, md = Alphabet(("a", "b"), MONOID), Alphabet(("x", "y"), MONOID)
    gs, gd = Alphabet(("a", "b", "c"), GROUP), Alphabet(("x", "y", "z"), GROUP)
    return {
        MONOID: Instance(morphism(ms, md, "x y", "y"), morphism(ms, md, "x", "y y")),
        GROUP: Instance(
            morphism(gs, gd, "y z", "x", "z y"), morphism(gs, gd, "x^-1 z", "x z^-1 y^-1", "z y")
        ),
    }


def _swap_u_and_v(chains):
    return [(label, v, u) for label, u, v in chains]


def _repeat_the_first(chains):
    return chains[:1] + chains


class TestSelfChecksStillFire:
    """Each self-check of a solve raises when what it checks is wrong, at
    both entry points and in both modes, so none of them is skipped: those
    of a step, of the embedding, of an intersection (called directly), and
    of a map with no generators."""

    @pytest.fixture(params=[GROUP, MONOID])
    def pair(self, request):
        inst = _rank_one_pairs()[request.param]
        solver, _ = _solver(inst.mode)
        result = solver.solve_pair(inst)
        assert result.trail and len(result.basis) == 1
        assert any(u != v for _, u, v in instances.agreeing_chains(inst.g, inst.h))
        return inst

    @staticmethod
    def _solve(inst, entry):
        solver, _ = _solver(inst.mode)
        if entry == "solve_pair":
            return solver.solve_pair(inst)
        return solver.solve_set([inst.g, inst.h], inst.sigma, inst.delta)

    @pytest.mark.parametrize("entry", ["solve_pair", "solve_set"])
    @pytest.mark.parametrize("corrupt", [_swap_u_and_v, _repeat_the_first])
    def test_a_wrong_chain_walk_is_caught(self, pair, entry, corrupt, monkeypatch):
        walk = instances.agreeing_chains
        monkeypatch.setattr(instances, "agreeing_chains", lambda *args: corrupt(walk(*args)))
        with pytest.raises(AssertionError) as caught:
            self._solve(pair, entry)
        if corrupt is _swap_u_and_v:
            assert str(caught.value) == "reduction step is inconsistent: g g' != h h'"
        elif pair.mode == GROUP:
            assert str(caught.value) == "petal maps must be immersions"
        else:
            assert str(caught.value) == "block maps must be marked"

    @pytest.mark.parametrize("entry", ["solve_pair", "solve_set"])
    def test_a_wrong_embedding_is_caught(self, pair, entry, monkeypatch):
        # A wrong walk alone cannot reach this check: the step checks catch
        # it first, and a composite of marked maps is marked.  So each
        # step's g' is emptied after the step's own checks have passed.
        solver, _ = _solver(pair.mode)
        reduce_step = solver.reduce_step

        def emptied(*args):
            step = reduce_step(*args)
            g_prime = step.g_prime
            empty = (Word(g_prime.codomain, ()),) * len(g_prime.images)
            object.__setattr__(step, "g_prime", Morphism(g_prime.domain, g_prime.codomain, empty))
            return step

        monkeypatch.setattr(solver, "reduce_step", emptied)
        message = "equaliser embedding fails its marked / immersion check"
        with pytest.raises(AssertionError, match=message):
            self._solve(pair, entry)

    @staticmethod
    def _pair_embeddings(mode):
        """The embeddings of the planted family's two consecutive pair
        solves, whose intersection keeps a generator."""
        family = parse((FIXTURES / f"planted_{mode}_family.pcp").read_text())
        solver, _ = _solver(mode)
        maps = family.morphisms
        psi1, psi2 = (solver.solve_pair(Instance(f, g)).embedding for f, g in zip(maps, maps[1:]))
        assert instances.intersect(psi1, psi2).images
        return psi1, psi2

    @pytest.mark.parametrize("mode", [GROUP, MONOID])
    def test_a_wrong_intersection_label_is_caught(self, mode, monkeypatch):
        psi1, psi2 = self._pair_embeddings(mode)
        walk = instances.agreeing_chains

        def lengthened(*args):
            return [(label + label[:1], u, v) for label, u, v in walk(*args)]

        monkeypatch.setattr(instances, "agreeing_chains", lengthened)
        with pytest.raises(AssertionError, match="^intersection maps disagree$"):
            instances.intersect(psi1, psi2)

    @pytest.mark.parametrize(
        "mode, check, message",
        [
            (GROUP, "is_immersion", "intersection map must be an immersion"),
            (MONOID, "is_marked", "intersection map must be marked"),
        ],
    )
    def test_a_failed_intersection_check_is_named(self, mode, check, message, monkeypatch):
        psi1, psi2 = self._pair_embeddings(mode)
        monkeypatch.setattr(instances, check, lambda f, *args: False)
        with pytest.raises(AssertionError) as caught:
            instances.intersect(psi1, psi2)
        assert str(caught.value) == message

    @pytest.mark.parametrize("entry", ["solve_pair", "solve_set"])
    def test_a_check_on_a_map_of_no_generators_fires(self, entry, monkeypatch):
        # the one step of this pair finds no chains, so the step's maps and
        # the embedding have no generators; a `folded` leg that calls such a
        # map no immersion must make the three characterisations disagree
        inst = parse((FIXTURES / "rank0_group_pair.pcp").read_text())
        folded = morphisms._immersion_by_folding
        monkeypatch.setattr(
            morphisms, "_immersion_by_folding", lambda f: bool(f.images) and folded(f)
        )
        with pytest.raises(AssertionError) as caught:
            self._solve(inst, entry)
        assert str(caught.value) == "immersion characterisations disagree"
