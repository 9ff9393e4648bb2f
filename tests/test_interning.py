"""Parsed and solver alphabets are interned: one shared `Alphabet` per
symbol tuple and mode, from a bounded cache."""

import collections
import importlib
import pathlib
import random

from markedpcp import group, monoid
from markedpcp.cli import run
from markedpcp.fileformat import parse, serialize_instance
from markedpcp.instances import Instance, SetInstance, _fresh_alphabet
from markedpcp.words import GROUP, MONOID, Alphabet, Letter, Word, _alphabet, free_reduce

import parse_reference as reference
from conftest import FIXTURES
from support import random_group_instance, random_monoid_instance

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

PAIR = """mode {mode}
sigma a b
delta x y
map g
a = x y
b = y
map h
a = x
b = y y
"""


def test_files_over_the_same_symbols_share_their_alphabets():
    first = parse(PAIR.format(mode=MONOID))
    # other images, a comment and other spacing; the same sigma and delta
    second = parse(
        "# another pair\nmode monoid\nsigma  a b\ndelta x\ty\n"
        "map f\na = y x\nb = x\nmap k\na = y\nb = x x\n"
    )
    assert first.sigma is second.sigma
    assert first.delta is second.delta
    assert first.g.images[0].alphabet is second.h.images[1].alphabet is first.delta


def test_modes_get_their_own_alphabets():
    monoid_pair = parse(PAIR.format(mode=MONOID))
    group_pair = parse(PAIR.format(mode=GROUP))
    assert monoid_pair.sigma.symbols == group_pair.sigma.symbols
    assert monoid_pair.sigma != group_pair.sigma
    assert (monoid_pair.sigma.mode, group_pair.sigma.mode) == (MONOID, GROUP)
    assert (monoid_pair.delta.mode, group_pair.delta.mode) == (MONOID, GROUP)


def test_the_constructor_still_builds_a_new_alphabet():
    shared = _alphabet(("a", "b"), GROUP)
    fresh = Alphabet(("a", "b"), GROUP)
    assert fresh == shared and fresh is not shared
    assert _fresh_alphabet(3, GROUP) is _alphabet(("p0", "p1", "p2"), GROUP)


def test_a_workload_builds_each_alphabet_once(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    texts = [call.text for call in workloads.build("small-mixed", 0).calls]
    built = []
    post_init = Alphabet.__post_init__

    def counted(self):
        post_init(self)
        built.append((self.symbols, self.mode))

    monkeypatch.setattr(Alphabet, "__post_init__", counted)
    _alphabet.cache_clear()
    problems = [parse(text) for text in texts]
    parsed = len(built)
    for problem in problems:
        solver = group if problem.mode == GROUP else monoid
        solver.solve_pair(problem)
    assert 0 < parsed < len(texts)
    assert len(built) > parsed  # the solve pass needs fresh alphabets too
    assert max(collections.Counter(built).values()) == 1
    assert _alphabet.cache_info().currsize == len(built)


def _own_letters(word: Word) -> bool:
    """Whether every letter of `word` is its alphabet's own table entry."""
    a = word.alphabet
    return all(
        l is (a._positive_letters if l.sign > 0 else a._negative_letters)[l.index]
        for l in word.letters
    )


def test_words_share_their_alphabets_letters():
    checked = 0
    for text in _law_texts():
        problem = parse(text)
        images = [img for f in problem.morphisms for img in f.images]
        solver = group if problem.mode == GROUP else monoid
        if isinstance(problem, Instance):
            result = solver.solve_pair(problem)
        else:
            result = solver.solve_set(list(problem.morphisms), problem.sigma, problem.delta)
        maps = [result.embedding]
        for step in result.trail:
            maps += [step.after.g, step.after.h, step.g_prime, step.h_prime]
        solved = [*result.basis, *(img for f in maps for img in f.images)]
        assert all(map(_own_letters, images + solved)), text
        checked += len(solved)
    assert checked > 0
    for mode in (MONOID, GROUP):
        alphabet = Alphabet(("x", "y"), mode)
        assert _own_letters(Word(alphabet, [(1, 1), (0, 1), (1, 1)]))
    alphabet = Alphabet(("x", "y"), GROUP)
    raw = [(0, -1), (1, 1), (1, -1), (0, -1), (1, -1)]
    assert _own_letters(Word(alphabet, [(0, -1), (1, -1)]))
    assert _own_letters(free_reduce(alphabet, raw))


def test_inverse_table_keys_come_in_letter_order():
    for n in range(5):
        for mode in (MONOID, GROUP):
            keys = list(Alphabet(tuple(f"s{i}" for i in range(n)), mode)._inverse_letters)
            assert keys == sorted(keys, key=Letter.sort_key) and len(keys) == 2 * n


def test_more_alphabets_than_the_cache_holds():
    maxsize = _alphabet.cache_info().maxsize
    assert maxsize is not None
    texts = [
        PAIR.format(mode=(MONOID, GROUP)[i % 2]).replace("sigma a b", f"sigma a{i} b{i}")
        .replace("a =", f"a{i} =").replace("b =", f"b{i} =")
        for i in range(maxsize + 40)
    ]
    # twice through, so the second round parses alphabets the first evicted
    for text in texts + texts:
        problem = parse(text)
        assert problem == reference.parse(text)
        assert _alphabet.cache_info().currsize <= maxsize
    assert _alphabet.cache_info().currsize == maxsize


def _renamed(text: str, directive: str) -> tuple[str, dict[str, str]]:
    """`text` with the symbols of its `sigma` or `delta` line renamed, in the
    same order, and the renaming."""
    lines = text.split("\n")
    symbols = next(line.split()[1:] for line in lines if line.startswith(directive + " "))
    names = {s: f"{s}_r" for s in symbols}

    def rename(token: str) -> str:
        base, inverse, _ = token.partition("^-1")
        return names.get(base, base) + inverse

    out = []
    for line in lines:
        tokens = line.split()
        if tokens[:1] == [directive]:
            tokens[1:] = map(rename, tokens[1:])
        elif tokens[1:2] == ["="]:
            if directive == "sigma":
                tokens[0] = rename(tokens[0])
            else:
                tokens[2:] = map(rename, tokens[2:])
        out.append(" ".join(tokens))
    return "\n".join(out), names


def _renamed_back(out: str, back: dict[str, str]) -> tuple[str, int]:
    """Result text `out` with every renamed symbol given its old name, and
    how many tokens that renamed."""
    count = 0
    lines = []
    for line in out.split("\n"):
        tokens = []
        for token in line.split(" "):
            base, inverse, _ = token.partition("^-1")
            if base in back:
                count += 1
                token = back[base] + inverse
            tokens.append(token)
        lines.append(" ".join(tokens))
    return "\n".join(lines), count


def _law_texts() -> list[str]:
    rng = random.Random(24)
    texts = [(FIXTURES / f"{name}.pcp").read_text() for name in ("marked_pair", "immersed_pair")]
    for n in range(30):
        inst = (random_monoid_instance if n % 2 else random_group_instance)(rng)
        texts.append(serialize_instance(inst))
        # g against itself has the whole domain as its equaliser
        texts.append(serialize_instance(Instance(inst.g, inst.g)))
        texts.append(serialize_instance(SetInstance((inst.g, inst.h, inst.g))))
    return texts


def _stdout(path, capsys, *args):
    assert run(["solve", str(path), *args]) == 0
    return capsys.readouterr().out


def test_renaming_the_symbols_renames_the_basis(tmp_path, capsys):
    """Renaming Delta leaves `solve` output as it is; renaming Sigma renames
    the basis.  Each copy is parsed and solved right after its original, so
    a cache keyed on less than the symbols and mode would mix them up."""
    renamed_tokens = 0
    for n, text in enumerate(_law_texts()):
        for directive in ("delta", "sigma"):
            other, names = _renamed(text, directive)
            original = tmp_path / f"{n}.pcp"
            copy = tmp_path / f"{n}_{directive}.pcp"
            original.write_text(text)
            copy.write_text(other)
            back = {new: old for old, new in names.items()}
            for args in ((), ("--set",)):
                want = _stdout(original, capsys, *args)
                got = _stdout(copy, capsys, *args)
                if directive == "sigma":
                    got, count = _renamed_back(got, back)
                    renamed_tokens += count
                assert got == want, (text, directive, args)
    assert renamed_tokens > 0

