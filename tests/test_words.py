import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markedpcp.fileformat import ParseError, parse
from markedpcp.morphisms import apply, compose
from markedpcp.words import (
    GROUP,
    MONOID,
    Alphabet,
    Letter,
    Word,
    _alphabet,
    ball,
    concat,
    format_word,
    free_reduce,
    invert,
    longest_common_prefix,
    parse_word,
    proper_prefixes,
)

from support import empty_word, morphism

GA = Alphabet(("x", "y", "z"), GROUP)
MA = Alphabet(("x", "y"), MONOID)


def gw(text):
    return parse_word(GA, text)


raw_letters = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from([1, -1])).map(lambda t: Letter(*t)),
    max_size=24,
)


class TestAlphabet:
    def test_rejects_duplicate_symbols(self):
        with pytest.raises(ValueError):
            Alphabet(("x", "x"), MONOID)

    def test_rejects_empty_symbol(self):
        with pytest.raises(ValueError):
            Alphabet(("x", ""), MONOID)

    def test_indices_are_stable(self):
        assert [GA.index(s) for s in ("x", "y", "z")] == [0, 1, 2]

    def test_signed_letters_monoid_has_no_inverses(self):
        assert all(l.sign == 1 for l in MA.signed_letters())

    def test_equality_and_hash(self):
        a, b = Alphabet(("x", "y"), GROUP), Alphabet(("x", "y"), GROUP)
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert a == _alphabet(("x", "y"), GROUP) and hash(a) == hash(_alphabet(("x", "y"), GROUP))
        for other in (
            Alphabet(("x", "y"), MONOID),
            Alphabet(("y", "x"), GROUP),
            Alphabet(("x",), GROUP),
        ):
            assert a != other and not a == other
        for other in (("x", "y"), ("x", "y", GROUP), "x y", None):
            assert (a == other) is False and (a != other) is True

    @pytest.mark.parametrize("alphabet", [GA, MA, _alphabet(("x", "y"), GROUP)])
    def test_letter_lists_are_fresh(self, alphabet):
        positive = [Letter(i, 1) for i in range(len(alphabet))]
        negative = [Letter(i, -1) for i in range(len(alphabet))]
        signed = positive + negative if alphabet.mode == GROUP else positive
        for letters, expected in (
            (alphabet.positive_letters, positive),
            (alphabet.signed_letters, signed),
        ):
            first = letters()
            assert first == expected
            first.append(Letter(0, 1))
            first[0] = Letter(len(alphabet), 1)
            assert letters() == expected and letters() is not letters()
        assert alphabet._positive_letters == tuple(positive)
        assert alphabet._negative_letters == tuple(negative)

    def test_replace_on_words_and_morphisms(self):
        w = gw("x y")
        built = apply(morphism(GA, GA, "x", "y", "z"), w)  # built by the solver's trusted path
        for word in (w, built):
            assert dataclasses.replace(word, letters=(Letter(2, 1),)) == gw("z")
            with pytest.raises(ValueError, match="not freely reduced"):
                dataclasses.replace(word, letters=(Letter(0, 1), Letter(0, -1)))
        f = morphism(GA, GA, "x y", "z", "y^-1")
        for g in (f, compose(f, f)):
            images = (gw("x"), gw("y"), gw("z"))
            assert dataclasses.replace(g, images=images).images == images
            with pytest.raises(ValueError, match="expected 3 images"):
                dataclasses.replace(g, images=(gw("x"),))


class TestWordConstruction:
    def test_group_word_must_be_reduced(self):
        with pytest.raises(ValueError):
            Word(GA, (Letter(0, 1), Letter(0, -1)))

    def test_monoid_word_rejects_inverse_letters(self):
        with pytest.raises(ValueError):
            Word(MA, (Letter(0, -1),))

    def test_letter_index_range_checked(self):
        with pytest.raises(ValueError):
            Word(MA, (Letter(5, 1),))


class TestFreeReduce:
    def test_cancellation_to_identity(self):
        assert free_reduce(GA, [Letter(0, 1), Letter(0, -1)]) == empty_word(GA)

    def test_single_inner_cancellation(self):
        raw = [Letter(0, 1), Letter(1, 1), Letter(1, -1), Letter(0, 1)]
        assert free_reduce(GA, raw) == gw("x x")

    def test_already_reduced_is_identity(self):
        raw = [Letter(0, -1), Letter(1, 1), Letter(0, 1)]
        assert free_reduce(GA, raw) == gw("x^-1 y x")

    def test_monoid_mode_rejected(self):
        with pytest.raises(ValueError):
            free_reduce(MA, [Letter(0, 1)])

    def test_cancelling_letters_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="^letter index 5 out of range at position 0$"):
            free_reduce(GA, [(5, 1), (5, -1)])
        with pytest.raises(ValueError, match="^letter index 5 out of range at position 2$"):
            free_reduce(GA, [(0, 1), (1, 1), (5, 1), (5, -1)])

    def test_cancelling_letters_of_a_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="^bad letter sign 2 at position 0$"):
            free_reduce(GA, [(0, 2), (0, -2)])

    @given(raw_letters)
    def test_idempotent(self, raw):
        once = free_reduce(GA, raw)
        assert free_reduce(GA, once.letters) == once

    @given(raw_letters)
    def test_cascading_cancellation_leaves_no_adjacent_pair(self, raw):
        reduced = free_reduce(GA, raw).letters
        assert all(
            reduced[i] != reduced[i + 1].inverse() for i in range(len(reduced) - 1)
        )


class TestConcat:
    def test_monoid_plain(self):
        assert concat(parse_word(MA, "x y"), parse_word(MA, "y")) == parse_word(MA, "x y y")

    def test_group_word_times_inverse_is_identity(self):
        w = gw("x y x x")
        assert concat(w, invert(w)) == empty_word(GA)

    def test_partial_cancellation(self):
        assert concat(gw("x y^-1"), gw("y")) == gw("x")

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError):
            concat(parse_word(MA, "x"), gw("x"))

    @given(raw_letters, raw_letters)
    def test_group_length_bound(self, a, b):
        u, v = free_reduce(GA, a), free_reduce(GA, b)
        w = concat(u, v)
        assert len(w) <= len(u) + len(v)
        assert (len(w) - len(u) - len(v)) % 2 == 0


class TestInvert:
    def test_example(self):
        assert invert(gw("x y x x")) == gw("x^-1 x^-1 y^-1 x^-1")

    def test_empty(self):
        assert invert(empty_word(GA)) == empty_word(GA)

    def test_involution(self):
        w = gw("z x z")
        assert invert(invert(w)) == w

    def test_monoid_rejected(self):
        with pytest.raises(ValueError):
            invert(parse_word(MA, "x"))


class TestProperPrefixes:
    def test_excludes_empty_and_whole(self):
        assert proper_prefixes(gw("x y x x")) == {gw("x"), gw("x y"), gw("x y x")}

    def test_single_letter(self):
        assert proper_prefixes(gw("x")) == set()

    def test_empty(self):
        assert proper_prefixes(empty_word(GA)) == set()

    @given(raw_letters)
    def test_cardinality(self, raw):
        w = free_reduce(GA, raw)
        assert len(proper_prefixes(w)) == max(len(w) - 1, 0)


class TestLongestCommonPrefix:
    def test_examples(self):
        assert longest_common_prefix(parse_word(MA, "x y y"), parse_word(MA, "x y x")) \
            == parse_word(MA, "x y")
        assert longest_common_prefix(parse_word(MA, "x y"), parse_word(MA, "x y")) \
            == parse_word(MA, "x y")
        assert longest_common_prefix(parse_word(MA, "x"), parse_word(MA, "y")) \
            == empty_word(MA)

    @given(raw_letters, raw_letters)
    def test_symmetric_and_reflexive(self, a, b):
        u, v = free_reduce(GA, a), free_reduce(GA, b)
        assert longest_common_prefix(u, v) == longest_common_prefix(v, u)
        assert longest_common_prefix(u, u) == u


class TestTextSyntax:
    def test_round_trip(self):
        for text in ("eps", "x", "x y^-1 x", "z z z"):
            assert format_word(parse_word(GA, text)) == text

    def test_inverse_rejected_in_monoid(self):
        with pytest.raises(ValueError):
            parse_word(MA, "x^-1")

    def test_malformed_token(self):
        with pytest.raises(ValueError):
            parse_word(GA, "x ^-1")

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            parse_word(GA, "w")


# valid, inverse (a monoid-mode error), eps, unknown and malformed tokens;
# pairs of them also give eps-not-alone and unreduced sequences
TOKENS = ("x", "y", "x^-1", "y^-1", "eps", "w", "x^-1^-1", "1x")
SEQUENCES = [seq for n in (1, 2) for seq in itertools.product(TOKENS, repeat=n)] + [
    ("x", "y", "y^-1"),
    ("y", "x", "eps"),
    ("x", "x", "w^-1"),
]


class TestOneParser:
    """`parse_word` and the file format read words with the same parser."""

    @pytest.mark.parametrize("mode", [MONOID, GROUP])
    def test_agrees_with_the_file_format(self, mode):
        delta = Alphabet(("x", "y"), mode)
        messages = set()
        accepted = 0
        for seq in SEQUENCES:
            text = " ".join(seq)
            # the image starts at column 5 of line 5
            file = f"mode {mode}\nsigma a\ndelta x y\nmap g\na = {text}\n"
            try:
                want = parse(file).morphisms[0].images[0]
            except ParseError as exc:
                with pytest.raises(ParseError) as info:
                    parse_word(delta, text)
                got = info.value
                assert exc.line == 5
                assert (got.line, got.column) == (1, exc.column - 4)
                assert got.bare_message == exc.bare_message
                messages.add(exc.bare_message.split(" ")[0])
            else:
                assert parse_word(delta, text) == want
                accepted += 1
        assert accepted >= 7  # at least eps, x, y and the four pairs of those
        kinds = {"'eps'", "malformed", "unknown"}
        kinds |= {"image"} if mode == GROUP else {"inverse"}
        assert messages == kinds

    @pytest.mark.parametrize("mode", [MONOID, GROUP])
    def test_library_symbols_the_file_format_rejects(self, mode):
        lib = Alphabet(("a-b", "eps", "x"), mode)
        assert parse_word(lib, "eps") == empty_word(lib)
        assert parse_word(lib, "x eps").letters == (Letter(2, 1), Letter(1, 1))
        with pytest.raises(ParseError, match="malformed letter token 'a-b'"):
            parse_word(lib, "x a-b")
        if mode == GROUP:
            assert parse_word(lib, "eps^-1 x").letters == (Letter(1, -1), Letter(2, 1))


class TestBall:
    def test_monoid_count(self):
        assert len(list(ball(MA, 2))) == 7

    def test_group_words_are_reduced_and_shortlex(self):
        words = list(ball(Alphabet(("x", "y"), GROUP), 3))
        keys = [w.sort_key() for w in words]
        assert keys == sorted(keys)
        assert len(words) == 1 + 4 + 4 * 3 + 4 * 9
        assert len(set(words)) == len(words)
