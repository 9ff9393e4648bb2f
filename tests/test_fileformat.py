import random

import pytest

from markedpcp import monoid
from markedpcp.fileformat import ParseError, parse, serialize, serialize_instance
from markedpcp.instances import Instance, SetInstance
from markedpcp.words import MONOID

from support import random_group_instance, random_monoid_instance

PAIR_TEXT = """\
# comment line
mode group
sigma a b c
delta x y z
map g
a = x y x x
b = y^-1
c = z x z
map h
a = x          # trailing comment
b = y x x y
c = z
"""


class TestParse:
    def test_pair_file(self, immersed_pair):
        parsed = parse(PAIR_TEXT)
        assert isinstance(parsed, Instance)
        assert parsed == immersed_pair

    def test_crlf_tolerated(self):
        assert parse(PAIR_TEXT.replace("\n", "\r\n")) == parse(PAIR_TEXT)

    def test_empty_image_in_monoid_mode(self):
        text = "mode monoid\nsigma a\ndelta x\nmap g\na = eps\nmap h\na = x\n"
        parsed = parse(text)
        assert parsed.g.images[0].letters == ()

    def test_three_maps_give_a_set_instance(self):
        text = PAIR_TEXT + "map k\na = x\nb = y\nc = z\n"
        parsed = parse(text)
        assert isinstance(parsed, SetInstance)
        assert parsed.names == ("g", "h", "k")

    def test_single_map_is_a_degenerate_set(self):
        text = "mode monoid\nsigma a\ndelta x\nmap g\na = x\n"
        parsed = parse(text)
        assert isinstance(parsed, SetInstance)
        assert len(parsed.morphisms) == 1


class TestParseErrors:
    def assert_position(self, text, line, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.line, info.value.column) == (line, column)
        return info.value

    def test_split_inverse_token(self):
        err = self.assert_position(
            "mode group\nsigma a\ndelta x\nmap g\na = x ^-1\n", 5, 7
        )
        assert "malformed" in err.bare_message

    def test_unknown_letter(self):
        self.assert_position("mode monoid\nsigma a\ndelta x\nmap g\na = w\n", 5, 5)

    def test_unknown_generator(self):
        self.assert_position("mode monoid\nsigma a\ndelta x\nmap g\nb = x\n", 5, 1)

    def test_duplicate_mapping(self):
        self.assert_position(
            "mode monoid\nsigma a\ndelta x\nmap g\na = x\na = x x\n", 6, 1
        )

    def test_missing_mapping(self):
        self.assert_position("mode monoid\nsigma a b\ndelta x\nmap g\na = x\n", 4, 1)

    def test_unreduced_group_image(self):
        err = self.assert_position(
            "mode group\nsigma a\ndelta x y\nmap g\na = x y y^-1\n", 5, 9
        )
        assert "freely reduced" in err.bare_message

    def test_inverse_in_monoid_mode(self):
        self.assert_position("mode monoid\nsigma a\ndelta x\nmap g\na = x^-1\n", 5, 5)

    def test_bad_mode(self):
        self.assert_position("mode ring\nsigma a\ndelta x\nmap g\na = x\n", 1, 1)

    def test_missing_maps(self):
        self.assert_position("mode monoid\nsigma a\ndelta x\n", 3, 1)

    def test_duplicate_sigma_symbol(self):
        self.assert_position("mode monoid\nsigma a a\ndelta x\nmap g\na = x\n", 2, 9)

    def test_reserved_word_as_sigma_symbol(self):
        err = self.assert_position(
            "mode monoid\nsigma a map\ndelta x y\nmap g\na = x\nmap = y\n", 2, 9
        )
        assert "reserved" in err.bare_message

    def test_reserved_word_as_delta_symbol(self):
        err = self.assert_position(
            "mode monoid\nsigma a b\ndelta eps y\nmap g\na = eps\nb = y\n"
            "map h\na = y\nb = eps\n",
            3,
            7,
        )
        assert "reserved" in err.bare_message

    @pytest.mark.parametrize("word", ["eps", "map", "mode", "sigma", "delta"])
    def test_every_reserved_word_is_rejected(self, word):
        self.assert_position(f"mode group\nsigma a\ndelta x {word}\nmap g\na = x\n", 3, 9)


class TestRoundTrip:
    def test_monoid_instances(self):
        rng = random.Random(73)
        for _ in range(25):
            inst = random_monoid_instance(rng)
            assert parse(serialize_instance(inst)) == inst

    def test_group_instances(self):
        rng = random.Random(79)
        for _ in range(25):
            inst = random_group_instance(rng)
            assert parse(serialize_instance(inst)) == inst

    def test_set_instances(self, immersed_pair):
        family = SetInstance((immersed_pair.g, immersed_pair.h, immersed_pair.g))
        assert parse(serialize_instance(family)) == family


class TestSerializeResult:
    def test_worked_pair(self, marked_pair):
        res = monoid.solve_pair(marked_pair)
        assert serialize(res) == "case cycle\nbasis 1\np0 = a b\n"

    def test_empty_basis(self):
        from markedpcp.words import Alphabet
        from support import morphism

        one = Alphabet(("a",), MONOID)
        d = Alphabet(("x", "y"), MONOID)
        res = monoid.solve_pair(Instance(morphism(one, d, "x"), morphism(one, d, "y")))
        assert serialize(res) == "case alphabet-size-1\nbasis 0\n"

    def test_identity_solve_lists_each_generator(self):
        from markedpcp.words import Alphabet
        from markedpcp.morphisms import identity

        sigma = Alphabet(("a", "b"), MONOID)
        res = monoid.solve_pair(Instance(identity(sigma), identity(sigma)))
        assert serialize(res) == "case all-length-1\nbasis 2\na = a\nb = b\n"

    def test_result_reparses_as_single_map_file(self, marked_pair):
        res = monoid.solve_pair(marked_pair)
        text = serialize_instance(
            SetInstance((res.embedding,), ("psi",))
        )
        parsed = parse(text)
        assert parsed.morphisms[0] == res.embedding
