from fractions import Fraction
from itertools import combinations

import pytest

from markedpcp.cli import run
from markedpcp.density import (
    IMMERSION_GROUP,
    MARKED_MONOID,
    DensityParams,
    immersion_density_limit,
    marked_density_limit,
    measure_density,
    reduced_word_count,
    _signed_letters,
    _words_up_to,
)


def brute_force_count(m, n, A, B):
    A, B = set(A), set(B)
    count = 0
    for w in _words_up_to(m, n, group=True):
        if len(w) == n and w[0] not in A and w[-1] not in B:
            count += 1
    return count


class TestMarkedDensityLimit:
    def test_square_case(self):
        assert marked_density_limit(2, 2) == Fraction(1, 2)

    def test_single_generator(self):
        assert marked_density_limit(1, 1) == 1

    def test_rectangular_case(self):
        assert marked_density_limit(2, 3) == Fraction(2, 3)

    def test_impossible_case_is_zero(self):
        assert marked_density_limit(3, 2) == 0


class TestImmersionDensityLimit:
    def test_positive_whenever_possible(self):
        for m in range(1, 4):
            for k in range(1, m + 1):
                assert immersion_density_limit(k, m) > 0

    def test_single_generator_is_one(self):
        assert immersion_density_limit(1, 1) == 1

    def test_known_value(self):
        # k=1: the only constraint is first != inverse of last
        assert immersion_density_limit(1, 2) == Fraction(3, 4)


class TestReducedWordCount:
    def test_all_letters_at_length_one(self):
        for m in (1, 2, 3):
            assert reduced_word_count(m, 1, (), ()) == 2 * m

    def test_no_constraints_length_two(self):
        assert reduced_word_count(2, 2, (), ()) == 12

    def test_singleton_constraints_length_one(self):
        assert reduced_word_count(2, 1, [(0, 1)], [(1, 1)]) == 2

    def test_rejects_short_lengths(self):
        with pytest.raises(ValueError):
            reduced_word_count(2, 0, (), ())

    def test_matches_brute_force(self):
        for m in (1, 2):
            letters = _signed_letters(m)
            subsets = [()] + [(l,) for l in letters] + list(combinations(letters, 2))
            for n in range(1, 6):
                for A in subsets:
                    for B in subsets:
                        assert reduced_word_count(m, n, A, B) == brute_force_count(m, n, A, B)

    def test_first_letter_counts_partition_the_total(self):
        # words starting with a given letter are total minus those avoiding it
        for m in (1, 2, 3):
            for n in (1, 2, 5):
                total = reduced_word_count(m, n, (), ())
                per_letter = [
                    total - reduced_word_count(m, n, (l,), ())
                    for l in _signed_letters(m)
                ]
                assert sum(per_letter) == total == 2 * m * (2 * m - 1) ** (n - 1)


class TestMeasureDensity:
    def test_exact_single_generator(self):
        emp, pred = measure_density(DensityParams(1, 1, 5), MARKED_MONOID)
        assert emp == Fraction(5, 6)
        assert pred == 1

    def test_exact_square_case_converges(self):
        distances = []
        for n in (2, 4, 6, 8):
            emp, pred = measure_density(DensityParams(2, 2, n), MARKED_MONOID)
            distances.append(abs(emp - pred))
        assert distances == sorted(distances, reverse=True)

    def test_exact_immersion_small(self):
        emp, pred = measure_density(DensityParams(1, 1, 5), IMMERSION_GROUP)
        # all ten nonempty reduced words over one generator are immersions
        assert emp == Fraction(10, 11)
        assert pred == 1

    def test_immersion_exact_tracks_the_limit(self):
        emp, pred = measure_density(DensityParams(1, 2, 8), IMMERSION_GROUP)
        assert abs(emp - pred) < Fraction(1, 20)

    def test_sampling_is_deterministic(self):
        a = measure_density(DensityParams(2, 2, 6, samples=500), MARKED_MONOID, seed=3)
        b = measure_density(DensityParams(2, 2, 6, samples=500), MARKED_MONOID, seed=3)
        assert a == b

    def test_sampling_lands_near_the_exact_value(self):
        exact, _ = measure_density(DensityParams(2, 2, 6), MARKED_MONOID)
        sampled, _ = measure_density(
            DensityParams(2, 2, 6, samples=4000), MARKED_MONOID, seed=5
        )
        assert abs(sampled - exact) < Fraction(1, 20)

    @pytest.mark.parametrize("kind, n", [(IMMERSION_GROUP, 1000), (MARKED_MONOID, 2000)])
    def test_sampling_past_the_float_range_is_rejected(self, kind, n):
        with pytest.raises(ValueError, match=r"fewer than 2\^1024; m = 2, n = \d+ give at least"):
            measure_density(DensityParams(1, 2, n, samples=1), kind)

    def test_sampling_up_to_the_float_range(self):
        # 2^1023 - 1 monoid words of length <= 1022 over two letters fit a
        # float; 2^1024 - 1 of length <= 1023 do not
        measure_density(DensityParams(1, 2, 1022, samples=1), MARKED_MONOID)
        with pytest.raises(ValueError, match="at least 2\\^1023$"):
            measure_density(DensityParams(1, 2, 1023, samples=1), MARKED_MONOID)

    @pytest.mark.parametrize(
        "argv, row",
        # recorded before the length weights and letter lists were built once
        # per measurement rather than once per sampled word
        [
            ("marked-monoid -k 2 -m 3 -n 4 --samples 400 --seed 11", "marked-monoid,2,3,4,400,129/200,2/3"),
            ("marked-monoid -k 3 -m 4 -n 6 --samples 400 --seed 11", "marked-monoid,3,4,6,400,33/80,3/8"),
            ("marked-monoid -k 2 -m 2 -n 900 --samples 200 --seed 2", "marked-monoid,2,2,900,200,49/100,1/2"),
            ("immersion-group -k 2 -m 3 -n 4 --samples 400 --seed 11", "immersion-group,2,3,4,400,119/400,5/18"),
            ("immersion-group -k 2 -m 2 -n 7 --samples 400 --seed 11", "immersion-group,2,2,7,400,31/400,3/32"),
            ("immersion-group -k 3 -m 3 -n 300 --samples 200 --seed 2", "immersion-group,3,3,300,200,1/100,5/324"),
        ],
    )
    def test_sampled_rows_are_pinned(self, argv, row, capsys):
        assert run(["density", "--kind", *argv.split()]) == 0
        assert capsys.readouterr().out == f"kind,k,m,n,samples,empirical,predicted\n{row}\n"

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            measure_density(DensityParams(1, 1, 2), "nonsense")

    def test_params_validated(self):
        with pytest.raises(ValueError):
            DensityParams(3, 2, 4)
        with pytest.raises(ValueError):
            DensityParams(1, 1, 0)
