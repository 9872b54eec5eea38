"""Closed-form invariants against reference values and structural properties."""

from __future__ import annotations

import math
import random

import pytest

from affinesg import (
    GapsCapError,
    OverflowLimitError,
    Params,
    affine_image,
    apery_element,
    apery_set,
    bit_limit,
    contains,
    embedding_dimension,
    frobenius,
    gaps,
    genus,
    geometric_sum,
    k_tilde,
    members_below,
    minimal_generators,
    orbit_term,
    profile,
)
from affinesg.oracle import build_oracle, oracle_minimal_generators
from conftest import WORKED_TABLES

EX1 = Params(3, 1, 3)
EX2 = Params(3, 1, 5)
EX3 = Params(2, 3, 4)


def small_sweep():
    for a in range(1, 4):
        for b in range(1, 5):
            for c in range(2, 13):
                if math.gcd(b, c) == 1:
                    yield Params(a, b, c)


def sampled_grid():
    """a in {1, 2, 3, 10} over a fixed sample of seeds up to 5000, b coprime."""
    rng = random.Random(0)
    for a in (1, 2, 3, 10):
        for c in sorted(rng.sample(range(13, 5000), 6)) + [5000]:
            b = rng.choice([b for b in range(1, 100) if math.gcd(b, c) == 1])
            yield Params(a, b, c)


def identity_grid():
    yield from small_sweep()
    yield from sampled_grid()


def test_k_tilde_known_values():
    assert k_tilde(EX1) == 2
    assert k_tilde(EX2) == 3
    assert k_tilde(EX3) == 3
    assert k_tilde(Params(2, 1, 2)) == 2


def test_k_tilde_is_at_least_two():
    for p in small_sweep():
        assert k_tilde(p) >= 2


def test_minimal_generators_known_values():
    assert minimal_generators(EX1) == [3, 10]
    assert minimal_generators(EX2) == [5, 16, 49]
    assert minimal_generators(EX3) == [4, 11, 25]


def test_minimal_generators_increase_and_are_coprime():
    for p in small_sweep():
        gens = minimal_generators(p)
        assert gens == sorted(gens)
        assert len(set(gens)) == len(gens)
        assert math.gcd(*gens) == 1


def test_embedding_dimension_known_values():
    assert embedding_dimension(EX1) == 2
    assert embedding_dimension(EX3) == 3


def test_embedding_dimension_unit_multiplier_equals_seed():
    # with multiplier 1 the geometric sums count k, so the cutoff lands at c
    for c in range(2, 9):
        p = Params(1, 1, c)
        assert embedding_dimension(p) == c
        assert len(oracle_minimal_generators(build_oracle(p))) == c


def test_apery_element_known_values():
    assert apery_element(EX2, 4) == 49
    assert apery_element(EX3, 3) == 25
    for p in (EX1, EX2, EX3):
        assert apery_element(p, 0) == 0


def test_apery_element_rejects_out_of_range_class():
    with pytest.raises(ValueError):
        apery_element(EX1, 3)
    with pytest.raises(ValueError):
        apery_element(EX1, -1)


def test_apery_set_known_values():
    assert apery_set(EX1) == [0, 10, 20]
    assert apery_set(EX2) == [0, 16, 32, 48, 49]
    assert apery_set(EX3) == [0, 11, 22, 25]


def test_apery_set_matches_per_class_elements():
    for p in small_sweep():
        ap = apery_set(p)
        assert ap == [apery_element(p, l) for l in range(p.c)]


def test_apery_set_covers_all_residues():
    for p in small_sweep():
        assert len({x % p.c for x in apery_set(p)}) == p.c


def test_frobenius_known_values():
    assert frobenius(EX1) == 17
    assert frobenius(EX2) == 44
    assert frobenius(EX3) == 21


def test_genus_known_values():
    assert genus(EX1) == 9
    assert genus(EX2) == 27
    assert genus(EX3) == 13


def test_genus_equals_per_class_gap_count():
    # independent recount: each class l contributes floor(x_l / c) gaps
    for p in small_sweep():
        ap = apery_set(p)
        assert genus(p) == sum(x // p.c for x in ap)


def test_contains_known_values():
    assert contains(EX1, 13) is True
    assert contains(EX1, 7) is False
    assert contains(EX1, 0) is True
    assert contains(EX1, 17) is False
    assert contains(EX1, 18) is True


def test_contains_rejects_negative():
    with pytest.raises(ValueError):
        contains(EX1, -1)


def test_membership_of_least_class_elements():
    # each Apery value is a member whose predecessor in its class is not
    for p in small_sweep():
        for l, x in enumerate(apery_set(p)):
            assert contains(p, x)
            if l:
                assert not contains(p, x - p.c)


def test_gaps_known_values():
    assert gaps(EX1) == [1, 2, 4, 5, 7, 8, 11, 14, 17]
    assert len(gaps(EX3)) == 13
    assert max(gaps(EX1)) == 17


def test_gaps_consistent_with_genus_and_frobenius():
    for p in small_sweep():
        gs = gaps(p)
        assert len(gs) == genus(p)
        assert max(gs) == frobenius(p)
        assert all(not contains(p, n) for n in gs)


def test_gaps_cap_refusal():
    with pytest.raises(GapsCapError, match="exceeds the gap enumeration cap"):
        gaps(EX1, max_frobenius=10)


def test_members_below_matches_worked_tables():
    for (a, b, c), table in WORKED_TABLES.items():
        assert members_below(Params(a, b, c), table["limit"]) == table["members"]


def test_profile_reproduces_worked_examples():
    prof = profile(EX1)
    assert prof.k_tilde == 2
    assert prof.minimal_generators == (3, 10)
    assert prof.apery == (0, 10, 20)
    assert (prof.frobenius, prof.genus, prof.conductor) == (17, 9, 18)

    prof = profile(EX3)
    assert prof.k_tilde == 3
    assert prof.minimal_generators == (4, 11, 25)
    assert prof.apery == (0, 11, 22, 25)
    assert (prof.frobenius, prof.genus, prof.conductor) == (21, 13, 22)


def test_profile_two_generator_case():
    # smallest seed: the semigroup generated by 2 and 5 has gaps {1, 3}
    prof = profile(Params(2, 1, 2))
    assert prof.k_tilde == 2
    assert prof.minimal_generators == (2, 5)
    assert prof.apery == (0, 5)
    assert (prof.frobenius, prof.genus) == (3, 2)
    assert gaps(Params(2, 1, 2)) == [1, 3]


def test_profile_agrees_with_piecewise_operations():
    for p in small_sweep():
        prof = profile(p)
        assert prof.k_tilde == k_tilde(p)
        assert list(prof.minimal_generators) == minimal_generators(p)
        assert list(prof.apery) == apery_set(p)
        assert prof.frobenius == frobenius(p)
        assert prof.genus == genus(p)
        assert prof.conductor == frobenius(p) + 1


def test_members_are_closed_under_the_map():
    for p in (EX1, EX2, EX3, Params(1, 2, 5), Params(4, 3, 10)):
        f = frobenius(p)
        for x in range(1, f + 2 * p.c + 1):
            if contains(p, x):
                assert contains(p, affine_image(p, x))


def test_members_are_closed_under_addition():
    for p in (EX1, EX3, Params(1, 2, 5)):
        f = frobenius(p)
        members = [x for x in range(f + p.c + 1) if contains(p, x)]
        for x in members:
            for y in members:
                assert contains(p, x + y)


def test_scaled_blocks_are_members():
    # a^k*c + b*i is a member for every i up to the k-th geometric sum
    for p in small_sweep():
        for k in range(0, k_tilde(p) + 1):
            s = geometric_sum(p.a, k)
            base = p.a**k * p.c
            for i in range(s + 1):
                assert contains(p, base + p.b * i)


def test_everything_from_the_cutoff_term_onward_is_a_member():
    # first k whose geometric sum reaches c - 1 starts an unbroken member run
    for p in small_sweep():
        k = 0
        while geometric_sum(p.a, k) < p.c - 1:
            k += 1
        start = orbit_term(p, k)
        assert frobenius(p) < start
        for n in range(start, start + 3 * p.c + 1):
            assert contains(p, n)


def test_members_below_prefix_of_contains():
    for p in (EX1, EX2, EX3):
        limit = frobenius(p) + p.c
        assert members_below(p, limit) == [
            n for n in range(limit) if contains(p, n)
        ]


# --- identities the closed forms rest on, over small and sampled seeds ---


def test_apery_set_matches_sampled_per_class_elements():
    rng = random.Random(1)
    for p in sampled_grid():
        ap = apery_set(p)
        assert len(ap) == p.c
        for l in rng.sample(range(p.c), min(p.c, 100)) + [p.c - 1]:
            assert ap[l] == apery_element(p, l), (p, l)


def test_apery_set_starts_at_zero_and_covers_every_residue():
    for p in identity_grid():
        ap = apery_set(p)
        assert ap[0] == 0, p
        assert len({x % p.c for x in ap}) == p.c, p


def test_apery_set_increases_with_the_class():
    for p in identity_grid():
        ap = apery_set(p)
        assert all(x < y for x, y in zip(ap, ap[1:])), p


def test_apery_set_width_check_trips_at_the_top_class():
    for p in (EX2, Params(10, 1, 100), Params(1, 7, 59)):
        edge = apery_set(p)[-1].bit_length()
        with bit_limit(edge + 1):
            apery_set(p)
        with pytest.raises(OverflowLimitError), bit_limit(edge):
            apery_set(p)


def test_frobenius_is_the_top_apery_element_minus_the_seed():
    for p in identity_grid():
        assert frobenius(p) == max(apery_set(p)) - p.c, p


def test_genus_is_selmers_formula_over_the_apery_set():
    for p in identity_grid():
        ap = apery_set(p)
        num = 2 * sum(ap) - p.c * (p.c - 1)
        assert num % (2 * p.c) == 0, p
        assert genus(p) == num // (2 * p.c), p
        assert genus(p) == sum(x // p.c for x in ap), p


def test_generator_count_is_k_tilde():
    for p in identity_grid():
        assert len(minimal_generators(p)) == k_tilde(p), p


def mersenne_frobenius(n):
    return 2 ** (2 * n) - 2**n - 1


def mersenne_genus(n):
    return 2 ** (n - 1) * (2**n + n - 3)


def test_mersenne_seeds_match_selmer_and_the_family_closed_forms():
    # c = 2^n - 1 with x -> 2x + 1 generates {2^(n+i) - 1}: the Mersenne
    # numerical semigroups of Rosales, Branco and Torrao (2017)
    for n in range(2, 14):
        p = Params(2, 1, 2**n - 1)
        ap = apery_set(p)
        assert genus(p) == (2 * sum(ap) - p.c * (p.c - 1)) // (2 * p.c), n
        assert genus(p) == mersenne_genus(n), n
        assert frobenius(p) == max(ap) - p.c == mersenne_frobenius(n), n


def test_huge_seed_scalars_need_no_apery_set():
    p = Params(2, 1, 2**200 - 1)
    assert frobenius(p) == mersenne_frobenius(200)
    assert genus(p) == mersenne_genus(200)
