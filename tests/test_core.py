"""Sequences, reduced vectors, greedy decomposition, the rewrite loop, ordering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesg import (
    InvalidParamsError,
    NotReducedError,
    OverflowLimitError,
    Params,
    ReducedVector,
    affine_image,
    bit_limit,
    compare,
    decompose,
    geometric_sum,
    orbit_term,
    reduce_coefficients,
)
from conftest import reduced_vectors_up_to, s_sum_of_map, t_sum_of_map


# --- geometric sums and orbit terms ---


def test_geometric_sum_zero_case():
    assert geometric_sum(3, 0) == 0


def test_geometric_sum_known_values():
    assert geometric_sum(3, 2) == 4
    assert geometric_sum(2, 3) == 7


def test_geometric_sum_matches_term_by_term_loop():
    for a in range(1, 7):
        for k in range(0, 12):
            assert geometric_sum(a, k) == sum(a**i for i in range(k))


def test_geometric_sum_unit_multiplier_counts():
    for k in range(20):
        assert geometric_sum(1, k) == k


def test_geometric_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        geometric_sum(0, 3)
    with pytest.raises(ValueError):
        geometric_sum(2, -1)


def test_orbit_term_known_values():
    assert orbit_term(Params(3, 1, 3), 1) == 10
    assert orbit_term(Params(2, 3, 4), 2) == 25
    for p in (Params(3, 1, 3), Params(2, 3, 4), Params(1, 1, 5)):
        assert orbit_term(p, 0) == p.c


def test_orbit_term_satisfies_recurrence():
    for p in (Params(2, 3, 4), Params(3, 1, 5), Params(1, 4, 7), Params(4, 9, 40)):
        for k in range(0, 41):
            assert orbit_term(p, k + 1) == affine_image(p, orbit_term(p, k))


def test_worked_orbit_values():
    p = Params(2, 3, 4)
    assert [orbit_term(p, k) for k in range(6)] == [4, 11, 25, 53, 109, 221]


def test_affine_image_known_values():
    assert affine_image(Params(3, 1, 3), 3) == 10
    assert affine_image(Params(2, 3, 4), 109) == 221
    assert affine_image(Params(1, 1, 5), 5) == 6


def test_affine_image_rejects_zero():
    with pytest.raises(ValueError):
        affine_image(Params(2, 3, 4), 0)


# --- parameter validation ---


def test_params_rejects_small_seed_first():
    with pytest.raises(InvalidParamsError, match="c must be at least 2"):
        Params(0, 0, 1)


def test_params_rejects_nonpositive_multiplier():
    with pytest.raises(InvalidParamsError, match="a must be a positive integer"):
        Params(0, 3, 4)


def test_params_rejects_nonpositive_offset():
    with pytest.raises(InvalidParamsError, match="b must be a positive integer"):
        Params(2, 0, 5)


def test_params_rejects_common_divisor():
    with pytest.raises(InvalidParamsError, match="not co-finite"):
        Params(2, 2, 4)


def test_params_messages_are_distinct():
    msgs = set()
    for a, b, c in ((2, 2, 4), (3, 1, 1), (0, 3, 4), (2, 0, 5)):
        with pytest.raises(InvalidParamsError) as exc:
            Params(a, b, c)
        msgs.add(str(exc.value))
    assert len(msgs) == 4


def test_params_rejects_bool():
    # bool is a subclass of int, so it needs its own refusal
    for a, b, c in ((True, True, 2), (True, 1, 3), (2, True, 3)):
        with pytest.raises(InvalidParamsError, match="must be an integer"):
            Params(a, b, c)


def test_params_accepts_boundary_values():
    Params(1, 1, 2)
    Params(4, 9, 40)


# --- reduced vectors ---


def test_vector_trims_trailing_zeros():
    v = ReducedVector((0, 2, 0, 0), ambient=3)
    assert v.coeffs == (0, 2)
    assert v.top_index == 1


def test_vector_keeps_index_zero_unconstrained():
    v = ReducedVector((7, 0, 2, 1, 1, 1), ambient=2)
    assert v.coeffs[0] == 7
    assert v.top_index == 5


def test_vector_rejects_cap_violation():
    with pytest.raises(NotReducedError):
        ReducedVector((0, 4), ambient=3)


def test_vector_rejects_full_coefficient_over_nonzero_lower():
    with pytest.raises(NotReducedError):
        ReducedVector((0, 1, 3), ambient=3)


def test_vector_allows_full_coefficient_over_zeros():
    v = ReducedVector((5, 0, 3, 1), ambient=3)
    assert v.as_map() == {0: 5, 2: 3, 3: 1}


def test_vector_rejects_negative_coefficients():
    with pytest.raises(NotReducedError):
        ReducedVector((0, -1), ambient=3)


def test_vector_map_round_trip():
    v = ReducedVector.from_map({0: 4, 2: 2, 3: 1, 4: 1, 5: 1}, ambient=2)
    assert v.as_map() == {0: 4, 2: 2, 3: 1, 4: 1, 5: 1}


def test_vector_values():
    p = Params(2, 3, 4)
    v = ReducedVector.from_map({0: 4, 2: 2, 3: 1, 4: 1, 5: 1}, ambient=2)
    assert v.t_value(p) == 449
    assert v.s_value() == 2 * 3 + 7 + 15 + 31  # index 0 contributes nothing


def test_vector_value_rejects_foreign_params():
    v = ReducedVector((0, 1), ambient=2)
    with pytest.raises(ValueError):
        v.t_value(Params(3, 1, 3))


# --- greedy decomposition ---


def test_decompose_known_values():
    assert decompose(3, 2).as_map() == {1: 2}
    assert decompose(3, 4).as_map() == {2: 1}
    assert decompose(2, 3).as_map() == {2: 1}
    assert decompose(1, 5).as_map() == {5: 1}


def test_decompose_leaves_index_zero_empty():
    for a in (1, 2, 5):
        for n in (1, 7, 30):
            assert decompose(a, n).coeffs[0] == 0


def test_decompose_round_trip_small():
    for a in range(1, 5):
        for n in range(1, 61):
            v = decompose(a, n)
            assert v.s_value() == n


def test_decompose_is_the_unique_representation():
    # brute-force enumeration of every reduced vector with the same top index
    for a in (2, 3, 5):
        for n in range(1, 41):
            v = decompose(a, n)
            hits = [
                m
                for m in reduced_vectors_up_to(a, v.top_index)
                if s_sum_of_map(m, a) == n
            ]
            assert hits == [v.as_map()]


def test_decompose_unit_multiplier_degenerates_to_single_term():
    # with multiplier 1 the geometric sums count indices, so n lands at index n
    for n in (1, 5, 23, 200):
        assert decompose(1, n).as_map() == {n: 1}


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose(2, 0)
    with pytest.raises(ValueError):
        decompose(0, 5)


@given(st.integers(1, 9), st.integers(1, 100_000))
@settings(max_examples=150)
def test_decompose_round_trip_random(a, n):
    v = decompose(a, n)
    assert v.s_value() == n
    assert v.coeffs[0] == 0


# --- the rewrite loop ---


def test_reduce_worked_example():
    p = Params(2, 3, 4)
    trace = reduce_coefficients(p, {1: 2, 2: 4, 4: 3})
    assert trace.initial == (0, 2, 4, 0, 3)
    assert [(s.high_index, s.low_index) for s in trace.steps] == [(4, 1), (2, 1)]
    assert trace.steps[0].coeffs == (2, 1, 4, 0, 1, 1)
    assert trace.steps[1].coeffs == (4, 0, 2, 1, 1, 1)
    assert trace.final.as_map() == {0: 4, 2: 2, 3: 1, 4: 1, 5: 1}


def test_reduce_preserves_weighted_sum_each_step():
    p = Params(2, 3, 4)
    trace = reduce_coefficients(p, {1: 2, 2: 4, 4: 3})
    value = t_sum_of_map({1: 2, 2: 4, 4: 3}, p)
    assert value == 449
    for step in trace.steps:
        assert t_sum_of_map(dict(enumerate(step.coeffs)), p) == value
    assert trace.final.t_value(p) == value


def test_reduce_already_reduced_is_a_zero_step_trace():
    p = Params(3, 1, 5)
    trace = reduce_coefficients(p, {1: 1})
    assert trace.steps == ()
    assert trace.final.as_map() == {1: 1}


def test_reduce_index_zero_only_is_a_zero_step_trace():
    p = Params(3, 1, 5)
    trace = reduce_coefficients(p, {0: 9})
    assert trace.steps == ()
    assert trace.final.as_map() == {0: 9}


def test_reduce_result_is_among_all_equal_valued_reduced_vectors():
    p = Params(3, 1, 3)
    trace = reduce_coefficients(p, {1: 4})
    assert trace.final.t_value(p) == 40
    # enumerate every reduced vector with an index-0 slack worth a multiple of c
    candidates = []
    for m in reduced_vectors_up_to(p.a, 3) + [{}]:
        partial = t_sum_of_map(m, p)
        slack = 40 - partial
        if slack >= 0 and slack % p.c == 0:
            full = dict(m)
            if slack:
                full[0] = slack // p.c
            candidates.append(full)
    assert trace.final.as_map() in candidates


def test_reduce_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        reduce_coefficients(Params(2, 3, 4), {1: -1})


@given(
    st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(2, 9)),
    st.dictionaries(st.integers(0, 7), st.integers(0, 25), max_size=6),
)
@settings(max_examples=200)
def test_reduce_random_inputs_end_reduced_and_value_preserving(triple, raw):
    a, b, c = triple
    try:
        p = Params(a, b, c)
    except InvalidParamsError:
        return
    value = t_sum_of_map(raw, p)
    trace = reduce_coefficients(p, raw)
    assert trace.final.t_value(p) == value
    for step in trace.steps:
        assert t_sum_of_map(dict(enumerate(step.coeffs)), p) == value
        assert all(j >= 0 for j in step.coeffs)


# --- ordering ---


def test_compare_known_cases():
    r12 = ReducedVector.from_map({1: 2}, ambient=3)
    r21 = ReducedVector.from_map({2: 1}, ambient=3)
    assert compare(r12, r21) == -1
    assert compare(r21, r21) == 0
    mixed = ReducedVector.from_map({1: 1, 2: 1}, ambient=3)
    double = ReducedVector.from_map({2: 2}, ambient=3)
    assert compare(mixed, double) == -1
    assert mixed.s_value() < double.s_value()


def test_compare_ignores_index_zero():
    left = ReducedVector.from_map({0: 9, 2: 1}, ambient=3)
    right = ReducedVector.from_map({2: 1}, ambient=3)
    assert compare(left, right) == 0


def test_compare_rejects_mixed_ambients():
    with pytest.raises(ValueError):
        compare(ReducedVector((0, 1), 2), ReducedVector((0, 1), 3))


def test_compare_agrees_with_both_weighted_sums():
    params_by_a = {
        1: Params(1, 2, 3),
        2: Params(2, 3, 4),
        3: Params(3, 1, 5),
    }
    for a, p in params_by_a.items():
        vectors = [
            ReducedVector.from_map(m, a) for m in reduced_vectors_up_to(a, 3)
        ]
        for x in vectors:
            for y in vectors:
                order = compare(x, y)
                if order == 0:
                    assert x.s_value() == y.s_value()
                    assert x.t_value(p) == y.t_value(p)
                else:
                    assert (order < 0) == (x.s_value() < y.s_value())
                    assert (order < 0) == (x.t_value(p) < y.t_value(p))


def test_reduced_sums_stay_below_the_next_term():
    # weighted sum of any reduced vector is bounded by the next basis element
    for a in (1, 2, 3, 4):
        p = Params(a, 3, 8) if a != 3 else Params(3, 3, 8)
        for m in reduced_vectors_up_to(a, 4):
            top = max(m)
            assert s_sum_of_map(m, a) < geometric_sum(a, top + 1)
            assert t_sum_of_map(m, p) < orbit_term(p, top + 1)


# --- width guard ---


def test_bit_limit_flags_large_values():
    with bit_limit(16):
        assert geometric_sum(2, 15) == 32767
        with pytest.raises(OverflowLimitError):
            geometric_sum(2, 16)


def test_bit_limit_signed_boundary():
    with bit_limit(8):
        assert geometric_sum(2, 7) == 127
        with pytest.raises(OverflowLimitError):
            geometric_sum(2, 8)  # 255 needs unsigned 8 bits


def test_bit_limit_restores_unlimited_afterwards():
    with bit_limit(8):
        pass
    assert geometric_sum(2, 100) == 2**100 - 1


def test_bit_limit_nests():
    with bit_limit(64):
        with bit_limit(8):
            with pytest.raises(OverflowLimitError):
                geometric_sum(2, 10)
        assert geometric_sum(2, 10) == 1023


def test_bit_limit_rejects_degenerate_width():
    with pytest.raises(ValueError):
        with bit_limit(1):
            pass


def test_orbit_term_overflow_is_reported_not_wrapped():
    p = Params(10, 1, 100)
    with bit_limit(16):
        with pytest.raises(OverflowLimitError):
            orbit_term(p, 3)
    assert orbit_term(p, 3) == 100_111
