"""The fixpoint oracle: construction, certificates, and agreement with closed forms."""

from __future__ import annotations

import dataclasses
import math

import pytest

import affinesg.oracle
from affinesg import (
    BoundTooSmallError,
    OracleSemigroup,
    Params,
    build_oracle,
    check_agreement,
    default_bound,
    oracle_apery,
    oracle_frobenius,
    oracle_minimal_generators,
    orbit_term,
    representable,
)
from affinesg.oracle import MAX_ORACLE_BOUND
from affinesg.semigroup import k_tilde, minimal_generators, profile
from conftest import WORKED_TABLES, sieve_members

EX1 = Params(3, 1, 3)
EX2 = Params(3, 1, 5)
EX3 = Params(2, 3, 4)


def test_members_match_worked_tables():
    for (a, b, c), table in WORKED_TABLES.items():
        o = build_oracle(Params(a, b, c))
        below = [m for m in o.members if m < table["limit"]]
        assert below == table["members"]


def test_members_match_naive_sieve():
    for a in range(1, 5):
        for b in range(1, 4):
            for c in range(2, 9):
                if math.gcd(b, c) != 1:
                    continue
                o = build_oracle(Params(a, b, c))
                assert list(o.members) == sieve_members(a, b, c, o.bound)


def test_contains_seed_and_zero():
    for p in (EX1, EX2, EX3):
        o = build_oracle(p)
        assert o.is_member(0)
        assert o.is_member(p.c)


def test_member_set_is_closed_within_bound():
    for p in (EX1, EX2, EX3, Params(1, 1, 3)):
        o = build_oracle(p)
        members = set(o.members)
        for x in o.members:
            if x > 0:
                v = p.a * x + p.b
                if v < o.bound:
                    assert v in members
            for y in o.members:
                if x + y < o.bound:
                    assert x + y in members


def test_top_run_certifies_the_conductor():
    for p in (EX1, EX2, EX3):
        o = build_oracle(p)
        assert all(o.is_member(n) for n in range(o.bound - p.c, o.bound))
        assert all(o.is_member(n) for n in range(o.conductor_found, o.bound))
        assert not o.is_member(o.conductor_found - 1)


def test_bound_hint_too_small_fails_loudly():
    with pytest.raises(BoundTooSmallError):
        build_oracle(EX1, bound_hint=12)
    with pytest.raises(BoundTooSmallError):
        build_oracle(EX1, bound_hint=2)


def test_bound_hint_above_memory_cap_is_refused():
    with pytest.raises(ValueError, match="memory cap"):
        build_oracle(EX1, bound_hint=MAX_ORACLE_BOUND + 1)


def test_default_bound_leaves_headroom():
    for p in (EX1, EX2, EX3, Params(1, 9, 40)):
        o = build_oracle(p)
        assert o.bound == default_bound(p)
        assert o.conductor_found + p.c <= o.bound


def test_oracle_frobenius_known_values():
    assert oracle_frobenius(build_oracle(EX1)) == 17
    assert oracle_frobenius(build_oracle(EX3)) == 21
    assert oracle_frobenius(build_oracle(Params(2, 1, 2))) == 3


def test_oracle_apery_known_values():
    assert oracle_apery(build_oracle(EX2)) == [0, 16, 32, 48, 49]
    assert oracle_apery(build_oracle(EX1)) == [0, 10, 20]
    for p in (EX1, EX2, EX3):
        assert oracle_apery(build_oracle(p))[0] == 0


def test_oracle_apery_refuses_a_class_without_members():
    # members {0, 3, 6, 9}: residues 1 and 2 mod 3 are missing below the bound
    o = OracleSemigroup(params=EX1, bound=10, conductor_found=10, member_mask=0b1001001001)
    with pytest.raises(BoundTooSmallError, match=r"class 1 \(residue 1 mod 3\)"):
        oracle_apery(o)


def test_oracle_minimal_generators_known_values():
    assert oracle_minimal_generators(build_oracle(EX1)) == [3, 10]
    assert oracle_minimal_generators(build_oracle(EX3)) == [4, 11, 25]
    assert oracle_minimal_generators(build_oracle(Params(1, 1, 3))) == [3, 4, 5]


def test_orbit_terms_are_members():
    for p in (EX1, EX2, EX3, Params(1, 2, 7)):
        o = build_oracle(p)
        k = 0
        while orbit_term(p, k) < o.bound:
            assert o.is_member(orbit_term(p, k))
            k += 1


def test_oracle_equals_sieve_of_generated_semigroup():
    # the closure and the semigroup generated by the minimal generators agree
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(2, 11):
                if math.gcd(b, c) != 1:
                    continue
                p = Params(a, b, c)
                o = build_oracle(p)
                gens = minimal_generators(p)
                reachable = 1
                window = (1 << o.bound) - 1
                for g in gens:
                    step = g
                    while step < o.bound:
                        reachable |= (reachable << step) & window
                        step <<= 1
                assert reachable == o.member_mask


def test_representable_known_cases():
    assert representable(10, [3]) is False
    assert representable(49, [5, 16]) is False
    assert representable(25 + 11, [4, 11, 25]) is True
    assert representable(0, [7, 9]) is True


def test_representable_matches_exhaustive_combos():
    gens = [5, 16]
    for target in range(0, 120):
        expected = any(
            i * 5 + j * 16 == target for i in range(25) for j in range(9)
        )
        assert representable(target, gens) is expected


def test_representable_rejects_bad_input():
    with pytest.raises(ValueError):
        representable(-1, [3])
    with pytest.raises(ValueError):
        representable(10, [0, 3])


def test_orbit_terms_below_cutoff_are_irreducible():
    for p in (EX1, EX2, EX3, Params(1, 1, 5), Params(4, 1, 9)):
        kt = k_tilde(p)
        gens = minimal_generators(p)
        for k in range(1, kt):
            assert not representable(orbit_term(p, k), gens[:k])
        assert representable(orbit_term(p, kt), gens)


def test_agreement_on_worked_examples():
    for p in (EX1, EX2, EX3):
        assert check_agreement(p) == []


def test_agreement_on_a_small_sweep():
    for a in range(1, 3):
        for b in range(1, 4):
            for c in range(2, 13):
                if math.gcd(b, c) != 1:
                    continue
                assert check_agreement(Params(a, b, c)) == []


def test_agreement_at_larger_seeds():
    for p in (Params(1, 7, 101), Params(3, 2, 301), Params(4, 9, 200),
              Params(10, 3, 211), Params(2, 1, 1000)):
        assert check_agreement(p) == []


def _plant(monkeypatch, **changes):
    """Make check_agreement see a closed-form profile with ``changes`` applied."""
    monkeypatch.setattr(
        affinesg.oracle, "profile", lambda p: dataclasses.replace(profile(p), **changes)
    )


def test_agreement_reports_a_wrong_frobenius(monkeypatch):
    _plant(monkeypatch, frobenius=profile(EX2).frobenius + 1)
    assert check_agreement(EX2) == ["frobenius: closed-form 45, oracle 44"]


def test_agreement_reports_a_wrong_genus(monkeypatch):
    g = profile(EX2).genus
    _plant(monkeypatch, genus=g + 1)
    assert check_agreement(EX2) == [f"genus: closed-form {g + 1}, oracle sieve {g}"]


def test_agreement_reports_a_wrong_apery_class(monkeypatch):
    # class 1 of (3, 1, 5) is 16; raised by c it claims 16 is not a member
    _plant(monkeypatch, apery=(0, 21, 32, 48, 49))
    assert check_agreement(EX2) == [
        "apery: closed-form [0, 21, 32, 48, 49], oracle [0, 16, 32, 48, 49]",
        "membership at n=16: closed-form says False, oracle says True",
    ]


def test_agreement_reports_a_dropped_generator(monkeypatch):
    _plant(monkeypatch, minimal_generators=(5, 16))
    assert check_agreement(EX2) == [
        "minimal generators: closed-form [5, 16], oracle [5, 16, 49]"
    ]
