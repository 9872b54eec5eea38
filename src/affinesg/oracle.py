"""Brute-force construction of affine-closed semigroups, for cross-validation.

Nothing in this module uses the closed forms under test.  Membership is
grown from {0, c} by a fixpoint over the two closure rules (pairwise sums
and affine images) on a bitmask, and the resulting set certifies its own
completeness: the top c consecutive integers below the bound must all be
members, which pins the conductor strictly inside the materialized window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .core import Params, geometric_sum, orbit_term
from .semigroup import least_by_residue, profile

__all__ = [
    "BoundTooSmallError",
    "OracleSemigroup",
    "build_oracle",
    "check_agreement",
    "default_bound",
    "oracle_apery",
    "oracle_frobenius",
    "oracle_minimal_generators",
    "representable",
]

MAX_ORACLE_BOUND = 100_000_000


class BoundTooSmallError(ValueError):
    """The materialization window ended before the closure stabilized."""


@dataclass(frozen=True)
class OracleSemigroup:
    """All members below ``bound``, produced by fixpoint closure.

    ``conductor_found`` is the least m with [m, bound) fully inside the
    member set.  ``member_mask`` carries the same information as ``members``
    as a bitmask (bit n set iff n is a member) for O(1) lookups.
    """

    params: Params
    bound: int
    members: tuple[int, ...]
    conductor_found: int
    member_mask: int = field(repr=False, compare=False)

    def is_member(self, n: int) -> bool:
        if not 0 <= n < self.bound:
            raise ValueError(f"membership is only materialized on [0, {self.bound})")
        return bool((self.member_mask >> n) & 1)


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def default_bound(p: Params) -> int:
    """A window provably past the conductor, with c of headroom to certify it.

    From the first k whose geometric sum reaches c - 1 onward, everything at
    or above the k-th orbit term is a member, so that term plus 2c leaves a
    guaranteed run of members at the top of the window.
    """
    k = 0
    while geometric_sum(p.a, k) < p.c - 1:
        k += 1
    return orbit_term(p, k) + 2 * p.c


def build_oracle(p: Params, bound_hint: int | None = None) -> OracleSemigroup:
    """Grow {0, c} to a fixpoint under sums and affine images below the bound.

    Fails loudly (BoundTooSmallError) if the top c integers below the bound
    are not all members; with the default bound that cannot happen, but the
    certificate is checked regardless.
    """
    bound = default_bound(p) if bound_hint is None else bound_hint
    if bound <= p.c:
        raise BoundTooSmallError(f"bound {bound} does not even reach the seed {p.c}")
    if bound > MAX_ORACLE_BOUND:
        raise ValueError(
            f"oracle bound {bound} exceeds the memory cap {MAX_ORACLE_BOUND}"
        )
    full = (1 << bound) - 1
    mask = 1 | (1 << p.c)
    while True:
        prev = mask
        for g in _iter_bits(prev & ~1):
            mask |= (mask << g) & full
        for x in _iter_bits(mask & ~1):
            v = p.a * x + p.b
            if v < bound:
                mask |= 1 << v
        if mask == prev:
            break
    top_window = ((1 << p.c) - 1) << (bound - p.c)
    if mask & top_window != top_window:
        raise BoundTooSmallError(
            f"closure did not stabilize below {bound}: the top {p.c} integers "
            f"are not all members; enlarge the bound"
        )
    non_members = full & ~mask
    conductor_found = non_members.bit_length()  # one past the largest non-member
    return OracleSemigroup(
        params=p,
        bound=bound,
        members=tuple(_iter_bits(mask)),
        conductor_found=conductor_found,
        member_mask=mask,
    )


def oracle_frobenius(o: OracleSemigroup) -> int:
    """Largest non-member below the bound; -1 if every integer is a member."""
    non_members = ((1 << o.bound) - 1) & ~o.member_mask
    return non_members.bit_length() - 1


def oracle_apery(o: OracleSemigroup) -> list[int]:
    """Least member in each residue class mod c, indexed by class l (b*l mod c)."""
    c = o.params.c
    by_residue: list[int | None] = [None] * c
    found = 0
    for m in o.members:
        r = m % c
        if by_residue[r] is None:
            by_residue[r] = m
            found += 1
            if found == c:
                break
    assert all(v is not None for v in by_residue)
    return [by_residue[(o.params.b * l) % c] for l in range(c)]


def oracle_minimal_generators(o: OracleSemigroup) -> list[int]:
    """Nonzero members that are not a sum of two smaller nonzero members.

    Any member at or above conductor_found + c splits off a copy of c, so
    the search is cut there.
    """
    c = o.params.c
    limit = min(o.bound, o.conductor_found + c)
    window = (1 << limit) - 1
    nonzero = o.member_mask & ~1
    sums = 0
    for g in o.members:
        if g == 0:
            continue
        if g + c >= limit:
            break
        sums |= (nonzero << g) & window
    return [m for m in _iter_bits(nonzero & window & ~sums)]


def representable(target: int, gens: list[int]) -> bool:
    """Whether ``target`` is a non-negative integer combination of ``gens``.

    Bitset dynamic program up to the target; exact and independent of any
    closed form.
    """
    if target < 0:
        raise ValueError("target must be non-negative")
    if any(g < 1 for g in gens):
        raise ValueError("generators must be positive")
    window = (1 << (target + 1)) - 1
    reach = 1
    for g in gens:
        if g > target:
            continue
        step = g
        while step <= target:
            reach |= (reach << step) & window
            step <<= 1
    return bool((reach >> target) & 1)


def check_agreement(p: Params, bound_hint: int | None = None) -> list[str]:
    """Compare every closed-form invariant against the fixpoint oracle.

    Returns a list of human-readable mismatch descriptions, empty on full
    agreement.  Membership is compared pointwise on [0, bound) using the
    least-in-class criterion evaluated from the closed-form Apery set.
    """
    prof = profile(p)
    o = build_oracle(p, bound_hint)
    msgs: list[str] = []

    of = oracle_frobenius(o)
    if of != prof.frobenius:
        msgs.append(f"frobenius: closed-form {prof.frobenius}, oracle {of}")

    below_conductor = o.member_mask & ((1 << (of + 1)) - 1)
    og = (of + 1) - below_conductor.bit_count()
    if og != prof.genus:
        msgs.append(f"genus: closed-form {prof.genus}, oracle sieve {og}")

    oap = oracle_apery(o)
    if oap != list(prof.apery):
        msgs.append(f"apery: closed-form {list(prof.apery)}, oracle {oap}")

    ogens = oracle_minimal_generators(o)
    if ogens != list(prof.minimal_generators):
        msgs.append(
            f"minimal generators: closed-form {list(prof.minimal_generators)}, "
            f"oracle {ogens}"
        )

    least = least_by_residue(prof.apery)
    mask = o.member_mask
    for n in range(o.bound):
        if (n >= least[n % p.c]) != bool((mask >> n) & 1):
            msgs.append(f"membership at n={n}: closed-form says "
                        f"{n >= least[n % p.c]}, oracle says {bool((mask >> n) & 1)}")
            break
    return msgs
