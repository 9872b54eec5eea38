"""Closed-form invariants of the smallest affine-closed semigroup with a given seed.

All of them come from one digit recurrence.  The least member of class l
(the class of b*l mod c) weights the orbit terms t_k by the greedy digits
of l over the geometric sums s_k (`core.decompose`; skew binary for a = 2).
Grouped by top digit, with 1 <= q < a and r < s_k:

    ap[q*s_k + r] = q*t_k + ap[r],    ap[a*s_k] = a*t_k.

`apery_set` builds the c classes by these block copies, so the values rise
with l.  The Frobenius number (top class minus c) and the genus (Selmer's
sum(ap)/c - (c-1)/2, summed over the digits of c with the block prefix sums
G(k+1) = a*G(k) + a(a-1)/2 * s_k*t_k + a*t_k) take O(log c) arithmetic.
`affinesg.oracle` cross-checks them all by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Params, checked, decompose, geometric_sum, orbit_term

__all__ = [
    "GapsCapError",
    "SemigroupProfile",
    "DEFAULT_GAPS_CAP",
    "apery_element",
    "apery_set",
    "class_index",
    "contains",
    "embedding_dimension",
    "frobenius",
    "gaps",
    "genus",
    "k_tilde",
    "least_by_residue",
    "members_below",
    "minimal_generators",
    "profile",
]

DEFAULT_GAPS_CAP = 10_000_000


class GapsCapError(ValueError):
    """Gap enumeration refused because the Frobenius number exceeds the cap."""


@dataclass(frozen=True)
class SemigroupProfile:
    """All computed invariants of one semigroup.

    ``apery[l]`` is the least member congruent to b*l modulo c, so
    ``apery[0] == 0`` and membership of any n is the single comparison
    ``n >= apery[l]`` for the class l of n.
    """

    params: Params
    k_tilde: int
    minimal_generators: tuple[int, ...]
    apery: tuple[int, ...]
    frobenius: int
    genus: int

    @property
    def embedding_dimension(self) -> int:
        return self.k_tilde

    @property
    def conductor(self) -> int:
        return self.frobenius + 1


def k_tilde(p: Params) -> int:
    """Least k whose geometric sum exceeds c - 1; the count of minimal generators.

    Always at least 2, because the sums start 0, 1 and c is at least 2.
    """
    k = 0
    while geometric_sum(p.a, k) <= p.c - 1:
        k += 1
    return k


def minimal_generators(p: Params) -> list[int]:
    """The first k_tilde orbit terms; strictly increasing, gcd 1."""
    return [orbit_term(p, k) for k in range(k_tilde(p))]


def embedding_dimension(p: Params) -> int:
    """Size of the unique minimal generating set; equals k_tilde."""
    return k_tilde(p)


def apery_element(p: Params, l: int) -> int:
    """Least member congruent to b*l mod c, for a class index l in [0, c-1]."""
    if not 0 <= l <= p.c - 1:
        raise ValueError(f"class index must lie in [0, {p.c - 1}] (got {l})")
    if l == 0:
        return 0
    return decompose(p.a, l).t_value(p)


def apery_set(p: Params) -> list[int]:
    """All c least-in-class members, indexed by class: [x_0, ..., x_{c-1}].

    Same values as `apery_element` per class, built by block copies.  The
    values increase with the class, so one width check on the last covers all.
    """
    ap = [0]
    k = 1
    while len(ap) < p.c:
        s, t = len(ap), orbit_term(p, k)  # len(ap) == s_k here
        for q in range(1, p.a):
            ap.extend([q * t + x for x in ap[: min(s, p.c - len(ap))]])
        ap.append(p.a * t)
        k += 1
    del ap[p.c:]
    checked(ap[-1])
    return ap


def frobenius(p: Params) -> int:
    """Largest integer outside the semigroup: the top Apery element minus c."""
    return apery_element(p, p.c - 1) - p.c


def genus(p: Params) -> int:
    """Number of positive integers outside the semigroup.

    Selmer's sum(ap)/c - (c-1)/2, exact over the integers.  The sum over
    classes [0, c) runs over the digits q_k of c, lowest first: digit k adds
    q_k whole blocks of s_k classes and lifts each of the ``below`` classes
    of the lower digits, summed so far in ``total``, by q_k*t_k.
    """
    a = p.a
    total = below = g = 0  # g is the block prefix sum G(k), from G(1) = 0
    for k, q in enumerate(decompose(a, p.c).coeffs[1:], start=1):
        s, t = geometric_sum(a, k), orbit_term(p, k)
        total += q * g + q * (q - 1) // 2 * s * t + q * t * below
        below += q * s
        g = a * g + a * (a - 1) // 2 * s * t + a * t
    checked(total)
    return (checked(2 * total) - p.c * (p.c - 1)) // (2 * p.c)


def class_index(p: Params, n: int) -> int:
    """The class l with b*l = n mod c; b is invertible since gcd(b, c) = 1."""
    return (n * pow(p.b, -1, p.c)) % p.c


def contains(p: Params, n: int) -> bool:
    """Membership in O(log_a c) arithmetic: n is in iff n >= its class minimum."""
    if n < 0:
        raise ValueError("membership is defined on non-negative integers")
    return n >= apery_element(p, class_index(p, n))


def gaps(p: Params, max_frobenius: int = DEFAULT_GAPS_CAP) -> list[int]:
    """All positive integers outside the semigroup, in increasing order.

    Refuses when the Frobenius number exceeds ``max_frobenius``: the output
    is O(F) long, while the Apery set is O(c) and the scalars O(log c).
    """
    f = frobenius(p)
    if f > max_frobenius:
        raise GapsCapError(
            f"frobenius number {f} exceeds the gap enumeration cap "
            f"{max_frobenius}; raise the cap to materialize the gaps"
        )
    least = least_by_residue(apery_set(p))
    return [n for n in range(1, f + 1) if n < least[n % p.c]]


def members_below(p: Params, limit: int) -> list[int]:
    """All members in [0, limit)."""
    if limit < 1:
        return []
    least = least_by_residue(apery_set(p))
    return [n for n in range(limit) if n >= least[n % p.c]]


def least_by_residue(apery: Sequence[int]) -> list[int]:
    """Re-index an Apery list by residue: entry r is the least member congruent to r."""
    c = len(apery)
    least = [0] * c
    for x in apery:
        least[x % c] = x
    return least


def profile(p: Params) -> SemigroupProfile:
    """Every invariant of one semigroup, each from its own function."""
    return SemigroupProfile(
        params=p,
        k_tilde=k_tilde(p),
        minimal_generators=tuple(minimal_generators(p)),
        apery=tuple(apery_set(p)),
        frobenius=frobenius(p),
        genus=genus(p),
    )
