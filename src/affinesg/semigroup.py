"""Closed-form invariants of the smallest affine-closed semigroup with a given seed.

All of them come from one identity, proved in `affinesg.core`: the least
member of class l (the class of b*l mod c) is x_l = d*l + c*sigma(l), with
d = (a-1)*c + b and sigma(l) the digit sum of l over the geometric sums s_k
(`core.decompose`; skew binary for a = 2).  As sigma(q*s_k + r) = q +
sigma(r) for 1 <= q < a, r < s_k, and sigma(a*s_k) = a, `apery_set` builds
the c classes by block copies.  The Frobenius number x_(c-1) - c and the
genus (d-1)(c-1)/2 + sum(sigma(l) for l < c) take O(log c) arithmetic.
`affinesg.oracle` cross-checks them all by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Params, checked, decompose, orbit_slope, orbit_term

__all__ = [
    "GapsCapError",
    "SemigroupProfile",
    "DEFAULT_GAPS_CAP",
    "apery_element",
    "apery_set",
    "class_index",
    "contains",
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
    return decompose(p.a, p.c - 1).top_index + 1


def minimal_generators(p: Params) -> list[int]:
    """The first k_tilde orbit terms; strictly increasing, gcd 1."""
    return [orbit_term(p, k) for k in range(k_tilde(p))]


def apery_element(p: Params, l: int) -> int:
    """Least member congruent to b*l mod c, for a class index l in [0, c-1]."""
    if not 0 <= l <= p.c - 1:
        raise ValueError(f"class index must lie in [0, {p.c - 1}] (got {l})")
    if l == 0:
        return 0
    return checked(orbit_slope(p) * l + p.c * sum(decompose(p.a, l).coeffs))


def apery_set(p: Params) -> list[int]:
    """All c least-in-class members, indexed by class: [x_0, ..., x_{c-1}].

    Same values as `apery_element` per class, built by block copies.  The
    values increase with the class, so one width check on the last covers all.
    """
    d = orbit_slope(p)
    ap = [0]
    while len(ap) < p.c:
        s, t = len(ap), p.c + d * len(ap)  # s_k and t_k = c + d*s_k
        for q in range(1, p.a):
            ap.extend([q * t + x for x in ap[: min(s, p.c - len(ap))]])
        ap.append(p.a * t)
    del ap[p.c:]
    checked(ap[-1])
    return ap


def frobenius(p: Params) -> int:
    """Largest integer outside the semigroup: the top Apery element minus c."""
    return apery_element(p, p.c - 1) - p.c


def genus(p: Params) -> int:
    """Number of positive integers outside the semigroup.

    Selmer's sum(ap)/c - (c-1)/2 is (d-1)(c-1)/2 plus the digit sums of the
    classes [0, c), summed over the digits q_k of c, lowest first: digit k
    adds q_k whole blocks of s_k classes, whose digit sums total
    D(k) = sum(sigma(l) for l < s_k), and lifts each of the ``below``
    classes of the lower digits by q_k.
    """
    a, c, d = p.a, p.c, orbit_slope(p)
    sigma, below, dk, s = 0, 0, 0, 1  # dk = D(k) and s = s_k, from k = 1
    for q in decompose(a, c).coeffs[1:]:
        sigma += q * dk + q * (q - 1) // 2 * s + q * below
        below += q * s
        dk, s = a * dk + a * (a - 1) // 2 * s + a, a * s + 1
    checked(d * c * (c - 1) + 2 * c * sigma)  # 2*sum(ap), the widest value checked
    return (d - 1) * (c - 1) // 2 + sigma


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


def members_below(prof: SemigroupProfile, limit: int) -> list[int]:
    """All members in [0, limit), read from the profile's Apery set."""
    least = least_by_residue(prof.apery)
    return [n for n in range(limit) if n >= least[n % prof.params.c]]


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
