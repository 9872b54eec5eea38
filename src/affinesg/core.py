"""Exact integer arithmetic for semigroups closed under x -> a*x + b.

Two sequences drive everything here: the geometric sums
``s(a, k) = 1 + a + ... + a^(k-1)`` (zero for k = 0) and the orbit terms
``a^k * c + b * s(a, k)``, the successive images of the seed c under the
affine map.  Positive integers decompose uniquely over the geometric sums
once coefficient vectors are put in a canonical reduced form, and the same
form makes weighted sums of orbit terms comparable coefficient by
coefficient (see `compare`).

All arithmetic is exact.  An optional width guard (`bit_limit`) turns any
value that would not fit the configured signed integer width into an
`OverflowLimitError` instead of ever yielding a wrapped number.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "InvalidParamsError",
    "NotReducedError",
    "OverflowLimitError",
    "Params",
    "ReducedVector",
    "ReductionStep",
    "ReductionTrace",
    "affine_image",
    "bit_limit",
    "checked",
    "compare",
    "decompose",
    "geometric_sum",
    "orbit_term",
    "reduce_coefficients",
]


class InvalidParamsError(ValueError):
    """A parameter triple that does not define a numerical semigroup."""


class NotReducedError(ValueError):
    """A coefficient vector that violates the reduced-form rules."""


class OverflowLimitError(OverflowError):
    """A computed value exceeded the configured integer width."""


_BIT_LIMIT: ContextVar[int | None] = ContextVar("affinesg_bit_limit", default=None)


@contextmanager
def bit_limit(bits: int | None):
    """Confine all checked arithmetic in the block to a signed ``bits``-bit range.

    With the default ``None`` every computation runs at arbitrary precision.
    """
    if bits is not None and bits < 2:
        raise ValueError("bit limit must be at least 2")
    token = _BIT_LIMIT.set(bits)
    try:
        yield
    finally:
        _BIT_LIMIT.reset(token)


def checked(value: int) -> int:
    """Return ``value``, raising OverflowLimitError if it exceeds the active width."""
    bits = _BIT_LIMIT.get()
    if bits is not None and value.bit_length() >= bits:
        raise OverflowLimitError(
            f"value needs {value.bit_length() + 1} bits, "
            f"outside the signed {bits}-bit range"
        )
    return value


@dataclass(frozen=True)
class Params:
    """A multiplier/offset/seed triple defining one affine-closed semigroup.

    The semigroup is the smallest subset of the non-negative integers that
    contains 0 and the seed c, is closed under addition, and is closed under
    x -> a*x + b on its nonzero elements.  It has finite complement exactly
    when gcd(b, c) = 1, which is why that is enforced here.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidParamsError(f"{name} must be an integer")
        if self.c < 2:
            raise InvalidParamsError(f"c must be at least 2 (got {self.c})")
        if self.a < 1:
            raise InvalidParamsError(f"a must be a positive integer (got {self.a})")
        if self.b < 1:
            raise InvalidParamsError(f"b must be a positive integer (got {self.b})")
        d = math.gcd(self.b, self.c)
        if d != 1:
            raise InvalidParamsError(
                f"gcd(b, c) = {d} > 1: every element of the closure would be "
                f"divisible by {d}, so the closure is not co-finite"
            )


def geometric_sum(a: int, k: int) -> int:
    """1 + a + ... + a^(k-1), with the empty sum 0 for k = 0.

    Equals k when a = 1.
    """
    if a < 1:
        raise ValueError("a must be a positive integer")
    if k < 0:
        raise ValueError("k must be non-negative")
    if a == 1:
        return checked(k)
    return checked((a**k - 1) // (a - 1))


def orbit_term(p: Params, k: int) -> int:
    """The k-th image of the seed under the affine map: a^k*c + b*s(a, k).

    Satisfies orbit_term(p, 0) == p.c and
    orbit_term(p, k + 1) == affine_image(p, orbit_term(p, k)).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return checked(p.a**k * p.c + p.b * geometric_sum(p.a, k))


def affine_image(p: Params, x: int) -> int:
    """a*x + b, defined on positive integers."""
    if x < 1:
        raise ValueError("the map is only applied to positive values")
    return checked(p.a * x + p.b)


@dataclass(frozen=True)
class ReducedVector:
    """A canonical coefficient vector over geometric-sum or orbit-term bases.

    ``coeffs[i]`` is the multiplicity of the i-th basis element.  The vector
    is reduced with respect to the multiplier ``ambient``:

    * coefficients at positive indices lie in [0, ambient];
    * a full coefficient (equal to ambient) at a positive index forces every
      lower positive index to zero;
    * the top stored coefficient is nonzero (index 0 alone is exempt).

    The index-0 coefficient is unconstrained; it never takes part in the
    ordering (`compare`) or in the geometric-sum value, only in weighted
    sums of orbit terms where the 0-th term is the seed itself.
    """

    coeffs: tuple[int, ...]
    ambient: int

    def __post_init__(self) -> None:
        if self.ambient < 1:
            raise ValueError("ambient multiplier must be a positive integer")
        cs = tuple(self.coeffs)
        if not cs:
            cs = (0,)
        else:
            end = len(cs)
            while end > 1 and cs[end - 1] == 0:
                end -= 1
            cs = cs[:end]
        object.__setattr__(self, "coeffs", cs)
        if any(j < 0 for j in cs):
            raise NotReducedError("coefficients must be non-negative")
        for i in range(1, len(cs)):
            if cs[i] > self.ambient:
                raise NotReducedError(
                    f"coefficient {cs[i]} at index {i} exceeds the cap {self.ambient}"
                )
            if cs[i] == self.ambient and any(cs[1:i]):
                raise NotReducedError(
                    f"full coefficient at index {i} requires zeros below it"
                )

    @classmethod
    def from_map(cls, mapping: Mapping[int, int], ambient: int) -> "ReducedVector":
        return cls(_dense(mapping), ambient)

    def as_map(self) -> dict[int, int]:
        """Sparse view: index -> nonzero coefficient."""
        return {i: j for i, j in enumerate(self.coeffs) if j}

    @property
    def top_index(self) -> int:
        """Highest positive index with a nonzero coefficient, 0 if none."""
        for i in range(len(self.coeffs) - 1, 0, -1):
            if self.coeffs[i]:
                return i
        return 0

    def s_value(self) -> int:
        """Weighted sum over geometric sums; index 0 contributes nothing."""
        total = 0
        for i in range(1, len(self.coeffs)):
            if self.coeffs[i]:
                total += self.coeffs[i] * geometric_sum(self.ambient, i)
        return checked(total)

    def t_value(self, p: Params) -> int:
        """Weighted sum over the orbit terms of ``p``, index 0 included."""
        if p.a != self.ambient:
            raise ValueError("params multiplier differs from the vector's ambient")
        total = 0
        for i, j in enumerate(self.coeffs):
            if j:
                total += j * orbit_term(p, i)
        return checked(total)


def _dense(mapping: Mapping[int, int]) -> tuple[int, ...]:
    for i, j in mapping.items():
        if not isinstance(i, int) or i < 0:
            raise ValueError(f"index {i!r} must be a non-negative integer")
        if not isinstance(j, int) or j < 0:
            raise ValueError(f"coefficient {j!r} at index {i} must be non-negative")
    size = max(mapping, default=0) + 1
    out = [0] * size
    for i, j in mapping.items():
        out[i] = j
    return tuple(out)


def decompose(a: int, n: int) -> ReducedVector:
    """The unique reduced vector with zero index-0 term summing to ``n``.

    Greedy and deterministic: take the largest geometric sum not exceeding
    the remainder, divide, and recurse on what is left.  The quotient never
    exceeds ``a``, so the result is reduced by construction.
    """
    if a < 1:
        raise ValueError("a must be a positive integer")
    if n < 1:
        raise ValueError("n must be a positive integer")
    sums = [0, 1]
    while sums[-1] <= n:
        sums.append(checked(sums[-1] * a + 1))
    coeffs = [0] * (len(sums) - 1)
    rem = n
    k = len(sums) - 2
    while rem:
        while sums[k] > rem:
            k -= 1
        q = rem // sums[k]
        coeffs[k] = q
        rem -= q * sums[k]
    return ReducedVector(tuple(coeffs), a)


@dataclass(frozen=True)
class ReductionStep:
    """One exchange of the rewrite loop, and the coefficients right after it.

    ``high_index`` is the largest index holding at least ``ambient`` copies;
    the step trades ``ambient`` of them for one copy one slot higher.
    ``low_index`` is the smallest positive index holding anything; one copy
    there is traded for ``ambient`` copies one slot lower.  Both trades
    together preserve the weighted sum of orbit terms.
    """

    high_index: int
    low_index: int
    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
    params: Params
    initial: tuple[int, ...]
    steps: tuple[ReductionStep, ...]
    final: ReducedVector


def reduce_coefficients(p: Params, raw: Mapping[int, int]) -> ReductionTrace:
    """Rewrite an arbitrary coefficient vector into reduced form.

    The weighted sum of orbit terms is invariant across every step, which
    rests on the exchange identity
    ``a*t(i) + t(j) == t(i+1) + a*t(j-1)`` for positive indices j <= i.
    Input that is already reduced (including vectors supported on index 0
    only) comes back as a zero-step trace.
    """
    coeffs = list(_dense(raw))
    initial = tuple(coeffs)
    steps: list[ReductionStep] = []
    while not _is_reduced(coeffs, p.a):
        high = max(i for i in range(1, len(coeffs)) if coeffs[i] >= p.a)
        low = min(i for i in range(1, len(coeffs)) if coeffs[i])
        if high + 1 >= len(coeffs):
            coeffs.append(0)
        coeffs[low - 1] += p.a
        coeffs[low] -= 1
        coeffs[high] -= p.a
        coeffs[high + 1] += 1
        steps.append(ReductionStep(high, low, tuple(coeffs)))
    return ReductionTrace(
        params=p,
        initial=initial,
        steps=tuple(steps),
        final=ReducedVector(tuple(coeffs), p.a),
    )


def _is_reduced(coeffs: list[int], a: int) -> bool:
    seen_nonzero_below = False
    for i in range(1, len(coeffs)):
        j = coeffs[i]
        if j > a or (j == a and seen_nonzero_below):
            return False
        if j:
            seen_nonzero_below = True
    return True


def compare(left: ReducedVector, right: ReducedVector) -> int:
    """Order two reduced vectors: -1, 0 or 1 as left <, ==, > right.

    Higher top index wins; on a tie the coefficient at the highest index
    where the vectors differ decides.  Index 0 is ignored throughout, so
    vectors differing only there compare equal.  The order agrees with the
    order of both weighted sums (geometric and orbit) whenever the index-0
    terms vanish.
    """
    if left.ambient != right.ambient:
        raise ValueError("vectors are reduced with respect to different multipliers")
    kl, kr = left.top_index, right.top_index
    if kl != kr:
        return -1 if kl < kr else 1
    for i in range(kl, 0, -1):
        jl = left.coeffs[i] if i < len(left.coeffs) else 0
        jr = right.coeffs[i] if i < len(right.coeffs) else 0
        if jl != jr:
            return -1 if jl < jr else 1
    return 0
