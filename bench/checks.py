"""Output checks for the benchmark, independent of the closed forms under test.

Three references, chosen by the size of the semigroup:

* small c (oracle window at most ``ORACLE_MAX_BOUND``): the package's
  brute-force fixpoint oracle, which never uses the closed forms;
* moderate c: a shortest-path certificate for the Apery table over the
  minimal generators, which must be orbit terms of c whose span is
  closed under the map, kept here (`certify_apery`);
* huge c: the closure axioms on sampled values (`check_axioms`).

Every check runs outside the timed region.  A check returns the number of
ops whose output is wrong, so a wrong answer counts as a failed op.
"""

from __future__ import annotations

import json
from operator import eq, gt

ORACLE_MAX_BOUND = 20_000
MODERATE_MAX_C = 20_000
AXIOM_SAMPLES = 8  # members per huge seed whose sum and affine image are checked


def orbit_terms(a: int, b: int, c: int, below: int) -> list[int]:
    """c, a*c + b, a*(a*c + b) + b, ...: every orbit term below ``below``.

    The semigroup is generated by the whole orbit of c under x -> a*x + b:
    the orbit is in it, and the monoid the orbit generates is closed under
    the map, since a*(t + y) + b = (a*t + b) + a*y.
    """
    out = [c]
    while a * out[-1] + b < below:
        out.append(a * out[-1] + b)
    return out


def by_residue(a: int, b: int, c: int, apery: list[int]) -> list[int] | None:
    """Re-index an Apery list from class l (residue b*l mod c) to residue.

    None if the list has the wrong length or a value sits in the wrong class.
    """
    if len(apery) != c or set(map(type, apery)) != {int} or min(apery) < 0:
        return None
    residues = [x % c for x in apery]
    if residues != [(b * l) % c for l in range(c)]:
        return None
    order = sorted(range(c), key=residues.__getitem__)
    return list(map(apery.__getitem__, order))


def certify_apery(a: int, b: int, c: int, w: list[int], gens: list[int]) -> bool:
    """True iff ``w[r]`` is the least member congruent to r mod c, for every r.

    ``w`` is the least-member table exactly when no step of a generating
    set gives a shorter path (``w[r] <= w[r - g] + g``) and every class
    r > 0 is reached by one such step from a smaller entry
    (``w[r] == w[r - g] + g``), with ``w[0] == 0``.  ``gens`` (with c) must
    generate the semigroup: they must be orbit terms, which puts them in
    it, and their span must be closed under x -> a*x + b, which it is
    once the image of each generator is a member, since
    a*(g + y) + b = (a*g + b) + a*y.
    """
    if len(w) != c or w[0] != 0 or min(w) < 0:
        return False
    orbit = set(orbit_terms(a, b, c, max([*gens, 0]) + 1))
    if not set(gens) <= orbit:
        return False
    reached = 0
    for g in gens:
        s = g % c
        behind = w[c - s:] + w[:c - s]  # behind[r] == w[(r - g) % c]
        step = list(map(g.__add__, behind))
        if any(map(gt, w, step)):
            return False
        reached |= int.from_bytes(bytes(map(eq, w, step)), "little")
    if reached.to_bytes(c, "little")[1:].count(0):
        return False
    return all(a * g + b >= w[(a * g + b) % c] for g in [c, *gens])


def is_minimal_generator(c: int, w: list[int], g: int, gens: list[int]) -> bool:
    """Whether ``g`` is not a sum of two nonzero members, given a certified ``w``.

    ``gens`` (with c) generates the semigroup, so it holds every minimal
    generator; g splits into two nonzero members exactly when g - h is a
    member for some smaller h among them.
    """
    return not any(g - h >= w[(g - h) % c] for h in gens if h < g)


def certified_table(a: int, b: int, c: int, apery: list[int], gens: list[int]) -> list[int] | None:
    """Certify an Apery list and a minimal generating set; return the table by residue.

    None unless the list is the least member of every class, ``gens`` is
    the minimal generating set in increasing order, and, where the
    brute-force oracle is cheap, the oracle agrees.
    """
    w = by_residue(a, b, c, apery)
    if w is None or not gens or gens[0] != c or gens != sorted(set(gens)):
        return None
    if not certify_apery(a, b, c, w, gens[1:]):
        return None
    if not all(is_minimal_generator(c, w, g, gens) for g in gens):
        return None
    if not agrees_with_oracle(a, b, c, w):
        return None
    return w


def check_profile(a: int, b: int, c: int, doc: dict) -> list[int] | None:
    """Certify a reported profile; return its least-member table, or None.

    ``doc`` holds the fields of the JSON report.  Frobenius, genus and
    conductor are checked against the certified table (genus by Selmer's
    formula, sum(w)/c - (c-1)/2).
    """
    gens = doc["minimal_generators"]
    w = certified_table(a, b, c, doc["apery_set"], gens)
    if w is None:
        return None
    frob = max(w) - c
    num = 2 * sum(w) - c * (c - 1)
    if (
        doc["k_tilde"] != len(gens)
        or doc["embedding_dimension"] != len(gens)
        or doc["frobenius"] != frob
        or doc["conductor"] != frob + 1
        or num % (2 * c)
        or doc["genus"] != num // (2 * c)
    ):
        return None
    return w


def agrees_with_oracle(a: int, b: int, c: int, w: list[int]) -> bool:
    """Compare a least-member table with the brute-force oracle, where it is cheap."""
    from affinesg import Params, build_oracle, default_bound, oracle_apery

    p = Params(a, b, c)
    if default_bound(p) > ORACLE_MAX_BOUND:
        return True
    return by_residue(a, b, c, oracle_apery(build_oracle(p))) == w


def reference(a: int, b: int, c: int) -> tuple[list[int], list[int]] | None:
    """Certified least-member table and minimal generators, for a moderate c.

    The candidates come from the package's `apery_set` and
    `minimal_generators`, computed outside the timed region; only the
    certificate above decides whether they are used.
    """
    from affinesg import Params, apery_set, minimal_generators

    p = Params(a, b, c)
    gens = minimal_generators(p)
    w = certified_table(a, b, c, apery_set(p), gens)
    return None if w is None else (w, gens)


# ---- sweep -------------------------------------------------------------


def check_sweep(triples: list[tuple[int, int, int]], rc: int, out: str) -> int:
    """The verify summary must report every generated triple checked and passed."""
    n = len(triples)
    try:
        doc = json.loads(out)
    except ValueError:
        return n
    if not isinstance(doc, dict) or doc.get("checked") != n or doc.get("skipped") != 0:
        return n
    passed = doc.get("passed")
    failed = doc.get("failed")
    if not isinstance(passed, int) or passed + failed != n:
        return n
    if rc != (0 if failed == 0 else 1) or (failed == 0) != (doc.get("first_failure") is None):
        return n
    return failed


# ---- invariants --------------------------------------------------------


def parse_report_text(out: str) -> dict | None:
    """The text form of `info` as a dict with the JSON field names."""
    lines = out.rstrip("\n").split("\n")
    doc: dict = {}
    for line in lines[1:]:
        key, sep, value = line.partition(": ")
        if not sep:
            key, value = key.rstrip(":"), ""
        doc[key] = value
    try:
        head = dict(part.split("=") for part in lines[0].split())
        out_doc = {k: int(head[k]) for k in ("a", "b", "c")}
        for key in ("k_tilde", "embedding_dimension", "frobenius", "genus", "conductor"):
            out_doc[key] = int(doc[key])
        for key in ("minimal_generators", "apery_set"):
            out_doc[key] = [int(x) for x in doc[key].split()]
        if "members_below_limit" in doc:
            out_doc["members_below"] = {
                "limit": int(doc["members_below_limit"]),
                "members": [int(x) for x in doc["members_below"].split()],
            }
        out_doc["meta"] = {"mode": doc["mode"]}
    except (KeyError, ValueError):
        return None
    return out_doc


def check_info(a: int, b: int, c: int, limit: int | None, fmt: str, rc: int, out: str) -> int:
    """One `info` request: every field of the report, and the members below the limit."""
    if rc != 0:
        return 1
    if fmt == "json":
        try:
            doc = json.loads(out)
        except ValueError:
            return 1
    else:
        doc = parse_report_text(out)
    if not isinstance(doc, dict):
        return 1
    try:
        if (doc["a"], doc["b"], doc["c"]) != (a, b, c) or doc["meta"]["mode"] != "closed-form":
            return 1
        w = check_profile(a, b, c, doc)
        if w is None:
            return 1
        if limit is not None:
            expected = [n for n in range(limit) if n >= w[n % c]]
            if doc["members_below"] != {"limit": limit, "members": expected}:
                return 1
    except (KeyError, TypeError):
        return 1
    return 0


def check_member(a: int, b: int, c: int, ns: list[int], rc: int, out: str) -> int:
    """One `member` request: verdict, class and class minimum per queried n."""
    ref = reference(a, b, c)
    if ref is None:
        return 1
    w = ref[0]
    binv = pow(b, -1, c)
    expected = []
    for n in ns:
        least = w[n % c]
        word = "in" if n >= least else "out"
        expected.append(f"{n} {word} class={(n * binv) % c} least={least}")
    expected_rc = 0 if all(n >= w[n % c] for n in ns) else 1
    return int(rc != expected_rc or out.rstrip("\n").split("\n") != expected)


def check_table(a: int, b: int, c: int, limit: int, rc: int, out: str) -> int:
    """One `table` request: one row per residue, members only, generators starred."""
    ref = reference(a, b, c)
    if ref is None or rc != 0:
        return 1
    rows = out[:-1].split("\n") if out.endswith("\n") else None
    if rows is None or len(rows) != c:
        return 1
    w = ref[0]
    gens = {g for g in ref[1] if g < limit}
    shown, starred = [], set()
    try:
        for r, row in enumerate(rows):
            for cell in row.split():
                v = int(cell.rstrip("*"))
                if v % c != r:
                    return 1
                shown.append(v)
                if cell.endswith("*"):
                    starred.add(v)
    except ValueError:
        return 1
    expected = [n for n in range(limit) if n >= w[n % c]]
    return int(sorted(shown) != expected or starred != gens)


# ---- queries -----------------------------------------------------------


def check_queries(a: int, b: int, c: int, ns: list[int], verdicts: list) -> int:
    """Membership verdicts for one seed; returns the number of wrong ones.

    Small c: the oracle's bitmask.  Moderate c: the certified table.  Huge
    c: each verdict that the axioms decide directly (0 < n < c is out, a
    multiple of c is in), plus the closure axioms on sampled members,
    charged to the member the sample started from.
    """
    from affinesg import Params, build_oracle, default_bound

    p = Params(a, b, c)
    if default_bound(p) <= ORACLE_MAX_BOUND:
        o = build_oracle(p)
        truth = [n >= o.bound or o.is_member(n) for n in ns]
        return sum(v is not t for v, t in zip(verdicts, truth))
    if c <= MODERATE_MAX_C:
        ref = reference(a, b, c)
        if ref is None:
            return len(ns)
        w = ref[0]
        return sum(v is not (n >= w[n % c]) for n, v in zip(ns, verdicts))
    return check_axioms(p, ns, verdicts)


def check_axioms(p, ns: list[int], verdicts: list) -> int:
    """Closure axioms: c in S; x, y in S => x + y in S; x in S, x > 0 =>
    a*x + b in S; 0 < n < c => n not in S."""
    from affinesg import contains

    if contains(p, p.c) is not True:
        return len(ns)
    wrong = set()
    members = []
    for i, (n, v) in enumerate(zip(ns, verdicts)):
        if not isinstance(v, bool) or (0 < n < p.c and v) or (n % p.c == 0 and not v):
            wrong.add(i)
        elif v and n > 0:
            members.append(i)
    step = max(1, len(members) // AXIOM_SAMPLES)
    picked = members[::step][:AXIOM_SAMPLES]
    for i, j in zip(picked, reversed(picked)):
        x, y = ns[i], ns[j]
        if not contains(p, x + y) or not contains(p, p.a * x + p.b):
            wrong.add(i)
    return len(wrong)
