"""The three seeded workloads: input generation, the timed call, the check.

Each workload is a closed loop with one client in one process.  It yields
*units*: one `cli.main` request for `sweep` and `invariants`, one seed with
its batch of `contains` queries for `queries`.  A unit carries its ops
(triples verified, requests, or `contains` calls) and its latency samples.
Inputs depend only on the seed; the package only ever sees the generated
values.  Costs grow steeply with c, so c is drawn stratified within each
block of units, which keeps the per-run mix, and so the figures, steady.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator

import affinesg
import affinesg.cli

import checks


@dataclass
class Unit:
    kind: str
    a: int
    b: int
    c: int
    ops: int
    argv: list[str] = field(default_factory=list)
    ns: list[int] = field(default_factory=list)  # member and contains queries
    triples: list[tuple[int, int, int]] = field(default_factory=list)
    limit: int | None = None
    answers: int = 0  # membership verdicts the unit asks for
    block: int = 0  # units of one stratified block; throughput is a median over blocks
    members: int = 0  # member verdicts among the answers, counted by the check


@dataclass
class Outcome:
    rc: int = 0
    out: str = ""
    verdicts: list = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    error: BaseException | None = None


def run_request(unit: Unit) -> Outcome:
    """One `cli.main` call, timed, with stdout captured and stderr dropped."""
    out = io.StringIO()
    t0 = perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = affinesg.cli.main(unit.argv)
    return Outcome(rc=rc, out=out.getvalue(), latencies_ns=[perf_counter_ns() - t0])


def _coprime_b(rng: random.Random, c: int, hi: int = 99) -> int:
    while True:
        b = rng.randint(1, hi)
        if math.gcd(b, c) == 1:
            return b


GOLDEN = (5**0.5 - 1) / 2


def _strata(offsets: list[float], block: int) -> list[float]:
    """One draw per equal-width stratum of [0, 1), in stratum order.

    Within stratum i the draw sits at offsets[i] + block * GOLDEN (mod 1):
    seeded, yet spread evenly over the stratum across consecutive blocks,
    so that every run sees nearly the same mix of sizes.
    """
    n = len(offsets)
    return [(i + (off + block * GOLDEN) % 1.0) / n for i, off in enumerate(offsets)]


def _offsets(rng: random.Random, n: int) -> list[float]:
    return [rng.random() for _ in range(n)]


A_VALUES = (2, 3, 10)


class Sweep:
    """`verify --input CSV --format json` over distinct valid triples.

    Triples have a in [1, 4], b in [1, 9], c in [2, 50].  Each round of
    seven requests covers every (a, c) cell once, with a fresh coprime b
    per cell until the cell's b values run out.  Oracle cost grows steeply
    with the window it materialises, so the 196 cells are dealt to the
    requests in snake order of that window: every request holds 28 triples
    spanning the whole c range and costs about the same.  An op is one
    triple; a latency sample, and a block for the throughput median, is
    one request.
    """

    name = "sweep"
    trace_units = 7
    REQUESTS = 7

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def units(self, rng: random.Random) -> Iterator[Unit]:
        cells = {}
        for a in range(1, 5):
            for c in range(2, 51):
                bs = [b for b in range(1, 10) if math.gcd(b, c) == 1]
                rng.shuffle(bs)
                cells[a, c] = bs
        for round_ in count():
            triples = [(a, bs[round_ % len(bs)], c) for (a, c), bs in cells.items()]
            triples.sort(key=lambda t: _oracle_window(*t), reverse=True)
            requests = [[] for _ in range(self.REQUESTS)]
            for i, t in enumerate(triples):
                lap, pos = divmod(i, self.REQUESTS)
                requests[pos if lap % 2 == 0 else self.REQUESTS - 1 - pos].append(t)
            rng.shuffle(requests)
            for i, req in enumerate(requests):
                rng.shuffle(req)
                yield Unit("verify", 0, 0, 0, ops=len(req), triples=req,
                           block=round_ * self.REQUESTS + i)

    def prepare(self, unit: Unit, index: int) -> None:
        path = self.workdir / f"sweep-{index}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c"])
            writer.writerows(unit.triples)
        unit.argv = ["verify", "--input", str(path), "--format", "json"]

    def execute(self, unit: Unit) -> Outcome:
        return run_request(unit)

    def check(self, unit: Unit, res: Outcome) -> int:
        return checks.check_sweep(unit.triples, res.rc, res.out)

    def shape(self, units: list[Unit]) -> dict:
        trip = [t for u in units for t in u.triples]
        return {
            "triples": len(trip),
            "distinct_triples": len(set(trip)),
            "a_hist": _hist(t[0] for t in trip),
            "c_hist": _hist(f"{(t[2] - 1) // 10 * 10 + 1}-{(t[2] - 1) // 10 * 10 + 10}" for t in trip),
        }


class Invariants:
    """Interactive CLI traffic on distinct triples, each request cold.

    Per block of ten requests: five `info --format json`, two
    `info --limit 3c`, two `member` with eight `--n`, one
    `table --limit 3c`, in random order; c log-uniform over [10^3, 10^5],
    one draw per tenth of the log range; a in {2, 3, 10}; b coprime to c.
    Cost grows with c and depends on the kind and on a, so kinds and a
    rotate over the strata: across any 30 consecutive blocks every stratum
    meets every (kind, a) pair once.
    """

    name = "invariants"
    trace_units = 40
    MIX = ["info-json"] * 5 + ["info-limit"] * 2 + ["member"] * 2 + ["table"]

    def units(self, rng: random.Random) -> Iterator[Unit]:
        seen = set()
        kinds = list(self.MIX)
        rng.shuffle(kinds)
        shift = rng.randrange(len(A_VALUES))
        offsets = _offsets(rng, len(kinds))
        for block in count():
            batch = []
            for i, u in enumerate(_strata(offsets, block)):
                kind = kinds[(i + block) % len(kinds)]
                a = A_VALUES[(i + block + shift) % len(A_VALUES)]
                c = round(10 ** (3 + 2 * u))
                b = _coprime_b(rng, c)
                while (a, b, c) in seen:
                    c += 1
                    b = _coprime_b(rng, c)
                seen.add((a, b, c))
                batch.append(self._unit(rng, kind, a, b, c))
            rng.shuffle(batch)
            for unit in batch:
                unit.block = block
                yield unit

    @staticmethod
    def _unit(rng: random.Random, kind: str, a: int, b: int, c: int) -> Unit:
        argv = ["--a", str(a), "--b", str(b), "--c", str(c)]
        if kind == "info-json":
            return Unit(kind, a, b, c, ops=1, argv=["info", *argv, "--format", "json"])
        if kind == "info-limit":
            return Unit(kind, a, b, c, ops=1, argv=["info", *argv, "--limit", str(3 * c)],
                        limit=3 * c)
        if kind == "table":
            return Unit(kind, a, b, c, ops=1, argv=["table", *argv, "--limit", str(3 * c)],
                        limit=3 * c)
        ns = [rng.randrange(c * c) for _ in range(8)]
        argv = ["member", *argv]
        for n in ns:
            argv += ["--n", str(n)]
        return Unit(kind, a, b, c, ops=1, argv=argv, ns=ns, answers=len(ns))

    def prepare(self, unit: Unit, index: int) -> None:
        pass

    def execute(self, unit: Unit) -> Outcome:
        return run_request(unit)

    def check(self, unit: Unit, res: Outcome) -> int:
        a, b, c = unit.a, unit.b, unit.c
        if unit.kind == "info-json":
            return checks.check_info(a, b, c, None, "json", res.rc, res.out)
        if unit.kind == "info-limit":
            return checks.check_info(a, b, c, unit.limit, "text", res.rc, res.out)
        if unit.kind == "member":
            return checks.check_member(a, b, c, unit.ns, res.rc, res.out)
        return checks.check_table(a, b, c, unit.limit, res.rc, res.out)

    def shape(self, units: list[Unit]) -> dict:
        n = len(units)
        return {
            "requests": n,
            "kind_share": {k: v / n for k, v in _hist(u.kind for u in units).items()},
            "a_hist": _hist(u.a for u in units),
            "c_hist": _hist(f"1e{math.floor(2 * math.log10(u.c)) / 2:g}" for u in units),
        }


class Queries:
    """Library point lookups: `contains(p, n)`, 1000 per seed.

    Per block of ten seeds: three Mersenne-style c = 2^k - 1 with k in
    [20, 200] and seven c log-uniform over [10, 10^18], each stratified,
    in random order; a in {2, 3, 10}, rotating over the ten slots from
    block to block; b coprime to c.  Queries n are uniform in [0, c^2),
    which gives both verdicts in bulk.  An op, and a latency sample, is
    one `contains` call.
    """

    name = "queries"
    trace_units = 10
    PER_SEED = 1000

    def units(self, rng: random.Random) -> Iterator[Unit]:
        shift = rng.randrange(len(A_VALUES))
        mersenne, loguniform = _offsets(rng, 3), _offsets(rng, 7)
        for block in count():
            seeds = [("mersenne", 2 ** (20 + int(181 * u)) - 1) for u in _strata(mersenne, block)]
            seeds += [("loguniform", int(10 ** (1 + 17 * u))) for u in _strata(loguniform, block)]
            batch = []
            for i, (kind, c) in enumerate(seeds):
                a = A_VALUES[(i + block + shift) % len(A_VALUES)]
                b = _coprime_b(rng, c)
                ns = [rng.randrange(c * c) for _ in range(self.PER_SEED)]
                batch.append(Unit(kind, a, b, c, ops=len(ns), ns=ns, answers=len(ns), block=block))
            rng.shuffle(batch)
            yield from batch

    def prepare(self, unit: Unit, index: int) -> None:
        pass

    def execute(self, unit: Unit) -> Outcome:
        contains = affinesg.contains
        p = affinesg.Params(unit.a, unit.b, unit.c)
        verdicts, lat = [], []
        for n in unit.ns:
            t0 = perf_counter_ns()
            try:
                v = contains(p, n)
            except Exception as exc:  # a raising op is a failed op, not a crash
                v = exc
            lat.append(perf_counter_ns() - t0)
            verdicts.append(v)
        return Outcome(verdicts=verdicts, latencies_ns=lat)

    def check(self, unit: Unit, res: Outcome) -> int:
        unit.members = sum(v is True for v in res.verdicts)
        return checks.check_queries(unit.a, unit.b, unit.c, unit.ns, res.verdicts)

    def shape(self, units: list[Unit]) -> dict:
        return {
            "seeds": len(units),
            "queries": sum(u.ops for u in units),
            "a_hist": _hist(u.a for u in units),
            "c_bits_hist": _hist(f"<={_bits_bin(u.c.bit_length())}" for u in units),
            "mersenne_share": _share(u.kind == "mersenne" for u in units),
            "huge_seed_share": _share(u.c.bit_length() > 64 for u in units),
            "member_true_share": sum(u.members for u in units) / sum(u.answers for u in units),
        }


def _oracle_window(a: int, b: int, c: int) -> int:
    """Size of the oracle's bitmask: the first orbit term whose geometric sum
    reaches c - 1, plus 2c."""
    s, t = 0, c
    while s < c - 1:
        s, t = a * s + 1, a * t + b
    return t + 2 * c


def _bits_bin(bits: int) -> int:
    return next(edge for edge in (16, 32, 64, 128, 256) if bits <= edge)


def _hist(values) -> dict:
    return dict(sorted(Counter(str(v) for v in values).items()))


def _share(flags) -> float | None:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else None


def make(name: str, workdir: Path):
    if name == "sweep":
        return Sweep(workdir)
    if name == "invariants":
        return Invariants()
    if name == "queries":
        return Queries()
    raise ValueError(f"unknown workload {name!r}")
