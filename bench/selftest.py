"""Fast self-test of the benchmark: every workload at a tiny size, and every checker.

    python3 bench/selftest.py

Asserts that each run prints every metric declared in ``BENCHMARK.json``
with its unit, that no op fails at this commit, that traced counts repeat
exactly, and that a deliberately wrong answer fed to each checker is
counted as a failed op.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import affinesg  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def printed(result: dict) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result)
    return json.loads(out.getvalue().rstrip("\n").split("\n")[-1])


def assert_declared(line: dict, kind: str) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, line
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    assert got == declared, (got, declared)
    for name, m in line["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_workloads_print_every_metric() -> None:
    for name in run.WORKLOADS:
        line = printed(run.run(name, seed=1, seconds=0.01, trace=False))
        assert_declared(line, "end_to_end")
        for metric in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p95_ms", "peak_rss_mb"):
            assert line["metrics"][metric]["value"] > 0, (name, metric)
        first = printed(run.run(name, seed=1, seconds=0, trace=True, trace_units=1))
        again = printed(run.run(name, seed=1, seconds=0, trace=True, trace_units=1))
        assert_declared(first, "per_layer")
        for metric in COUNTS:
            assert first["metrics"][metric] == again["metrics"][metric], (name, metric)


def outcome(wl, unit) -> workloads.Outcome:
    res, _ = run.execute(wl, unit)
    assert run.check(wl, unit, res) == 0, unit
    return res


def wrong(wl, unit, res, **changes) -> None:
    bad = workloads.Outcome(**{**res.__dict__, **changes})
    assert run.check(wl, unit, bad) >= 1, (unit.kind, changes)


def test_sweep_checker() -> None:
    wl = workloads.Sweep(ROOT / ".bench_work")
    wl.workdir.mkdir(exist_ok=True)
    unit = workloads.Unit("verify", 0, 0, 0, ops=3, triples=[(2, 1, 5), (3, 2, 7), (1, 1, 2)])
    try:
        wl.prepare(unit, 0)
        res = outcome(wl, unit)
    finally:
        shutil.rmtree(wl.workdir)
    doc = json.loads(res.out)
    wrong(wl, unit, res, out=json.dumps({**doc, "passed": 2, "failed": 1}))
    wrong(wl, unit, res, out=json.dumps({**doc, "checked": 2}))
    wrong(wl, unit, res, rc=1)


def test_invariants_checkers() -> None:
    wl = workloads.Invariants()
    rng = random.Random(0)
    a, b, c = 3, 7, 1009
    unit = wl._unit(rng, "info-json", a, b, c)
    res = outcome(wl, unit)
    doc = json.loads(res.out)
    wrong(wl, unit, res, out=json.dumps({**doc, "frobenius": doc["frobenius"] + 1}))
    raised = list(doc["apery_set"])
    raised[5] += c
    wrong(wl, unit, res, out=json.dumps({**doc, "apery_set": raised}))
    wrong(wl, unit, res, out=json.dumps({**doc, "minimal_generators": doc["minimal_generators"][:-1]}))

    unit = wl._unit(rng, "info-limit", a, b, c)
    res = outcome(wl, unit)
    members = next(line for line in res.out.split("\n") if line.startswith("members_below: "))
    wrong(wl, unit, res, out=res.out.replace(members, members.rsplit(" ", 1)[0]))

    unit = wl._unit(rng, "member", a, b, c)
    res = outcome(wl, unit)
    first = res.out.split("\n")[0]
    flipped = first.replace(" in ", " out ") if " in " in first else first.replace(" out ", " in ")
    wrong(wl, unit, res, out=res.out.replace(first, flipped, 1))

    unit = wl._unit(rng, "table", a, b, c)
    res = outcome(wl, unit)
    wrong(wl, unit, res, out=res.out.replace("*", "", 1))
    wrong(wl, unit, res, out=res.out.replace("\n", "\n\n", 1))


def test_queries_checker() -> None:
    wl = workloads.Queries()
    for a, b, c in [(2, 1, 7), (3, 5, 1009), (2, 1, 2**89 - 1)]:
        ns = [0, c, 3, 2 * c + 1, c * c - 1, 5 * c + 3, 17 * c + 11, c * c // 2]
        unit = workloads.Unit("seed", a, b, c, ops=len(ns), ns=ns, answers=len(ns))
        res = outcome(wl, unit)
        assert len(set(res.verdicts)) == 2, (c, res.verdicts)
        wrong(wl, unit, res, verdicts=[not res.verdicts[0], *res.verdicts[1:]])
        wrong(wl, unit, res, verdicts=[True, True, True, *res.verdicts[3:]])


def test_certificate_rejects_wrong_tables() -> None:
    p = affinesg.Params(2, 3, 101)
    prof = affinesg.profile(p)
    w = checks.by_residue(p.a, p.b, p.c, list(prof.apery))
    gens = list(prof.minimal_generators)
    assert checks.certify_apery(p.a, p.b, p.c, w, gens[1:])
    for r, delta in ((7, p.c), (max(range(1, p.c), key=w.__getitem__), -p.c)):
        bad = list(w)
        bad[r] += delta
        assert not checks.certify_apery(p.a, p.b, p.c, bad, gens[1:]), (r, delta)
    assert not checks.certify_apery(p.a, p.b, p.c, w, gens[1:-1])


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
