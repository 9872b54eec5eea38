"""Span tracing installed from outside the package, for the traced run.

`Tracer.install` replaces every public function of `affinesg.core`,
`affinesg.semigroup` and `affinesg.oracle`, plus `cli.main`,
`cli.render_table` and `cli.Report.to_json`, with a wrapper that records
a span (name, start, end, parent, op).  It rebinds the function wherever
the package holds it: the defining module, every module that imported
the name (``affinesg.cli.profile``, ``affinesg.oracle.profile``, ...) and
the package namespace.  `uninstall` puts the originals back.  Nothing in
``src/`` knows about tracing.

`core.checked` (the width guard, called once per computed value) and
`core.bit_limit` (a context manager) are left unwrapped: a span per
checked value would multiply the trace by c and measure the wrapper.

Spans stay in memory, in flat arrays, until `write` dumps them.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import affinesg
from affinesg import cli, core, oracle, semigroup

MODULES = (core, semigroup, oracle, cli)
UNTRACED = {"checked", "bit_limit"}
LAYERS = ("cli", "semigroup", "core", "oracle")


def _targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced callable."""
    out = []
    for mod in (core, semigroup, oracle):
        layer = mod.__name__.rsplit(".", 1)[1]
        for name in mod.__all__:
            if name not in UNTRACED and inspect.isfunction(getattr(mod, name)):
                out.append((mod, name, f"{layer}.{name}"))
    for name in ("t_value", "s_value"):
        out.append((core.ReducedVector, name, f"core.ReducedVector.{name}"))
    out.append((cli, "main", "cli.main"))
    out.append((cli, "render_table", "cli.render_table"))
    out.append((cli.Report, "to_json", "cli.Report.to_json"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, kind: str) -> None:
        self.op_id += 1
        self._open(self._nid(f"bench.{kind}"))

    def end_op(self) -> None:
        self._close(self.stack[-1])

    def _wrap(self, fn, span: str):
        nid = self._nid(span)
        count = _COUNTERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counters, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for owner, attr, span in _targets():
            fn = owner.__dict__[attr]
            wrappers[id(fn)] = self._wrap(fn, span)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])
        for mod in (*MODULES, affinesg):
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def summary(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive ns, self ns (inclusive minus children)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, incl, own = Counter(), Counter(), Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] += 1
            incl[key] += dur[i]
            own[key] += dur[i] - child[i]
        return calls, incl, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.op[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


def _count_oracle(counters: Counter, o) -> None:
    counters["oracle.bound_total"] += o.bound
    counters["oracle.conductor_total"] += o.conductor_found


def _count_apery(counters: Counter, ap) -> None:
    counters["semigroup.apery_classes"] += len(ap)


_COUNTERS = {
    "oracle.build_oracle": _count_oracle,
    "semigroup.apery_set": _count_apery,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, derived from the spans and counters."""
    calls, incl, own = tracer.summary()

    def ms(ns: int) -> float:
        return ns / 1e6

    layer_self = Counter()
    for key, ns in own.items():
        layer_self[key.split(".", 1)[0]] += ns
    c = tracer.counters
    out = {
        "oracle.build_oracle.calls": calls["oracle.build_oracle"],
        "oracle.build_oracle.ms": ms(incl["oracle.build_oracle"]),
        "oracle.bound_total": c["oracle.bound_total"],
        "oracle.window_use": (
            c["oracle.conductor_total"] / c["oracle.bound_total"] if c["oracle.bound_total"] else 0.0
        ),
        "oracle.check_agreement.calls": calls["oracle.check_agreement"],
        "oracle.check_agreement.self_ms": ms(own["oracle.check_agreement"]),
        "oracle.minimal_generators.ms": ms(incl["oracle.oracle_minimal_generators"]),
        "semigroup.apery_set.calls": calls["semigroup.apery_set"],
        "semigroup.apery_set.ms": ms(incl["semigroup.apery_set"]),
        "semigroup.apery_classes": c["semigroup.apery_classes"],
        "semigroup.profile.calls": calls["semigroup.profile"],
        "semigroup.profile.ms": ms(incl["semigroup.profile"]),
        "semigroup.classes_per_query": (
            c["bench.query_classes"] / c["bench.answers"] if c["bench.answers"] else 0.0
        ),
        "semigroup.contains.calls": calls["semigroup.contains"],
        "semigroup.contains.ms": ms(incl["semigroup.contains"]),
        "semigroup.members_below.ms": ms(incl["semigroup.members_below"]),
        "core.decompose.calls": calls["core.decompose"],
        "core.decompose.ms": ms(incl["core.decompose"]),
        "core.orbit_term.calls": calls["core.orbit_term"],
        "core.geometric_sum.calls": calls["core.geometric_sum"],
        "cli.render_ms": ms(incl["cli.Report.to_json"] + incl["cli.render_table"]),
        "cli.stdout_bytes": c["bench.stdout_bytes"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_ms": ms(own["cli.main"]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(layer_self[layer])
    return out
