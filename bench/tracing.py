"""Spans and counts at pdmm's module boundaries, recorded from outside.

`Tracer.install` replaces, for one traced round, every public function that
`pdmm.scheme`, `pdmm.search` and `pdmm.cli` import from the layer below, the
public functions those three modules define, `PrimeField.of` and
`SplitMix64.sample_distinct` with wrappers that record a span. `uninstall`
puts the original objects back. Spans live in memory as
``[name, start, end, parent, label, info]``; `label` names the benchmark
operation the span belongs to and `info` holds what a hook read from the
call's arguments or result (a check's status, a task's multiply-adds).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager

OP = "bench.op"  # root span of one benchmark operation
BOUNDARY_MODULES = ("pdmm.scheme", "pdmm.search", "pdmm.cli")


def _strategy(args, kwargs, result):
    return kwargs.get("strategy", args[1] if len(args) > 1 else "random_search")


def _task_macs(args, kwargs, result):
    task = kwargs.get("task", args[1] if len(args) > 1 else None)
    rows, inner = task.a_share.shape
    return rows * inner * task.b_share.shape[1]


INFO = {
    "linalg.all_txt_submatrices_invertible": lambda a, k, r: (r.status, r.checked),
    "linalg.is_invertible": lambda a, k, r: bool(r),
    "scheme.instantiate_degree_table": _strategy,
    "scheme.draw_randomness": lambda a, k, r: sum(m.size for m in r.r_mats + r.s_mats),
    "scheme.worker_multiply": _task_macs,
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # the benchmark's program clock
        self.spans: list[list] = []
        self.label: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark operation; spans inside carry `label`."""
        self.label = label
        rec = self._open(OP)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.label, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        return rec

    def _close(self, rec: list):
        rec[2] = self.clock()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str):
        raw = vars(owner).get(attr)
        if raw is None:  # gone from the library: its spans are simply absent
            return
        if isinstance(raw, classmethod):
            inner = self._wrap(getattr(owner, attr), name)
            replacement = classmethod(lambda cls, *a, **k: inner(*a, **k))
        else:
            replacement = self._wrap(raw, name)
        setattr(owner, attr, replacement)
        self._saved.append((owner, attr, raw))

    def install(self):
        for module_name in BOUNDARY_MODULES:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__.startswith("pdmm."):
                    self.patch(module, attr, f"{obj.__module__[5:]}.{obj.__name__}")
        from pdmm.field import PrimeField
        from pdmm.scheme import SplitMix64

        self.patch(PrimeField, "of", "field.PrimeField.of")
        self.patch(SplitMix64, "sample_distinct", "scheme.SplitMix64.sample_distinct")

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class SpanTable:
    """Queries over one round's spans: durations, self time, ancestry.

    `seconds(start, end)` turns a span's clock readings into a duration.
    """

    def __init__(self, spans: list[list], seconds):
        self.spans = spans
        self.seconds = seconds
        self.children: list[list[int]] = [[] for _ in spans]
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                self.children[rec[3]].append(i)

    def dur(self, i: int) -> float:
        return self.seconds(self.spans[i][1], self.spans[i][2])

    def self_time(self, i: int) -> float:
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def named(self, *names: str) -> list[int]:
        return [i for i, rec in enumerate(self.spans) if rec[0] in names]

    def parent_name(self, i: int) -> str | None:
        parent = self.spans[i][3]
        return self.spans[parent][0] if parent >= 0 else None

    def ancestor(self, i: int, *names: str) -> int | None:
        """The nearest enclosing span with one of `names`, or None."""
        i = self.spans[i][3]
        while i >= 0:
            if self.spans[i][0] in names:
                return i
            i = self.spans[i][3]
        return None

    def total(self, indices) -> float:
        return sum(self.dur(i) for i in indices)

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name."""
        out: dict[str, dict] = {}
        for i, rec in enumerate(self.spans):
            row = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.dur(i)
            row["self_s"] += self.self_time(i)
        return out

    def dump(self) -> list[list]:
        """Spans with times relative to the first one, for writing out."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, s - t0, e - t0, p, lab, info] for n, s, e, p, lab, info in self.spans]
