"""In-memory span tracer that hooks capypipe's module functions from outside.

A span is recorded around each call into a layer: name, start, end, parent
span and run id (one run id per benchmark round), plus the layer's counters.
Functions called thousands of times per round (kernels, per-pair and
per-record helpers) are aggregated instead: per parent span, the number of
calls, their total time and their counters. Aggregates count as child time
of the span they ran in, so every span's self time is its duration minus
its child spans and aggregates. Spans stay in memory until ``write`` dumps
them as JSONL at the end of the run.

Hooks are installed by replacing module attributes and are removed by
``uninstall``; the program's code is not edited. A hook whose attribute is
missing (renamed or removed by a later change) is skipped and listed in
``missing``, and its metrics then read 0.

`capypipe filter` scores ASR/S2TT records in a thread pool (--jobs), so
aggregates can be updated from several threads at once; a lock keeps their
counts exact. Their times are then summed over threads and, with the GIL
shared, can exceed the wall time of the stage they ran in.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
import tracemalloc
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.run_id = ""
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans), "name": name, "run": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": _clock(), "end": None, "child_s": 0.0, "counters": {}, "aggs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def _aggregate(self, name: str, seconds: float, counters: dict | None) -> None:
        with self._lock:
            parent = self._stack[-1]
            parent["child_s"] += seconds
            agg = parent["aggs"].setdefault(name, {"calls": 0, "total_s": 0.0, "counters": {}})
            agg["calls"] += 1
            agg["total_s"] += seconds
            for key, val in (counters or {}).items():
                agg["counters"][key] = agg["counters"].get(key, 0) + val

    # -- hooks -------------------------------------------------------------

    def _replace(self, module_name: str, attr: str, make) -> None:
        """Replace module attribute `attr`; "Class.method" replaces a method."""
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        self._installed.append((owner, name, original))
        setattr(owner, name, make(original))

    def hook_span(self, module_name: str, attr: str, name, counters=None, alloc: bool = False) -> None:
        """Record a span around every call. ``name`` is a string or a
        function of the call arguments; ``counters(args, result)`` returns
        the span's counters. With ``alloc``, the peak of memory traced by
        tracemalloc during the call is recorded as counter ``peak_alloc_mb``."""

        def make(fn):
            def wrapper(*args, **kwargs):
                if alloc:
                    tracemalloc.start()
                span = self.begin(name if isinstance(name, str) else name(args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(span)
                    if alloc:
                        span["counters"]["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                        tracemalloc.stop()
                if counters is not None:
                    span["counters"].update(counters(args, result))
                return result

            return wrapper

        self._replace(module_name, attr, make)

    def hook_aggregate(self, module_name: str, attr: str, name: str, counters=None) -> None:
        def make(fn):
            def wrapper(*args, **kwargs):
                start = _clock()
                result = fn(*args, **kwargs)
                self._aggregate(name, _clock() - start, counters(args, result) if counters else None)
                return result

            return wrapper

        self._replace(module_name, attr, make)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                row = {k: span[k] for k in ("id", "name", "run", "parent", "start", "end")}
                row["self_s"] = self_time(span)
                if span["counters"]:
                    row["counters"] = span["counters"]
                if span["aggs"]:
                    row["aggregates"] = span["aggs"]
                fh.write(json.dumps(row) + "\n")


def self_time(span: dict) -> float:
    return span["end"] - span["start"] - span["child_s"]


class RoundView:
    """Sums over the spans and aggregates of one run id."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans

    def seconds(self, *names: str) -> float:
        total = 0.0
        for span in self.spans:
            if span["name"] in names:
                total += span["end"] - span["start"]
            for agg_name, agg in span["aggs"].items():
                if agg_name in names:
                    total += agg["total_s"]
        return total

    def calls(self, name: str) -> int:
        return sum(s["aggs"][name]["calls"] for s in self.spans if name in s["aggs"]) + sum(
            1 for s in self.spans if s["name"] == name
        )

    def counter(self, name: str, key: str, reduce=sum) -> float:
        values = [s["counters"][key] for s in self.spans if s["name"] == name and key in s["counters"]]
        values += [
            s["aggs"][name]["counters"][key]
            for s in self.spans
            if name in s["aggs"] and key in s["aggs"][name]["counters"]
        ]
        return reduce(values) if values else 0

    def module_self_seconds(self) -> dict[str, float]:
        """Self time per module, keyed by the span name before the first dot."""
        out: dict[str, float] = {}
        for span in self.spans:
            module = span["name"].split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_time(span)
            for agg_name, agg in span["aggs"].items():
                module = agg_name.split(".", 1)[0]
                out[module] = out.get(module, 0.0) + agg["total_s"]
        return out
