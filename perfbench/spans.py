"""In-memory span tracer that rebinds engine entry points from outside.

``Tracer.install`` replaces attributes such as ``ops.run_op`` or
``einsum.contract`` with wrappers that record one span per call: its name,
start, end and the id of the span that was open when it began.
``uninstall`` puts the originals back.  No engine source is edited; a call
made through a name the tracer did not rebind is simply not seen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    flops: int = 0  # planned multiply-adds, recorded for einsum.contract spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _contract_flops(args, kwargs) -> int:
    plan = args[2] if len(args) > 2 else kwargs.get("plan_")
    return plan.flops if plan is not None else 0


class Tracer:
    """Records spans for every call through the rebound attributes."""

    def __init__(self, targets):
        """``targets`` lists ``(owner, attribute, span name)`` triples."""
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        spans, open_ids = self.spans, self._open
        note_flops = name == "einsum.contract"

        def traced(*args, **kwargs):
            span = Span(len(spans), open_ids[-1] if open_ids else None, name, 0.0)
            if note_flops:
                span.flops = _contract_flops(args, kwargs)
            spans.append(span)
            open_ids.append(span.id)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_ids.pop()

        traced.__wrapped__ = fn
        return traced


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, planned flops.

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it because calls do.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "flops": 0})
        row["calls"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += s.seconds - child_time.get(s.id, 0.0)
        row["flops"] += s.flops
    return out


def drop_roots(spans: list[Span], skip: set[int]) -> list[Span]:
    """``spans`` without the root spans whose ordinal is in ``skip``, nor
    anything under them.  A call's spans follow its root span in order."""
    kept, root = [], -1
    for s in spans:
        if s.parent is None:
            root += 1
        if root not in skip:
            kept.append(s)
    return kept


def outside_children(spans: list[Span], parent: str, child: str) -> float:
    """Share of ``parent`` span time not covered by its direct ``child`` spans."""
    by_id = {s.id: s for s in spans}
    total = sum(s.seconds for s in spans if s.name == parent)
    inside = sum(
        s.seconds
        for s in spans
        if s.name == child and s.parent is not None and by_id[s.parent].name == parent
    )
    return (total - inside) / total if total else 0.0
