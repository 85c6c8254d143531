"""Timeline tracing for the simulated engines.

Every engine activity (h2d transfer, d2h transfer, kernel execution)
can be recorded as a :class:`TraceEvent`.  The recorder feeds three
consumers: the overlap profiler (``repro.obs.profiler``, which measures
busy and overlap times from the events), the trace-invariant verifier
(``repro.obs.verify``), and the Fig. 2-style ASCII pipeline rendering
used by ``repro.experiments.fig2_pipeline``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import SimulationError


@dataclass(frozen=True)
class TraceEvent:
    """One contiguous activity interval on one engine."""

    engine: str
    tag: str
    start: float
    end: float
    nbytes: int = 0
    flops: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Accumulates engine activity intervals in completion order."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self.enabled = True

    def record(
        self,
        engine: str,
        tag: str,
        start: float,
        end: float,
        nbytes: int = 0,
        flops: float = 0.0,
    ) -> None:
        if not self.enabled:
            return
        if end < start:
            raise SimulationError(
                f"trace event {tag!r} on {engine!r} ends before it starts: "
                f"start={start}, end={end}"
            )
        if nbytes < 0:
            raise SimulationError(
                f"trace event {tag!r} on {engine!r} has negative nbytes: "
                f"{nbytes}"
            )
        if flops < 0:
            raise SimulationError(
                f"trace event {tag!r} on {engine!r} has negative flops: "
                f"{flops}"
            )
        self.events.append(TraceEvent(engine, tag, start, end, nbytes, flops))

    def clear(self) -> None:
        self.events.clear()

    def by_engine(self, engine: str) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.engine == engine]

    def engines(self) -> List[str]:
        seen: Dict[str, None] = {}
        for ev in self.events:
            seen.setdefault(ev.engine, None)
        return list(seen)


def render_timeline(
    trace: TraceRecorder,
    width: int = 100,
    engines: Optional[Iterable[str]] = None,
    charset: Optional[Dict[str, str]] = None,
) -> str:
    """Render the trace as an ASCII timeline, one row per engine.

    This is the reproduction medium for the paper's Fig. 2 pipeline
    illustration: each engine's busy intervals are drawn as filled
    blocks on a common time axis.
    """
    if not trace.events:
        return "(empty trace)"
    names = list(engines) if engines is not None else trace.engines()
    t0 = min(ev.start for ev in trace.events)
    t1 = max(ev.end for ev in trace.events)
    span = max(t1 - t0, 1e-12)
    default_chars = {"h2d": "v", "d2h": "^", "exec": "#"}
    chars = dict(default_chars)
    if charset:
        chars.update(charset)
    lines = []
    label_w = max(len(n) for n in names) + 1
    for name in names:
        row = [" "] * width
        for ev in trace.by_engine(name):
            lo = int((ev.start - t0) / span * (width - 1))
            hi = int((ev.end - t0) / span * (width - 1))
            ch = chars.get(name, "#")
            for i in range(lo, max(hi, lo) + 1):
                row[i] = ch
        lines.append(f"{name.rjust(label_w)} |{''.join(row)}|")
    axis = f"{' ' * label_w} 0{' ' * (width - len(f'{span * 1e3:.2f} ms') - 1)}{span * 1e3:.2f} ms"
    lines.append(axis)
    return "\n".join(lines)
