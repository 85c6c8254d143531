"""Device programs: a tile schedule built once and replayed.

For a given problem signature, tile size and machine, a tile scheduler
(:mod:`repro.runtime.scheduler`) always makes the same device calls:
which tiles to allocate, which transfers and kernels to issue on which
stream, and which events order them.  A server that runs thousands of
batches of a handful of shapes can therefore build each schedule once
and replay it, the way the paper's library keeps its streams and
buffers across calls instead of redoing its setup.

A :class:`DeviceProgram` is that ordered list of calls.  A
:class:`ProgramRecorder`, attached as ``device.recorder`` while the
live scheduler is built and issues, collects it.  The program holds
plain values only: byte counts, durations, flops, tag strings and
stream/event indices.  It names no device, op, buffer or stream, so it
outlives the device it was recorded on without keeping any of it
alive.

:meth:`DeviceProgram.replay` makes the same calls in the same order
through the public methods of another fresh
:class:`~repro.sim.device.GpuDevice` and its streams.  Memory
accounting, OOM checks, noise, fault and retry draws, trace tags and
the device's metrics come out exactly as the live scheduler's would.
The checks that depend only on what keys the program (pinned host
memory, transfer windows, tile shapes) passed when it was recorded.
A program is valid on devices built like the recording one: the same
machine, the same trace and fault settings, and a metrics registry
attached to both or to neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import DeviceMemoryError

#: Step codes: ``(ALLOC, nbytes)``, ``(H2D|D2H, nbytes, stream, tag)``,
#: ``(EXEC, duration, stream, tag, flops)``, ``(RECORD, stream)`` and
#: ``(WAIT, stream, event)``; streams and events are indices.
ALLOC, H2D, D2H, EXEC, RECORD, WAIT = range(6)

#: The scheduler's own metrics; everything else is counted by the device.
CACHE_HITS = "runtime.cache.hits"
CACHE_MISSES = "runtime.cache.misses"


class Replay:
    """One replay of a program on one device: its streams and buffers."""

    __slots__ = ("streams", "buffers", "_device")

    def __init__(self, device, streams: tuple) -> None:
        self.streams = streams
        self.buffers: list = []
        self._device = device

    def release(self) -> None:
        """Free every device buffer the replay allocated."""
        free = self._device.free
        for buf in self.buffers:
            free(buf)
        self.buffers.clear()


@dataclass(frozen=True)
class DeviceProgram:
    """The device calls of one tile schedule, as plain values."""

    #: stream names, in creation order
    streams: Tuple[str, ...]
    steps: Tuple[tuple, ...]
    #: the tile size an allocation failure is reported with
    tile: int
    #: ``runtime.cache.*`` counts of the recording run
    cache_hits: int = 0
    cache_misses: int = 0

    def replay(self, device) -> Replay:
        """Issue the program on ``device``; nothing runs until the
        simulator does.

        An allocation failure is re-raised with the program's tile, as
        the live scheduler's fetch does.
        """
        create = device.create_stream
        streams = tuple(create(name) for name in self.streams)
        run = Replay(device, streams)
        buffers = run.buffers
        events: list = []
        alloc = device.alloc
        h2d = device.memcpy_h2d_async
        d2h = device.memcpy_d2h_async
        launch = device.launch_async
        for step in self.steps:
            code = step[0]
            if code == EXEC:
                launch(step[1], streams[step[2]], step[3], step[4])
            elif code == WAIT:
                streams[step[1]].wait_event(events[step[2]])
            elif code == RECORD:
                events.append(streams[step[1]].record_event())
            elif code == H2D:
                h2d(step[1], streams[step[2]], step[3])
            elif code == ALLOC:
                try:
                    buffers.append(alloc(step[1]))
                except DeviceMemoryError as exc:
                    raise exc.with_tile(self.tile) from None
            else:
                d2h(step[1], streams[step[2]], step[3])
        metrics = device.metrics
        if metrics is not None:
            metrics.counter(CACHE_HITS).inc(self.cache_hits)
            metrics.counter(CACHE_MISSES).inc(self.cache_misses)
        return run


class ProgramRecorder:
    """Collects the device program of one live schedule.

    Construct it on the device before the scheduler creates its
    streams; the device and those streams then report each call.
    :meth:`detach` ends the recording and :meth:`program` returns it.
    """

    def __init__(self, device) -> None:
        self._device = device
        self._steps: List[tuple] = []
        self._names: List[str] = []
        self._stream_ids: Dict[int, int] = {}
        self._event_ids: Dict[int, int] = {}
        #: streams and events seen, held so that their ids stay unique
        self._streams: list = []
        self._events: list = []
        #: False once a call a program cannot hold was made: data
        #: allocation (payloads) or an event from outside the recording
        self.replayable = True
        metrics = device.metrics
        self._counters = (() if metrics is None else
                          (metrics.counter(CACHE_HITS),
                           metrics.counter(CACHE_MISSES)))
        self._before = [c.value for c in self._counters]
        self._deltas: Tuple[int, ...] = ()
        device.recorder = self

    def detach(self) -> None:
        """Stop recording; the device and its streams forget the
        recorder, and the recorder lets go of them."""
        self._device.recorder = None
        for stream in self._streams:
            stream._recorder = None
        self._streams.clear()
        self._events.clear()
        self._deltas = tuple(int(c.value - b) for c, b in
                             zip(self._counters, self._before))
        self._counters = ()

    def program(self, tile: int) -> Optional[DeviceProgram]:
        """The recorded program (after :meth:`detach`), or None when
        the recording cannot be replayed."""
        if not self.replayable:
            return None
        hits, misses = self._deltas or (0, 0)
        return DeviceProgram(tuple(self._names), tuple(self._steps), tile,
                             hits, misses)

    # -- hooks called by GpuDevice and Stream ---------------------------

    def stream(self, stream) -> None:
        self._stream_ids[id(stream)] = len(self._names)
        self._names.append(stream.name)
        self._streams.append(stream)

    def _stream(self, stream) -> int:
        index = self._stream_ids.get(id(stream))
        if index is None:
            self.replayable = False
            return -1
        return index

    def alloc(self, nbytes: int, with_data: bool) -> None:
        if with_data:
            self.replayable = False
        self._steps.append((ALLOC, nbytes))

    def memcpy_h2d(self, nbytes: int, stream, tag: str) -> None:
        self._steps.append((H2D, nbytes, self._stream(stream), tag))

    def memcpy_d2h(self, nbytes: int, stream, tag: str) -> None:
        self._steps.append((D2H, nbytes, self._stream(stream), tag))

    def launch(self, duration: float, stream, tag: str,
               flops: float) -> None:
        self._steps.append((EXEC, duration, self._stream(stream), tag, flops))

    def record_event(self, stream, event) -> None:
        self._event_ids[id(event)] = len(self._events)
        self._events.append(event)
        self._steps.append((RECORD, self._stream(stream)))

    def wait_event(self, stream, event) -> None:
        index = self._event_ids.get(id(event))
        if index is None:
            self.replayable = False
            index = -1
        self._steps.append((WAIT, self._stream(stream), index))
