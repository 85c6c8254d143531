"""Event-heap introspection that only tests need."""


def pending_events(sim) -> int:
    """Scheduled, not-yet-cancelled events of ``sim``.

    A heap entry is ``[time, seq, fn, arg]``; cancelling it empties
    ``fn``.
    """
    return sum(1 for entry in sim._heap if entry[2] is not None)
