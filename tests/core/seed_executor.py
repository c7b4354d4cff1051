"""A minimal executor for driving a :class:`~repro.core.seed.SeedQueue`
through :func:`repro.queueing.replay.apply_head`, the one place a
deferred update is applied."""

from repro.queueing.replay import apply_head


class ApplyExecutor:
    """``apply`` runs the update through ``algorithm.apply_update``,
    or raises on the chosen call numbers (1-based)."""

    def __init__(self, algorithm, fail_on=()):
        self.algorithm = algorithm
        self.fail_on = set(fail_on)
        self.calls = 0

    def apply(self, request, flushing):
        self.calls += 1
        if self.calls in self.fail_on:
            raise RuntimeError(f"injected failure on call {self.calls}")
        self.algorithm.apply_update(request.update)
        return 0.0


def drain(executor, queue):
    """Apply every pending update, oldest first, the way a forced flush
    does; returns the applied requests."""
    applied = []
    while len(queue):
        request, _ = apply_head(executor, queue, flushing=True)
        applied.append(request)
    return applied
