"""A queueing station for the kernel validation tests.

A :class:`Station` is a despy :class:`~repro.despy.resource.Resource`
plus the two sums its jobs record: the ticks they held a unit and the
ticks they waited for one.  Utilization and the mean queue length come
from those sums, so the closed-form oracles check the kernel's grant
order against the jobs' own records.
"""

from repro.despy import Hold, Release, Request
from repro.despy.resource import Resource


class Station:
    def __init__(self, sim, name: str, capacity: int = 1) -> None:
        self.sim = sim
        self.resource = Resource(sim, name, capacity=capacity)
        self.service_ticks = 0
        self.wait_ticks = 0

    def visit(self, draw_service):
        """Process fragment: queue for a unit, hold it for
        ``draw_service()`` ticks, drawn at the grant, and release it."""
        sim = self.sim
        requested = sim.now
        yield Request(self.resource)
        self.wait_ticks += sim.now - requested
        service = draw_service()
        self.service_ticks += service
        yield Hold(service)
        yield Release(self.resource)

    def utilization(self) -> float:
        """Σ service ticks / (now × capacity)."""
        return self.service_ticks / (self.sim.now * self.resource.capacity)

    def mean_queue_length(self) -> float:
        """Σ wait ticks / now.

        By Little's law this is the time-average number of waiting jobs
        for a run that drains, as every validation run here does.
        """
        return self.wait_ticks / self.sim.now
