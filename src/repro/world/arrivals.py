"""Open- and closed-loop arrival processes feeding the fluid world.

Two workload-generation disciplines, per the classic distinction:

* **Open loop** (:class:`PoissonArrivals`): sessions arrive as a
  Poisson process, independent of how the network is doing.  The right
  model for an access link aggregating many independent users.
* **Closed loop** (:class:`ClosedLoopUsers`): a fixed population of
  users, each cycling *think -> download -> think*.  Offered load
  self-adjusts to congestion; with zero think time the population pins
  exactly N flows in flight -- which is how the manyflow benchmark
  sustains a precise concurrency level.

Flow sizes come from a small registry of distributions sharing the
scheduler-lab spec syntax (``"name:key=value,..."``), including the
paper's small/large split: most transfers are short (web-ish) with a
minority of large bulk downloads -- the bimodal mix behind the
small-flow penalty of Figure 15.

Determinism: every random draw comes from the one ``random.Random``
handed in (a named RngRegistry stream), and arrivals draw in a fixed
order (size, then route), so worlds are reproducible run-to-run and
across processes; never-cancelled timers use the handle-free ``post``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.scheduler import parse_strategy
from repro.sim.engine import Simulator

from repro.world.fluid import GREEDY, FluidFlow, FluidNetwork

KB = 1024
MB = 1024 * KB

#: Sampler registry: name -> factory(params) -> sampler(rng) -> bytes.
SamplerFn = Callable[[random.Random], int]


def _paper_split(params: Dict[str, str]) -> SamplerFn:
    """The paper's small/large mix: mostly short flows, few bulk ones.

    Small flows are log-uniform on [8 KB, 512 KB] (web objects), large
    flows log-uniform on [4 MB, 32 MB] (the bulk-download regime the
    figures measure); ``p_large`` controls the mix.
    """
    p_large = float(params.pop("p_large", 0.12))
    small_lo = int(params.pop("small_lo", 8 * KB))
    small_hi = int(params.pop("small_hi", 512 * KB))
    large_lo = int(params.pop("large_lo", 4 * MB))
    large_hi = int(params.pop("large_hi", 32 * MB))

    def sample(rng: random.Random) -> int:
        if rng.random() < p_large:
            lo, hi = large_lo, large_hi
        else:
            lo, hi = small_lo, small_hi
        return int(lo * (hi / lo) ** rng.random())

    return sample


def _lognormal(params: Dict[str, str]) -> SamplerFn:
    mu = float(params.pop("mu", 11.5))
    sigma = float(params.pop("sigma", 1.5))
    cap = int(params.pop("cap", 64 * MB))

    def sample(rng: random.Random) -> int:
        size = int(rng.lognormvariate(mu, sigma))
        return max(1 * KB, min(size, cap))

    return sample


SIZE_DISTRIBUTIONS: Dict[str, Callable[[Dict[str, str]], SamplerFn]] = {
    "paper-split": _paper_split,
    "lognormal": _lognormal,
}


def make_size_sampler(spec: str) -> SamplerFn:
    """Build a flow-size sampler from a spec string.

    ``"paper-split"``, ``"lognormal:mu=9.6,sigma=1.0"``, ... -- same
    syntax as the scheduler registry.  Raises ``ValueError`` for
    unknown names or parameters.
    """
    name, params = parse_strategy(spec)
    factory = SIZE_DISTRIBUTIONS.get(name)
    if factory is None:
        known = ", ".join(sorted(SIZE_DISTRIBUTIONS))
        raise ValueError(
            f"unknown size distribution {name!r}; expected one of {known}")
    sampler = factory(params)
    if params:
        extra = ", ".join(sorted(params))
        raise ValueError(
            f"unknown parameter(s) {extra} for size distribution {name!r}")
    return sampler


class ArrivalProcess:
    """Base: owns the pick-a-route / pick-a-size draws and stop logic."""

    def __init__(self, sim: Simulator, fluid: FluidNetwork,
                 rng: random.Random,
                 routes: Sequence[Tuple[str, ...]],
                 sampler: SamplerFn,
                 desired_bw: float = GREEDY,
                 stop_when: Optional[Callable[[], bool]] = None) -> None:
        if not routes:
            raise ValueError("arrival process needs at least one route")
        self.sim = sim
        self.fluid = fluid
        self.rng = rng
        self.routes = [tuple(route) for route in routes]
        self.sampler = sampler
        self.desired_bw = desired_bw
        #: When set and true, no further flows are generated -- this is
        #: how a Measurement drains the world once the foreground flow
        #: completes, so ``sim.run()`` terminates without a timeout.
        self.stop_when = stop_when
        self.stopped = False

    def _should_stop(self) -> bool:
        if self.stopped:
            return True
        if self.stop_when is not None and self.stop_when():
            self.stopped = True
            return True
        return False

    def _draw(self) -> Tuple[int, Tuple[str, ...]]:
        """One arrival's randomness, in fixed order: size then route."""
        size = self.sampler(self.rng)
        if len(self.routes) == 1:
            route = self.routes[0]
        else:
            route = self.routes[self.rng.randrange(len(self.routes))]
        return size, route

    def start(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Open loop: flows arrive at ``rate`` per second, forever (or
    until ``stop_when`` fires)."""

    def __init__(self, sim: Simulator, fluid: FluidNetwork,
                 rng: random.Random,
                 routes: Sequence[Tuple[str, ...]],
                 sampler: SamplerFn, rate: float,
                 desired_bw: float = GREEDY,
                 stop_when: Optional[Callable[[], bool]] = None) -> None:
        super().__init__(sim, fluid, rng, routes, sampler,
                         desired_bw, stop_when)
        if rate <= 0.0:
            raise ValueError("Poisson arrival rate must be positive")
        self.rate = rate

    def start(self) -> None:
        self.sim.post(self.rng.expovariate(self.rate), self._arrive)

    def _arrive(self) -> None:
        if self._should_stop():
            return
        size, route = self._draw()
        self.fluid.start_flow(route, size, desired_bw=self.desired_bw)
        self.sim.post(self.rng.expovariate(self.rate), self._arrive)


class ClosedLoopUsers(ArrivalProcess):
    """Closed loop: ``users`` independent think/download cycles.

    With ``think_mean == 0`` a completed download starts the next one
    immediately (no event, no RNG draw for the think time), keeping
    exactly ``users`` flows in flight at all times.
    """

    def __init__(self, sim: Simulator, fluid: FluidNetwork,
                 rng: random.Random,
                 routes: Sequence[Tuple[str, ...]],
                 sampler: SamplerFn, users: int,
                 think_mean: float = 2.0,
                 desired_bw: float = GREEDY,
                 stop_when: Optional[Callable[[], bool]] = None) -> None:
        super().__init__(sim, fluid, rng, routes, sampler,
                         desired_bw, stop_when)
        if users <= 0:
            raise ValueError("closed loop needs a positive population")
        self.users = users
        self.think_mean = think_mean

    def start(self) -> None:
        """Kick off every user; one solver pass for the whole batch."""
        if self.think_mean > 0.0:
            for _ in range(self.users):
                self.sim.post(self.rng.expovariate(1.0 / self.think_mean),
                              self._begin_download)
            return
        with self.fluid.batch():
            for _ in range(self.users):
                self._start_flow()

    def _begin_download(self) -> None:
        if self._should_stop():
            return
        self._start_flow()

    def _start_flow(self) -> None:
        size, route = self._draw()
        self.fluid.start_flow(route, size, desired_bw=self.desired_bw,
                              on_complete=self._on_complete)

    def _on_complete(self, flow: FluidFlow) -> None:
        if self._should_stop():
            return
        if self.think_mean > 0.0:
            self.sim.post(self.rng.expovariate(1.0 / self.think_mean),
                          self._begin_download)
        else:
            self._start_flow()
