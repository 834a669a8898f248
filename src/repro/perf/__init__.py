"""Performance instrumentation and profiling helpers.

This subpackage exists so the hot-path optimizations stay measurable:

* :class:`~repro.perf.instrumentation.Instrumentation` -- per-phase
  wall-clock timers, engine counters (events/sec, pool reuses, heap
  high-water mark), and opt-in :mod:`tracemalloc` allocation tracking.
* :func:`~repro.perf.profiling.profile_to` -- context manager writing
  a :mod:`cProfile`/pstats dump, surfaced as the CLI ``--profile``
  flag.

Wall clock is measured by ``perfbench/`` at the repository root (see
``docs/performance.md``).
"""

from repro.perf.instrumentation import (
    Instrumentation,
    NULL_INSTRUMENTATION,
    NullInstrumentation,
)
from repro.perf.profiling import profile_to, render_profile

__all__ = [
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "NullInstrumentation",
    "profile_to",
    "render_profile",
]
