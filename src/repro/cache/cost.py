"""Cost-aware dispatch: estimate, order and batch campaign cells.

Plan-order submission leaves a worker pool tail-bound on stragglers: a
fig09-style 16 MB MPTCP cell costs roughly an order of magnitude more
wall clock than a fig02-style 2 MB cell, and the per-round shuffle the
paper mandates scatters the expensive cells randomly through the plan,
so the last worker regularly picks up a 16 MB run when everyone else
is already done.  Submitting longest-job-first (the classical LPT
heuristic) kills that tail; batching the *tiny* cells into chunks
amortizes per-task pickling/IPC overhead.

Neither decision can change a single result byte — results are
reassembled by plan position — so the cost model only has to be
*roughly* right.  Estimates come from, in order of preference:

1. Observed wall times for the exact ``(identity, size)`` — from a
   previous campaign's run log (:meth:`CostModel.from_run_log`) or
   from runs completed earlier in this invocation
   (:meth:`CostModel.observe`).
2. Observed wall times for the same identity at another size, scaled
   linearly (simulation cost is dominated by per-packet work).
3. A seconds-scale heuristic: fixed setup cost plus
   ``size x FlowSpec.cost_weight`` per-byte cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Heuristic constants, loosely calibrated on the development machine.
#: Last re-timed against the current packet path: a 2 MB SP-WiFi run
#: ~0.09 s, a 2 MB MP-2 run ~0.14 s, a 16 MB SP-WiFi run ~0.54 s, for
#: which these constants say 0.11 / 0.18 / 0.70 s -- high by a quarter
#: and in the same order.  Only the *ranking* of cells matters for
#: dispatch, not the absolute scale, so they stay.
SETUP_COST_S = 0.03
PER_BYTE_COST_S = 4.0e-8

#: Cells estimated below this are "tiny": their per-task dispatch
#: overhead (descriptor pickling, future bookkeeping, IPC) is a
#: visible fraction of their runtime, so they are batched into chunks.
#: Cells at or above it always travel alone to keep the pool balanced.
TINY_COST_S = 0.25


class CostModel:
    """Seconds-scale wall-clock estimates for campaign cells."""

    def __init__(self) -> None:
        #: ``(identity, size) -> (total_seconds, samples)`` running sums.
        self._observed: Dict[Tuple[str, int], Tuple[float, int]] = {}

    # ------------------------------------------------------------------
    # Calibration inputs
    # ------------------------------------------------------------------

    @classmethod
    def from_run_log(cls, path) -> "CostModel":
        """Calibrate from a telemetry run log's finish records."""
        from repro.obs.telemetry import run_log_wall_times
        model = cls()
        try:
            observed = run_log_wall_times(path)
        except OSError:
            return model
        for key, samples in observed.items():
            for wall_s in samples:
                model._record(key, wall_s)
        return model

    def observe(self, descriptor, wall_s: float) -> None:
        """Feed one completed run's wall time back into the model."""
        key = self._key(descriptor)
        if key is not None:
            self._record(key, wall_s)

    def _record(self, key: Tuple[str, int], wall_s: float) -> None:
        total, count = self._observed.get(key, (0.0, 0))
        self._observed[key] = (total + wall_s, count + 1)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    @staticmethod
    def _key(descriptor) -> Optional[Tuple[str, int]]:
        spec = getattr(descriptor, "spec", None)
        size = getattr(descriptor, "size", None)
        if spec is None or size is None:
            return None
        return (spec.identity, size)

    def estimate(self, descriptor) -> float:
        """Estimated wall seconds for one cell (never raises)."""
        key = self._key(descriptor)
        if key is None:
            return SETUP_COST_S
        exact = self._observed.get(key)
        if exact is not None:
            total, count = exact
            return total / count
        identity, size = key
        # Same configuration at another size: scale the per-byte part.
        nearest = None
        for (other_identity, other_size), (total, count) \
                in self._observed.items():
            if other_identity != identity or other_size <= 0:
                continue
            if nearest is None or abs(other_size - size) < \
                    abs(nearest[0] - size):
                nearest = (other_size, total / count)
        if nearest is not None:
            other_size, mean = nearest
            per_byte = max(mean - SETUP_COST_S, 0.0) / other_size
            return SETUP_COST_S + per_byte * size
        weight = getattr(getattr(descriptor, "spec", None),
                         "cost_weight", 1.0)
        return SETUP_COST_S + size * PER_BYTE_COST_S * weight


# ----------------------------------------------------------------------
# Ordering and chunking
# ----------------------------------------------------------------------

def order_longest_first(positions: Sequence[int], plan: Sequence,
                        model: CostModel) -> List[int]:
    """Pending plan positions, most expensive first.

    Ties (and the common all-equal case) keep plan order, so the
    submission sequence is a pure function of the plan and the model.
    """
    estimates = {position: model.estimate(plan[position])
                 for position in positions}
    return sorted(positions,
                  key=lambda position: (-estimates[position], position))


def chunk_positions(order: Sequence[int], plan: Sequence,
                    model: CostModel, chunk: int,
                    tiny_cost_s: float = TINY_COST_S,
                    ) -> List[List[int]]:
    """Partition an ordered position list into submission tasks.

    ``chunk <= 1`` disables batching (every task is one cell).
    Otherwise cells estimated under ``tiny_cost_s`` are packed, up to
    ``chunk`` per task, in the given order; expensive cells always go
    alone.  Deterministic: a pure function of its inputs.
    """
    if chunk <= 1:
        return [[position] for position in order]
    tasks: List[List[int]] = []
    current: List[int] = []
    for position in order:
        if model.estimate(plan[position]) >= tiny_cost_s:
            tasks.append([position])
            continue
        current.append(position)
        if len(current) >= chunk:
            tasks.append(current)
            current = []
    if current:
        tasks.append(current)
    return tasks


def build_tasks(pending: Sequence[int], plan: Sequence,
                model: CostModel, chunk: int,
                workers: int) -> List[List[int]]:
    """The full dispatch pipeline: order, cap the chunk size, batch.

    The chunk size is capped so batching can never starve the pool:
    with few pending cells a large ``--chunk`` would otherwise fuse
    the whole campaign into fewer tasks than there are workers.
    """
    order = order_longest_first(pending, plan, model)
    if workers > 0:
        chunk = min(chunk, max(1, len(pending) // workers))
    return chunk_positions(order, plan, model, chunk)
