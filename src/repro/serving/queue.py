"""Bounded, priority-ordered admission queue with deterministic eviction.

The queue is the server's backpressure mechanism: depth is capped, and
when full a newly arriving request is admitted only by *displacing* a
strictly lower-priority resident.  Ordering is a total deterministic key
— ``(-priority, arrival_s, request_id)`` — so two runs with the same
arrival schedule pop identical batches.

Eviction order is deterministic **by construction**, not by accident of
id assignment: every insertion is stamped with a monotonically
increasing admission sequence number, and the victim of a displacement
is the *last-admitted* resident of the lowest-priority tier.  Among
equal-priority, equal-age residents this is a total order that depends
only on the order the server admitted them (which replay reproduces
exactly), never on how external id generators happened to number the
requests — important once arrivals are merged from many per-tenant
streams.  Earlier peers of equal rank therefore always keep their
place: the newest arrival at the bottom tier has had the least time
invested and displacing it reorders the least.
"""

from __future__ import annotations

import bisect
import math

from repro.errors import ServingError
from repro.serving.request import InferenceRequest


def _order_key(req: InferenceRequest) -> tuple:
    return (-req.priority, req.arrival_s, req.request_id)


class AdmissionQueue:
    """Depth-bounded priority queue of pending requests."""

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise ServingError(f"queue depth must be >= 1, got {max_depth}")
        self.max_depth = int(max_depth)
        self._keys: list[tuple] = []
        self._items: list[InferenceRequest] = []
        #: Admission sequence per resident, aligned with ``_items``.
        self._seqs: list[int] = []
        #: Deadline per resident (inf for best-effort), aligned with
        #: ``_items`` — lets :meth:`drop_hopeless` skip its scan.
        self._deadlines: list[float] = []
        #: ``min(_deadlines)``, or None once the resident holding it left.
        self._earliest: float | None = math.inf
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """True when the queue is at its depth bound."""
        return len(self._items) >= self.max_depth

    def peek(self) -> InferenceRequest | None:
        """Highest-ranked pending request, or None when empty."""
        return self._items[0] if self._items else None

    def push(self, request: InferenceRequest) -> None:
        """Insert below the depth bound (use :meth:`offer` at the edge)."""
        if self.full:
            raise ServingError("queue full; admission must go through offer()")
        key = _order_key(request)
        index = bisect.bisect_left(self._keys, key)
        self._keys.insert(index, key)
        self._items.insert(index, request)
        self._seqs.insert(index, self._next_seq)
        deadline = math.inf if request.deadline_s is None else request.deadline_s
        self._deadlines.insert(index, deadline)
        self._next_seq += 1
        if self._earliest is not None and deadline < self._earliest:
            self._earliest = deadline

    def _victim_index(self) -> int:
        """Index of the displacement victim: last-admitted of the lowest tier.

        The lowest-priority tier is the suffix of the sorted queue, so
        bisect to its start and take its largest admission seq.
        """
        start = bisect.bisect_left(self._keys, self._keys[-1][:1])
        seqs = self._seqs[start:]
        return start + seqs.index(max(seqs))

    def offer(
        self, request: InferenceRequest
    ) -> tuple[bool, InferenceRequest | None]:
        """Try to admit ``request``; returns ``(admitted, evicted)``.

        Below the bound: admitted, nothing evicted.  At the bound: the
        lowest-priority resident is evicted iff the newcomer strictly
        outranks it; otherwise the newcomer is refused.  Ties within the
        lowest tier break on admission order (last admitted goes) — see
        the module docstring for why that, and not request id, is the
        replay-stable choice.
        """
        if not self.full:
            self.push(request)
            return True, None
        index = self._victim_index()
        victim = self._items[index]
        if request.priority <= victim.priority:
            return False, None
        self._delete(index)
        self.push(request)
        return True, victim

    def _delete(self, index: int) -> None:
        if self._deadlines[index] == self._earliest:
            self._earliest = None
        del self._keys[index]
        del self._items[index]
        del self._seqs[index]
        del self._deadlines[index]

    def pop_batch(self, limit: int) -> list[InferenceRequest]:
        """Pop up to ``limit`` requests in priority order."""
        if limit < 1:
            raise ServingError(f"batch limit must be >= 1, got {limit}")
        taken = self._items[:limit]
        if self._earliest in self._deadlines[:limit]:
            self._earliest = None
        del self._items[:limit]
        del self._keys[:limit]
        del self._seqs[:limit]
        del self._deadlines[:limit]
        return taken

    def drop_hopeless(
        self, now_s: float, min_service_s: float
    ) -> list[InferenceRequest]:
        """Remove queued requests that can no longer meet their deadline.

        A request is hopeless once even an immediate solo dispatch would
        finish past its deadline — the "early shedding" half of deadline
        enforcement: capacity is never spent on work that is already lost.

        The scan runs only when the earliest deadline is hopeless: IEEE
        subtraction is monotone, so if ``min(deadlines) - now_s`` still
        covers ``min_service_s``, every later deadline does too.  The
        minimum is queue state (``push`` lowers it; it is recomputed on
        the first check after the resident holding it leaves), so the
        check is O(1) between departures.
        """
        earliest = self._earliest
        if earliest is None:
            earliest = self._earliest = min(self._deadlines, default=math.inf)
        if earliest - now_s >= min_service_s:
            return []
        kept_keys: list[tuple] = []
        kept_items: list[InferenceRequest] = []
        kept_seqs: list[int] = []
        kept_deadlines: list[float] = []
        dropped: list[InferenceRequest] = []
        for key, req, seq, deadline in zip(
            self._keys, self._items, self._seqs, self._deadlines
        ):
            if req.slack_s(now_s) < min_service_s:
                dropped.append(req)
            else:
                kept_keys.append(key)
                kept_items.append(req)
                kept_seqs.append(seq)
                kept_deadlines.append(deadline)
        self._keys, self._items, self._seqs = kept_keys, kept_items, kept_seqs
        self._deadlines = kept_deadlines
        self._earliest = None
        return dropped

    def snapshot(self) -> tuple[InferenceRequest, ...]:
        """Pending requests in pop order (for reports/tests)."""
        return tuple(self._items)
