"""Continuous/dynamic batch formation for in-flight requests.

The :class:`BatchFormer` implements the standard continuous-batching
contract of online inference engines: requests accumulate while the
server is busy, and the next batch **closes** at the earliest of

* **fill** — ``max_batch_size`` requests are available;
* **deadline** — the first admissible request has waited
  ``max_wait_ns`` since it became eligible (the later of its arrival
  and the server becoming free);
* **drain** — no further arrivals exist, so waiting longer cannot
  grow the batch.

Everything runs on the integer-nanosecond virtual timeline of
:mod:`repro.serve.arrivals`, so batch composition is a deterministic
function of the arrival trace and the (deterministic, model-priced)
service times — never of wall-clock noise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.arrivals import Request

__all__ = ["Batch", "BatchFormer"]


@dataclass(frozen=True)
class Batch:
    """One closed batch: its members and the instants that define the
    members' queueing spans.

    ``free_ns`` is when the server became free (members that arrived
    earlier spend ``free_ns - arrival`` in the ``queue`` span);
    ``close_ns`` is when the batch former closed the batch (the
    remainder up to ``close_ns`` is the ``batch_wait`` span).
    """

    batch_id: int
    requests: tuple[Request, ...]
    free_ns: int
    close_ns: int

    @property
    def tokens(self) -> int:
        return sum(r.tokens for r in self.requests)

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a batch needs at least one request")
        if self.close_ns < self.free_ns:
            raise ValueError(
                f"close_ns {self.close_ns} precedes free_ns "
                f"{self.free_ns}")
        late = [r for r in self.requests if r.arrival_ns > self.close_ns]
        if late:
            raise ValueError(
                f"request {late[0].request_id} arrives after the "
                f"batch closed")


class BatchFormer:
    """Stateless batch-closing policy over a sorted arrival trace."""

    def __init__(self, max_batch_size: int, max_wait_ns: int) -> None:
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ns < 0:
            raise ValueError(
                f"max_wait_ns must be >= 0, got {max_wait_ns}")
        self.max_batch_size = max_batch_size
        self.max_wait_ns = max_wait_ns

    def next_batch(self, requests: list[Request], start: int,
                   free_ns: int, batch_id: int) -> Batch:
        """Close the next batch from ``requests[start:]``.

        ``free_ns`` is the virtual instant the server became free.
        ``requests`` must be sorted by arrival.  Returns the closed
        :class:`Batch`; the caller advances ``start`` by its size.
        """
        if start >= len(requests):
            raise ValueError("no requests left to batch")
        first = requests[start]
        # The first member is admissible from the later of its arrival
        # and the server going idle; its max-wait clock starts there.
        eligible_ns = max(free_ns, first.arrival_ns)
        deadline_ns = eligible_ns + self.max_wait_ns
        members = [first]
        for i in range(start + 1,
                       min(len(requests), start + self.max_batch_size)):
            if requests[i].arrival_ns > deadline_ns:
                break
            members.append(requests[i])
        last_arrival = members[-1].arrival_ns
        if len(members) >= self.max_batch_size:
            close_ns = max(eligible_ns, last_arrival)     # fill
        elif start + len(members) >= len(requests):
            close_ns = max(eligible_ns, last_arrival)     # drain
        else:
            close_ns = deadline_ns                        # deadline
        return Batch(batch_id=batch_id, requests=tuple(members),
                     free_ns=free_ns, close_ns=close_ns)
