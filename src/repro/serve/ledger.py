"""The per-request latency ledger (integer-nanosecond accounting).

Every request's end-to-end latency is decomposed into six spans::

    queue      | waiting for the server to go idle (prior batches)
    batch_wait | waiting for the batch former to close the batch
    gate       | routing decisions of every MoE layer
    dispatch   | capacity-bucketed encode (the All-to-All analogue)
    expert_ffn | the expert FFN GEMMs
    combine    | gather-and-weigh decode

The last four are :data:`repro.obs.MOE_STAGES`, the names the layer's
stage clocks record under.

The ledger keeps **two columns per request** (HetuMoE methodology:
measured and modeled latency must stay separate, comparable columns):

* ``model_spans`` — deterministic simulator-priced stage durations;
  these drive the virtual clock, so batch composition and the modeled
  percentiles are bit-stable across machines;
* ``spans`` — measured wall-clock stage durations of the real NumPy
  kernels serving the batch.

**Conservation is exact, not approximate.**  All durations are integer
nanoseconds, so

* per request, the six spans sum *exactly* to the recorded end-to-end
  latency (both columns), and
* per batch and stage, the token-weighted attributed shares of the
  members sum *exactly* to the batch's stage wall
  (:func:`attribute_shares` distributes the integer remainder by
  largest fractional part, first-come on ties).

Floating point only appears at the reporting boundary (seconds,
milliseconds), never inside the ledger arithmetic — which is why the
conservation property tests hold bit-exactly under both the float32
and float64 substrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.obs import MOE_STAGES
from repro.serve.batcher import Batch

__all__ = ["STAGES", "EXEC_STAGES", "RequestLedger", "BatchLedger",
           "attribute_shares", "stage_sum", "build_batch_ledger"]

#: The spans measured while the batch executes (MoE stage walls).
EXEC_STAGES = MOE_STAGES

#: The six spans of a request's life, in timeline order.
STAGES = ("queue", "batch_wait") + EXEC_STAGES

_GATE, _DISPATCH, _EXPERT_FFN, _COMBINE = EXEC_STAGES


def stage_sum(spans: Mapping[str, int]) -> int:
    """Sum of the six spans (exact — integer nanoseconds)."""
    return sum(int(spans[s]) for s in STAGES)


def attribute_shares(wall_ns: int,
                     token_counts: Sequence[int]) -> list[int]:
    """Split one batch stage wall across members by token share.

    Returns integer nanoseconds per member summing *exactly* to
    ``wall_ns``: each member gets ``floor(wall * tokens / total)`` and
    the remainder is distributed one nanosecond at a time by largest
    fractional part (earliest member wins ties), so attribution is
    deterministic and conservative.
    """
    if wall_ns < 0:
        raise ValueError(f"wall_ns must be >= 0, got {wall_ns}")
    if not token_counts:
        raise ValueError("token_counts must be non-empty")
    if min(token_counts) < 1:
        raise ValueError("every member must carry >= 1 token")
    total = sum(token_counts)
    shares = []
    remainders = []
    for t in token_counts:
        share, rem = divmod(wall_ns * t, total)
        shares.append(share)
        remainders.append(rem)
    leftover = wall_ns - sum(shares)
    if leftover:
        # Largest fractional part first; the stable sort keeps the
        # earlier member first on ties (FIFO).
        for i in sorted(range(len(shares)), key=remainders.__getitem__,
                        reverse=True)[:leftover]:
            shares[i] += 1
    return shares


@dataclass(frozen=True)
class RequestLedger:
    """One request's fully attributed life, both columns."""

    request_id: int
    batch_id: int
    tokens: int
    arrival_ns: int
    close_ns: int
    spans: dict[str, int]          # measured column
    model_spans: dict[str, int]    # simulator-priced column
    shares: dict[str, int]         # measured cost attribution
    model_shares: dict[str, int]   # modeled cost attribution

    @property
    def e2e_ns(self) -> int:
        """Measured end-to-end latency (== exact sum of ``spans``)."""
        return stage_sum(self.spans)

    @property
    def model_e2e_ns(self) -> int:
        """Modeled end-to-end latency (== exact sum of
        ``model_spans``); this is the quantity the deterministic SLO
        percentiles are computed from."""
        return stage_sum(self.model_spans)

    def event_data(self) -> dict:
        """The run registry's ``serve_request`` event."""
        return {"request": self.request_id, "batch": self.batch_id,
                "tokens": self.tokens,
                "arrival_ms": self.arrival_ns / 1e6,
                "e2e_model_ms": self.model_e2e_ns / 1e6,
                "e2e_measured_ms": self.e2e_ns / 1e6,
                "model_spans_ns": dict(self.model_spans),
                "model_shares_ns": dict(self.model_shares)}


@dataclass(frozen=True)
class BatchLedger:
    """One executed batch: stage walls plus its members' ledgers."""

    batch_id: int
    close_ns: int
    queue_depth: int               # waiting requests at close time
    walls: dict[str, int]          # measured stage walls
    model_walls: dict[str, int]    # modeled stage walls
    requests: tuple[RequestLedger, ...]

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def tokens(self) -> int:
        return sum(r.tokens for r in self.requests)

    @property
    def service_ns(self) -> int:
        """Modeled service time (advances the virtual clock)."""
        return sum(self.model_walls[s] for s in EXEC_STAGES)

    @property
    def measured_service_ns(self) -> int:
        return sum(self.walls[s] for s in EXEC_STAGES)

    @property
    def done_ns(self) -> int:
        """Virtual completion instant of every member."""
        return self.close_ns + self.service_ns


def build_batch_ledger(batch: Batch, walls: Mapping[str, int],
                       model_walls: Mapping[str, int],
                       queue_depth: int) -> BatchLedger:
    """Assemble the ledgers of one executed batch.

    ``walls``/``model_walls`` map each of :data:`EXEC_STAGES` to the
    batch's measured / modeled stage wall in integer nanoseconds.
    Every member request waits for the whole batch, so its four
    execution spans equal the batch walls; its ``queue`` and
    ``batch_wait`` spans partition ``[arrival, close)`` exactly.
    """
    # Each wall converted to int once, checked in the order it is read.
    checked = []
    for name, mapping in (("walls", walls),
                          ("model_walls", model_walls)):
        ints = {}
        for s in EXEC_STAGES:
            ints[s] = int(mapping[s])
            if ints[s] < 0:
                raise ValueError(f"{name}[{s!r}] must be >= 0")
        checked.append(ints)
    stage_walls, stage_model_walls = checked
    token_counts = [r.tokens for r in batch.requests]
    # Per member, one tuple of its share of each stage wall.
    shares = zip(*[attribute_shares(w, token_counts)
                   for w in stage_walls.values()])
    model_shares = zip(*[attribute_shares(w, token_counts)
                         for w in stage_model_walls.values()])
    batch_id, free_ns, close_ns = (batch.batch_id, batch.free_ns,
                                   batch.close_ns)
    ledgers = []
    for r, (g, d, f, c), (mg, md, mf, mc) in zip(batch.requests, shares,
                                                  model_shares):
        queue = max(0, free_ns - r.arrival_ns)
        batch_wait = (close_ns - r.arrival_ns) - queue
        ledgers.append(RequestLedger(
            request_id=r.request_id, batch_id=batch_id,
            tokens=r.tokens, arrival_ns=r.arrival_ns, close_ns=close_ns,
            spans={"queue": queue, "batch_wait": batch_wait,
                   **stage_walls},
            model_spans={"queue": queue, "batch_wait": batch_wait,
                         **stage_model_walls},
            shares={_GATE: g, _DISPATCH: d, _EXPERT_FFN: f, _COMBINE: c},
            model_shares={_GATE: mg, _DISPATCH: md, _EXPERT_FFN: mf,
                          _COMBINE: mc}))
    return BatchLedger(
        batch_id=batch_id, close_ns=close_ns, queue_depth=queue_depth,
        walls=stage_walls, model_walls=stage_model_walls,
        requests=tuple(ledgers))
