"""Routing provenance: token-path recording, affinity mining, and the
placement-aware cross-node hop ledger (``repro.obs.routing``).

Tutel's adaptive parallelism switches layouts on coarse signals, but
the all-to-all cost is ultimately set by *where tokens go*: which
experts fire together across layers, and how many token-hops cross a
node boundary under the current expert placement.  This module is the
observational half of a MoETuner-style placement optimizer:

* :class:`RoutingRecorder` counts one step/batch: per layer, the
  post-drop *dispatched* slots bucketed by token source, and the
  layer-to-layer expert-transition counts (the affinity matrix: how
  many tokens whose primary expert was ``i`` at layer ``l`` had
  primary expert ``j`` at layer ``l+1``).  The loop adds them to each
  layer's ``routing`` event in the run registry
  (:mod:`repro.obs.runs`) beside its routed-token ``expert_load``;
* :func:`profile_from_events` sums any recorded stream's counted
  ``routing`` events into a :class:`RoutingProfile`;
* :func:`hop_ledger` attributes every dispatched token of a profile to
  an intra-GPU / intra-node / inter-node hop under a given
  :class:`~repro.parallel.placement.ExpertPlacement` and
  :class:`~repro.cluster.topology.ClusterTopology`, and prices the
  inter-node bytes with the topology's link coefficients (pass a
  calibrated topology's ``at_world`` result to price on fitted ones);
* :func:`whatif_placements` re-prices the *same* recorded traffic
  under alternative placements (round-robin vs ``count_per_node``
  variants) without re-running the model.

Source-bucket convention
------------------------
Recording happens without knowing the eventual world size, so each
layer's dispatched counts are bucketed by token residue
``t % SRC_BUCKETS``.  At scoring time the source GPU of a token is its
data-parallel home rank ``t % num_gpus``; this is recoverable from the
bucket exactly when ``num_gpus`` divides :data:`SRC_BUCKETS`, which is
the invariant :func:`hop_ledger` enforces.  For sharded placements the
destination shard of a dispatched token is the deterministic
``hosts[src_gpu % shards]`` stripe — every surviving slot is exactly
one token-hop, so the ledger's three classes always sum to the total
dispatched (post-drop) slot count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.cluster.topology import ClusterTopology
from repro.moe.gating import RoutingCriteria
from repro.moe.metrics import load_gini
from repro.obs import get_ledger, perf_ns
from repro.parallel.placement import (
    ExpertPlacement,
    build_placement,
    round_robin_placement,
)

__all__ = [
    "ROUTING_ARTIFACT",
    "SRC_BUCKETS",
    "RoutingRecorder",
    "RoutingProfile",
    "HopLedger",
    "PlacementScore",
    "profile_from_events",
    "hop_ledger",
    "dispatch_schedule",
    "whatif_placements",
    "candidate_placements",
    "SYNTHETIC_SHAPE",
    "synthetic_profile",
    "routing_metrics",
    "emit_routing",
    "render_routing",
]

#: Token-source residue classes recorded per layer.  A placement with
#: ``num_gpus`` dividing this (1, 2, 4, 8, 16) can be re-priced exactly
#: from recorded traffic; others raise in :func:`hop_ledger`.
SRC_BUCKETS = 16


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------

class RoutingRecorder:
    """Turns one batch's routing decisions into per-layer counts.

    ``observe_batch`` takes the :class:`RoutingCriteria` of every MoE
    layer for one batch, in layer order, and returns that batch's
    integer counts, one dict per layer, which the loop merges into
    the layer's ``routing`` event.  The recorder keeps no totals:
    readers sum the events.  All counts are exact integers, so two
    runs with the same seed produce bit-identical records.
    """

    def __init__(self, num_layers: int, num_experts: int) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        if num_experts < 1:
            raise ValueError(
                f"num_experts must be >= 1, got {num_experts}")
        self.num_layers = num_layers
        self.num_experts = num_experts

    def observe_batch(self,
                      crits: Sequence[RoutingCriteria]) -> list[dict]:
        """One batch's counts per layer: ``tokens``, the post-drop
        ``dispatched`` slots by (source bucket, expert) and, for every
        layer but the last, the primary-route ``transitions``
        (expert here, expert at the next layer)."""
        led = get_ledger()
        t0 = perf_ns() if led is not None else 0
        counts = self._count(crits)
        if led is not None:
            led.add("routing", perf_ns() - t0)
        return counts

    def _count(self, crits: Sequence[RoutingCriteria]) -> list[dict]:
        if len(crits) != self.num_layers:
            raise ValueError(
                f"expected {self.num_layers} layer criteria, "
                f"got {len(crits)}")
        e = self.num_experts
        tokens = crits[0].num_tokens
        out = []
        for li, crit in enumerate(crits):
            if crit.num_experts != e:
                raise ValueError(
                    f"layer {li} routes over {crit.num_experts} "
                    f"experts, recorder has {e}")
            if crit.num_tokens != tokens:
                raise ValueError(
                    f"layer {li} saw {crit.num_tokens} tokens, "
                    f"layer 0 saw {tokens}")
            plan = crit.plan
            cell = ((plan.tokens % SRC_BUCKETS) * e
                    + np.take(crit.idxs, plan.pos))
            counts = {"tokens": tokens, "dispatched": np.bincount(
                cell, minlength=SRC_BUCKETS * e).reshape(
                    SRC_BUCKETS, e).tolist()}
            if li + 1 < self.num_layers:
                # Affinity counts the primary (rank-0) route of each
                # token at consecutive layers; secondary top-k routes
                # show in the load but not the transition matrix.
                pair = crit.idxs[0] * e + crits[li + 1].idxs[0]
                counts["transitions"] = np.bincount(
                    pair, minlength=e * e).reshape(e, e).tolist()
            out.append(counts)
        return out


# ----------------------------------------------------------------------
# The aggregated profile
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RoutingProfile:
    """Aggregated routing provenance of one run.

    ``loads`` is ``(L, E)`` routed-slot counts (dropped included);
    ``dispatched`` is ``(L, SRC_BUCKETS, E)`` post-drop counts bucketed
    by token source; ``transitions`` is ``(L-1, E, E)`` primary-route
    transition counts.  All integer arrays.
    """

    num_layers: int
    num_experts: int
    loads: np.ndarray
    dispatched: np.ndarray
    transitions: np.ndarray
    batches: int
    tokens: int

    @property
    def total_dispatched(self) -> int:
        """Post-drop (token, slot) routes summed over all layers."""
        return int(self.dispatched.sum())

    @property
    def dropped_slots(self) -> int:
        return int(self.loads.sum()) - self.total_dispatched

    def load_gini(self) -> float:
        """Gini of the per-(layer, expert) routed load."""
        return load_gini(self.loads.reshape(-1))

    def affinity(self) -> np.ndarray:
        """The ``(E, E)`` transition matrix summed over layer pairs."""
        if self.transitions.size == 0:
            return np.zeros((self.num_experts, self.num_experts),
                            dtype=np.int64)
        return self.transitions.sum(axis=0)

    def self_affinity_fraction(self) -> float:
        """Share of transitions that stay on the same expert index —
        the diagonal mass MoETuner's co-placement argument keys on."""
        total = int(self.transitions.sum())
        if total == 0:
            return 0.0
        return float(np.trace(self.affinity())) / total


def profile_from_events(events: Iterable[Mapping]) -> RoutingProfile:
    """Sum a run's counted ``routing`` events into its profile.

    Each counted event holds one layer's counts for one batch, so any
    prefix of a stream profiles exactly the batches it holds, and a
    resumed run (whose compaction dropped the replayed steps) keeps
    its pre-resume traffic.  A batch is one layer-0 event.  Raises
    ``ValueError`` when the stream has no counted ``routing`` events.
    """
    loads: dict[int, np.ndarray] = {}
    dispatched: dict[int, np.ndarray] = {}
    transitions: dict[int, np.ndarray] = {}
    batches = tokens = num_experts = 0
    for event in events:
        data = event.get("data") or {}
        if event.get("kind") != "routing" or "dispatched" not in data:
            continue
        li = int(data["layer"])
        buckets = np.asarray(data["dispatched"], dtype=np.int64)
        num_experts = num_experts or len(data["expert_load"])
        if buckets.shape != (SRC_BUCKETS, num_experts):
            raise ValueError(
                f"routing event at step {event.get('step')} counts "
                f"{buckets.shape} (source bucket, expert) cells, "
                f"expected ({SRC_BUCKETS}, {num_experts}): one "
                f"profile sums one model's routing")
        for into, counts in ((loads, data["expert_load"]),
                             (dispatched, buckets),
                             (transitions, data.get("transitions"))):
            if counts is not None:
                into[li] = into.get(li, 0) + np.asarray(counts,
                                                        dtype=np.int64)
        if li == 0:
            batches += 1
            tokens += int(data["tokens"])
    if not loads:
        raise ValueError("run has no counted routing events (recorded "
                         "without a run, or before routing events "
                         "carried counts)")
    num_layers = max(loads) + 1

    def stack(parts, layers, shape):
        out = np.zeros((layers,) + shape, dtype=np.int64)
        for li, counts in parts.items():
            if li < layers:
                out[li] = counts
        return out

    return RoutingProfile(
        num_layers=num_layers,
        num_experts=num_experts,
        loads=stack(loads, num_layers, (num_experts,)),
        dispatched=stack(dispatched, num_layers,
                         (SRC_BUCKETS, num_experts)),
        transitions=stack(transitions, num_layers - 1,
                          (num_experts, num_experts)),
        batches=batches,
        tokens=tokens)


# ----------------------------------------------------------------------
# The hop ledger
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HopLedger:
    """Every dispatched token attributed to a hop-locality class.

    Counts are exact integers; ``conserves()`` states the invariant the
    property tests pin: the three classes partition the dispatched
    slots, so their sum equals ``total_hops`` exactly (and converting
    the counts through float32/float64 cannot change that — they stay
    integral well below 2**24).
    """

    placement_name: str
    num_gpus: int
    intra_gpu: int
    intra_node: int
    inter_node: int
    inter_node_bytes: int
    intra_node_bytes: int
    #: Per-source-GPU serialized inter-node wire seconds; the headline
    #: ``priced_seconds`` is their max (the bottleneck source GPU),
    #: which equals the cluster simulator's makespan for the same
    #: message set — the agreement the property test checks.
    inter_seconds_by_src: tuple[float, ...] = ()
    per_layer: tuple[tuple[int, int, int], ...] = ()

    @property
    def total_hops(self) -> int:
        return self.intra_gpu + self.intra_node + self.inter_node

    @property
    def priced_seconds(self) -> float:
        if not self.inter_seconds_by_src:
            return 0.0
        return max(self.inter_seconds_by_src)

    def conserves(self, total_dispatched: int) -> bool:
        return self.total_hops == total_dispatched


def _check_world(profile: RoutingProfile, placement: ExpertPlacement,
                 topology: ClusterTopology) -> None:
    if placement.num_global_experts != profile.num_experts:
        raise ValueError(
            f"placement hosts {placement.num_global_experts} experts, "
            f"profile routed over {profile.num_experts}")
    if topology.num_gpus < placement.num_gpus:
        raise ValueError(
            f"topology spans {topology.num_gpus} GPUs, placement "
            f"needs {placement.num_gpus}")
    if SRC_BUCKETS % placement.num_gpus != 0:
        raise ValueError(
            f"num_gpus={placement.num_gpus} does not divide the "
            f"recorded {SRC_BUCKETS} source buckets; the token->source "
            f"map is not recoverable")


def hop_ledger(profile: RoutingProfile, placement: ExpertPlacement,
               topology: ClusterTopology, *,
               bytes_per_token: int,
               name: str = "placement") -> HopLedger:
    """Attribute the profile's dispatched traffic to hop classes.

    A dispatched token's source GPU is its data-parallel home rank
    ``t % num_gpus``; its destination is the GPU hosting the selected
    expert (for sharded experts, the ``hosts[src % shards]`` stripe).
    Each surviving slot is exactly one hop: same GPU → intra-GPU, same
    node → intra-node, else inter-node.  Inter-node bytes are priced on
    ``topology.inter_link`` as one aggregated message per (src, dst)
    pair, serialized per source GPU — pass a calibrated topology to
    price on fitted link coefficients.
    """
    if bytes_per_token < 1:
        raise ValueError(
            f"bytes_per_token must be >= 1, got {bytes_per_token}")
    per_layer, pair_bytes, intra_bytes = _walk_hops(
        profile, placement, topology, bytes_per_token)
    intra_gpu, intra_node, inter_node = (sum(column)
                                         for column in zip(*per_layer))
    by_src = [0.0] * placement.num_gpus
    for (src, _dst), nbytes in sorted(pair_bytes.items()):
        by_src[src] += topology.inter_link.message_time(nbytes)
    return HopLedger(
        placement_name=name,
        num_gpus=placement.num_gpus,
        intra_gpu=intra_gpu,
        intra_node=intra_node,
        inter_node=inter_node,
        inter_node_bytes=sum(pair_bytes.values()),
        intra_node_bytes=intra_bytes,
        inter_seconds_by_src=tuple(by_src),
        per_layer=tuple(per_layer))


def dispatch_schedule(profile: RoutingProfile,
                      placement: ExpertPlacement,
                      topology: ClusterTopology, *,
                      bytes_per_token: int):
    """The ledger's inter-node message set as a simulator Schedule.

    One comm op per (src, dst) GPU pair carrying that pair's aggregated
    dispatch bytes, serialized on the source GPU's comm stream — the
    exact traffic :func:`hop_ledger` prices analytically, in simulable
    form.  ``simulate(schedule).makespan`` equals the ledger's
    ``priced_seconds``; the property test pins that agreement.
    """
    from repro.cluster.simulator import Schedule

    _, pair_bytes, _ = _walk_hops(profile, placement, topology,
                                  bytes_per_token)
    schedule = Schedule()
    for (src, dst), nbytes in sorted(pair_bytes.items()):
        schedule.new_op(
            work=topology.inter_link.message_time(nbytes),
            gpu=src, stream="comm", kind="comm",
            label=f"dispatch/g{src}->g{dst}")
    return schedule


def _walk_hops(profile: RoutingProfile, placement: ExpertPlacement,
               topology: ClusterTopology, bytes_per_token: int):
    """One walk over layers x source buckets x experts: per-layer
    ``(intra_gpu, intra_node, inter_node)`` hops, inter-node bytes per
    ``(src, dst)`` GPU pair, and the intra-node bytes."""
    _check_world(profile, placement, topology)
    num_gpus = placement.num_gpus
    per_layer: list[tuple[int, int, int]] = []
    pair_bytes: dict[tuple[int, int], int] = {}
    intra_bytes = 0
    for li in range(profile.num_layers):
        l_gpu = l_node = l_inter = 0
        for bucket in range(SRC_BUCKETS):
            src = bucket % num_gpus
            row = profile.dispatched[li, bucket]
            for expert in range(profile.num_experts):
                count = int(row[expert])
                if count == 0:
                    continue
                hosts = placement.expert_to_gpus[expert]
                dst = hosts[src % len(hosts)]
                if dst == src:
                    l_gpu += count
                elif topology.same_node(src, dst):
                    l_node += count
                    intra_bytes += count * bytes_per_token
                else:
                    l_inter += count
                    key = (src, dst)
                    pair_bytes[key] = (pair_bytes.get(key, 0)
                                       + count * bytes_per_token)
        per_layer.append((l_gpu, l_node, l_inter))
    return per_layer, pair_bytes, intra_bytes


# ----------------------------------------------------------------------
# The what-if placement scorer
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlacementScore:
    """One placement's ledger under the recorded traffic."""

    name: str
    count_per_node: int | None
    ledger: HopLedger


def candidate_placements(num_experts: int, num_gpus: int
                         ) -> dict[str, ExpertPlacement]:
    """The standard what-if set for a recorded profile.

    Always contains ``round_robin`` (expert ``e`` on GPU ``e % n``)
    when expert counts allow it, plus every legal ``count_per_node``
    variant: positive blocks when experts cover the world evenly, the
    sharded negatives when the world exceeds the expert count.
    """
    out: dict[str, ExpertPlacement] = {}
    if num_experts % num_gpus == 0:
        x = num_experts // num_gpus
        out[f"contiguous_x{x}"] = build_placement(num_gpus, x)
        if num_experts > num_gpus:
            out["round_robin"] = round_robin_placement(num_gpus,
                                                       num_experts)
    if num_gpus % num_experts == 0 and num_gpus > num_experts:
        shards = num_gpus // num_experts
        out[f"sharded_x-{shards}"] = build_placement(num_gpus, -shards)
    if not out:
        raise ValueError(
            f"no legal placement of {num_experts} experts on "
            f"{num_gpus} GPUs")
    return out


def whatif_placements(profile: RoutingProfile,
                      topology: ClusterTopology, *,
                      bytes_per_token: int) -> list[PlacementScore]:
    """Re-price the recorded traffic under the
    :func:`candidate_placements` of its expert count and world.

    No model re-run: the profile's dispatched counts are re-attributed
    under each placement on the same topology.  Results are sorted by
    (priced inter-node seconds, inter-node hops, name) so the cheapest
    placement leads.
    """
    placements = candidate_placements(profile.num_experts,
                                      topology.num_gpus)
    scores = []
    for pname in sorted(placements):
        placement = placements[pname]
        ledger = hop_ledger(profile, placement, topology,
                            bytes_per_token=bytes_per_token, name=pname)
        cpn: int | None = None
        if placement.shards_per_expert > 1:
            cpn = -placement.shards_per_expert
        elif placement.num_global_experts % placement.num_gpus == 0:
            per = placement.num_global_experts // placement.num_gpus
            if placement.gpu_to_experts == build_placement(
                    placement.num_gpus, per).gpu_to_experts:
                cpn = per
        scores.append(PlacementScore(name=pname, count_per_node=cpn,
                                     ledger=ledger))
    scores.sort(key=lambda s: (s.ledger.priced_seconds,
                               s.ledger.inter_node, s.name))
    return scores


# ----------------------------------------------------------------------
# Deterministic synthetic traffic (the `repro route --fast` source)
# ----------------------------------------------------------------------

#: The synthetic trace's shape; ``repro route --fast`` records it as
#: the run's config.
SYNTHETIC_SHAPE = {"num_layers": 3, "num_experts": 8, "tokens_per_step": 512,
                   "steps": 8, "top_k": 2}


def synthetic_profile(seed: int = 0) -> RoutingProfile:
    """A seeded Markov routing trace through the real gating machinery,
    of :data:`SYNTHETIC_SHAPE` at ``f = 1.25``.

    Draws each token's primary expert from a skewed categorical at
    layer 0 and a sticky transition kernel afterwards (tokens tend to
    stay in their expert "family", giving the affinity matrix real
    diagonal mass), adds a uniform secondary route per extra top-k
    slot, then runs the draws through the *real* router,
    :func:`repro.nn.moe.route`, to get authentic drops: slot ``j``'s
    expert scores ``k - j``, so the top-k selection reads the draws back
    in slot order (a secondary repeating an earlier slot's expert yields
    to the next free expert).  Each batch becomes the ``routing`` events a
    recorded run would hold, and :func:`profile_from_events` sums them.
    Only integer RNG draws — no GEMMs, no
    argsort-over-float ties — so the profile is bit-identical across
    machines and BLAS builds: the property ``BENCH_routing.json`` gates
    at tolerance 0.
    """
    from repro.core.config import expert_capacity
    from repro.moe.metrics import routing_stats
    from repro.nn.moe import route

    num_layers, num_experts, tokens, steps, top_k = SYNTHETIC_SHAPE.values()
    rng = np.random.default_rng(seed)
    rec = RoutingRecorder(num_layers, num_experts)
    events = []
    capacity = expert_capacity(top_k, 1.25, tokens, num_experts)
    # Sticky transition kernel: stay with probability ~0.55, move to a
    # neighbour with ~0.25, anywhere else uniformly.
    kernel = np.full((num_experts, num_experts),
                     0.20 / max(1, num_experts - 2))
    for e in range(num_experts):
        kernel[e, e] = 0.55
        kernel[e, (e + 1) % num_experts] = 0.25
    kernel /= kernel.sum(axis=1, keepdims=True)
    # Skewed layer-0 popularity (Zipf-ish): the load-imbalance signal.
    pop = 1.0 / np.arange(1, num_experts + 1)
    pop /= pop.sum()

    for step in range(steps):
        crits = []
        prev = rng.choice(num_experts, size=tokens, p=pop)
        for li in range(num_layers):
            if li > 0:
                nxt = np.empty(tokens, dtype=np.int64)
                for e in range(num_experts):
                    mask = prev == e
                    n = int(mask.sum())
                    if n:
                        nxt[mask] = rng.choice(num_experts, size=n,
                                               p=kernel[e])
                prev = nxt
            idxs = np.empty((top_k, tokens), dtype=np.int64)
            idxs[0] = prev
            for slot in range(1, top_k):
                # Secondary routes: uniform over the other experts.
                offset = rng.integers(1, num_experts, size=tokens)
                idxs[slot] = (prev + offset) % num_experts
            scores = np.zeros((tokens, num_experts))
            for slot in reversed(range(top_k)):
                scores[np.arange(tokens), idxs[slot]] = top_k - slot
            crits.append(route(scores, top_k, capacity).crit)
        for li, (crit, counts) in enumerate(
                zip(crits, rec.observe_batch(crits))):
            events.append({"kind": "routing", "step": step, "data": {
                **routing_stats(crit).event_payload(li), **counts}})
    return profile_from_events(events)


# ----------------------------------------------------------------------
# BENCH_routing.json + the human report
# ----------------------------------------------------------------------

ROUTING_ARTIFACT = "routing"


def routing_metrics(profile: RoutingProfile,
                    scores: Sequence[PlacementScore]) -> list:
    """The routing provenance as bench metrics.

    Everything is ``kind="model"`` at tolerance 0: profiles come from
    integer counts and the pricing from closed-form link coefficients,
    so the same seed must reproduce every digit — any drift is a
    determinism break, which is exactly what the regress gate exists
    to catch.
    """
    from repro.bench.report import Metric

    def m(name, value, unit="", hib=None):
        return Metric(name=name, value=float(value), unit=unit,
                      kind="model", higher_is_better=hib, tolerance=0.0)

    out = [
        m("tokens", profile.tokens, "tokens"),
        m("batches", profile.batches, "batches"),
        m("total_dispatched", profile.total_dispatched, "slots"),
        m("dropped_slots", profile.dropped_slots, "slots", hib=False),
        m("load_gini", profile.load_gini(), "", hib=False),
        m("self_affinity", profile.self_affinity_fraction(), ""),
    ]
    for score in scores:
        led = score.ledger
        p = score.name
        out.extend([
            m(f"{p}.intra_gpu_hops", led.intra_gpu, "hops", hib=True),
            m(f"{p}.intra_node_hops", led.intra_node, "hops"),
            m(f"{p}.inter_node_hops", led.inter_node, "hops",
              hib=False),
            m(f"{p}.inter_node_mib", led.inter_node_bytes / 2.0 ** 20,
              "MiB", hib=False),
            m(f"{p}.priced_ms", led.priced_seconds * 1e3, "ms",
              hib=False),
        ])
    return out


def emit_routing(profile: RoutingProfile,
                 scores: Sequence[PlacementScore], *,
                 config: Mapping, directory=None,
                 verbose: bool = False):
    """Write (when configured) the ``BENCH_routing.json`` record."""
    from repro.bench.report import emit as bench_emit

    return bench_emit(
        ROUTING_ARTIFACT,
        "Routing provenance: load, affinity, and the placement hop "
        "ledger",
        routing_metrics(profile, scores),
        config=dict(config), directory=directory, verbose=verbose)


def render_routing(profile: RoutingProfile,
                   scores: Sequence[PlacementScore]) -> str:
    """Human summary: the profile headline plus one ledger row per
    what-if placement, cheapest first."""
    from repro.bench.harness import Table

    lines = [
        f"routing profile: {profile.batches} batch(es), "
        f"{profile.tokens} tokens, {profile.num_layers} layer(s) x "
        f"{profile.num_experts} experts",
        f"  dispatched {profile.total_dispatched} slots "
        f"({profile.dropped_slots} dropped), load gini "
        f"{profile.load_gini():.4f}, self-affinity "
        f"{profile.self_affinity_fraction():.4f}",
    ]
    table = Table(
        "placement what-if (same traffic, re-priced)",
        ["placement", "gpus", "intra-gpu", "intra-node", "inter-node",
         "inter MiB", "priced ms"])
    for score in scores:
        led = score.ledger
        table.add_row(
            score.name, led.num_gpus, led.intra_gpu, led.intra_node,
            led.inter_node, f"{led.inter_node_bytes / 2 ** 20:.3f}",
            f"{led.priced_seconds * 1e3:.4f}")
    return "\n".join(lines) + "\n" + table.render()
