"""Tests for the routing-provenance subsystem (``repro.obs.routing``).

Load-bearing properties:

* **conservation** — the hop ledger partitions every dispatched
  (post-drop) slot, so intra-GPU + intra-node + inter-node hops equal
  the profile's total exactly, under every placement and both
  substrate dtypes;
* **simulator agreement** — the analytic inter-node pricing equals the
  cluster simulator's makespan for the same message set, on plain and
  calibrated topologies, for multiple placements;
* **determinism** — the synthetic ``--fast`` profile is bit-identical
  for a fixed seed (the contract that lets ``BENCH_routing.json`` gate
  at tolerance 0);
* the run-registry event round-trip reconstructs the recorder's exact
  integer counts, and a profile is the sum of its ``routing`` events,
  so a resumed run keeps its pre-resume traffic.
"""

import json

import numpy as np
import pytest

from repro.cluster.gemm import GemmModel
from repro.cluster.simulator import simulate
from repro.cluster.topology import ndv4_topology
from repro.core.substrate import substrate_dtype
from repro.moe.gating import RoutingCriteria, compute_locations
from repro.obs.calibrate import CalibratedTopology
from repro.moe.metrics import routing_stats
from repro.obs.routing import (
    SRC_BUCKETS,
    RoutingRecorder,
    candidate_placements,
    dispatch_schedule,
    hop_ledger,
    profile_from_events,
    routing_metrics,
    synthetic_profile,
    whatif_placements,
)
from repro.parallel.placement import (
    ExpertPlacement,
    build_placement,
    round_robin_placement,
)


def _uniform_crits(num_layers=2, num_experts=4, tokens=32, top_k=2,
                   capacity=1000):
    """Round-robin routing with ample capacity: zero drops."""
    crits = []
    for li in range(num_layers):
        idxs = np.stack([(np.arange(tokens) + li + slot) % num_experts
                         for slot in range(top_k)])
        locations = compute_locations(idxs, num_experts)
        crits.append(RoutingCriteria(
            idxs=idxs, locations=locations,
            gates=np.ones_like(idxs, dtype=np.float64),
            capacity=capacity, num_experts=num_experts))
    return crits


def _counted_events(crits_per_batch, num_experts=4):
    """The ``routing`` events a recording loop writes for these
    batches: each layer's stats payload plus its recorder counts,
    after a JSON round-trip, exactly as the registry replays them."""
    rec = RoutingRecorder(len(crits_per_batch[0]), num_experts)
    events = []
    for step, crits in enumerate(crits_per_batch):
        for li, (crit, counts) in enumerate(
                zip(crits, rec.observe_batch(crits))):
            events.append(json.loads(json.dumps({
                "kind": "routing", "step": step, "data": {
                    **routing_stats(crit).event_payload(li),
                    **counts}})))
        events.append({"kind": "step", "step": step, "data": {}})
    return events


class TestRecorder:
    def test_loads_match_bincount_and_count_drops(self):
        crits = _uniform_crits()
        profile = profile_from_events(_counted_events([crits]))
        for li, crit in enumerate(crits):
            expected = np.bincount(crit.idxs.reshape(-1), minlength=4)
            assert (profile.loads[li] == expected).all()
        # Ample capacity: every slot survives into `dispatched`.
        assert profile.dispatched.sum() == profile.loads.sum()

    def test_transition_rows_sum_to_tokens(self):
        counts = RoutingRecorder(3, 4).observe_batch(
            _uniform_crits(num_layers=3, tokens=32))
        # One primary-route transition per token per layer pair; the
        # last layer has no next layer.
        assert "transitions" not in counts[2]
        for layer in counts[:2]:
            assert np.asarray(layer["transitions"]).shape == (4, 4)
            assert np.asarray(layer["transitions"]).sum() == 32

    def test_dropped_slots_excluded_from_dispatch(self):
        # Everyone wants expert 0, capacity 5: 5 survivors per layer.
        tokens, cap = 16, 5
        idxs = np.zeros((1, tokens), dtype=np.int64)
        locations = compute_locations(idxs, 4)
        crit = RoutingCriteria(idxs=idxs, locations=locations,
                               gates=np.ones_like(idxs, dtype=float),
                               capacity=cap, num_experts=4)
        profile = profile_from_events(_counted_events([[crit]]))
        assert profile.loads[0, 0] == tokens
        assert profile.dispatched.sum() == cap

    def test_layer_count_mismatch_rejected(self):
        rec = RoutingRecorder(2, 4)
        with pytest.raises(ValueError, match="layer criteria"):
            rec.observe_batch(_uniform_crits(num_layers=3))

    def test_event_round_trip_reconstructs_counts(self):
        batches = [_uniform_crits(tokens=32) for _ in range(3)]
        events = _counted_events(batches)
        assert [e["kind"] for e in events[:3]] == \
            ["routing", "routing", "step"]
        profile = profile_from_events(events)
        assert profile.tokens == 96
        assert profile.batches == 3
        for li in range(2):
            crits = [batch[li] for batch in batches]
            assert (profile.loads[li]
                    == sum(c.plan.load for c in crits)).all()
            assert profile.dispatched[li].sum() == sum(
                len(c.plan.pos) for c in crits)
        assert (profile.transitions.sum(axis=(1, 2)) == 96).all()

    def test_any_prefix_profiles_exactly_its_batches(self):
        events = _counted_events(
            [_uniform_crits(tokens=16 + 8 * b) for b in range(3)])
        for cut in range(1, len(events) + 1):
            prefix = events[:cut]
            routing = [e["data"] for e in prefix if e["kind"] == "routing"]
            layer0 = [d for d in routing if d["layer"] == 0]
            profile = profile_from_events(prefix)
            assert profile.batches == len(layer0)
            assert profile.tokens == sum(d["tokens"] for d in layer0)
            for li in range(profile.num_layers):
                assert profile.loads[li].tolist() == np.sum(
                    [d["expert_load"] for d in routing
                     if d["layer"] == li], axis=0).tolist()

    def test_uncounted_routing_events_rejected(self):
        # What a run records without counts (engine-only, or a stream
        # from before routing events carried them): no profile.
        payload = routing_stats(_uniform_crits()[0]).event_payload(0)
        with pytest.raises(ValueError, match="no counted routing"):
            profile_from_events([{"kind": "routing", "data": payload}])

    def test_mixed_expert_counts_rejected(self):
        events = (_counted_events([_uniform_crits(num_experts=4)])
                  + _counted_events([_uniform_crits(num_experts=8)], 8))
        with pytest.raises(ValueError, match="one model's routing"):
            profile_from_events(events)

    def test_stream_without_routing_events_rejected(self):
        with pytest.raises(ValueError, match="no counted routing"):
            profile_from_events([{"kind": "step", "data": {}}])


class TestHopConservation:
    """intra_gpu + intra_node + inter_node == total dispatched,
    exactly, for every placement family."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name,placement,topo", [
        ("contiguous", build_placement(4, 2),
         ndv4_topology(4, gpus_per_node=2)),
        ("round_robin", round_robin_placement(4, 8),
         ndv4_topology(4, gpus_per_node=2)),
        ("sharded", build_placement(16, -2),
         ndv4_topology(16, gpus_per_node=8)),
        ("single_gpu", build_placement(1, 8),
         ndv4_topology(1, gpus_per_node=1)),
    ])
    def test_synthetic_traffic_conserves(self, seed, name, placement,
                                         topo):
        profile = synthetic_profile(seed)
        led = hop_ledger(profile, placement, topo, bytes_per_token=128,
                         name=name)
        assert led.total_hops == profile.total_dispatched
        assert led.conserves(profile.total_dispatched)
        # Per-layer rows partition too, and sum to the headline.
        assert sum(sum(row) for row in led.per_layer) == led.total_hops
        for li, (g, n, x) in enumerate(led.per_layer):
            assert g + n + x == int(profile.dispatched[li].sum())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_real_model_traffic_conserves_both_dtypes(self, dtype):
        from repro.nn.moe import MoE
        from repro.autograd.tensor import Tensor

        with substrate_dtype(dtype):
            rng = np.random.default_rng(0)
            layers = [MoE(32, 64, 8, rng, top_k=2,
                          capacity_factor=1.25) for _ in range(2)]
            batches = []
            for step in range(3):
                x = Tensor(np.random.default_rng(step)
                           .standard_normal((96, 32)))
                crits = []
                for layer in layers:
                    x, _ = layer.forward(x)
                    crits.append(layer.last_routing_criteria)
                assert all(c is not None for c in crits)
                batches.append(crits)
        profile = profile_from_events(_counted_events(batches, 8))
        assert profile.tokens == 3 * 96
        topo = ndv4_topology(4, gpus_per_node=2)
        for placement in (build_placement(4, 2),
                          round_robin_placement(4, 8)):
            led = hop_ledger(profile, placement, topo,
                             bytes_per_token=32 * np.dtype(dtype).itemsize)
            assert led.conserves(profile.total_dispatched)
            # Integer counts stay exact through either float width.
            total = (np.asarray([led.intra_gpu, led.intra_node,
                                 led.inter_node], dtype=dtype).sum())
            assert float(total) == float(profile.total_dispatched)

    def test_single_node_world_has_no_inter_node_hops(self):
        profile = synthetic_profile(0)
        led = hop_ledger(profile, build_placement(4, 2),
                         ndv4_topology(4, gpus_per_node=4),
                         bytes_per_token=128)
        assert led.inter_node == 0
        assert led.priced_seconds == 0.0
        assert led.conserves(profile.total_dispatched)

    def test_world_not_dividing_src_buckets_rejected(self):
        profile = synthetic_profile(0)
        # A legal 3-GPU placement of 8 experts; 3 does not divide the
        # 16 recorded source buckets, so pricing must refuse.
        placement = ExpertPlacement(
            num_gpus=3, num_global_experts=8,
            experts_per_gpu=8 / 3, shards_per_expert=1,
            gpu_to_experts=(((0, 0), (1, 0), (2, 0)),
                            ((3, 0), (4, 0), (5, 0)),
                            ((6, 0), (7, 0))))
        assert SRC_BUCKETS % 3 != 0
        with pytest.raises(ValueError, match="source buckets"):
            hop_ledger(profile, placement,
                       ndv4_topology(3, gpus_per_node=3),
                       bytes_per_token=128)

    def test_expert_count_mismatch_rejected(self):
        profile = synthetic_profile(0)  # 8 experts
        with pytest.raises(ValueError, match="experts"):
            hop_ledger(profile, build_placement(4, 1),
                       ndv4_topology(4, gpus_per_node=2),
                       bytes_per_token=128)


class TestScorerAgreesWithSimulator:
    """The analytic ledger pricing is exactly the makespan the cluster
    simulator assigns the same per-(src, dst) message set."""

    def _calibrated(self, num_gpus, gpus_per_node):
        base = ndv4_topology(num_gpus, gpus_per_node=gpus_per_node)
        return CalibratedTopology(
            topology=base, gemm=GemmModel(eta_max=1.0, rows_half=32.0),
            kernel_coefficients={}, fit={"source": "test"})

    @pytest.mark.parametrize("placement_fn", [
        lambda: build_placement(4, 2),
        lambda: round_robin_placement(4, 8),
    ])
    def test_priced_seconds_equal_makespan(self, placement_fn):
        profile = synthetic_profile(0)
        placement = placement_fn()
        cal = self._calibrated(4, 2)
        topo = cal.at_world(4)
        assert topo.gpus_per_node == 2
        led = hop_ledger(profile, placement, topo, bytes_per_token=128)
        sched = dispatch_schedule(profile, placement, topo,
                                  bytes_per_token=128)
        result = simulate(sched)
        assert led.priced_seconds == pytest.approx(result.makespan,
                                                   rel=1e-12)
        # And the bytes the schedule carries are the ledger's bytes:
        # every op prices message_time(pair_bytes) on the inter link.
        assert led.inter_node_bytes == 128 * led.inter_node

    def test_sharded_placement_agrees_too(self):
        profile = synthetic_profile(1)
        placement = build_placement(16, -2)
        topo = self._calibrated(16, 8).at_world(16)
        led = hop_ledger(profile, placement, topo, bytes_per_token=64)
        sched = dispatch_schedule(profile, placement, topo,
                                  bytes_per_token=64)
        assert led.priced_seconds == pytest.approx(
            simulate(sched).makespan, rel=1e-12)

    def test_bottleneck_source_sets_the_price(self):
        profile = synthetic_profile(0)
        topo = ndv4_topology(4, gpus_per_node=2)
        led = hop_ledger(profile, build_placement(4, 2), topo,
                         bytes_per_token=128)
        assert led.priced_seconds == max(led.inter_seconds_by_src)
        assert len(led.inter_seconds_by_src) == 4


class TestWhatIfScorer:
    def test_candidates_for_standard_world(self):
        cands = candidate_placements(8, 4)
        assert set(cands) == {"contiguous_x2", "round_robin"}
        assert cands["round_robin"].gpus_of_expert(5) == [1]
        assert cands["contiguous_x2"].gpus_of_expert(5) == [2]

    def test_candidates_include_sharded_when_world_exceeds_experts(self):
        cands = candidate_placements(8, 16)
        assert "sharded_x-2" in cands
        assert cands["sharded_x-2"].shards_per_expert == 2

    def test_no_legal_placement_raises(self):
        with pytest.raises(ValueError, match="no legal placement"):
            candidate_placements(3, 2)

    def test_scores_sorted_cheapest_first_and_conserve(self):
        profile = synthetic_profile(0)
        scores = whatif_placements(profile,
                                   ndv4_topology(4, gpus_per_node=2),
                                   bytes_per_token=128)
        assert len(scores) >= 2
        priced = [s.ledger.priced_seconds for s in scores]
        assert priced == sorted(priced)
        for s in scores:
            assert s.ledger.conserves(profile.total_dispatched)
        by_name = {s.name: s for s in scores}
        assert by_name["contiguous_x2"].count_per_node == 2
        assert by_name["round_robin"].count_per_node is None

    def test_affinity_aware_placements_differ(self):
        # The sticky Markov kernel makes round-robin and contiguous
        # genuinely different under the same traffic — the signal a
        # placement solver would optimize.
        profile = synthetic_profile(0)
        scores = whatif_placements(profile,
                                   ndv4_topology(4, gpus_per_node=2),
                                   bytes_per_token=128)
        inter = {s.name: s.ledger.inter_node for s in scores}
        assert inter["round_robin"] != inter["contiguous_x2"]


class TestSyntheticDeterminism:
    def test_same_seed_is_bit_identical(self):
        a = synthetic_profile(0)
        b = synthetic_profile(0)
        assert (a.loads == b.loads).all()
        assert (a.dispatched == b.dispatched).all()
        assert (a.transitions == b.transitions).all()

    def test_metrics_are_bit_identical_across_runs(self):
        topo = ndv4_topology(4, gpus_per_node=2)

        def run():
            profile = synthetic_profile(0)
            scores = whatif_placements(profile, topo,
                                       bytes_per_token=128)
            return [(m.name, m.value)
                    for m in routing_metrics(profile, scores)]

        assert run() == run()

    def test_metrics_all_model_kind_tolerance_zero(self):
        profile = synthetic_profile(0)
        scores = whatif_placements(profile,
                                   ndv4_topology(4, gpus_per_node=2),
                                   bytes_per_token=128)
        metrics = routing_metrics(profile, scores)
        names = {m.name for m in metrics}
        assert {"tokens", "load_gini", "self_affinity",
                "round_robin.priced_ms",
                "contiguous_x2.inter_node_hops"} <= names
        for m in metrics:
            assert m.kind == "model"
            assert m.tolerance == 0

    def test_affinity_has_diagonal_mass(self):
        profile = synthetic_profile(0)
        assert profile.self_affinity_fraction() > 0.3
        aff = profile.affinity()
        assert aff.shape == (8, 8)
        assert aff.sum() == profile.tokens * (profile.num_layers - 1)


class TestEngineIntegration:
    def test_trainer_emits_routing_events(self, tmp_path):
        from repro.nn.models import MoEClassifier
        from repro.obs.runs import RunStore, recording_run
        from repro.train.data import ClusteredTokenTask
        from repro.train.trainer import train_model

        task = ClusteredTokenTask(num_clusters=8, input_dim=8,
                                  num_classes=4, noise=0.4, seed=0)
        rng = np.random.default_rng(0)
        model = MoEClassifier(input_dim=8, model_dim=32, hidden_dim=64,
                              num_classes=4, num_blocks=2,
                              num_experts=8, rng=rng, top_k=2,
                              capacity_factor=1.25)
        with recording_run(root=tmp_path, run_id="t1",
                           config={"kind": "train"}, seed=0):
            train_model(model, task.sample(256), task.sample(64),
                        steps=3, batch_size=64)
        store = RunStore(tmp_path)
        events = list(store.events("t1"))
        counted = [e for e in events if e["kind"] == "routing"
                   and "dispatched" in e["data"]]
        assert len(counted) == 3 * len(model.moe_layers())
        profile = profile_from_events(events)
        assert profile.batches == 3
        assert profile.tokens == 3 * 64
        assert profile.num_layers == len(model.moe_layers())
        led = hop_ledger(profile, build_placement(4, 2),
                         ndv4_topology(4, gpus_per_node=2),
                         bytes_per_token=128)
        assert led.conserves(profile.total_dispatched)

    def test_serving_engine_emits_routing_events(self, tmp_path,
                                                 monkeypatch):
        from repro.obs.runs import RunStore
        from repro.serve.engine import serve_workload
        from repro.serve.workloads import get_workload

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        result = serve_workload(get_workload("poisson_steady"),
                                fast=True)
        store = RunStore(tmp_path)
        events = list(store.events(store.latest()))
        profile = profile_from_events(events)
        assert profile.batches == len(result.batches)
        # Pre-drop loads must agree with the serving_load accumulation.
        assert profile.loads.tolist() == result.expert_load
        assert profile.num_layers == result.workload.num_layers
        led = hop_ledger(profile, build_placement(4, 2),
                         ndv4_topology(4, gpus_per_node=2),
                         bytes_per_token=128)
        assert led.conserves(profile.total_dispatched)

    def test_resumed_scenario_keeps_pre_resume_traffic(self, tmp_path,
                                                       monkeypatch):
        # rank_loss_deadline restores a checkpoint mid-run and compacts
        # the replayed steps; the profile still covers all 12 steps.
        from repro.obs.runs import RunStore
        from repro.scenarios.engine import run_scenario
        from repro.scenarios.library import get_scenario

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path))
        run_scenario(get_scenario("rank_loss_deadline"), fast=True)
        store = RunStore(tmp_path)
        events = list(store.events(store.latest()))
        assert sum(e["kind"] == "step" for e in events) == 12
        profile = profile_from_events(events)
        assert profile.batches == 12
        assert profile.tokens == 768
        routing = [e["data"] for e in events if e["kind"] == "routing"]
        for li in range(profile.num_layers):
            assert profile.loads[li].tolist() == np.sum(
                [d["expert_load"] for d in routing if d["layer"] == li],
                axis=0).tolist()
