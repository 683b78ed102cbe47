"""Strategy re-selection after an expert-parallel rank failure.

The paper's switchable P1/P2 parallelism (Section 3.2) exists because
both strategies keep identical token feeding and one parameter
placement — P1 all-gathers the column shards P2 computes on, so
switching moves no parameter at any iteration
(``tests/test_parallel_functional.py::TestParameterPlacement::
test_switching_moves_no_parameter``).  The same property makes
switching a *recovery* mechanism: when a rank dies, the
surviving GPUs re-form the expert-parallel group and re-run the
strategy selector over the shrunken, possibly asymmetric cluster.

Mechanics of :func:`reselect_strategy`:

1. The surviving world shrinks to the largest size that still serves
   every global expert (``W' % E == 0`` when experts are replicated,
   so the switchable strategies stay admissible); extra healthy ranks
   are parked rather than violating divisibility.
2. A node left partially populated makes the cluster *asymmetric*,
   which rules out the hierarchical 2DH All-to-All until the rank is
   replaced (its aggregation phases assume ``m`` equal participants
   per node) — the selector is restricted to the feasible algorithms
   via :func:`repro.collectives.schedule.feasible_a2a_algorithms`.
3. :func:`repro.parallel.strategy.best_strategy` then re-picks the
   cheapest admissible parallelism (EP, P1, or P2) on the degraded
   topology, and the decision is emitted as ``fault.injected`` /
   ``fault.recovered`` observability events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.topology import ClusterTopology
from repro.collectives.schedule import feasible_a2a_algorithms
from repro.core.config import MoEConfig
from repro.obs import CAT_FAULT, get_observer, get_run
from repro.parallel.strategy import StrategyCost, best_strategy

__all__ = ["RecoveryDecision", "reselect_strategy"]


@dataclass(frozen=True)
class RecoveryDecision:
    """Outcome of re-selecting the parallelism after rank failures."""

    failed_ranks: tuple[int, ...]
    healthy_world: int        # ranks still alive
    surviving_world: int      # ranks actually used (divisibility kept)
    config: MoEConfig         # re-formed expert-parallel configuration
    topology: ClusterTopology
    cost: StrategyCost        # best strategy on the degraded cluster
    baseline_cost: StrategyCost  # best strategy just before the loss
    node_asymmetric: bool     # some node left partially populated
    link_degradation: float = 1.0  # fabric derate active at the loss

    @property
    def slowdown(self) -> float:
        """Iteration-time ratio vs. the selection *just before* the
        rank loss.  Under a compound fault (rank loss while a link is
        already degraded) the baseline already includes the link
        derate, so this isolates what the lost rank cost — the two
        faults are not conflated."""
        if self.baseline_cost.total_time <= 0:
            return 1.0
        return self.cost.total_time / self.baseline_cost.total_time


def _nodes_asymmetric(topo: ClusterTopology,
                      failed_ranks: tuple[int, ...]) -> bool:
    """True when a failure leaves some node partially populated."""
    per_node: dict[int, int] = {}
    for rank in failed_ranks:
        per_node[topo.node_of(rank)] = per_node.get(
            topo.node_of(rank), 0) + 1
    return any(0 < count < topo.local_size
               for count in per_node.values())


def reselect_strategy(cfg: MoEConfig, topo: ClusterTopology,
                      failed_ranks: tuple[int, ...] | list[int],
                      training: bool = True,
                      link_degradation: float = 1.0
                      ) -> RecoveryDecision:
    """Re-pick the parallelism strategy after ``failed_ranks`` died.

    ``link_degradation`` < 1 additionally derates the inter-node
    fabric (a degraded-link fault coinciding with the failure).  The
    derate applies to the *baseline* selection too — the link was
    already slow when the rank died — so ``RecoveryDecision.slowdown``
    prices only the rank loss, and the re-selected strategy is checked
    feasible on the doubly-degraded topology.
    Raises :class:`RuntimeError` when the survivors cannot serve every
    global expert — that scenario needs a checkpoint restore, not a
    strategy switch.
    """
    if not 0.0 < link_degradation <= 1.0:
        raise ValueError(
            f"link_degradation must be in (0, 1], "
            f"got {link_degradation}")
    failed = tuple(sorted(set(int(r) for r in failed_ranks)))
    for rank in failed:
        topo._check_rank(rank)
    if cfg.world_size != topo.num_gpus:
        raise ValueError(
            f"config world size {cfg.world_size} does not match "
            f"topology {topo.num_gpus}")

    num_experts = cfg.num_global_experts
    healthy = cfg.world_size - len(failed)
    if healthy >= num_experts:
        surviving = num_experts * (healthy // num_experts)
    else:
        # Fewer GPUs than experts: every survivor packs more experts;
        # keep the expert count divisible over the survivors.
        surviving = healthy
        while surviving > 0 and num_experts % surviving != 0:
            surviving -= 1
    if surviving < 1:
        raise RuntimeError(
            f"unrecoverable: {healthy} healthy rank(s) cannot serve "
            f"{num_experts} global experts; restore from checkpoint")

    new_cfg = cfg.with_(world_size=surviving,
                        experts_per_gpu=num_experts / surviving)
    # The pre-fault cluster already carries any active link derate:
    # that is the topology the baseline selection ran on, and the
    # survivors inherit the same slow fabric.
    pre_fault_topo = topo
    if link_degradation < 1.0:
        pre_fault_topo = topo.with_degraded_inter_link(link_degradation)
    new_topo = pre_fault_topo.with_num_gpus(surviving)
    asymmetric = _nodes_asymmetric(topo, failed)
    candidates = feasible_a2a_algorithms(new_topo,
                                         symmetric_nodes=not asymmetric)

    baseline = best_strategy(cfg, pre_fault_topo, training=training)
    cost = best_strategy(new_cfg, new_topo, training=training,
                         a2a_candidates=candidates)

    decision = RecoveryDecision(
        failed_ranks=failed, healthy_world=healthy,
        surviving_world=surviving, config=new_cfg, topology=new_topo,
        cost=cost, baseline_cost=baseline, node_asymmetric=asymmetric,
        link_degradation=link_degradation)

    ob = get_observer()
    if ob is not None:
        ob.instant("injected", CAT_FAULT, args={
            "kind": "rank_failure", "ranks": list(failed)})
        ob.instant("recovered", CAT_FAULT, args={
            "kind": "strategy_reselection",
            "strategy": cost.strategy.value,
            "a2a": cost.a2a_algorithm.value,
            "world": surviving,
            "slowdown": decision.slowdown})
        ob.gauge("recovery.slowdown", decision.slowdown)
    run = get_run()
    if run is not None:
        run.emit("fault", data={"kind": "rank_failure",
                                "ranks": list(failed)})
        run.emit("recovery", data={
            "kind": "strategy_reselection",
            "strategy": cost.strategy.value,
            "a2a": cost.a2a_algorithm.value,
            "world": surviving,
            "slowdown": decision.slowdown})
    return decision
