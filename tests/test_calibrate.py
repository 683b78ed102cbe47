"""Tests for the simulator-fidelity calibration harness.

The load-bearing property is that :func:`fit_topology` *inverts the
simulator's own forward model*: measurements synthesized from a known
``GpuSpec``/``LinkSpec`` through the simulator's kernel formulas must
fit back to that ground truth and re-simulate with ~zero error.  The
live-measurement path is then checked end to end (fast profile), and
the report must round-trip through ``BENCH_calibration.json``.
"""

import numpy as np
import pytest

from repro.obs import calibrate

from repro.bench.report import BenchResult
from repro.cluster.gemm import GemmModel, batched_gemm_time
from repro.cluster.topology import GpuSpec, LinkSpec, ndv4_topology
from repro.collectives.schedule import A2AAlgorithm, a2a_time
from repro.obs.calibrate import (
    Measurement,
    a2a_workloads,
    _a2a_payload_bytes,
    _moe_config,
    emit_calibration,
    fit_topology,
    gemm_workloads,
    moe_kernel_workloads,
    run_calibration,
    simulate_workload,
)
from repro.runtime.kernels import sparse_scatter_time

TRUTH_GEMM_GPU = GpuSpec(peak_flops=1e11, memory_bandwidth=8e9,
                         kernel_launch_overhead=4e-6)
TRUTH_ENCODE_GPU = GpuSpec(peak_flops=1e11, memory_bandwidth=12e9,
                           kernel_launch_overhead=2e-6)
TRUTH_DECODE_GPU = GpuSpec(peak_flops=1e11, memory_bandwidth=3e9,
                           kernel_launch_overhead=2e-6)
TRUTH_GEMM_MODEL = GemmModel(eta_max=1.0, rows_half=32.0)
TRUTH_LINK = LinkSpec(bandwidth=2e10, latency=3e-6,
                      message_overhead=4e-7)


def synthetic_measurements() -> list[Measurement]:
    """Walls generated by the simulator's own kernel formulas."""
    out = []
    for w in gemm_workloads():
        p = w.params
        wall = batched_gemm_time(TRUTH_GEMM_GPU, 1, p["m"], p["k"],
                                 p["n"], TRUTH_GEMM_MODEL)
        out.append(Measurement(w, wall))
    for w in moe_kernel_workloads():
        cfg = _moe_config(w.params)
        gpu = (TRUTH_ENCODE_GPU if w.op_class == "encode"
               else TRUTH_DECODE_GPU)
        out.append(Measurement(w, sparse_scatter_time(cfg, gpu)))
    truth_topo = ndv4_topology(num_gpus=8, gpus_per_node=8) \
        .with_links(TRUTH_LINK)
    for w in a2a_workloads():
        n = int(w.params["world"])
        per_rank = a2a_time(truth_topo.with_num_gpus(n),
                            _a2a_payload_bytes(w.params),
                            A2AAlgorithm.LINEAR)
        out.append(Measurement(w, n * per_rank))
    return out


class TestFitInvertsSimulator:
    def test_recovers_ground_truth_coefficients(self):
        cal = fit_topology(synthetic_measurements())
        coef = cal.kernel_coefficients
        assert coef["gemm"]["peak_flops"] == pytest.approx(1e11,
                                                           rel=1e-3)
        assert coef["gemm"]["launch"] == pytest.approx(4e-6, rel=1e-3)
        assert coef["encode"]["memory_bandwidth"] == pytest.approx(
            12e9, rel=1e-3)
        assert coef["decode"]["memory_bandwidth"] == pytest.approx(
            3e9, rel=1e-3)
        assert cal.gemm.rows_half == pytest.approx(32.0, rel=1e-3)
        link = cal.topology.intra_link
        assert link.bandwidth == pytest.approx(TRUTH_LINK.bandwidth,
                                               rel=1e-3)
        assert link.latency == pytest.approx(TRUTH_LINK.latency,
                                             rel=1e-3)

    def test_resimulation_error_is_tiny(self):
        meas = synthetic_measurements()
        cal = fit_topology(meas)
        for m in meas:
            sim = simulate_workload(cal, m.workload)
            assert sim == pytest.approx(m.measured, rel=1e-3), \
                m.workload.label

    def test_gpu_for_applies_per_class_overrides(self):
        cal = fit_topology(synthetic_measurements())
        assert cal.gpu_for("encode").memory_bandwidth != \
            cal.gpu_for("decode").memory_bandwidth
        assert cal.gpu_for("gemm").peak_flops == pytest.approx(
            1e11, rel=1e-3)
        # unknown class falls back to the representative spec
        assert cal.gpu_for("unknown") == cal.gpu

    def test_fit_requires_enough_points(self):
        meas = synthetic_measurements()
        only_gemm = [m for m in meas
                     if m.workload.op_class == "gemm"][:2]
        with pytest.raises(ValueError, match="gemm"):
            fit_topology(only_gemm + [m for m in meas
                                      if m.workload.op_class != "gemm"])


class TestWorkloadSweeps:
    def test_fast_is_subset_of_full(self):
        for factory in (gemm_workloads, moe_kernel_workloads,
                        a2a_workloads):
            fast = {w.label for w in factory(fast=True)}
            full = {w.label for w in factory(fast=False)}
            assert fast <= full and len(fast) < len(full)

    def test_labels_unique(self):
        labels = [w.label for w in gemm_workloads()
                  + moe_kernel_workloads() + a2a_workloads()]
        assert len(labels) == len(set(labels))

    def test_moe_sweep_pairs_encode_and_decode(self):
        classes = [w.op_class for w in moe_kernel_workloads(fast=True)]
        assert classes.count("encode") == classes.count("decode")


class FlippingHost:
    """A deterministic stand-in for this machine: every invocation of
    a workload costs its ground-truth wall (``synthetic_measurements``)
    times the host's current speed state, which flips between 0.7x and
    1.3x after seeded dwell times of a few measurement rounds of
    *virtual* time — the two-speed core PR 13's README describes,
    without its wall clock."""

    def __init__(self, seed: int) -> None:
        self.truth = {m.workload.label: m.measured
                      for m in synthetic_measurements()}
        self.rng = np.random.default_rng(seed)
        self.now = 0.0
        self.slow = bool(self.rng.integers(2))
        self.round_s = 3 * sum(
            self.truth[w.label] for w in
            gemm_workloads(fast=True) + moe_kernel_workloads(fast=True))
        self.flip_at = self._dwell()
        self.flips = 0

    def _dwell(self) -> float:
        return self.now + self.rng.uniform(1.0, 2.0) * self.round_s

    def clock(self) -> float:
        return self.now

    def runner(self, workload, rng):
        """Drop-in for calibrate's ``_*_runner`` factories: one clock
        pair around the call, like ``calibrate._timed``, but read on
        the host's virtual clock."""
        def run() -> float:
            t0 = self.clock()
            while self.now >= self.flip_at:
                self.slow = not self.slow
                self.flips += 1
                self.flip_at = self._dwell()
            self.now += self.truth[workload.label] * (
                1.3 if self.slow else 0.7)
            return self.clock() - t0
        return run


def calibrate_on(host: FlippingHost):
    """The real ``run_calibration`` path — interleaved best-of-burst
    sampling, fit, re-simulation — measuring ``host`` instead of this
    machine."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_gemm_runner", "_moe_runner", "_a2a_runner"):
            patch.setattr(calibrate, name, host.runner)
        return run_calibration(fast=True)


class TestLiveCalibration:
    # The live wall-clock bound is gated where CI already gates it
    # (``repro calibrate --fast`` -> ``BENCH_calibration.json`` ->
    # ``repro regress``); tier-1 checks the same path deterministically.
    @pytest.fixture(scope="class")
    def report(self):
        return calibrate_on(FlippingHost(seed=0))

    def test_p95_error_within_bound(self, report):
        assert report.sim_vs_measured_p95_err <= 0.15

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_best_of_burst_survives_speed_flips(self, seed):
        host = FlippingHost(seed)
        report = calibrate_on(host)
        assert host.flips >= 1          # the host did change speed
        assert report.sim_vs_measured_p95_err <= 0.15

    def test_rows_cover_all_classes(self, report):
        assert {r["op_class"] for r in report.rows} == {
            "gemm", "encode", "decode", "a2a"}
        assert set(report.per_class) == {
            "gemm", "encode", "decode", "a2a"}
        for r in report.rows:
            assert r["signed_err"] == pytest.approx(
                (r["simulated"] - r["measured"]) / r["measured"])

    def test_bench_artifact_roundtrip(self, report, tmp_path):
        result = emit_calibration(report, directory=tmp_path)
        path = tmp_path / "BENCH_calibration.json"
        assert path.exists()
        loaded = BenchResult.load(path)
        assert loaded.artifact == "calibration"
        assert loaded.fingerprint == result.fingerprint
        by_name = {m.name: m for m in loaded.metrics}
        headline = by_name["sim_vs_measured_p95_err"]
        assert headline.value == report.sim_vs_measured_p95_err
        assert headline.kind == "model"
        assert headline.higher_is_better is False
        assert headline.tolerance == pytest.approx(0.5)

    def test_render_mentions_headline(self, report):
        text = report.render()
        assert "sim_vs_measured_p95_err" in text
        assert "Per-class summary" in text
