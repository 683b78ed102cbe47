"""Simulator-fidelity calibration: fit the cost model to measurements.

The performance story of this repo rests on the analytic simulator
(:mod:`repro.cluster.simulator` plus the kernel/collective cost models).
This module closes the loop between that simulator and the functional
substrate it abstracts:

1. **Measure** — run a sweep of real workloads through the
   autograd/functional layer: dense GEMMs at varying row counts,
   sparse MoE encode/decode (``moe_dispatch`` / ``moe_combine``) at
   varying ``T``/``E``/``k``/``C``, and all-to-all exchanges of varying
   payload through the linear
   :func:`repro.collectives.functional.flexible_all_to_all`.
   Every wall is one ``perf_counter`` pair around the call: operand
   tensors are built once per workload, outside the timed region, and
   the result is released after the clock is read.
   Workloads are repeated in interleaved round-robin order (so a slow
   host phase degrades every workload alike, as common mode the fit
   absorbs) and the per-workload minimum after a warmup round is kept —
   the closest observable to the noise-free cost the simulator models.

2. **Fit** — non-negative least squares, with each residual weighted by
   ``1/measured`` so the optimizer minimizes exactly the *relative*
   error the fidelity gate scores:

   * GEMM walls are linear in ``[1, flops, flops/rows]`` with
     coefficients ``[launch, 1/peak, rows_half/peak]`` — recovering the
     fitted ``peak_flops`` and the :class:`~repro.cluster.gemm.GemmModel`
     efficiency knee (``eta_max`` is absorbed into the fitted peak);
   * encode and decode walls are each linear in ``[1, bytes_moved]`` —
     per-kernel launch overhead and effective memory bandwidth (the two
     kernels differ: scatter writes stream, weighted gather reduces);
   * the all-to-all measurements fit the alpha–beta
     :class:`~repro.cluster.topology.LinkSpec`: the functional exchange
     executes all ``n`` ranks serially on one machine, so the measured
     total is ``n`` times the per-rank model, linear in
     ``[n, n(n-1), (n-1)*S]`` with coefficients ``(latency,
     message_overhead, 1/bandwidth)``.

3. **Re-simulate & report** — the same workloads are replayed through
   :func:`repro.cluster.simulator.simulate` on the fitted topology and
   the per-op-class signed relative error ``(sim - measured)/measured``
   is aggregated into p50/p95 statistics.  The headline fidelity metric
   ``sim_vs_measured_p95_err`` (p95 of the absolute signed error across
   every workload) is emitted as a schema-versioned
   ``BENCH_calibration.json`` and gated by ``repro regress``.

All measurements run in the substrate's active dtype
(:func:`repro.core.substrate.default_dtype` — float32 by default,
``REPRO_DTYPE=float64`` to override) and every modelled byte count uses
:func:`dtype_bytes` so the fit sees the itemsize the arrays actually
have; the fitted coefficients describe *this host at this dtype*, not
an A100 — the point is that the simulator's functional forms transfer.
Payload sizes are chosen to stay within one cache regime: the
alpha-beta model is piecewise-linear at best across a working-set
cliff, and calibration should fit a line to a line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.autograd.moe_ops import moe_combine, moe_dispatch
from repro.autograd.tensor import Tensor
from repro.bench.report import BenchResult, Metric, emit
from repro.cluster.gemm import GemmModel, batched_gemm_time
from repro.cluster.simulator import Schedule, simulate
from repro.cluster.topology import (
    ClusterTopology,
    GpuSpec,
    LinkSpec,
    ndv4_topology,
)
from repro.collectives.functional import flexible_all_to_all
from repro.collectives.schedule import A2AAlgorithm, a2a_time
from repro.core.config import MoEConfig
from repro.core.substrate import default_dtype, default_itemsize
from repro.moe.gating import RoutingCriteria
from repro.nn.moe import route
from repro.runtime.kernels import sparse_scatter_bytes, sparse_scatter_time

__all__ = [
    "SCHEMA_VERSION",
    "dtype_bytes",
    "Workload",
    "Measurement",
    "CalibratedTopology",
    "CalibrationReport",
    "gemm_workloads",
    "moe_kernel_workloads",
    "a2a_workloads",
    "measure_workloads",
    "fit_compute",
    "fit_a2a",
    "fit_topology",
    "simulate_workload",
    "run_calibration",
    "emit_calibration",
]

SCHEMA_VERSION = 1


def dtype_bytes() -> int:
    """Itemsize of the substrate's active dtype (4 for float32, 8 for
    float64).  Was a hardcoded ``DTYPE_BYTES = 8`` before ISSUE 6 —
    which double-counted every modelled byte once the substrate moved
    to float32."""
    return default_itemsize()

# The fast sweep stays at or under m*k*n = 262,144, the size up to
# which OpenBLAS runs a GEMM on the calling thread: a sweep that
# straddles it mixes single- and multi-threaded walls, which no
# launch + flops/peak + knee line fits (+-25% on the build box), and a
# threaded GEMM's first calls in a fresh process take ~10 ms each.
_GEMM_SHAPES_FAST = ((2, 128, 128), (4, 128, 128),
                     (8, 128, 128), (16, 128, 128))
_GEMM_SHAPES_FULL = _GEMM_SHAPES_FAST + (
    (32, 128, 128), (64, 128, 128), (128, 128, 128), (256, 128, 128),
    (384, 128, 128), (128, 256, 256), (256, 256, 256))

# (tokens, experts, top_k, capacity_factor, model_dim); model_dim is
# kept large so the routed-byte traffic dominates per-call overhead.
_MOE_SHAPES_FAST = ((512, 8, 2, 1.25, 256), (1024, 8, 2, 1.25, 256),
                    (2048, 8, 2, 1.25, 256))
_MOE_SHAPES_FULL = _MOE_SHAPES_FAST + (
    (1024, 16, 4, 1.25, 128), (2048, 16, 2, 1.25, 256),
    (1024, 8, 4, 1.25, 256), (1024, 8, 2, 1.25, 512))

# (world size, rows per peer); payloads are (n, rows, 32) arrays of
# the substrate's active dtype.
# Shapes are capped so input+output working sets stay cache-resident.
_A2A_SHAPES_FAST = ((2, 128), (2, 512), (4, 64), (4, 192),
                    (8, 24), (8, 48))
_A2A_SHAPES_FULL = _A2A_SHAPES_FAST + ((2, 256), (4, 128), (8, 32))
_A2A_COLS = 32


@dataclass(frozen=True)
class Workload:
    """One calibration point: an op class plus its shape parameters."""

    op_class: str  # "gemm" | "encode" | "decode" | "a2a"
    label: str
    params: dict


@dataclass(frozen=True)
class Measurement:
    """A workload with its measured wall time (seconds, best-of)."""

    workload: Workload
    measured: float


@dataclass(frozen=True)
class CalibratedTopology:
    """Fitted cluster model, drop-in usable by :mod:`repro.cluster`.

    ``topology.gpu`` is a representative spec (GEMM-fitted peak and
    launch, geometric-mean sparse-kernel bandwidth); the per-kernel
    throughput coefficients the fit actually recovered live in
    ``kernel_coefficients`` and :meth:`gpu_for` builds the spec for one
    op class.  ``topology.gpus_per_node`` is the largest calibrated
    world size so every modelled exchange rides the (single) fitted
    link — a one-machine harness cannot tell the fabrics apart.
    """

    topology: ClusterTopology
    gemm: GemmModel
    kernel_coefficients: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)

    @property
    def gpu(self) -> GpuSpec:
        return self.topology.gpu

    def gpu_for(self, op_class: str) -> GpuSpec:
        """GPU spec with this op class's fitted launch/throughput."""
        from dataclasses import replace
        coef = self.kernel_coefficients.get(op_class)
        if not coef:
            return self.gpu
        kwargs = {}
        if "launch" in coef:
            kwargs["kernel_launch_overhead"] = coef["launch"]
        if "memory_bandwidth" in coef:
            kwargs["memory_bandwidth"] = coef["memory_bandwidth"]
        if "peak_flops" in coef:
            kwargs["peak_flops"] = coef["peak_flops"]
        return replace(self.gpu, **kwargs)

    def at_world(self, num_gpus: int) -> ClusterTopology:
        return self.topology.with_num_gpus(num_gpus)


def _moe_config(params: dict) -> MoEConfig:
    return MoEConfig(
        world_size=1, gpus_per_node=1,
        experts_per_gpu=float(params["experts"]),
        model_dim=int(params["model_dim"]),
        tokens_per_gpu=int(params["tokens"]),
        top_k=int(params["top_k"]),
        capacity_factor=float(params["capacity_factor"]),
        dtype_bytes=dtype_bytes())


def _a2a_payload_bytes(params: dict) -> float:
    """Per-rank buffer size S of one all-to-all workload."""
    n = int(params["world"])
    return float(n * int(params["rows"]) * _A2A_COLS * dtype_bytes())


def gemm_workloads(fast: bool = False) -> list[Workload]:
    shapes = _GEMM_SHAPES_FAST if fast else _GEMM_SHAPES_FULL
    return [Workload("gemm", f"gemm_{m}x{k}x{n}",
                     {"m": m, "k": k, "n": n})
            for m, k, n in shapes]


def moe_kernel_workloads(fast: bool = False) -> list[Workload]:
    shapes = _MOE_SHAPES_FAST if fast else _MOE_SHAPES_FULL
    out: list[Workload] = []
    for t, e, k, f, m in shapes:
        params = {"tokens": t, "experts": e, "top_k": k,
                  "capacity_factor": f, "model_dim": m}
        tag = f"T{t}_E{e}_k{k}_M{m}"
        out.append(Workload("encode", f"encode_{tag}", dict(params)))
        out.append(Workload("decode", f"decode_{tag}", dict(params)))
    return out


def a2a_workloads(fast: bool = False) -> list[Workload]:
    shapes = _A2A_SHAPES_FAST if fast else _A2A_SHAPES_FULL
    return [Workload("a2a", f"a2a_n{n}_rows{rows}",
                     {"world": n, "rows": rows})
            for n, rows in shapes]


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def _routing(rng: np.random.Generator, t: int, e: int, k: int,
             capacity: int) -> RoutingCriteria:
    """Uniform-random top-k routing decisions for a synthetic sweep:
    the router on uniform random scores."""
    return route(rng.random((t, e)).astype(default_dtype()), k,
                 capacity).crit


def _timed(call: Callable[[], object]) -> Callable[[], float]:
    """Runner timing one ``call()`` with one clock pair; the result is
    released after the clock is read."""
    def run() -> float:
        t0 = time.perf_counter()
        out = call()
        wall = time.perf_counter() - t0
        del out
        return wall
    return run


def _gemm_runner(w: Workload,
                 rng: np.random.Generator) -> Callable[[], float]:
    a = Tensor(rng.standard_normal((w.params["m"], w.params["k"])))
    b = Tensor(rng.standard_normal((w.params["k"], w.params["n"])))
    return _timed(lambda: a @ b)


def _moe_runner(w: Workload,
                rng: np.random.Generator) -> Callable[[], float]:
    cfg = _moe_config(w.params)
    crit = _routing(rng, cfg.tokens_per_gpu, cfg.num_global_experts,
                    cfg.top_k, cfg.capacity_per_gpu)
    x = Tensor(rng.standard_normal((cfg.tokens_per_gpu, cfg.model_dim)))
    if w.op_class == "encode":
        return _timed(lambda: moe_dispatch(x, crit))
    z = Tensor(moe_dispatch(x, crit).data)
    gates = Tensor(crit.gates)
    return _timed(lambda: moe_combine(z, gates, crit))


def _a2a_runner(w: Workload,
                rng: np.random.Generator) -> Callable[[], float]:
    n = int(w.params["world"])
    inputs = [rng.standard_normal(
        (n, int(w.params["rows"]), _A2A_COLS)).astype(default_dtype())
        for _ in range(n)]
    return _timed(lambda: flexible_all_to_all(inputs, 0, 0))


#: Back-to-back invocations of one workload per measuring round.
BURST = 3


def measure_workloads(workloads: list[Workload], repeats: int = 4,
                      seed: int = 0) -> list[Measurement]:
    """Measure every workload, interleaved in bursts, keeping the best.

    Each of ``repeats`` rounds visits the workloads round-robin and
    runs each as a back-to-back *burst* of ``BURST`` invocations (the
    first burst doubles as warmup); the overall per-workload minimum is
    kept.  Bursts keep caches warm for the measured invocation —
    matching the steady-state regime the simulator models — while the
    round-robin turns transient host slowdowns into common mode across
    workloads instead of a bias against whichever ran during them.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    runners: list[Callable[[], float]] = []
    for w in workloads:
        if w.op_class == "gemm":
            runners.append(_gemm_runner(w, rng))
        elif w.op_class in ("encode", "decode"):
            runners.append(_moe_runner(w, rng))
        elif w.op_class == "a2a":
            runners.append(_a2a_runner(w, rng))
        else:
            raise ValueError(f"unknown op class {w.op_class!r}")
    best = [float("inf")] * len(runners)
    for rnd in range(repeats):
        for i, run in enumerate(runners):
            walls = [run() for _ in range(BURST + (1 if rnd == 0 else 0))]
            if rnd == 0:
                walls = walls[1:]  # first call of round 0 is warmup
            best[i] = min(best[i], *walls)
    return [Measurement(w, max(wall, 1e-9))
            for w, wall in zip(workloads, best)]


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------

def _nonneg_relative_lstsq(design: list[list[float]],
                           y: list[float]) -> np.ndarray:
    """Least squares on relative residuals, coefficients clamped >= 0.

    Each row is weighted by ``1/y`` so the fit minimizes the squared
    *relative* error — the quantity the fidelity report scores.  The
    non-negativity uses a simple active-set scheme: solve, drop the
    most negative coefficient's column, repeat; dropped coefficients
    are 0 (e.g. a launch overhead too small to resolve).
    """
    a = np.asarray(design, dtype=np.float64)
    target = np.asarray(y, dtype=np.float64)
    weights = 1.0 / target
    a = a * weights[:, None]
    target = np.ones_like(target)
    active = list(range(a.shape[1]))
    coef = np.zeros(a.shape[1])
    while active:
        sol, *_ = np.linalg.lstsq(a[:, active], target, rcond=None)
        if np.all(sol >= 0.0):
            coef[active] = sol
            break
        active.pop(int(np.argmin(sol)))
    return coef


def _of_class(measurements: list[Measurement],
              op_class: str) -> list[Measurement]:
    return [m for m in measurements if m.workload.op_class == op_class]


def fit_compute(measurements: list[Measurement]
                ) -> tuple[GpuSpec, GemmModel, dict, dict]:
    """Fit per-kernel throughput coefficients for the compute classes.

    Returns ``(representative GpuSpec, GemmModel, kernel_coefficients,
    provenance)``.  GEMM, encode, and decode each get their own launch
    overhead and throughput — the simulator's kernel models share a
    :class:`GpuSpec`, so :meth:`CalibratedTopology.gpu_for` rebuilds
    the right spec per op class.
    """
    default = GpuSpec()

    gemm_meas = _of_class(measurements, "gemm")
    if len(gemm_meas) < 3:
        raise ValueError("need >= 3 gemm measurements to fit")
    design = []
    for meas in gemm_meas:
        m, k, n = (meas.workload.params["m"], meas.workload.params["k"],
                   meas.workload.params["n"])
        flops = 2.0 * m * k * n
        design.append([1.0, flops, flops / m])
    c_launch, c_peak, c_knee = _nonneg_relative_lstsq(
        design, [m.measured for m in gemm_meas])
    peak = 1.0 / c_peak if c_peak > 0 else default.peak_flops
    # eta_max is absorbed into the fitted peak; the knee alone shapes
    # the small-rows efficiency falloff.  GemmModel needs rows_half > 0.
    rows_half = c_knee / c_peak if c_peak > 0 and c_knee > 0 else 1e-3
    gemm_model = GemmModel(eta_max=1.0, rows_half=rows_half)

    coefficients: dict[str, dict] = {
        "gemm": {"launch": max(c_launch, 0.0), "peak_flops": peak}}
    for op_class in ("encode", "decode"):
        meas_c = _of_class(measurements, op_class)
        if len(meas_c) < 2:
            raise ValueError(
                f"need >= 2 {op_class} measurements to fit")
        design = [[1.0,
                   sparse_scatter_bytes(_moe_config(m.workload.params))]
                  for m in meas_c]
        launch, c_bw = _nonneg_relative_lstsq(
            design, [m.measured for m in meas_c])
        coefficients[op_class] = {
            "launch": max(launch, 0.0),
            "memory_bandwidth": (1.0 / c_bw if c_bw > 0
                                 else default.memory_bandwidth)}

    # Representative spec: GEMM peak/launch, geometric-mean sparse
    # bandwidth — sensible defaults for downstream consumers that use
    # the topology without per-kernel overrides.
    mean_bw = float(np.sqrt(
        coefficients["encode"]["memory_bandwidth"]
        * coefficients["decode"]["memory_bandwidth"]))
    gpu = GpuSpec(peak_flops=peak, memory_bandwidth=mean_bw,
                  memory_bytes=default.memory_bytes,
                  kernel_launch_overhead=coefficients["gemm"]["launch"])
    provenance = {"rows_half": rows_half,
                  "points": {cls: len(_of_class(measurements, cls))
                             for cls in ("gemm", "encode", "decode")}}
    return gpu, gemm_model, coefficients, provenance


def fit_a2a(measurements: list[Measurement]) -> tuple[LinkSpec, dict]:
    """Fit the alpha-beta link model from all-to-all wall times.

    The functional exchange runs its ``n`` per-rank loops serially, so
    ``measured ~= n * (latency + (n-1)*overhead + (n-1)*(S/n)/bw)`` —
    linear in ``[n, n(n-1), (n-1)*S]``.
    """
    a2a_meas = _of_class(measurements, "a2a")
    if len(a2a_meas) < 3:
        raise ValueError("need >= 3 a2a measurements to fit")
    design = []
    for meas in a2a_meas:
        n = float(meas.workload.params["world"])
        payload = _a2a_payload_bytes(meas.workload.params)
        design.append([n, n * (n - 1.0), (n - 1.0) * payload])
    c_lat, c_ovh, c_bw = _nonneg_relative_lstsq(
        design, [m.measured for m in a2a_meas])
    bandwidth = 1.0 / c_bw if c_bw > 0 else 1e12
    link = LinkSpec(bandwidth=bandwidth, latency=max(c_lat, 0.0),
                    message_overhead=max(c_ovh, 0.0))
    provenance = {"bandwidth": link.bandwidth, "latency": link.latency,
                  "message_overhead": link.message_overhead,
                  "points": len(a2a_meas)}
    return link, provenance


def fit_topology(measurements: list[Measurement]) -> CalibratedTopology:
    """Full fit: GPU + GEMM model + link, packaged as a topology."""
    gpu, gemm_model, coefficients, compute_fit = \
        fit_compute(measurements)
    link, a2a_fit = fit_a2a(measurements)
    worlds = [int(m.workload.params["world"]) for m in measurements
              if m.workload.op_class == "a2a"]
    max_world = max(worlds) if worlds else 1
    topo = ndv4_topology(num_gpus=max_world, gpus_per_node=max_world) \
        .with_gpu(gpu).with_links(link)
    return CalibratedTopology(
        topology=topo, gemm=gemm_model,
        kernel_coefficients=coefficients,
        fit={"schema": SCHEMA_VERSION, "compute": compute_fit,
             "a2a": a2a_fit})


# ----------------------------------------------------------------------
# Re-simulation and the fidelity report
# ----------------------------------------------------------------------

def simulate_workload(calibrated: CalibratedTopology,
                      workload: Workload) -> float:
    """Predicted wall time of one workload on the fitted topology."""
    sched = Schedule()
    if workload.op_class == "gemm":
        m, k, n = (workload.params["m"], workload.params["k"],
                   workload.params["n"])
        sched.new_op(work=batched_gemm_time(calibrated.gpu_for("gemm"),
                                            1, m, k, n, calibrated.gemm),
                     label=workload.label)
    elif workload.op_class in ("encode", "decode"):
        cfg = _moe_config(workload.params)
        sched.new_op(work=sparse_scatter_time(
            cfg, calibrated.gpu_for(workload.op_class)),
            label=workload.label)
    elif workload.op_class == "a2a":
        n = int(workload.params["world"])
        per_rank = a2a_time(calibrated.at_world(n),
                            _a2a_payload_bytes(workload.params),
                            A2AAlgorithm.LINEAR)
        # The functional exchange runs the ranks serially on this host:
        # n ops on one (gpu, stream) pair serialize FIFO.
        for rank in range(n):
            sched.new_op(work=per_rank, stream="comm", kind="comm",
                         label=f"{workload.label}_r{rank}")
    else:
        raise ValueError(f"unknown op class {workload.op_class!r}")
    sched.validate()
    return simulate(sched).makespan


@dataclass
class CalibrationReport:
    """Per-op-class prediction-error report of one calibration run."""

    profile: str  # "fast" | "full"
    calibrated: CalibratedTopology
    rows: list[dict]         # label, op_class, measured, simulated, err
    per_class: dict[str, dict]
    sim_vs_measured_p95_err: float
    schema: int = SCHEMA_VERSION

    def to_json_obj(self) -> dict:
        return {
            "schema": self.schema,
            "profile": self.profile,
            "fit": self.calibrated.fit,
            "kernel_coefficients":
                {k: dict(v) for k, v
                 in self.calibrated.kernel_coefficients.items()},
            "rows": [dict(r) for r in self.rows],
            "per_class": {k: dict(v) for k, v in self.per_class.items()},
            "sim_vs_measured_p95_err": self.sim_vs_measured_p95_err,
        }

    def render(self) -> str:
        from repro.bench.harness import Table

        table = Table("Simulator fidelity (signed rel. error)",
                      ["workload", "class", "measured", "simulated",
                       "err"])
        for r in self.rows:
            table.add_row(r["label"], r["op_class"],
                          f"{r['measured']:.3e}", f"{r['simulated']:.3e}",
                          f"{r['signed_err']:+.1%}")
        summary = Table("Per-class summary",
                        ["class", "points", "p50 signed", "p95 |err|"])
        for cls in sorted(self.per_class):
            s = self.per_class[cls]
            summary.add_row(cls, str(s["count"]),
                            f"{s['p50_signed_err']:+.1%}",
                            f"{s['p95_abs_err']:.1%}")
        return "\n".join([
            table.render(), "", summary.render(),
            f"sim_vs_measured_p95_err: "
            f"{self.sim_vs_measured_p95_err:.1%}"])


def _error_stats(errors: list[float]) -> dict:
    arr = np.asarray(errors, dtype=np.float64)
    return {
        "count": int(arr.size),
        "p50_signed_err": float(np.percentile(arr, 50)),
        "p95_abs_err": float(np.percentile(np.abs(arr), 95)),
        "max_abs_err": float(np.max(np.abs(arr))),
    }


def run_calibration(fast: bool = False, seed: int = 0) -> CalibrationReport:
    """Measure, fit, re-simulate, and report simulator fidelity: four
    measuring rounds for the compute kernels."""
    compute = gemm_workloads(fast) + moe_kernel_workloads(fast)
    a2a = a2a_workloads(fast)
    # The all-to-all walls are microseconds-scale and the jumpiest on a
    # busy host; give them ~3x the sampling (still cheap in absolute
    # terms) so the per-point minimum reliably finds the fast mode.
    measurements = (
        measure_workloads(compute, repeats=4, seed=seed)
        + measure_workloads(a2a, repeats=12, seed=seed))
    calibrated = fit_topology(measurements)

    rows: list[dict] = []
    by_class: dict[str, list[float]] = {}
    for meas in measurements:
        sim = simulate_workload(calibrated, meas.workload)
        err = (sim - meas.measured) / meas.measured
        rows.append({"label": meas.workload.label,
                     "op_class": meas.workload.op_class,
                     "measured": meas.measured, "simulated": sim,
                     "signed_err": err})
        by_class.setdefault(meas.workload.op_class, []).append(err)
    per_class = {cls: _error_stats(errs)
                 for cls, errs in by_class.items()}
    overall = float(np.percentile(
        np.abs([r["signed_err"] for r in rows]), 95))
    return CalibrationReport(
        profile="fast" if fast else "full", calibrated=calibrated,
        rows=rows, per_class=per_class,
        sim_vs_measured_p95_err=overall)


def emit_calibration(report: CalibrationReport,
                     directory=None, verbose: bool = False
                     ) -> BenchResult:
    """Emit ``BENCH_calibration.json`` for the regression gate.

    The headline fidelity metric is ``kind="model"`` so ``repro
    regress`` gates it (the committed baseline pins the measured value
    — 11%, the median of ten ``--fast`` runs on the build box, range
    10.0-13.1% — with ``higher_is_better=False`` and a 0.5 relative
    tolerance for noisy CI hosts, i.e. the gate trips above 16.5%);
    fitted coefficients and per-class stats are host-dependent and
    ride along as ``kind="measured"``.
    """
    metrics = [Metric("sim_vs_measured_p95_err",
                      report.sim_vs_measured_p95_err, unit="rel",
                      kind="model", higher_is_better=False,
                      tolerance=0.5)]
    for cls in sorted(report.per_class):
        stats = report.per_class[cls]
        metrics.append(Metric(f"{cls}_p50_signed_err",
                              stats["p50_signed_err"], unit="rel",
                              kind="measured"))
        metrics.append(Metric(f"{cls}_p95_abs_err",
                              stats["p95_abs_err"], unit="rel",
                              kind="measured"))
    gpu = report.calibrated.gpu
    link = report.calibrated.topology.intra_link
    for name, value, unit in (
            ("fitted_peak_flops", gpu.peak_flops, "flop/s"),
            ("fitted_memory_bandwidth", gpu.memory_bandwidth, "B/s"),
            ("fitted_launch_overhead", gpu.kernel_launch_overhead, "s"),
            ("fitted_rows_half", report.calibrated.gemm.rows_half,
             "rows"),
            ("fitted_link_bandwidth", link.bandwidth, "B/s"),
            ("fitted_link_latency", link.latency, "s"),
            ("fitted_link_overhead", link.message_overhead, "s")):
        metrics.append(Metric(name, value, unit=unit, kind="measured"))
    config = {"schema": SCHEMA_VERSION, "profile": report.profile,
              "classes": sorted(report.per_class),
              "fit": "nonneg-relative-lstsq",
              "dtype": np.dtype(default_dtype()).name,
              "dtype_bytes": dtype_bytes()}
    return emit("calibration", "Simulator-fidelity calibration",
                metrics, config=config, directory=directory,
                verbose=verbose)
