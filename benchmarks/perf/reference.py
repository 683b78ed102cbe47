"""Frozen machine references for the wall-clock benchmark.

FROZEN after the first baseline (``reference_version`` in ``spec.json``):
every reported time is a ratio to these loops, so editing one restarts
the benchmark's history.  This module never imports ``repro`` — it has
to keep measuring the *machine* while the program under test changes.

Two references:

* :class:`WorkloadReference` — a NumPy replica of the resource mix of one
  root (one training step / one served batch) at the workload's own
  layer widths: router GEMM + softmax + stable argsort, scatter into the
  ``(E*cap, M)`` dispatch buffer, two batched expert GEMMs with the
  mul-chained tanh-GELU between them, weighted gather-add; in train mode
  also the mirrored backward GEMMs, the GELU derivative chain, an
  Adam-shaped update and a parameter copy.  The replica is repeated
  ``reps`` times so that at small widths it is bound by NumPy call
  overhead, like the program, and is followed by an interpreter-bound
  share (:func:`python_mix`, compile + exec) sized to the program's.
  The mix is matched because kernels respond differently to this class
  of host's two machine states; see README.md for the measurements.
* :func:`interpreter_reference_ns` — compile + exec of a fixed synthetic
  module, the interpreter-bound work set-up time is normalised by.

All buffers are allocated once; a step reads the same inputs and writes
the same scratch every time, so its cost depends on the machine only.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

REFERENCE_VERSION = 1


@dataclass(frozen=True)
class RefSpec:
    """Shape of one reference step (see ``workloads.py`` for the values)."""

    tokens: int
    model_dim: int
    hidden_dim: int
    num_experts: int
    top_k: int
    capacity_factor: float
    layers: int
    train: bool
    reps: int
    py_iters: int = 0        # python_mix iterations per step
    interp_units: int = 0    # synthetic-module units compiled per step


class WorkloadReference:
    """One workload's frozen reference step; ``step()`` returns its ns.

    Every array the size of the dispatch buffer or larger is allocated
    here, once, and written with ``out=``: a step that mallocs large
    temporaries runs at one of two speeds depending on the allocator
    state the *program* left behind (measured: 15.4 vs 19.0 ms for the
    same step), which is noise a reference must not have.
    """

    def __init__(self, spec: RefSpec) -> None:
        self.spec = spec
        t, m, h = spec.tokens, spec.model_dim, spec.hidden_dim
        e, k = spec.num_experts, spec.top_k
        self.cap = cap = math.ceil(k * t * spec.capacity_factor / e)
        rng = np.random.default_rng(20230604)
        f32 = np.float32

        def normal(shape, scale=1.0):
            return (rng.standard_normal(shape) * scale).astype(f32)

        def scratch(*shape):
            return np.zeros(shape, dtype=f32)

        self.x = normal((t, m))
        self.wg = normal((m, e), m ** -0.5)
        # One weight set per layer: the working set, not just the
        # arithmetic, has to match the program's.
        self.w1s = [normal((e, m, h), m ** -0.5) for _ in range(spec.layers)]
        self.w2s = [normal((e, h, m), h ** -0.5) for _ in range(spec.layers)]
        self.disp = scratch(e * cap, m)
        self.out = scratch(t, m)
        self.arange = np.arange(k * t, dtype=np.int64)
        self.hid, self.inner, self.tanh, self.act = (
            scratch(e, cap, h) for _ in range(4))
        self.y = scratch(e, cap, m)
        if spec.train:
            self.gy = normal((e, cap, m))
            self.ga, self.slope, self.dact = (
                scratch(e, cap, h) for _ in range(3))
            self.gx = scratch(e, cap, m)
            self.params = [self.wg, self.w1s[0], self.w2s[0]]
            self.grads, self.m1, self.m2, self.tmp, self.stepped, self.saved = (
                [np.zeros_like(p) for p in self.params] for _ in range(6))
        self.source = _synthetic_module_source(spec.interp_units)

    def _root(self, layer: int) -> None:
        s = self.spec
        t, e, k, cap = s.tokens, s.num_experts, s.top_k, self.cap
        x, w1, w2 = self.x, self.w1s[layer], self.w2s[layer]
        # Router: GEMM, softmax, full stable argsort, queue positions.
        logits = x @ self.wg
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
        flat = order.T.reshape(-1)
        perm = np.argsort(flat, kind="stable")
        sorted_e = flat[perm]
        starts = np.searchsorted(sorted_e, sorted_e, side="left")
        loc = np.empty(k * t, dtype=np.int64)
        loc[perm] = self.arange - starts
        loc = loc.reshape(k, t)
        keep = loc < cap
        cells = order.T * cap + loc
        gates = np.take_along_axis(probs, order, axis=1).T
        # Dispatch scatter, expert FFN, weighted gather-add per slot.
        disp = self.disp
        disp.fill(0)
        slots, toks = np.nonzero(keep)
        disp[cells[slots, toks]] = x[toks]
        d3 = disp.reshape(e, cap, s.model_dim)
        hid, inner, tanh, act = self.hid, self.inner, self.tanh, self.act
        np.matmul(d3, w1, out=hid)
        # Tanh-GELU as a chain of elementwise passes: the memory-bound
        # part of the expert FFN.
        np.multiply(hid, hid, out=inner)
        inner *= hid
        inner *= 0.044715
        inner += hid
        inner *= 0.7978846
        np.tanh(inner, out=tanh)
        np.add(tanh, 1.0, out=act)
        act *= hid
        act *= 0.5
        np.matmul(act, w2, out=self.y)
        y = self.y.reshape(-1, s.model_dim)
        out = self.out
        out.fill(0)
        for slot in range(k):
            sel = keep[slot]
            idx = np.nonzero(sel)[0]
            out[idx] += gates[slot, sel][:, None] * y[cells[slot, sel]]
        if not s.train:
            return
        # Mirrored backward GEMMs and the GELU derivative chain.
        gy, ga, slope, dact = self.gy, self.ga, self.slope, self.dact
        gwg, gw1, gw2 = self.grads
        np.matmul(gy, w2.swapaxes(-1, -2), out=ga)
        np.matmul(act.swapaxes(-1, -2), gy, out=gw2)
        np.multiply(hid, hid, out=slope)
        slope *= 3 * 0.044715
        slope += 1.0
        slope *= 0.7978846
        np.multiply(tanh, tanh, out=dact)
        np.subtract(1.0, dact, out=dact)
        dact *= slope
        dact *= hid
        dact += 1.0
        dact += tanh
        dact *= 0.5
        ga *= dact
        np.matmul(ga, w1.swapaxes(-1, -2), out=self.gx)
        np.matmul(d3.swapaxes(-1, -2), ga, out=gw1)
        probs -= 1.0 / e
        np.matmul(x.T, probs, out=gwg)
        # Adam-shaped update into scratch (parameters stay fixed, so the
        # arithmetic is stationary) and the trainer's parameter snapshot.
        for p, g, m1, m2, tmp, dst, saved in zip(
                self.params, self.grads, self.m1, self.m2, self.tmp,
                self.stepped, self.saved):
            m1 *= 0.9
            np.multiply(g, 0.1, out=tmp)
            m1 += tmp
            m2 *= 0.999
            np.multiply(g, g, out=tmp)
            tmp *= 0.001
            m2 += tmp
            np.sqrt(m2, out=tmp)
            tmp += 1e-8
            np.divide(m1, tmp, out=tmp)
            tmp *= 3e-3
            np.subtract(p, tmp, out=dst)
            np.copyto(saved, dst)

    def step(self) -> int:
        """Run the reference once; returns its wall time in ns."""
        s = self.spec
        t0 = perf_counter_ns()
        for _ in range(s.reps):
            for layer in range(s.layers):
                self._root(layer)
        if s.py_iters:
            python_mix(s.py_iters)
        if s.interp_units:
            exec(compile(self.source, "<perf-reference>", "exec"), {})
        return perf_counter_ns() - t0


@dataclass(frozen=True)
class _Row:
    ident: int
    tokens: int
    spans: dict


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents, backward):
        self.value = value
        self.parents = parents
        self.backward = backward


def python_mix(iters: int) -> int:
    """Interpreter-bound share of a root: the program's own idioms.

    Frozen dataclasses and dict building (ledger rows), largest-
    remainder apportionment with a keyed sort, f-string metric names and
    sorted inserts (the observer), closures on small ``__slots__`` nodes
    and an id-set graph walk (the autograd tape).  No NumPy: this is the
    part of the mix that responds to the machine like bytecode does.
    """
    acc = 0
    samples: list[float] = []
    for i in range(iters):
        tokens = [4 + (i + j) % 29 for j in range(8)]
        total = sum(tokens)
        wall = 1_000_003 + i
        shares = [wall * t // total for t in tokens]
        rem = [(wall * t) % total for t in tokens]
        order = sorted(range(8), key=lambda j: (-rem[j], j))
        for j in order[:wall - sum(shares)]:
            shares[j] += 1
        rows = [_Row(j, t, {"queue": sh, "gate": wall, "name": f"serve.{j}"})
                for j, (t, sh) in enumerate(zip(tokens, shares))]
        acc += sum(r.spans["queue"] for r in rows if r.tokens > 8)
        insort(samples, (wall % 997) / 997.0)
        if len(samples) > 256:
            del samples[::2]
        leaf = _Node(float(i), (), None)
        node = leaf
        for j in range(6):
            parent = node

            def backward(grad, parent=parent, j=j):
                return grad * (j + 1) + parent.value

            node = _Node(node.value + j, (parent, leaf), backward)
        seen: set[int] = set()
        stack = [node]
        topo = []
        while stack:
            cur = stack.pop()
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            topo.append(cur)
            stack.extend(cur.parents)
        grad = 1.0
        for cur in topo:
            if cur.backward is not None:
                grad = cur.backward(grad) % 1009.0
        acc += int(grad)
    return acc


def _synthetic_module_source(units: int) -> str:
    lines = []
    for i in range(units):
        lines.append(
            f"class C{i}:\n"
            f"    '''doc {i}'''\n"
            f"    def __init__(self, a={i}, b=None):\n"
            f"        self.a = a\n"
            f"        self.b = b if b is not None else [a, a + 1]\n"
            f"    def f(self, x):\n"
            f"        return (self.a * x + {i}) % 7 if x > {i} else x\n"
            f"def fn{i}(x, y={i}):\n"
            f"    acc = 0\n"
            f"    for j in range(12):\n"
            f"        acc += (x + j) * y\n"
            f"    return acc + C{i}().f(x)\n"
            f"V{i} = fn{i}({i})\n")
    return "".join(lines)


_SOURCE = _synthetic_module_source(220)


def interpreter_reference_ns() -> int:
    """Compile + exec the fixed synthetic module; returns its ns.

    Interpreter-bound (parse, compile, class/function creation, short
    bytecode loops): the mix a fresh interpreter importing a package
    pays, which is what ``setup_s`` is made of.
    """
    t0 = perf_counter_ns()
    exec(compile(_SOURCE, "<perf-setup-reference>", "exec"), {})
    return perf_counter_ns() - t0
