"""Every instrumentation feature still works from a cold process.

Importing the MoE layer, the trainer or the serving engine loads
``repro.obs`` and ``repro.obs.registry`` only (pinned by
``test_lint.py::test_substrate_import_closure``); the module behind each
slot is imported by the code that turns the feature on.  The rest of
the suite runs in one interpreter where every module is already loaded,
so a missing deferred import would pass there.  Each test here runs in
a fresh interpreter that imports only the feature's public entry point,
and prints one JSON line the test checks.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.obs import MOE_STAGES
from repro.obs.trace import TraceRecorder

SRC = Path(__file__).resolve().parents[1] / "src"

#: A small seeded train/eval split and model, shared by the snippets.
SETUP = """
import json
import numpy as np
from repro.nn.models import MoEClassifier
from repro.train.data import ClusteredTokenTask

task = ClusteredTokenTask(num_clusters=8, input_dim=8, num_classes=4,
                          noise=0.4, seed=0)
train, test = task.sample(256), task.sample(64)

def model():
    return MoEClassifier(input_dim=8, model_dim=16, hidden_dim=32,
                         num_classes=4, num_blocks=2, num_experts=4,
                         rng=np.random.default_rng(0), top_k=2,
                         capacity_factor=1.25)
"""


def run_fresh(code: str, **env: str):
    """The JSON printed last by ``code`` run in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "REPRO_RUNS_DIR"}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         check=True, capture_output=True, text=True,
                         env={**base, "PYTHONPATH": path, **env})
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_run_dir_and_alerts_from_env(tmp_path):
    events = run_fresh("""
        import json, os
        from dataclasses import replace
        from pathlib import Path
        from repro.serve.engine import serve_workload
        from repro.serve.workloads import get_workload

        wl = get_workload("poisson_steady")
        wl = replace(wl, slo=replace(wl.slo, p99_ms=1e-6))
        res = serve_workload(wl, fast=True, seed=0)
        path = Path(os.environ["REPRO_RUNS_DIR"]) / res.run_id
        print(json.dumps([json.loads(line) for line in
                          (path / "events.jsonl").read_text().splitlines()]))
    """, REPRO_RUNS_DIR=str(tmp_path))
    assert any(e["kind"] == "alert"
               and e["data"]["alertname"] == "serving_p99_high"
               and e["data"]["state"] == "firing" for e in events)


def test_profiling_prices_ops():
    totals = run_fresh(SETUP + """
from repro.autograd.functional import cross_entropy
from repro.autograd.tensor import Tensor
from repro.obs.profiler import profiling

m = model()
with profiling() as prof:
    logits, l_aux = m(Tensor(train.x[:32]))
    (cross_entropy(logits, train.y[:32]) + l_aux * 0.01).backward()
print(json.dumps({"totals": prof.totals(), "stages": sorted(prof.by_stage())}))
""")
    assert totals["totals"]["ops"] > 0 and totals["totals"]["flops"] > 0
    assert set(MOE_STAGES) <= set(totals["stages"])


def test_checkpoint_and_resume_bit_identical(tmp_path):
    trained = run_fresh(SETUP + f"""
from repro.train.trainer import train_model

res = train_model(model(), train, test, steps=4, batch_size=32, seed=1,
                  checkpoint_every=2, checkpoint_dir={str(tmp_path)!r})
print(json.dumps({{"losses": res.losses, "paths": res.checkpoint_paths}}))
""")
    resumed = run_fresh(SETUP + f"""
from repro.train.trainer import train_model

res = train_model(model(), train, test, steps=4, batch_size=32, seed=1,
                  resume_from={trained["paths"][0]!r})
print(json.dumps({{"losses": res.losses}}))
""")
    assert len(trained["losses"]) == 4
    assert resumed["losses"] == trained["losses"]


def test_chrome_trace_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    spans = run_fresh(SETUP + f"""
from repro import obs
from repro.train.trainer import train_model

ob = obs.enable(trace=True)
train_model(model(), train, test, steps=2, batch_size=32)
ob.recorder.dump_chrome_trace({str(path)!r})
obs.disable()
print(json.dumps(sum(e.phase == "X" for e in ob.recorder.events)))
""")
    loaded = TraceRecorder.load_chrome_trace(path)
    names = {e.name for e in loaded.events if e.phase == "X"}
    assert spans > 0 and len([e for e in loaded.events
                              if e.phase == "X"]) == spans
    assert {"step", *MOE_STAGES} <= names
