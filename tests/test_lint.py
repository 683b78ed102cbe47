"""Source-level pins over ``src/repro`` (stdlib ``ast`` only).

* A local stand-in for ruff F401 (ruff runs in CI only): no module
  imports a name it does not use.
* ``nn/moe.py`` stays plain compute: no function-local import and no
  observer lookup — layers leave a record, loops publish it.
* One stage clock: ``nn/moe.py`` times each of ``repro.obs.MOE_STAGES``
  with one ``stage(...)`` and no ``span``; no other module defines or
  spells the stage names.
* One routing decision: ``select_top_k`` holds the only top-k sort and
  only ``route`` and ``nn/moe.py`` (DESIGN §15) resolve a capacity.
* One trace format: only ``obs/trace.py`` names Chrome's
  ``"traceEvents"`` key, and ``cluster/trace.py`` stays gone.
* The option surface: the ``REPRO_*`` environment variables read and
  the CLI's argument count.  A change that adds a knob edits the pin
  in the same diff, where a reviewer sees it.
* No server: nothing under ``src/`` imports ``http.server`` or
  ``socketserver`` — a run is read from its directory.
* One import path per name: package ``__init__`` modules re-export
  nothing, so importing the MoE layer, the trainer or the serving
  engine does not load the cluster simulator (DESIGN §2), nor any
  instrumentation module that is off by default (DESIGN §6).
* One layout model: ``parallel/strategy.py::build_segment_spec`` is the
  only place a ``SegmentSpec`` is built, and ``r`` is
  ``MoEConfig.expert_shards``.
* One expert placement: P1 and P2 share ``column_shards``; the ZeRO
  slice format and its ``ExpertParams`` wrapper stay gone, and
  ``parallel/functional.py`` is the one caller of the functional
  ``all_gather``.
* Tape ops live under ``autograd/``: ``Tensor.from_op`` is called
  nowhere else, so the profiler's cost-table check sees every op.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src/repro"


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names inside quoted annotations (``x: "Tensor"``)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        for field in ("annotation", "returns"):
            ann = getattr(node, field, None)
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                 str):
                    names |= {n.id for n in
                              ast.walk(ast.parse(sub.value, mode="eval"))
                              if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_checker_flags_what_f401_would():
    src = ("import os\nimport json as j\nfrom a import b, c, d\n"
           "__all__ = ['c']\ndef f(x: 'd') -> None:\n    return j.dumps(x)\n")
    assert unused_imports(src) == ["os (line 1)", "b (line 3)"]


def test_no_unused_imports():
    modules = list(SRC.rglob("*.py"))
    assert len(modules) > 50  # the glob found the package
    # CI's ruff step covers src and tests only.
    scripts = [*ROOT.glob("benchmarks/*.py"), *ROOT.glob("examples/*.py")]
    assert len(scripts) > 25
    assert {str(p.relative_to(ROOT)): names
            for p in sorted(modules + scripts)
            if (names := unused_imports(p.read_text()))} == {}


def test_moe_layer_is_plain_compute():
    tree = ast.parse((SRC / "nn/moe.py").read_text())
    local_imports = [
        node.lineno for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local_imports == []
    names = {getattr(n, "id", None) or getattr(n, "attr", None)
             or getattr(n, "name", None) for n in ast.walk(tree)}
    assert "softmax" in names and "get_observer" not in names


def test_one_stage_clock():
    obs_tree = ast.parse((SRC / "obs/__init__.py").read_text())
    stages = next(ast.literal_eval(node.value) for node in obs_tree.body
                  if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "MOE_STAGES")
    moe = ast.parse((SRC / "nn/moe.py").read_text())
    from_obs = {alias.name for node in ast.walk(moe)
                if isinstance(node, ast.ImportFrom)
                and node.module == "repro.obs" for alias in node.names}
    assert {"MOE_STAGES", "stage"} <= from_obs and "span" not in from_obs
    # One clock per stage, in the order MOE_STAGES names them.
    names = next(node.targets[0] for node in moe.body
                 if isinstance(node, ast.Assign)
                 and ast.unparse(node.value) == "MOE_STAGES")
    clocks = sorted((node.lineno, ast.unparse(node.args[0]))
                    for node in ast.walk(moe) if isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "stage")
    assert [arg for _, arg in clocks] \
        == [ast.unparse(n) for n in names.elts]
    assert len(clocks) == len(stages)
    defined, spelled = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        name = str(path.relative_to(SRC))
        if any(isinstance(node, ast.Assign)
               and "MOE_STAGES" in ast.unparse(node.targets[0])
               for node in ast.walk(tree)):
            defined.append(name)
        if any(isinstance(node, (ast.Tuple, ast.List, ast.Set))
               and sum(isinstance(e, ast.Constant) and e.value in stages
                       for e in node.elts) > 1
               for node in ast.walk(tree)):
            spelled.append(name)
    assert defined == spelled == ["obs/__init__.py"]
    ledger = ast.parse((SRC / "serve/ledger.py").read_text())
    assert any(isinstance(node, ast.ImportFrom) and node.module == "repro.obs"
               and "MOE_STAGES" in {a.name for a in node.names}
               for node in ast.walk(ledger))


def environment_reads(tree: ast.AST) -> set[str]:
    """Literal keys of ``os.environ[...]`` / ``os.environ.<m>(...)`` /
    ``os.getenv(...)``."""
    keys: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) \
                and ast.unparse(node.value) == "os.environ":
            keys.append(node.slice)
        elif isinstance(node, ast.Call) and ast.unparse(node.func).startswith(
                ("os.environ.", "os.getenv")):
            keys += node.args[:1]
    return {k.value for k in keys if isinstance(k, ast.Constant)}


def defaulted_parameters(tree: ast.Module) -> int:
    """Defaulted parameters, positional or keyword-only, of every
    module- and class-level ``def`` whose name does not start with
    ``_`` (``__init__`` included)."""
    defs = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [sub for sub in node.body if isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sum(len(fn.args.defaults)
               + sum(d is not None for d in fn.args.kw_defaults)
               for fn in defs
               if not fn.name.startswith("_") or fn.name == "__init__")


def test_option_surface_is_pinned():
    read = set()
    options = 0
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        read |= environment_reads(tree)
        options += defaulted_parameters(tree)
    assert read == {"REPRO_BENCH_DIR", "REPRO_DTYPE", "REPRO_RUNS_DIR",
                    "REPRO_SCALE", "REPRO_TRACE"}
    # Every option in src/ has two values in use outside tests, or is
    # is kept for a reason the options census in CHANGES gives.
    assert options == 210
    assert (SRC / "cli.py").read_text().count("add_argument(") == 37


def imported_modules(tree: ast.AST) -> set[str]:
    """Every module an import can bind (``from a import b`` names both
    ``a`` and ``a.b``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {node.module} | {f"{node.module}.{alias.name}"
                                      for alias in node.names}
    return names


SERVERS = {"http.server", "socketserver"}


def test_no_server():
    # The run directory is the interface: nothing under src/ serves it.
    for probe in ("import socketserver", "import http.server",
                  "from http import server",
                  "from http.server import HTTPServer"):
        assert imported_modules(ast.parse(probe)) & SERVERS, probe
    assert not imported_modules(ast.parse("from http import client")) \
        & SERVERS
    assert [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
            if imported_modules(ast.parse(path.read_text())) & SERVERS] \
        == []


def test_one_trace_format():
    assert not (SRC / "cluster/trace.py").exists()
    assert [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
            if any(isinstance(node, ast.Constant)
                   and node.value == "traceEvents"
                   for node in ast.walk(ast.parse(path.read_text())))] \
        == ["obs/trace.py"]


def top_k_sorts(tree: ast.AST) -> list[str]:
    """Functions calling ``argsort`` on a negated operand along axis 1."""
    return [fn.name for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for call in ast.walk(fn)
            if isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) == "argsort"
            and call.args and isinstance(call.args[0], ast.UnaryOp)
            and isinstance(call.args[0].op, ast.USub)
            and any(kw.arg == "axis" and ast.unparse(kw.value) == "1"
                    for kw in call.keywords)]


def test_one_routing_decision():
    assert top_k_sorts(ast.parse(
        "def probe(p, k):\n"
        "    return np.argsort(-p, axis=1, kind='stable')[:, :k]\n"
        "def queue(q):\n    return np.argsort(-q, kind='stable')\n"
    )) == ["probe"]
    sorts, resolvers, callers = {}, [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        name = str(path.relative_to(SRC))
        if found := top_k_sorts(tree):
            sorts[name] = found
        if any(alias.name == "resolve_capacity" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names):
            resolvers.append(name)
        if any(isinstance(node, ast.Call) and ast.unparse(node.func)
               .rpartition(".")[2] in ("select_top_k", "compute_locations")
               for node in ast.walk(tree)):
            callers.append(name)
    # A new entry here is a hand-composed router: call
    # repro.nn.moe.route, the one composition, instead.
    assert sorts == {"moe/gating.py": ["select_top_k"]}
    assert resolvers == callers == ["nn/moe.py"]


def call_sites(tree: ast.AST, callee=lambda func: func == "SegmentSpec"
               ) -> list[str]:
    """Enclosing function of every call whose unparsed callee
    ``callee`` accepts ("" at module level); by default every
    ``SegmentSpec(...)``."""
    sites: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) \
                    and callee(ast.unparse(child.func)):
                sites.append(scope)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(tree, "")
    return sites


def test_one_layout_model():
    assert not (SRC / "parallel/router.py").exists()
    sites, defined = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
        if found := call_sites(tree):
            sites[str(path.relative_to(SRC))] = set(found)
    assert sites == {"parallel/strategy.py": {"build_segment_spec"}}
    assert "replication_factor" not in defined


def test_one_a2a_schedule():
    # Every collective price is a phase list priced by one function:
    # nothing else turns bytes and messages into seconds.
    gone = {"linear_a2a_time", "naive_local_agg_a2a_time",
            "twodh_a2a_time", "threedh_a2a_time", "all_to_all_linear",
            "_intra_node_exchange", "_inter_node_exchange"}
    sites, defined, params = {}, set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))}
        params |= {arg.arg for node in ast.walk(tree)
                   if isinstance(node, ast.arguments)
                   for arg in node.args + node.kwonlyargs}
        if found := call_sites(tree, lambda func: func.endswith(
                ".stream_time") or func == "stride_memcpy_time"):
            sites[str(path.relative_to(SRC))] = set(found)
    assert sites == {"collectives/schedule.py": {"_phase_time"}}
    assert not defined & gone
    assert "nodes_per_group" not in params


def test_one_expert_placement():
    # P1 all-gathers the column shards P2 computes on; a second
    # parameter format would make a P1/P2 switch move parameters.
    gone = {"ExpertParams", "slice_expert_zero", "gather_zero_slices",
            "shard_expert_columns"}
    defined, callers = set(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))}
        if any(isinstance(node, ast.Call) and ast.unparse(node.func)
               .rpartition(".")[2] == "all_gather"
               for node in ast.walk(tree)):
            callers.append(str(path.relative_to(SRC)))
    assert not defined & gone
    assert callers == ["parallel/functional.py"]


def test_one_expert_ffn():
    # Every NumPy forward and backward runs the fused kernels of
    # moe/ffn.py; the fused dense ffn op in autograd/functional.py is
    # the only other caller of the activation and of its derivative.
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    for kernel in ("act_forward", "act_backward"):
        callers = [name for name, tree in trees.items()
                   if any(isinstance(node, ast.Call)
                          and ast.unparse(node.func).endswith(kernel)
                          for node in ast.walk(tree))]
        assert callers == ["autograd/functional.py", "moe/ffn.py"], kernel


def test_tape_ops_live_in_autograd():
    # The profiler's cost-table check (test_profiler.py) reads the op
    # names of the ``from_op`` calls under autograd/ only; an op defined
    # anywhere else would escape it and raise KeyError under profiling.
    callers = sorted({str(path.relative_to(SRC))
                      for path in SRC.rglob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "from_op"})
    assert callers and all(c.startswith("autograd/") for c in callers)


def test_package_inits_import_nothing():
    # obs/__init__.py is the observer module itself, not a facade.
    inits = sorted(SRC.rglob("__init__.py"))
    assert len(inits) > 15
    assert [str(path.relative_to(SRC)) for path in inits
            if any(isinstance(node, (ast.Import, ast.ImportFrom))
                   for node in ast.walk(ast.parse(path.read_text())))] \
        == ["obs/__init__.py"]
    top = ast.parse((SRC / "__init__.py").read_text()).body
    assert [ast.unparse(node).split(" =")[0] for node in top[1:]] \
        == ["__version__"]


#: Stdlib packages no training or serving entry point may load: the
#: process pools (the expert FFN runs in-process) and what only the run
#: registry needs (``git describe``, config fingerprints).
BANNED_STDLIB = ("multiprocessing", "concurrent", "subprocess", "hashlib")


def loaded_modules(entry: str, then: str = "") -> set[str]:
    """``repro`` and :data:`BANNED_STDLIB` modules in ``sys.modules``
    after a fresh interpreter imports ``entry`` (and runs ``then``)."""
    roots = ("repro", *BANNED_STDLIB)
    code = (f"import json, sys, {entry}\n{then}\n"
            "print(json.dumps([m for m in sys.modules\n"
            f"                  if m.split('.')[0] in {roots!r}]))")
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    return set(json.loads(out.stdout))


def subpackages(modules: set[str]) -> set[str]:
    return {m.split(".")[1] for m in modules if "." in m}


SIMULATOR = {"cluster", "collectives", "parallel", "pipeline", "runtime"}


#: Modules behind the ``repro.obs`` slots and alert rules, loaded only
#: by the code that turns their feature on.
DEFERRED_OBS = {f"repro.obs.{name}" for name in
                ("profiler", "runs", "overhead", "alerts", "trace")}


def test_substrate_import_closure():
    moe = loaded_modules("repro.nn.moe")
    trainer = loaded_modules("repro.train.trainer")
    engine = loaded_modules("repro.serve.engine")
    for modules in (moe, trainer, engine):
        assert {m.split(".")[0] for m in modules} == {"repro"}
        assert modules & DEFERRED_OBS == set()
    # Only serving makes an observer (for its measured column).
    assert "repro.obs.registry" not in moe | trainer
    assert len(moe) <= 18 and len(trainer) <= 24 and len(engine) <= 30
    assert subpackages(moe) & (SIMULATOR | {
        "bench", "scenarios", "resilience", "serve", "train", "models",
        "baselines"}) == set()
    assert subpackages(trainer) & (SIMULATOR | {
        "bench", "scenarios", "resilience", "serve"}) == set()
    # Serving emits bench.report records and shares the LinkBrownout
    # window of scenarios.spec; both are leaves of the stdlib.
    assert subpackages(engine) & (SIMULATOR | {"resilience", "train"}) \
        == set()
    assert {m for m in engine if subpackages({m}) & {"bench", "scenarios"}} \
        == {"repro.bench", "repro.bench.report", "repro.scenarios",
            "repro.scenarios.spec"}


def test_training_without_checkpoints_loads_no_resilience():
    trained = loaded_modules("repro.train.trainer", then=(
        "import numpy as np\n"
        "from repro.nn.models import MoEClassifier\n"
        "from repro.train.data import ClusteredTokenTask\n"
        "task = ClusteredTokenTask(num_clusters=4, input_dim=8,\n"
        "                          num_classes=4, seed=0)\n"
        "model = MoEClassifier(input_dim=8, model_dim=16, hidden_dim=16,\n"
        "                      num_classes=4, num_blocks=1, num_experts=4,\n"
        "                      rng=np.random.default_rng(0))\n"
        "repro.train.trainer.train_model(model, task.sample(64),\n"
        "                                task.sample(32), steps=1)"))
    assert "repro.train.trainer" in trained
    assert subpackages(trained) & {"resilience"} == set()
    assert trained & DEFERRED_OBS == set()
