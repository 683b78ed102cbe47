"""The phase plan is a pure function of its arguments; the spec and the
contract agree."""

import dataclasses
import json
from pathlib import Path

import pytest

import workloads
from reference import REFERENCE_VERSION

SPEC = workloads.load_spec()


@pytest.mark.parametrize("name", sorted(SPEC["workloads"]))
def test_plan_is_pure(name):
    a = workloads.make_plan(SPEC, name, 3, 18.0, 1)
    b = workloads.make_plan(json.loads(json.dumps(SPEC)), name, 3, 18.0, 1)
    assert a == b
    # Only the seed field depends on the seed; nothing on the clock.
    other = workloads.make_plan(SPEC, name, 4, 18.0, 1)
    assert dataclasses.replace(other, seed=3) == a
    # More seconds, more blocks; the untimed parts stay put.
    longer = workloads.make_plan(SPEC, name, 3, 36.0, 1)
    assert longer.blocks >= 2 * a.blocks - 1
    assert (longer.warm_roots, longer.fingerprint_roots, longer.probes) == (
        a.warm_roots, a.fingerprint_roots, a.probes)
    untraced = workloads.make_plan(SPEC, name, 3, 18.0, 0)
    assert untraced.traced_blocks == 0 and untraced.blocks > a.blocks


def test_plan_rejects_bad_arguments():
    with pytest.raises(KeyError):
        workloads.make_plan(SPEC, "nope", 0, 10.0, 0)
    with pytest.raises(ValueError):
        workloads.make_plan(SPEC, "train_small", 0, 0.0, 0)
    with pytest.raises(ValueError):
        workloads.make_plan(SPEC, "train_small", 0, 10.0, 2)


def test_sub_seeds_are_distinct_and_stable():
    seeds = {workloads.sub_seed(s, i) for s in range(20) for i in range(400)}
    assert len(seeds) == 20 * 400
    assert workloads.sub_seed(5, 7) == 5 * 1_000_003 + 7


def test_reference_cost_is_a_small_share_of_a_block():
    for name, wl in SPEC["workloads"].items():
        assert wl["ref_nominal_s"] <= 0.2 * wl["plan"]["nominal_block_s"], name


def test_spec_and_contract_agree():
    contract_path = workloads.REPO_ROOT / "BENCHMARK.json"
    if not contract_path.exists():
        pytest.skip("no BENCHMARK.json next to this checkout")
    contract = workloads.load_contract()
    assert SPEC["reference_version"] == REFERENCE_VERSION
    assert SPEC["claim"] is None
    names = [w["name"] for w in contract["workloads"]]
    assert sorted(names) == sorted(SPEC["workloads"])
    per_layer = {m["name"] for m in contract["per_layer"]}
    assert set(SPEC["null_on"]) <= per_layer
    for metric, where in SPEC["null_on"].items():
        assert set(where) <= set(names), metric
    assert contract["paths"] == [str(Path("benchmarks") / "perf")]
    assert "setup_s" in {m["name"] for m in contract["end_to_end"]}
