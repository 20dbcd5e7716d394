"""Tests of the benchmark itself, at a tiny size (a few seconds in all).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import provenance  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

COUNTERS = ("kernel.tensor.matmul_calls", "kernel.tensor.matmul_gflop",
            "kernel.tensor.tape_nodes", "denoiser.denoise_calls",
            "negsample.calls", "evaluation.filter_set_mean",
            "data.history_fill", "data.batch_fill", "checkpoint.bytes")


def tiny_run(name, seed, traced, tmp_path):
    tracer = tracing.Tracer() if traced else None
    metrics, tally = harness.run(tiny(WORKLOADS[name]), seed, 0.3, tracer,
                                 str(tmp_path), log=lambda line: None,
                                 warmup_s=0.0)
    assert tally.failures == [] and tally.attempted > 0
    return metrics, tracer


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, traced, tmp_path):
    metrics, _ = tiny_run(name, 1, traced, tmp_path)
    section = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    units = harness.LAYER_UNITS if traced else harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in section} == units
    assert set(metrics) == set(units)
    for value in metrics.values():
        assert np.isfinite(value)


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = [(owner, attr, vars(owner)[attr])
              for owner, attr, _, _ in tracing.TARGETS]
    _, tracer = tiny_run("train_paper", 1, True, tmp_path)
    assert tracer.spans
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, attr


def test_names_are_restored_when_a_traced_call_raises():
    tracer = tracing.Tracer()
    before = {attr: vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS}
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    for owner, attr, _, _ in tracing.TARGETS:
        assert vars(owner)[attr] is before[attr]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_but_not_the_metric_set(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    one, two = workload.quadruples(1), workload.quadruples(2)
    assert one == workload.quadruples(1)
    assert one != two and len(one) == len(two)
    assert set(tiny_run(name, 1, False, tmp_path)[0]) == set(
        tiny_run(name, 2, False, tmp_path)[0])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counters_repeat_exactly_on_one_seed(name, tmp_path):
    first, _ = tiny_run(name, 3, True, tmp_path)
    second, _ = tiny_run(name, 3, True, tmp_path)
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}


def test_negative_branch_is_skipped_at_lambda_one(tmp_path):
    narrow, _ = tiny_run("train_narrow", 1, True, tmp_path)
    paper, _ = tiny_run("train_paper", 1, True, tmp_path)
    assert narrow["denoiser.denoise_calls"] == 1
    assert narrow["negsample.applied_share"] == 0.0
    assert paper["denoiser.denoise_calls"] == 2
    assert paper["negsample.applied_share"] == 1.0


def test_step_children_and_self_time_add_up(tmp_path):
    _, tracer = tiny_run("train_paper", 1, True, tmp_path)
    for i in tracer.indices("objectives.train_step"):
        b = tracer.breakdown(i)
        children = sum(b["total"].get(n, 0.0)
                       for parts in harness.STEP_PARTS.values() for n in parts)
        assert children + b["self"] == pytest.approx(b["duration"], abs=1e-9)


def test_rank_oracle_agrees_with_filtered_rank():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.integers(0, 5, size=40).astype(np.float64)
        gold = int(rng.integers(40))
        filt = set(rng.integers(0, 40, size=5).tolist())
        assert harness.brute_force_rank(scores, gold, filt) == \
            harness.evaluation.filtered_rank(scores, gold, filt)


def test_rank_check_sees_a_filtered_rank_that_ignores_its_filter(
        monkeypatch):
    workload = tiny(WORKLOADS["train_narrow"])
    splits = harness.synthetic.split_chronological(workload.quadruples(1))
    ready = harness.set_up(workload, splits, 1)
    queries = ready.per_split["test"][:harness.EVAL_CHUNK]
    schedule = harness.diffusion.build_schedule(workload.model["m_steps"])
    report = harness.evaluation.evaluate(
        queries, ready.params, schedule, ready.filter_index, tau=1.0, seed=1,
        chunk_size=harness.EVAL_CHUNK)
    args = (report, queries, ready.params, ready.filter_index, schedule, 1)
    assert harness.check_ranks(*args)
    original = harness.evaluation.filtered_rank
    monkeypatch.setattr(harness.evaluation, "filtered_rank",
                        lambda scores, gold, _: original(scores, gold, ()))
    assert not harness.check_ranks(*args)


def test_steps_spread_over_the_whole_epoch():
    for count in (1, 7, 315, 800):
        order = harness.spread_order(count)
        assert sorted(order(i) for i in range(count)) == list(range(count))
    assert harness.spread_order(315)(2) >= 63  # past the first timestamp


def test_state_check_sees_a_single_flipped_bit(tmp_path):
    workload = tiny(WORKLOADS["train_narrow"])
    splits = harness.synthetic.split_chronological(workload.quadruples(1))
    ready = harness.set_up(workload, splits, 1)
    path = str(tmp_path / "state.ckpt")
    harness.checkpoint.save(path, ready.params, ready.optimizer, "", ready.vocab,
                            1, 0.0, ready.rng)
    loaded = harness.checkpoint.load(path)
    assert harness.same_state(loaded, ready.params, ready.optimizer, ready.rng)
    table = ready.params["entity_table"].data
    table.view(np.uint64)[0, 0] ^= 1
    assert not harness.same_state(loaded, ready.params, ready.optimizer,
                                  ready.rng)


def test_results_with_other_backend_or_threads_are_not_compared():
    prov = {"backend": "numpy", "blas_threads": 2, "git_sha": "a"}
    record = {"workload": "train_narrow", "trace": 0, "provenance": prov,
              "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    other = json.loads(json.dumps(record))
    other["provenance"]["git_sha"] = "b"
    other["metrics"]["setup_s"]["value"] = 2.0
    assert compare.compare(record, other) == [("setup_s", "s", 1.0, 2.0, 2.0)]
    for key, value in (("backend", "numba"), ("blas_threads", 1)):
        changed = json.loads(json.dumps(other))
        changed["provenance"][key] = value
        with pytest.raises(ValueError, match=key):
            compare.compare(record, changed)


def test_provenance_names_every_field():
    prov = provenance.collect(ROOT)
    assert set(prov) == {"git_sha", "python", "numpy", "blas", "blas_threads",
                         "nproc", "backend"}
    assert prov["blas_threads"] >= 1 and prov["nproc"] >= 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
