"""Tests of the benchmark itself: generators, reference checks and tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.  They use the
gsketch modules already imported in the test process and trim workloads to
a few cheap operations.
"""
import json
import os
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (WORKLOADS, build_sketch, check_anchors, CORPUS,  # noqa: E402
                       gsketch_modules)


@pytest.fixture(scope="module")
def gs():
    return gsketch_modules()


def _setup(gs, name, seed=7, keep=None):
    wl = WORKLOADS[name]
    state = wl.setup(gs, seed)
    if keep is not None:
        state.rounds = [[op for op in state.rounds[0] if keep(op)]]
    return wl, state


def test_generators_are_deterministic():
    for make in (gen.repair_rounds, gen.check_targets, gen.translate_inputs):
        assert make(3) == make(3)
        assert make(3) != make(4)


def test_setup_is_deterministic(gs):
    for name in WORKLOADS:
        a = WORKLOADS[name].setup(gs, 5).rounds
        b = WORKLOADS[name].setup(gs, 5).rounds
        assert a == b, name


def test_chain_verdicts_agree_with_brute_force(gs):
    doc = gs.dsl.parse_files(CORPUS[:3])
    fp = doc.footprints["CT"]
    rng = random.Random(1)
    specs = [gen.check_chain(rng, n, dup).spec() for n in (1, 2, 3, 4) for dup in (True, False)]
    specs += [gen.random_sketch(rng, rng.randint(2, 4), rng.randint(3, 6)) for _ in range(8)]
    for spec in specs:
        sketch = build_sketch(gs, spec, fp)
        target = reference.Target(sketch)
        anchors = check_anchors(rng, spec) if spec.composable() else {}
        for phi in ("phi2", "phi3", "phi4", "phi5", "phi6", "phi7", "phi8", "phi1"):
            cond = doc.conditions[phi]
            anchor = anchors.get(phi)
            if phi in ("phi1", "phi7", "phi8") and anchor is None:
                continue
            if anchor is None:
                t = ({}, {})
            elif anchor[0] == "pair":
                t = reference.maps_of(gs.graphs.morphism_of(
                    cond.context, sketch.context, edges={"e1": anchor[1], "e2": anchor[2]}))
            elif anchor[0] == "edge":
                t = reference.maps_of(gs.graphs.morphism_of(
                    cond.context, sketch.context, edges={"e": anchor[1]}))
            else:
                t = ({"v": anchor[1]}, {})
            assert reference.chain_verdict(spec, phi, anchor) == \
                reference.holds(t, target, cond), (phi, spec)


def test_check_scaled_catches_a_flipped_verdict(gs):
    wl, state = _setup(gs, "check-scaled")
    ops = [op for op in state.ops if op[0][0] == "random"][:8]
    ops += [op for op in state.ops if op[0][0] == "chain" and op[0][1].n <= 8][:8]
    for op in ops:
        out = wl.run(gs, state, op)
        assert wl.check(gs, state, op, out) == []
        assert wl.check(gs, state, op, SimpleNamespace(holds=not out.holds))


def test_repair_chain_catches_wrong_steps_and_shape(gs):
    wl, state = _setup(gs, "repair-chain", keep=lambda op: op[0].n <= 7)
    for op in state.rounds[0]:
        final, steps, exhausted = wl.run(gs, state, op)
        assert wl.check(gs, state, op, (final, steps, exhausted)) == []
        assert wl.check(gs, state, op, (final, steps + 1, exhausted))
        assert wl.check(gs, state, op, (final, steps - 1, exhausted))
        assert wl.check(gs, state, op, (final, steps, True))
        assert wl.check(gs, state, op, (op[1], steps, exhausted))
        fewer = gs.sketches.Sketch(final.context, list(final.statements)[1:])
        assert wl.check(gs, state, op, (fewer, steps, exhausted))


def test_translate_limits_catches_a_wrong_translation(gs):
    wl, state = _setup(gs, "translate-limits")
    for op in state.rounds[0][:12]:
        translated, unfolded = wl.run(gs, state, op)
        flipped = gs.conditions.Not(translated.context, translated)
        unfolded_flipped = gs.conditions.Not(unfolded.context, unfolded)
        planted = SimpleNamespace(**{**vars(state), "verified": {}})
        assert wl.check(gs, planted, op, (flipped, unfolded))
        assert wl.check(gs, planted, op, (translated, unfolded_flipped))
        assert wl.check(gs, state, op, (translated, unfolded)) == []
        # repeats are compared with the verified output
        assert wl.check(gs, state, op, (flipped, unfolded))


def test_cli_corpus_catches_wrong_exit_code_and_output(gs):
    wl, state = _setup(gs, "cli-corpus")
    for op in state.ops:
        code, out, err = wl.run(gs, state, op)
        assert wl.check(gs, state, op, (code, out, err)) == []
        assert wl.check(gs, state, op, (code + 1, out, err))
        assert wl.check(gs, state, op, (code, out.replace("\n", "\n ", 1), err))


def _traced(gs, name, keep):
    wl, state = _setup(gs, name, keep=keep)
    tr, _, walls, problems, failed = run.traced_round(wl, gs, state)
    assert problems == [] and failed == 0
    return tr, walls


CHEAP = {"repair-chain": lambda op: op[0].n <= 7,
         "check-scaled": lambda op: op[0][0] == "random" or op[0][1].n <= 12,
         "translate-limits": lambda op: True,
         "cli-corpus": lambda op: True}


@pytest.mark.parametrize("name", sorted(CHEAP))
def test_traced_counters_repeat_and_self_times_fit(gs, name):
    runs = []
    for _ in range(2):
        tr, walls = _traced(gs, name, CHEAP[name])
        per_op = [0.0] * len(walls)
        for span, st in zip(tr.spans, tr.self_times()):
            per_op[span[tracer.OP]] += st
            assert st >= 0
        assert all(s <= w for s, w in zip(per_op, walls))
        m = tracer.layer_metrics(tr.spans, tr.self_times(), sum(walls))
        runs.append({k: v for k, (v, unit) in m.items() if unit in ("count",)}
                    | {"match_yield": m["deduction.match_yield"][0]})
    assert runs[0] == runs[1]
    assert any(runs[0].values())


def test_tracer_uninstall_restores_functions(gs):
    before = gs.conditions.enumerate_extensions, gs.deduction.find_matches
    tr = tracer.Tracer()
    tr.install(0)
    assert gs.conditions.enumerate_extensions is not before[0]
    tr.uninstall()
    assert (gs.conditions.enumerate_extensions, gs.deduction.find_matches) == before


def test_benchmark_json_lists_the_layer_map():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    mapped = [m for row in layers["rows"] for m in row["metrics"]]
    produced = set(tracer.layer_metrics([], [], 1.0)) | {
        "trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead"}
    listed = [m["name"] for m in bench["per_layer"]]
    assert sorted(listed) == sorted(mapped) == sorted(produced)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert not proc.stdout.strip()
