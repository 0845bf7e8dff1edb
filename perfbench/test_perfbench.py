"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from timing import summarize, tail  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from worker import run_passes  # noqa: E402


def test_tail_is_slowest_op_below_eleven_ops():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail(list(range(10))) == (9, 100.0)


def test_tail_has_ten_ops_beyond_it():
    assert tail(list(range(11))) == (0, 100.0 / 11)
    value, percentile = tail(list(range(1000)))
    assert value == 989 and percentile == 99.0
    assert sum(1 for d in range(1000) if d > value) == 10
    s = summarize([[5, 1, 4, 2, 3], [6, 2, 3, 2, 9]])
    assert s == {"wall": 14, "p50": 3, "tail": 5, "tail_percentile": 100.0,
                 "ops": 5, "passes": 2}


def test_stab_tail_is_its_slowest_op(tmp_path):
    # with eleven or more ops the tail would sit ten ops below the slowest
    # one, and the costly stabilizers could not move it
    assert len(workloads.stab_ops(1, str(tmp_path))) <= 10


def test_failed_ops_are_counted_not_dropped():
    def boom():
        raise ValueError("boom")

    ops = [
        workloads.Op("right", lambda: 2 + 2, lambda r: None if r == 4 else "no"),
        workloads.Op("wrong expected value", lambda: 2 + 2,
                     lambda r: None if r == 5 else "got %d" % r),
        workloads.Op("raises", boom, lambda r: None, reference=False),
    ]
    out = run_passes(ops, seconds=0, one_pass=True)
    assert out["attempted"] == 3 and out["failed"] == 2
    assert not out["reference_ok"]
    assert len(out["passes"]) == 1 and len(out["passes"][0]) == 3
    assert out["problems"] == ["wrong expected value: got 4",
                               "raises: raised ValueError: boom"]


def test_invariant_failure_keeps_reference_results_correct():
    ops = [workloads.Op("sweep", lambda: 0, lambda r: "broken", reference=False)]
    out = run_passes(ops, seconds=0, one_pass=True)
    assert out["failed"] == 1 and out["reference_ok"]


def test_tracer_sees_calls_between_modules():
    from buraubuilding import building, groupcalc
    I = building.identity_vertex(3)
    with Tracer() as tracer:
        assert len(building.link(I)) == 26
        assert tracer.calls["building.canonicalize"] == 26
        assert tracer.calls["building.link"] == 1
        tracer.reset()
        seen = groupcalc.orbit_bfs(I, ("x", "y"), 1)
        metrics = tracer.metrics()
    # one BFS level: four generator matrices applied to [I]
    assert metrics["building.apply.calls"] == 4
    assert metrics["groupcalc.orbit_bfs.calls"] == 1
    assert metrics["groupcalc.orbit_bfs.new_per_apply"] == len(seen) / 4
    assert metrics["rep.MatrixRF.mul.calls"] >= 4
    assert metrics["arith.RatFunc.init.calls"] > 0
    assert all(metrics[layer + ".self_s"] > 0
               for layer in ("arith", "rep", "building", "groupcalc"))
    # uninstalled: the originals are back
    assert not hasattr(building.canonicalize, "__wrapped__")
    assert set(metrics) == {name for name, _, _ in PER_LAYER}


def test_layer_self_times_add_up_to_the_traced_time():
    from buraubuilding import building
    I = building.identity_vertex(3)
    with Tracer() as tracer:
        building.link(I)
        total = sum(end - start for _, parent, _, start, end in tracer.spans
                    if parent == 0)
        layers = sum(tracer.layer_self.values())
    assert layers == pytest.approx(total, rel=1e-6)


def test_inputs_follow_the_seed():
    assert workloads.words_inputs(20240601) == workloads.words_inputs(20240601)
    assert workloads.words_inputs(20240601) != workloads.words_inputs(7)
    assert workloads.stab_inputs(20240601) == workloads.stab_inputs(20240601)
    assert workloads.stab_inputs(20240601) != workloads.stab_inputs(7)


def _worker(tmp_path, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--seed", "3",
           "--seconds", "0", "--workdir", str(tmp_path), *extra]
    proc = subprocess.run(cmd, cwd=HERE.parent, env=run.worker_env(tmp_path),
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# explore builds sets and dicts of VertexClass, whose layout follows the
# string hash seed; words exercises the integral path
@pytest.mark.parametrize("workload, nonzero, zero", [
    ("words", "rep.word_evaluate.calls", "building.apply.calls"),
    ("explore", "groupcalc.orbit_bfs.calls", "rep.MatrixInt.mul.calls"),
])
def test_traced_call_counts_repeat_exactly(tmp_path, workload, nonzero, zero):
    first, second = (_worker(tmp_path, "--workload", workload, "--trace")
                     for _ in range(2))
    counts = [{k: v for k, v in run["layers"].items() if not k.endswith("_s")}
              for run in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0][nonzero] > 0
    assert counts[0][zero] == 0
    assert first["failed"] == 0


def test_words_loads_only_arith_and_rep(tmp_path):
    code = ("import sys, workloads; workloads.words_ops(1, '.'); "
            "print(sorted(m for m in sys.modules if m.startswith('buraubuilding')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                          env=run.worker_env(tmp_path), capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == str(["buraubuilding", "buraubuilding.arith",
                                       "buraubuilding.rep"])


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(PER_LAYER) + [("trace.wall_s", "s", "lower"),
                           ("trace.overhead_s", "s", "lower")]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
