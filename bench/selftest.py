"""Tests of the benchmark itself: each correctness check passes on the
program's output and fails on a corrupted copy of it, and tracing does not
change the work done.

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mooremix.graph import MixedGraph  # noqa: E402


@pytest.fixture(scope="module")
def prop3():
    inputs = workloads.prop3_setup(0)
    return workloads.prop3_round(inputs), inputs


def relabeled(g, perm):
    return workloads.as_tuple(MixedGraph(*g).relabel(perm))


def test_prop3_check_passes(prop3):
    out, inputs = prop3
    assert checks.check_prop3(out, inputs) == []


def test_prop3_check_fails_on_dropped_class(prop3):
    out, inputs = copy.deepcopy(prop3)
    del out["classes"][1], out["certify"][1]
    assert any("2 classes, expected 3" in e for e in checks.check_prop3(out, inputs))
    del out["certify"][1]
    assert "1 certificates for 2 classes" in checks.check_prop3(out, inputs)


def test_prop3_check_fails_on_isomorphic_duplicate(prop3):
    out, inputs = copy.deepcopy(prop3)
    out["classes"][2] = relabeled(out["classes"][0], [9, 8, 7, 6, 5, 4, 3, 2, 1, 0])
    errors = checks.check_prop3(out, inputs)
    assert "classes 0 and 2 are isomorphic" in errors


def test_prop3_check_fails_on_wrong_diameter(prop3):
    out, inputs = copy.deepcopy(prop3)
    # (1,1)-regular on 10 vertices: matching edges, arcs v -> v + 2
    out["classes"][0] = (10, tuple((2 * i, 2 * i + 1) for i in range(5)), tuple((v, (v + 2) % 10) for v in range(10)))
    errors = checks.check_prop3(out, inputs)
    assert any("class 0 has diameter" in e for e in errors)


def test_prop3_check_fails_on_wrong_certificate(prop3):
    out, inputs = copy.deepcopy(prop3)
    out["certify"][0]["charpoly"] = (1,) + (0,) * 10
    out["certify"][1]["repeats"][0] = 0
    out["bound"] = 11
    errors = checks.check_prop3(out, inputs)
    assert any("char_poly gave" in e for e in errors)
    assert any("repeat totals" in e for e in errors)
    assert any("improved bound 11" in e for e in errors)


def test_exhaust_check():
    assert checks.check_exhaust({"classes": []}, {}) == []
    cayley = checks.cayley_dihedral(6)
    assert "1 classes, expected 0" in checks.check_exhaust({"classes": [cayley]}, {})


@pytest.fixture(scope="module")
def brute_2_1():
    return checks.brute_force_2_1(8, 2)


def test_skeleton_brute_force_matches_search_count(brute_2_1):
    assert len(brute_2_1) == 17
    assert checks.check_skeleton({"classes": brute_2_1}, {}) == []


def test_skeleton_check_fails_on_dropped_class_and_duplicate(brute_2_1):
    dropped = checks.check_skeleton({"classes": brute_2_1[1:]}, {})
    assert "16 classes, expected 17" in dropped
    duplicate = brute_2_1[:-1] + [relabeled(brute_2_1[0], [1, 2, 3, 4, 5, 6, 7, 0])]
    assert any("are isomorphic" in e for e in checks.check_skeleton({"classes": duplicate}, {}))


@pytest.fixture(scope="module")
def canon_truth():
    """A canon_symmetric output with every answer right, taken from the
    independent computations, so the check is tested without the program."""
    inputs = workloads.canon_setup(0)
    graphs = inputs["graphs"]
    out = {
        "aut": {name: checks.KNOWN_AUT.get(name) or checks.automorphism_count(g) for name, g in graphs.items()},
        "relabel_iso": {name: True for name in graphs},
        "lookalike_iso": {name: False for name in inputs["lookalikes"]},
    }
    return out, inputs


def test_canon_check_passes(canon_truth):
    out, inputs = canon_truth
    assert checks.check_canon(out, inputs) == []


def test_canon_check_fails_on_wrong_aut(canon_truth):
    out, inputs = copy.deepcopy(canon_truth)
    out["aut"]["Q3"] = 24
    out["aut"]["golden1"] += 1
    errors = checks.check_canon(out, inputs)
    assert "Q3: |Aut| = 24, expected 48" in errors
    assert any(e.startswith("golden1: |Aut|") for e in errors)


def test_canon_check_fails_on_wrong_iso_answers(canon_truth):
    out, inputs = copy.deepcopy(canon_truth)
    out["relabel_iso"]["Petersen"] = False
    out["lookalike_iso"]["K33~prism"] = True
    errors = checks.check_canon(out, inputs)
    assert "Petersen: seeded relabeling reported non-isomorphic" in errors
    assert "K33~prism: reported isomorphic" in errors


def test_cayley_dihedral_matches_the_library_construction():
    from mooremix.constructions import cayley_dihedral

    assert checks.isomorphic(checks.cayley_dihedral(5), workloads.as_tuple(cayley_dihedral(5)))


def test_tracing_does_not_change_the_work(prop3):
    plain, inputs = prop3
    originals = {name: getattr(*target) for name, target in workloads.TRACE_TARGETS.items()}
    tracer = spans.Tracer(workloads.TRACE_TARGETS)
    with tracer.installed():
        traced = workloads.prop3_round(inputs)
    tracer.end_round()
    assert traced == plain
    assert traced["nodes"] == 41580 and len(traced["classes"]) == 3
    assert tracer.totals["search.enumerate_classes"].calls == 1
    assert tracer.totals["canon.canonicalize"].calls > tracer.canon_in_search > 0
    assert tracer.totals["graph.distances_from"].calls > 0
    assert all(getattr(*target) is originals[name] for name, target in workloads.TRACE_TARGETS.items())


def test_self_time_excludes_children():
    class Box:
        @staticmethod
        def outer():
            Box.inner()

        @staticmethod
        def inner():
            sum(range(20000))

    tracer = spans.Tracer({"outer": (Box, "outer"), "inner": (Box, "inner")})
    with tracer.installed():
        Box.outer()
    tracer.end_round()
    outer, inner = tracer.totals["outer"], tracer.totals["inner"]
    assert inner.calls == outer.calls == 1
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert 0 <= outer.self_s < outer.total_s


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = run_bench(ROOT, "--workload", "prop3_n10", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    p = run_bench(tmp_path, "--workload", "prop3_n10", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert p.stdout.strip() == ""
