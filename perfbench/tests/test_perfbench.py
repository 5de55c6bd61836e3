"""Tests of the benchmark itself: generators, references, tracing, runs.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from digitrec import features, imgproc, mlp  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(setups=2, ingest_per_class=2, ingest_blanks=2,
                       crossval_per_class=12, classify_train_per_class=4,
                       classify_cycle_per_class=1)


def corpus_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.pgm"))}


def test_generator_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 4), ("b", 4), ("c", 5)):
        gen.make_corpus(tmp_path / name, seed, per_class=2, blanks=1, p2_share=0.5)
    a, b, c = (corpus_bytes(tmp_path / n) for n in "abc")
    assert a == b
    assert a != c
    assert any(data.startswith(b"P2") for data in a.values())
    assert any(data.startswith(b"P5") for data in a.values())
    labels, rows = gen.make_feature_rows(4, 5)
    again = gen.make_feature_rows(4, 5)
    assert labels == again[0] and np.array_equal(rows, again[1])
    assert not np.array_equal(rows, gen.make_feature_rows(5, 5)[1])
    assert np.bincount(labels).tolist() == [5] * gen.CLASSES


def test_corpus_layout_and_blanks(tmp_path):
    scans = gen.make_corpus(tmp_path, 7, per_class=3, blanks=2, p2_share=0.25)
    assert [s.path for s in scans] == sorted(tmp_path.rglob("*.pgm"), key=lambda p: (
        int(p.parent.name), p.name))
    assert sum(s.blank for s in scans) == 2
    assert sum(s.ascii_format for s in scans) == round(0.25 * len(scans))
    for s in scans:
        assert (s.gray == 255).all() == s.blank


def check_features(raster):
    want = ref.features(np.asarray(raster).tolist())
    got = features.extract_features(np.asarray(raster, dtype=np.uint8))
    assert not workloads.feature_mismatch(got, want)
    return want


def test_references_match_closed_forms_and_package():
    assert check_features(np.zeros((32, 32))) == [0.0] * 76
    full = check_features(np.ones((32, 32)))
    assert full[:24] == [1.0] * 24
    assert all(full[40 + 4 * i] == 0.5 and full[41 + 4 * i] == 0.5 for i in range(9))
    rng = np.random.Generator(np.random.PCG64(11))
    for density in (0.1, 0.3, 0.6):
        check_features(rng.random((32, 32)) < density)


def test_reference_normalisation_matches_package():
    rng = gen.rng_for(3, "test")
    for label in range(gen.CLASSES):
        gray = gen.render_scan(rng, label, int(rng.choice(gen.SIZE_LADDER)))
        t = ref.otsu(gray)
        assert t == imgproc.otsu_threshold(gray)
        for threshold in (t, 128):
            want = np.array(ref.normalize(gray, threshold))
            assert np.array_equal(imgproc.normalize_image(gray, threshold), want)
    flat = np.full((5, 7), 255, dtype=np.uint8)
    assert ref.otsu(flat) == imgproc.otsu_threshold(flat)
    assert ref.normalize(flat, ref.otsu(flat)) is None


def test_reference_forward_matches_package():
    model = mlp.random_model([76, 65, 10], seed=3)
    rng = np.random.Generator(np.random.PCG64(12))
    for _ in range(5):
        x = rng.random(76)
        want = ref.forward(model.weights, x)
        assert np.allclose(mlp.forward(model, x), want, rtol=0, atol=1e-12)
        assert mlp.predict(model, x) == int(np.argmax(want))


def test_spec_lists_the_metrics_the_runs_print():
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == spans.metric_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_passes(workload, trace, tmp_path):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0, trace=trace)
    metrics, notes, correct, attempted, failed = run.run(args, tmp_path, TINY)
    assert correct, notes
    assert attempted >= 1 and failed == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
    elif workload == "ingest":
        assert metrics["cli.load_corpus.skipped"]["value"] == TINY.ingest_blanks
        assert metrics["features.extract_features.calls"]["value"] > 0
    elif workload == "crossval":
        assert metrics["mlp.train.steps"]["value"] > 0
        assert metrics["pgm.read_pgm.calls"]["value"] == 0
