"""Tests for the benchmark's span arithmetic, percentile rule and metric
names.  Run from the repository root: python3 -m pytest -q perfbench"""

import json
import os
import sys

import pytest

import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [20, 30].
    parent = [-1, 0, 1, 0]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    assert spans.self_times(parent, start, end) == [30, 20, 10, 40]


def test_self_times_sum_to_root_duration():
    parent = [-1, 0, 1, 1, 0, -1]
    start = [0, 5, 6, 9, 20, 200]
    end = [100, 15, 8, 12, 60, 210]
    selfs = spans.self_times(parent, start, end)
    assert sum(selfs) == (100 - 0) + (210 - 200)


def test_overlapping_children_are_covered_once():
    # Two children overlap on [20, 30]; the parent is covered on [10, 40].
    assert spans.self_times([-1, 0, 0], [0, 10, 20], [50, 30, 40])[0] == 20


def test_child_outliving_its_parent_is_clipped():
    # A generator closed after its parent returned covers only [40, 50].
    assert spans.self_times([-1, 0], [0, 40], [50, 70])[0] == 40


def test_leaf_self_time_is_its_duration():
    assert spans.self_times([-1], [7], [19]) == [12]


@pytest.mark.parametrize(
    "n, bp",
    [(19, None), (20, 5000), (99, 5000), (100, 9000), (999, 9000), (1000, 9900), (10124, 9990), (100000, 9999)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, bp):
    assert spans.tail_percentile(n) == bp


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 5000) == 50
    assert spans.percentile(values, 9900) == 99
    assert spans.percentile([3.5], 5000) == 3.5
    with pytest.raises(ValueError):
        spans.percentile([], 5000)


def test_reportable_counts_samples_strictly_beyond():
    assert spans.reportable(1000, 9900)  # rank 990, ten beyond
    assert not spans.reportable(999, 9900)  # rank 990, nine beyond


def test_tracer_records_parents_counts_and_distinct_results():
    tracer = spans.Tracer()
    outer, inner = tracer.name_id("a.outer"), tracer.name_id("a.inner")
    root = tracer.open(outer)
    for value in (1, 2, 1):
        leaf = tracer.open(inner)
        tracer.close(leaf)
        tracer.note_result(value)
    tracer.close(root)
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert tracer.distinct[root] == 2
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_generator_span_covers_its_consumer():
    tracer = spans.Tracer()

    def numbers():
        yield from (1, 2, 3)

    def leaf(x):
        return x

    gen = spans._wrap(tracer, "a.numbers", numbers)
    fn = spans._wrap(tracer, "a.leaf", leaf)
    assert [fn(x) for x in gen()] == [1, 2, 3]
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert tracer.count[0] == 3


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.GATED)
    produced = set(spans.per_layer_metrics(spans.Tracer(), 1.0, 0)) | {"trace.overhead_ratio"}
    assert produced == {m["name"] for m in bench["per_layer"]}


def test_install_wraps_every_binding_of_a_public_function():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import keypoly
    import keypoly.cli
    import keypoly.polytope
    import keypoly.verify

    originals = (keypoly.polytope.contains, keypoly.verify.lattice_points)
    tracer = spans.install(keypoly)
    try:
        pts = keypoly.verify.lattice_points(keypoly.VPolytope.from_points(2, [(0, 2), (2, 0)]))
        assert pts == {(0, 2), (1, 1), (2, 0)}
        names = [tracer.names[i] for i in tracer.name]
        assert names[0] == "polytope.lattice_points"
        assert names.count("polytope.contains") == 3
        assert all(tracer.parent[i] == 0 for i, n in enumerate(names) if n == "polytope.contains")
    finally:
        for mod in [m for k, m in sys.modules.items() if k == "keypoly" or k.startswith("keypoly.")]:
            for key, value in list(vars(mod).items()):
                original = getattr(value, "__wrapped__", None)
                if original is not None and getattr(original, "__module__", "").startswith("keypoly"):
                    setattr(mod, key, original)
    assert (keypoly.polytope.contains, keypoly.verify.lattice_points) == originals
