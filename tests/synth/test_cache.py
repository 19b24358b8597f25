"""Tests for the subgraph evaluation cache."""

import pytest

from repro.ir.builder import GraphBuilder
from repro.synth.backend import LocalSynthesisBackend
from repro.synth.cache import EvaluationCache
from repro.synth.flow import SynthesisFlow


def test_cache_hits_and_misses(adder_chain_graph, library):
    cache = EvaluationCache(SynthesisFlow(library))
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    first = cache.evaluate(adder_chain_graph, [names["s1"], names["s2"]])
    second = cache.evaluate(adder_chain_graph, [names["s2"], names["s1"]])
    assert first is second
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5
    assert len(cache) == 1


def test_different_subsets_are_distinct(adder_chain_graph, library):
    cache = EvaluationCache(SynthesisFlow(library))
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    cache.evaluate(adder_chain_graph, [names["s1"]])
    cache.evaluate(adder_chain_graph, [names["s1"], names["s2"]])
    assert cache.stats.misses == 2
    assert len(cache) == 2


def test_clear_resets_everything(adder_chain_graph, library):
    cache = EvaluationCache(SynthesisFlow(library))
    cache.evaluate(adder_chain_graph, [adder_chain_graph.node_ids()[4]])
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.total == 0


def _sum_graph(name: str, width: int = 16):
    builder = GraphBuilder(name)
    x = builder.param("x", width)
    y = builder.param("y", width)
    total = builder.add(x, y, name="total")
    builder.output(total, name="out")
    return builder.graph, (total.node_id,)


def test_same_name_different_structure_do_not_collide(library):
    """The seed cache keyed on (graph.name, node_ids) and conflated distinct
    graphs sharing a name; structural keys must not."""
    graph_a, nodes_a = _sum_graph("design", width=8)
    graph_b, nodes_b = _sum_graph("design", width=32)
    cache = EvaluationCache(SynthesisFlow(library))
    report_a = cache.evaluate(graph_a, nodes_a)
    report_b = cache.evaluate(graph_b, nodes_b)
    assert cache.stats.misses == 2
    assert report_a.delay_ps != report_b.delay_ps


def test_structurally_identical_blocks_hit_across_graphs(library):
    graph_a, nodes_a = _sum_graph("first")
    graph_b, nodes_b = _sum_graph("second")
    cache = EvaluationCache(SynthesisFlow(library))
    first = cache.evaluate(graph_a, nodes_a)
    second = cache.evaluate(graph_b, nodes_b)
    assert first is second
    assert cache.stats.hits == 1


def test_batch_accounting_matches_serial_semantics(adder_chain_graph, library):
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    cache = EvaluationCache(SynthesisFlow(library))
    sets = [
        [names["s1"]],
        [names["s1"], names["s2"]],
        [names["s2"], names["s1"]],  # duplicate of the previous set
        [names["s1"]],               # duplicate of the first set
    ]
    reports = cache.evaluate_batch(adder_chain_graph, sets)
    assert cache.stats.misses == 2
    assert cache.stats.synth_runs == 2  # no disk layer: every miss synthesises
    assert cache.stats.hits == 2
    assert reports[1] is reports[2]
    assert reports[0] is reports[3]
    assert len(cache) == 2


def test_batch_through_parallel_backend_keeps_accounting(adder_chain_graph,
                                                         library):
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    sets = [[names["s1"]], [names["s2"]], [names["s3"]],
            [names["s1"], names["s2"]]]
    serial_cache = EvaluationCache(SynthesisFlow(library))
    serial = serial_cache.evaluate_batch(adder_chain_graph, sets)
    with LocalSynthesisBackend(library, jobs=2) as backend:
        parallel_cache = EvaluationCache(backend)
        parallel = parallel_cache.evaluate_batch(adder_chain_graph, sets)
        assert parallel == serial
        assert parallel_cache.stats.misses == serial_cache.stats.misses
        assert parallel_cache.stats.hits == serial_cache.stats.hits


def test_disk_layer_warms_future_caches(adder_chain_graph, library, tmp_path):
    path = tmp_path / "cache" / "evals.jsonl"
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    cold = EvaluationCache(SynthesisFlow(library), disk_path=path)
    report = cold.evaluate(adder_chain_graph, [names["s1"], names["s2"]])
    assert cold.stats.misses == 1
    assert path.exists()

    warm = EvaluationCache(SynthesisFlow(library), disk_path=path)
    assert warm.stats.disk_loaded == 1
    reloaded = warm.evaluate(adder_chain_graph, [names["s1"], names["s2"]])
    # A disk answer is a memory miss but NOT a synthesis run.
    assert warm.stats.misses == 1
    assert warm.stats.disk_hits == 1
    assert warm.stats.synth_runs == 0
    assert reloaded.delay_ps == report.delay_ps
    assert reloaded.num_gates == report.num_gates
    # The promoted entry answers repeats from memory.
    warm.evaluate(adder_chain_graph, [names["s1"], names["s2"]])
    assert warm.stats.hits == 1
    assert warm.stats.synth_runs == 0


def test_disk_layer_is_backend_configuration_specific(adder_chain_graph,
                                                      library, tmp_path):
    """Entries persisted by one backend configuration (e.g. the estimator)
    must not be served to a differently-configured backend."""
    from repro.synth.backend import EstimatorBackend

    path = tmp_path / "evals.jsonl"
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    nodes = [names["s1"], names["s2"]]

    estimator_cache = EvaluationCache(EstimatorBackend(library), disk_path=path)
    estimated = estimator_cache.evaluate(adder_chain_graph, nodes)

    synth_cache = EvaluationCache(SynthesisFlow(library), disk_path=path)
    assert synth_cache.stats.disk_loaded == 0
    measured = synth_cache.evaluate(adder_chain_graph, nodes)
    assert synth_cache.stats.misses == 1
    assert synth_cache.stats.synth_runs == 1
    assert synth_cache.stats.disk_hits == 0
    assert measured.delay_ps != estimated.delay_ps

    # Same configuration -> the persisted entry is served again.
    rewarmed = EvaluationCache(SynthesisFlow(library), disk_path=path)
    assert rewarmed.stats.disk_loaded == 1


def test_empty_cache_is_not_discarded_by_the_analyzer(library):
    """An empty EvaluationCache is falsy (__len__); the analyzer must keep it."""
    from repro.sdc.pipeline import PipelineAnalyzer

    cache = EvaluationCache(SynthesisFlow(library))
    analyzer = PipelineAnalyzer(flow=cache, library=library)
    assert analyzer.flow is cache


def test_analyzer_over_cache_uses_the_backend_library(adder_chain_graph,
                                                     library):
    """An analyzer given only a cache charges the cached backend's register
    overhead, not the default library's."""
    import dataclasses

    from repro.sdc.pipeline import PipelineAnalyzer
    from repro.sdc.scheduler import SdcScheduler

    slow_flops = dataclasses.replace(
        library, register_delay_ps=library.register_delay_ps + 275.0)
    cache = EvaluationCache(SynthesisFlow(slow_flops))
    assert cache.library is slow_flops

    schedule = SdcScheduler(clock_period_ps=2500.0).schedule(
        adder_chain_graph).schedule
    report = PipelineAnalyzer(flow=cache).report(schedule)
    expected = (schedule.clock_period_ps - max(report.stage_delays_ps)
                - slow_flops.register_delay_ps)
    assert report.slack_ps == expected
    default = PipelineAnalyzer(flow=SynthesisFlow(library)).report(schedule)
    assert report.slack_ps == pytest.approx(default.slack_ps - 275.0)


def test_disk_layer_skips_corrupt_lines(adder_chain_graph, library, tmp_path):
    path = tmp_path / "evals.jsonl"
    path.write_text("not json\n{\"key\": \"missing fields\"}\n")
    cache = EvaluationCache(SynthesisFlow(library), disk_path=path)
    assert cache.stats.disk_loaded == 0
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    assert cache.evaluate(adder_chain_graph, [names["s1"]]).delay_ps > 0


def test_disk_records_are_store_envelopes(adder_chain_graph, library,
                                          tmp_path):
    """The cache's disk layer writes unified synth-eval store records."""
    import json

    from repro.store import synth_eval_key
    from repro.synth.cache import backend_signature

    path = tmp_path / "evals.jsonl"
    flow = SynthesisFlow(library)
    cache = EvaluationCache(flow, disk_path=path)
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    cache.evaluate(adder_chain_graph, [names["s1"]])
    record = json.loads(path.read_text().splitlines()[0])
    assert record["kind"] == "synth-eval"
    assert record["body"]["backend"] == backend_signature(flow)
    assert record["key"] == synth_eval_key(record["body"]["backend"],
                                           record["body"]["fingerprint"])
    assert "t" in record  # GC timestamp rides on the envelope


def test_foreign_signature_records_are_ignored_not_errors(adder_chain_graph,
                                                          library, tmp_path):
    """A store full of records under other/legacy signatures is simply a
    cold cache -- never a failed run."""
    import json

    path = tmp_path / "evals.jsonl"
    legacy_body = {"fingerprint": "fp", "backend": "SynthesisFlow,legacy",
                   "name": "old", "delay_ps": 1.0, "num_gates": 1,
                   "num_gates_unoptimized": 1, "area_um2": 0.1,
                   "aig_depth": None, "node_ids": []}
    path.write_text(json.dumps({"kind": "synth-eval", "key": "k1",
                                "schema": 1, "body": legacy_body}) + "\n")
    cache = EvaluationCache(SynthesisFlow(library), disk_path=path)
    assert cache.stats.disk_loaded == 0
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    assert cache.evaluate(adder_chain_graph, [names["s1"]]).delay_ps > 0
    assert cache.stats.synth_runs == 1


def test_signature_tracks_library_characterisation(library):
    """Two libraries sharing a name but differing in one delay figure must
    not share disk records (the flaw the explicit signature() fixes)."""
    import copy

    from repro.synth.cache import backend_signature

    retimed = copy.deepcopy(library)
    cell = retimed.cells["xor2"]
    retimed.cells["xor2"] = type(cell)(name=cell.name,
                                       delay_ps=cell.delay_ps * 2,
                                       area_um2=cell.area_um2,
                                       num_inputs=cell.num_inputs)
    assert retimed.name == library.name
    assert backend_signature(SynthesisFlow(library)) != \
        backend_signature(SynthesisFlow(retimed))


def test_estimator_and_synthesis_signatures_differ(library):
    from repro.synth.backend import EstimatorBackend, LocalSynthesisBackend
    from repro.synth.cache import backend_signature

    synth = backend_signature(SynthesisFlow(library))
    assert backend_signature(EstimatorBackend(library)) != synth
    # The parallel backend is bit-identical to the serial flow and
    # legitimately shares its persisted records.
    with LocalSynthesisBackend(library) as parallel:
        assert backend_signature(parallel) == synth


def test_repeated_runs_with_compaction_stop_growing_the_file(
        adder_chain_graph, library, tmp_path):
    """Satellite acceptance: re-running the same evaluations re-appends the
    same (kind, key) identities, and compaction converges the file size."""
    from repro.store import ArtifactStore

    path = tmp_path / "evals.jsonl"
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    sets = [[names["s1"]], [names["s1"], names["s2"]]]
    sizes = []
    for _ in range(3):
        cache = EvaluationCache(SynthesisFlow(library), disk_path=path)
        for node_ids in sets:
            cache.evaluate(adder_chain_graph, node_ids)
        ArtifactStore(path).open_for_append().compact()
        sizes.append(path.stat().st_size)
    assert sizes[0] == sizes[1] == sizes[2]
    warm = EvaluationCache(SynthesisFlow(library), disk_path=path)
    assert warm.stats.disk_loaded == 2


def test_cache_can_share_an_open_store(adder_chain_graph, library, tmp_path):
    """One artifact store can hold campaign records and evaluations."""
    from repro.store import ArtifactStore, StoreRecord

    store = ArtifactStore(tmp_path / "unified.jsonl").open_for_append()
    store.put(StoreRecord(kind="campaign-header", key="fp", schema=2,
                          body={"fingerprint": "fp"}))
    cache = EvaluationCache(SynthesisFlow(library), store=store)
    names = {n.name: n.node_id for n in adder_chain_graph.nodes()}
    cache.evaluate(adder_chain_graph, [names["s1"]])
    reloaded = ArtifactStore.load(store.path)
    assert reloaded.kinds() == {"campaign-header": 1, "synth-eval": 1}
    with pytest.raises(ValueError, match="not both"):
        EvaluationCache(SynthesisFlow(library),
                        disk_path=tmp_path / "x.jsonl", store=store)
