"""Workload ``isdc-cold``: the paper's feedback-guided loop, cold, per design.

Each round schedules every design once with a fresh
:class:`~repro.isdc.IsdcScheduler` (default :class:`~repro.isdc.IsdcConfig`
at the design's clock period), so every design starts from an empty
evaluation cache; graphs are rebuilt before each round, outside the
timing, because the kernel caches views on them.  The design list is four
Table-I rows plus one seeded multiplier-free ``gen:`` design; ``sha256``
is left out because its 6 s would leave room for only two rounds in a
run, and it exercises no layer the others do not.
"""

from __future__ import annotations

import time

from checks import register_bits, schedule_errors
from layers import GateCounter, install_compute_spans
from rounds import measure_rounds, trace_round
from tracing import Tracer

NAME = "isdc-cold"

TABLE1_ROWS = ("ML-core datapath1", "rrot", "crc32", "hsv2rgb")

#: ``gen:`` designs the seed chooses among (``seed % GEN_POOL``); all of
#: them have expected answers committed in ``expected.json``.
GEN_POOL = 16
#: A round takes about 8 s; the median is over three at least.
MIN_ROUNDS = 3


def gen_design(index: int) -> str:
    """The seeded ``gen:`` design; multiplier-free (see README, limitations)."""
    from repro.designs.generator import LEAN_OP_MIX, GeneratorParams

    return GeneratorParams(seed=index, depth=6, width=4,
                           op_mix=LEAN_OP_MIX).name


def designs(seed: int) -> list[str]:
    return list(TABLE1_ROWS) + [gen_design(seed % GEN_POOL)]


class State:
    def __init__(self, seed: int, expected: dict) -> None:
        from repro.designs.generator import case_from_name

        self.cases = [case_from_name(name) for name in designs(seed)]
        self.expected = expected[NAME]


def schedule_one(case, graph):
    """One request: a fresh scheduler over one design (the timed operation)."""
    from repro.isdc import IsdcConfig, IsdcScheduler

    scheduler = IsdcScheduler(IsdcConfig(clock_period_ps=case.clock_period_ps))
    return scheduler, scheduler.schedule(graph)


def setup(seed: int, expected: dict) -> State:
    """Imports, design resolution and one untimed warm-up schedule.

    The warm-up design is not in the timed list and gets its own
    scheduler, so it loads lazy imports (HiGHS, scipy.sparse) without
    warming any cache a timed request reads.
    """
    from repro.designs.generator import LEAN_OP_MIX, GeneratorParams, case_from_name

    state = State(seed, expected)
    warm = case_from_name(GeneratorParams(seed=10_000, depth=3, width=2,
                                          op_mix=LEAN_OP_MIX).name)
    schedule_one(warm, warm.build())
    return state


def teardown(state: State) -> None:
    """Nothing outlives a request: each scheduler is dropped with it."""


def check(state: State, case, graph, scheduler, result) -> list[str]:
    """Every wrong answer of one request, as messages (empty when right)."""
    final = result.final_schedule
    errors = schedule_errors(graph, final.stages)
    if errors:
        return errors[:3]
    bits = register_bits(graph, final.stages)
    want = state.expected[case.name]
    got = {"registers": result.final_report.num_registers,
           "stages": result.final_report.num_stages,
           "evaluations": scheduler.feedback.evaluations}
    problems = [f"{case.name}: {key} {got[key]} != expected {want[key]}"
                for key in want if got[key] != want[key]]
    if bits != got["registers"]:
        problems.append(f"{case.name}: recomputed register bits {bits} != "
                        f"reported {got['registers']}")
    return problems


def run_round(state: State, tracer: Tracer | None = None):
    """Schedule every design once; returns (wall_s, per-request records)."""
    graphs = [case.build() for case in state.cases]
    records = []
    started = time.perf_counter()
    for case, graph in zip(state.cases, graphs):
        begin = time.perf_counter()
        span = tracer.begin("bench.op") if tracer else None
        try:
            scheduler, result = schedule_one(case, graph)
        except Exception as error:  # a crashed request is a failed request
            scheduler, result = None, error
        if tracer:
            tracer.end(span)
        records.append((case, graph, scheduler, result,
                        time.perf_counter() - begin))
    return time.perf_counter() - started, records


def score(state: State, records, failures: list[str]) -> int:
    """Check one round's answers; appends messages, returns failures."""
    failed = 0
    for case, graph, scheduler, result, _ in records:
        if isinstance(result, Exception):
            problems = [f"{case.name}: {type(result).__name__}: {result}"]
        else:
            problems = check(state, case, graph, scheduler, result)
        if problems:
            failed += 1
            failures.extend(problems)
    return failed


def measure(state: State, seconds: float) -> dict:
    return measure_rounds(lambda tracer: run_round(state, tracer),
                          lambda records, failures: score(state, records,
                                                          failures),
                          seconds, MIN_ROUNDS)


def trace(state: State, seconds: float) -> dict:
    gates = GateCounter()

    def counters(records) -> dict:
        caches = [record[2].feedback.cache.stats for record in records
                  if record[2] is not None]
        lookups = sum(stats.total for stats in caches)
        return {"netlist.optimize.gate_reduction": gates.reduction,
                "synth.cache.hit_rate": (sum(stats.hits for stats in caches)
                                         / lookups if lookups else 0.0),
                "synth.evaluations": sum(stats.synth_runs
                                         for stats in caches)}

    return trace_round(lambda tracer: run_round(state, tracer),
                       lambda records, failures: score(state, records,
                                                       failures),
                       lambda tracer: install_compute_spans(tracer, gates),
                       counters)
