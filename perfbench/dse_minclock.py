"""Workload ``dse-minclock``: minimum-clock search, one design per request.

Each round searches every design with :func:`repro.dse.search.run_dse`
(``mode="minclock"``, ``jobs=1``, so probes run in this process) after
dropping the per-process warm-start caches, so every round starts as cold
as a fresh process.  The design list is all 17 Table-I rows plus three
seeded ``gen:`` designs.  No synthesis runs: the constraint build, HiGHS,
the warm rebase and the kernel delay matrix do the work.
"""

from __future__ import annotations

import time

from checks import register_bits, schedule_errors
from layers import GateCounter, install_compute_spans
from rounds import measure_rounds, trace_round
from tracing import Tracer

NAME = "dse-minclock"

#: ``gen:`` designs come from this pool: ``GEN_PER_RUN`` consecutive
#: indices starting at ``seed % GEN_POOL``.
GEN_POOL = 16
GEN_PER_RUN = 3
MIN_ROUNDS = 3

COUNTERS = ("cold_solves", "warm_solves", "reused_solutions", "budget_skips",
            "memo_hits")


def gen_design(index: int) -> str:
    from repro.designs.generator import GeneratorParams

    return GeneratorParams(seed=index, depth=8, width=6).name


def designs(seed: int) -> list[str]:
    from repro.designs.suite import table1_suite

    return ([case.name for case in table1_suite()]
            + [gen_design((seed + k) % GEN_POOL) for k in range(GEN_PER_RUN)])


class State:
    def __init__(self, seed: int, expected: dict) -> None:
        from repro.designs.generator import case_from_name

        self.names = designs(seed)
        self.cases = {name: case_from_name(name) for name in self.names}
        self.expected = expected[NAME]


def search_one(name: str):
    """One request: the minimum-clock search of one design."""
    from repro.dse.search import run_dse, worker_cache

    cache = worker_cache()
    before = {key: getattr(cache, key) for key in COUNTERS}
    result = run_dse([name], mode="minclock", jobs=1).designs[0]
    counts = {key: getattr(cache, key) - before[key] for key in COUNTERS}
    return result, counts


def setup(seed: int, expected: dict) -> State:
    """Imports, design resolution and one untimed warm-up search.

    The warm-up design is outside the timed list and the caches are
    dropped afterwards, so it loads lazy imports (HiGHS) only.
    """
    from repro.dse.search import reset_worker_caches

    state = State(seed, expected)
    search_one(gen_design(10_000))
    reset_worker_caches()
    return state


def teardown(state: State) -> None:
    from repro.dse.search import reset_worker_caches

    reset_worker_caches()


def check(state: State, name: str, result, counts: dict) -> list[str]:
    """Every wrong answer of one request, as messages (empty when right)."""
    want = state.expected[name]
    problems = []
    if result.min_clock_ps != want["min_clock_ps"] or not result.converged:
        problems.append(f"{name}: min clock {result.min_clock_ps} ps "
                        f"(converged {result.converged}) != expected "
                        f"{want['min_clock_ps']} ps")
    for key in COUNTERS:
        if counts[key] != want[key]:
            problems.append(f"{name}: {key} {counts[key]} != expected "
                            f"{want[key]} (warm-start state leaked?)")
    best = [probe for probe in result.probes
            if probe.feasible and probe.clock_period_ps == result.min_clock_ps]
    if not best:
        return problems + [f"{name}: no feasible probe at the minimum clock"]
    graph = state.cases[name].build()
    problems.extend(f"{name}: {error}"
                    for error in schedule_errors(graph, best[0].stages)[:3])
    if not problems and (register_bits(graph, best[0].stages)
                         != best[0].num_registers):
        problems.append(f"{name}: recomputed register bits differ from the "
                        f"reported {best[0].num_registers}")
    return problems


def run_round(state: State, tracer: Tracer | None = None):
    """Search every design once from cold caches; (wall_s, records)."""
    from repro.dse.search import reset_worker_caches

    reset_worker_caches()
    records = []
    started = time.perf_counter()
    for name in state.names:
        begin = time.perf_counter()
        span = tracer.begin("bench.op") if tracer else None
        try:
            result, counts = search_one(name)
        except Exception as error:  # a crashed request is a failed request
            result, counts = error, {}
        if tracer:
            tracer.end(span)
        records.append((name, result, counts, time.perf_counter() - begin))
    return time.perf_counter() - started, records


def score(state: State, records, failures: list[str]) -> int:
    """Check one round's answers; appends messages, returns failures."""
    failed = 0
    for name, result, counts, _ in records:
        if isinstance(result, Exception):
            problems = [f"{name}: {type(result).__name__}: {result}"]
        else:
            problems = check(state, name, result, counts)
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
    def counters(records) -> dict:
        totals = {key: sum(record[2].get(key, 0) for record in records)
                  for key in COUNTERS}
        served = (totals["memo_hits"] + totals["warm_solves"]
                  + totals["cold_solves"])
        metrics = {f"dse.{key}": value for key, value in totals.items()}
        metrics["dse.warm_hit_rate"] = (
            (totals["memo_hits"] + totals["warm_solves"]) / served
            if served else 0.0)
        return metrics

    return trace_round(lambda tracer: run_round(state, tracer),
                       lambda records, failures: score(state, records,
                                                       failures),
                       lambda tracer: install_compute_spans(tracer,
                                                            GateCounter()),
                       counters)
