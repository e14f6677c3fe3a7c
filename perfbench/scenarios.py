"""The benchmark's workloads: set-up, closed-loop trigger windows, checks.

Every workload runs in one process and one thread with one closed-loop
client: the next optimize, register or trigger call is issued only after
the previous one returned.  The program runs with its defaults; the
workload seed only shapes the generated catalogs, update churn and query
registrations the program receives.

:func:`run_workload` runs the untraced measurement that the end-to-end
metrics come from.  With ``trace=True`` it runs that measurement on half
the windows, then clears the compile caches, switches :mod:`repro.obs`
on and repeats the workload from its public steps under the benchmark's
own spans, which gives the per-layer metrics (see ``README.md`` beside
this file).
"""

import collections
import json
import random
import statistics
import time

from repro import obs
from repro.core.decompose import decompose_full_plan
from repro.core.greedy import PaceSearch
from repro.core.optimizer import (
    OptimizerConfig,
    optimize_ishare,
    reference_absolute_constraints,
)
from repro.cost.memo import PlanCostModel
from repro.engine.calibrate import calibrate_plan, calibration_execution_count
from repro.engine.compare import results_close
from repro.engine.executor import PlanExecutor
from repro.harness.runner import ExperimentRunner
from repro.logical.ops import Query
from repro.mqo.merge import MQOOptimizer, build_unshared_plan
from repro.obs import OBS
from repro.physical.hotpath import clear_compiled_caches, compile_cache_stats
from repro.service.core import QueryService
from repro.workloads.tpch import (
    ALL_QUERY_NAMES,
    add_lineitem_updates,
    build_workload,
    generate_catalog,
)

from spans import NO_SPANS, Spans

#: workload sizes.  A run is ``rounds`` rounds of set-up (``setup_reps``
#: times), planning and a block of windows, so that every repeated
#: measurement is spread over the whole run rather than bunched at its
#: start.  ``fixed_windows`` is the window prefix the deterministic
#: metrics (work, goal misses, paces) are taken over.
SIZES = {
    "plan-22q": {
        "scale": 0.5, "constraint": 0.2, "max_pace": 30, "catalogs": 4,
        "rounds": 4, "setup_reps": 3, "fixed_windows": 1,
    },
    "recurring-22q-updates": {
        "scale": 0.5, "update_fraction": 0.25, "constraint": 0.5,
        "max_pace": 8, "exec_days": 3, "rounds": 5, "setup_reps": 1,
        "fixed_windows": 3,
    },
    "service-churn": {
        "scale": 0.5, "live": 12, "max_pace": 20,
        "churn_every": 2, "catalogs": 4, "goals": (0.6, 0.7, 0.8),
        "rounds": 8, "setup_reps": 2, "fixed_windows": 24,
    },
}

#: the same workloads shrunk to run in seconds (the benchmark's tests)
TINY_SIZES = {
    "plan-22q": dict(SIZES["plan-22q"], scale=0.08, max_pace=6, catalogs=2,
                     rounds=2),
    "recurring-22q-updates": dict(
        SIZES["recurring-22q-updates"], scale=0.08, max_pace=4, rounds=2,
    ),
    "service-churn": dict(
        SIZES["service-churn"], scale=0.08, live=5, catalogs=2, rounds=2,
        setup_reps=2, fixed_windows=6,
    ),
}

TENANTS = ("alpha", "beta", "gamma")


class Window(collections.namedtuple(
        "Window", "work query_windows misses rows reoptimized")):
    """What one trigger window did, beyond its wall time."""


class Measurement:
    """Everything one phase of a workload measured."""

    def __init__(self):
        self.setup_s = []  # one entry per set-up repetition
        self.optimize_s = None  # wall seconds of one planning call
        self.windows = []  # wall seconds of each timed trigger window
        self.reoptimized = []  # per timed window: did it re-optimize
        self.rows = []  # per timed window: delta records the streams delivered
        self.fixed_work = 0.0  # RunResult.total_work over the fixed prefix
        self.fixed_query_windows = 0
        self.fixed_misses = 0  # query-windows over their latency goal
        self.admit_s = []  # QueryService.register latencies
        self.paces = []  # the chosen pace configurations
        self.estimated_work = []  # their estimated total work
        self.subplan_sids = []  # and their plans' subplan ids
        self.attempted = 0
        self.failures = []  # one line per failed operation
        self.window_events = []  # repro.obs events raised inside windows
        self.window_counts = collections.Counter()  # obs counts inside windows
        self.loop_events = []  # ... inside windows and the churn before them
        self.loop_counts = collections.Counter()
        self.resident_entries = 0  # arrangement entries after the last window

    def fail(self, message):
        self.failures.append(message)

    @property
    def failed(self):
        return len(self.failures)


def _subseeds(seed, count):
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def _log_lengths(catalog):
    """``{table: delta records its stream delivers in one window}``."""
    return {name: len(catalog.get(name).delta_log()) for name in catalog.names()}


def _delivered_rows(plan, log_lengths):
    """Input delta records the plan's table streams deliver in one window."""
    names = {name for subplan in plan.subplans for name in subplan.base_tables()}
    return sum(log_lengths[name] for name in names)


def _timed_windows(m, seconds, min_windows, trigger, before=None, start=0):
    """Fire windows from ``start`` on for ``seconds`` seconds, and at least
    until window ``min_windows - 1`` ran; returns the next window index.

    ``before(index)`` runs untimed ahead of window ``index`` (churn);
    ``trigger(index)`` is the timed call and returns a :class:`Window`.
    With repro.obs on, the events and counts of both calls are kept apart
    from those of set-up, planning and output checks.
    """
    started = time.perf_counter()
    index = start
    while index < min_windows or time.perf_counter() - started < seconds:
        if OBS.enabled:
            loop_mark, loop_counts = len(OBS.tracer.events), _probe()
        if before is not None:
            before(index)
        m.attempted += 1
        if OBS.enabled:
            mark, counts = len(OBS.tracer.events), _probe()
        t0 = time.perf_counter()
        try:
            window = trigger(index)
        except Exception as exc:  # counted as a failed operation
            m.fail("window %d: %s: %s" % (index, type(exc).__name__, exc))
            index += 1
            continue
        m.windows.append(time.perf_counter() - t0)
        if OBS.enabled:
            after = _probe()
            m.loop_events.extend(OBS.tracer.events[loop_mark:])
            m.window_events.extend(OBS.tracer.events[mark:])
            m.loop_counts.update(after)
            m.loop_counts.subtract(loop_counts)
            m.window_counts.update(after)
            m.window_counts.subtract(counts)
            m.resident_entries = OBS.metrics.gauge(
                "engine.arrangement.resident_entries").value
        m.reoptimized.append(window.reoptimized)
        m.rows.append(window.rows)
        if index < min_windows:
            m.fixed_work += window.work
            m.fixed_query_windows += window.query_windows
            m.fixed_misses += window.misses
        index += 1
    return index


def _reference_results(catalog, queries, stream_config):
    """Every query's result from the unshared plan run in one batch."""
    plan = build_unshared_plan(catalog, queries)
    paces = {subplan.sid: 1 for subplan in plan.subplans}
    run = PlanExecutor(plan, stream_config).run(paces, collect_results=True)
    return run.query_results


def _compare(m, label, shared, reference):
    bad = sorted(
        qid for qid, expected in reference.items()
        if qid not in shared or not results_close(shared[qid], expected)
    )
    if bad:
        m.fail("%s: results differ from the unshared reference for query ids %s"
               % (label, bad))


def _counter(name):
    return OBS.metrics.counter(name).value


def _probe():
    """The obs and compile-cache counts the churn loop moves."""
    counts = collections.Counter(
        simulations=_counter("cost.memo.miss"),
        evaluations=_counter("cost.evaluations"),
        batch_runs=_counter("calibration.batch_runs"),
        tree_reuse=_counter("engine.tree_reuse"),
        cache_hits=compile_cache_stats["hits"],
        cache_misses=compile_cache_stats["misses"],
    )
    for key, payload in OBS.metrics.snapshot().items():
        if key.startswith("engine.subplan.work_units{"):
            kind = key.partition("kind=")[2].partition(",")[0].rstrip("}")
            counts[kind] += payload["value"]
    return counts


# -- plan-22q and recurring-22q-updates --------------------------------------
#
# A deployment is ``(history, days, queries)``: the query batch, the
# catalog its plan is optimized on, and the day catalogs the plan runs on.

def _setup_plan(seed, size, spans):
    deployments = []
    for catalog_seed in _subseeds(seed, size["catalogs"]):
        with spans.span("workloads.catalog"):
            catalog = generate_catalog(size["scale"], seed=catalog_seed)
        with spans.span("workloads.queries"):
            queries = build_workload(catalog)
        deployments.append((catalog, [catalog], queries))
    return deployments


def _setup_recurring(seed, size, spans):
    seeds = _subseeds(seed, 2 * (1 + size["exec_days"]))
    days = []
    for day in range(1 + size["exec_days"]):
        with spans.span("workloads.catalog"):
            catalog = generate_catalog(size["scale"], seed=seeds[2 * day])
        with spans.span("workloads.updates"):
            add_lineitem_updates(catalog, size["update_fraction"],
                                 seed=seeds[2 * day + 1])
        days.append(catalog)
    with spans.span("workloads.queries"):
        queries = build_workload(days[0])
    # day 0 is the history the plan is optimized on; the windows cycle
    # over the days after it
    return [(days[0], days[1:], queries)]


def _optimize_traced(history, queries, relative, config, spans, counts):
    """``optimize_ishare`` rebuilt from its public steps under spans."""
    before = (calibration_execution_count(), _counter("cost.memo.miss"),
              _counter("cost.evaluations"))
    with spans.span("optimize"):
        with spans.span("reference"):
            with spans.span("mqo.unshared"):
                unshared = build_unshared_plan(history, queries)
            with spans.span("calibrate"):
                calibrate_plan(unshared, config.stream_config)
            with spans.span("cost.model"):
                absolute = PlanCostModel(
                    unshared, config.cost_config, use_memo=config.use_memo,
                    time_budget=config.time_budget,
                ).absolute_constraints(relative)
        with spans.span("mqo.merge"):
            plan = MQOOptimizer(
                history, config.min_shared_operators
            ).build_shared_plan(queries)
        with spans.span("calibrate"):
            calibrate_plan(plan, config.stream_config)
        with spans.span("cost.model"):
            model = PlanCostModel(
                plan, config.cost_config, use_memo=config.use_memo,
                time_budget=config.time_budget,
            )
        model.reset_deadline()
        with spans.span("greedy.pace_search"):
            found = PaceSearch(model, absolute, config.max_pace).find()
        evaluations = _counter("cost.evaluations")
        with spans.span("decompose"):
            outcome = decompose_full_plan(
                plan, found.pace_config, absolute, config.max_pace,
                cost_config=config.cost_config,
                use_brute_force=config.brute_force_split,
                enable_partial=config.enable_partial,
                cost_model=model,
            )
        counts["decompose.evaluations"] += _counter("cost.evaluations") - evaluations
    counts["calibrate.batch_runs"] += calibration_execution_count() - before[0]
    counts["cost.simulations"] += _counter("cost.memo.miss") - before[1]
    counts["cost.evaluations"] += _counter("cost.evaluations") - before[2]
    counts["greedy.iterations"] += found.iterations
    counts["decompose.actions"] += len(outcome.actions)
    counts["mqo.subplans"] += len(outcome.plan.subplans)
    counts["mqo.shared_nodes"] += sum(
        subplan.operator_count() for subplan in plan.shared_subplans()
    )
    return outcome


def _optimize_layers(spans, counts, calls):
    """Per-call optimizer layer metrics of the traced phase."""
    layers = {name: value / calls for name, value in counts.items()}
    for name, span in (("mqo.merge_s", "mqo.merge"), ("calibrate.s", "calibrate"),
                       ("greedy.pace_search_s", "greedy.pace_search"),
                       ("decompose.s", "decompose")):
        layers[name] = spans.total(span) / calls
    return layers


def _run_plan_phase(m, seed, seconds, size, spans, setup, traced):
    """Rounds of set-up, optimizing one deployment and firing windows over
    the days of every deployment optimized so far.  Round ``r`` optimizes
    deployment ``r`` modulo their number.  Returns the optimizer layer
    metrics when ``traced``, else None.
    """
    config = OptimizerConfig(max_pace=size["max_pace"])
    counts = collections.Counter()
    calls = []
    index = 0
    # per optimized deployment: one slot per day, what a window runs
    slots_of = {}
    goals_of = {}  # per deployment: its queries' latency goals
    for number in range(size["rounds"]):
        for _ in range(size["setup_reps"]):
            t0 = time.perf_counter()
            deployments = setup(seed, size, spans)
            m.setup_s.append(time.perf_counter() - t0)
        which = number % len(deployments)
        history, days, queries = deployments[which]
        relative = {query.query_id: size["constraint"] for query in queries}
        m.attempted += 1
        t0 = time.perf_counter()
        if traced:
            chosen = _optimize_traced(history, queries, relative, config,
                                      spans, counts)
        else:
            absolute = reference_absolute_constraints(
                history, queries, relative, config)
            chosen = optimize_ishare(history, queries, relative, config,
                                     absolute_constraints=absolute)
        calls.append(time.perf_counter() - t0)
        m.paces.append(dict(chosen.pace_config))
        m.estimated_work.append(chosen.evaluation.total_work)
        m.subplan_sids.append(sorted(sp.sid for sp in chosen.plan.subplans))
        # latency goals from history: the relative constraint times
        # each query's separate one-batch latency (paper section 5.1).
        # That latency is work-derived, so a deployment set up again from
        # the same seed has the same goals.
        if which not in goals_of:
            goals_of[which] = ExperimentRunner(
                history, queries, config).latency_goals(relative)
        goals = goals_of[which]
        executor = PlanExecutor(chosen.plan, config.stream_config, catalog=days[0])
        slots_of[which] = [
            (executor, day, chosen.pace_config, goals, queries,
             _delivered_rows(chosen.plan, _log_lengths(day)))
            for day in days
        ]
        slots = [slot for key in sorted(slots_of) for slot in slots_of[key]]

        def trigger(index, slots=slots):
            executor, day, paces, goals, _, rows = slots[index % len(slots)]
            executor.rebind(catalog=day)
            run = executor.run(paces, collect_results=False)
            misses = sum(
                1 for qid, goal in goals.items()
                if run.query_latency_seconds(qid) > goal
            )
            return Window(run.total_work, len(goals), misses, rows, False)

        index = _timed_windows(m, seconds / size["rounds"], size["fixed_windows"],
                               trigger, start=index)
    m.optimize_s = statistics.median(calls)

    for number, (executor, day, paces, _, queries, _) in enumerate(slots):
        m.attempted += 1
        label = "window slot %d output check" % number
        try:
            executor.rebind(catalog=day)
            shared = executor.run(paces, collect_results=True).query_results
            _compare(m, label, shared,
                     _reference_results(day, queries, config.stream_config))
        except Exception as exc:  # counted as a failed operation
            m.fail("%s: %s: %s" % (label, type(exc).__name__, exc))

    return _optimize_layers(spans, counts, len(calls)) if traced else None


# -- service-churn -------------------------------------------------------------

def _setup_service(seed, size, spans):
    seeds = _subseeds(seed, size["catalogs"] + 1)
    catalogs = []
    for catalog_seed in seeds[:-1]:
        with spans.span("workloads.catalog"):
            catalogs.append(generate_catalog(size["scale"], seed=catalog_seed))
    with spans.span("workloads.queries"):
        roots = {query.name: query.root for query in build_workload(catalogs[0])}
    goal_rng = random.Random(seeds[-1])
    # registration i: query name, tenant and relative goal; a run churns
    # through far fewer than 1024 (one every ``churn_every`` windows)
    registrations = [
        (ALL_QUERY_NAMES[i % len(ALL_QUERY_NAMES)],
         TENANTS[i % len(TENANTS)],
         goal_rng.choice(size["goals"]))
        for i in range(1024)
    ]
    return catalogs, roots, registrations


def _run_service_phase(m, seed, seconds, size, spans):
    """Rounds of set-up, a timed bring-up of a fresh service, and a block
    of churn and windows on the one live service of the run."""
    config = OptimizerConfig(max_pace=size["max_pace"])
    bring_ups = []
    live = collections.deque()
    service = None
    index = 0

    def register(target, qid):
        name, tenant, goal = registrations[qid]
        query = Query(qid, name, roots[name])
        m.attempted += 1
        t0 = time.perf_counter()
        decision = target.register(query, tenant, goal)
        elapsed = time.perf_counter() - t0
        if decision.status != "admitted":
            m.fail("register %s for %s: %s (%s)"
                   % (name, tenant, decision.status, decision.reason))
        elif target is service:
            live.append(qid)
        return elapsed

    def churn(index):
        if index == 0 or index % size["churn_every"]:
            return
        m.attempted += 1
        service.deregister(live.popleft())
        m.admit_s.append(register(service, next(next_id)))

    def trigger(index):
        outcome = service.run_window()
        misses = sum(1 for q in outcome.queries.values() if q["missed_seconds"] > 0)
        if not outcome.conserved:
            m.fail("window %d: attributed work does not sum to measured work"
                   % outcome.window)
        if index == size["fixed_windows"] - 1:
            m.paces.append(dict(service.paces))
        rows = _delivered_rows(
            service.plan, log_lengths[outcome.window % len(catalogs)])
        return Window(outcome.total_work, len(outcome.queries), misses, rows,
                      outcome.reoptimized)

    for _ in range(size["rounds"]):
        for _ in range(size["setup_reps"]):
            t0 = time.perf_counter()
            inputs = _setup_service(seed, size, spans)
            m.setup_s.append(time.perf_counter() - t0)
        # bring-up, the service's planning: admit the initial live set
        # into a fresh service.  The first one stays live for the run.
        fresh = QueryService(
            lambda window, catalogs=inputs[0]: catalogs[window % len(catalogs)],
            config,
        )
        if service is None:
            service = fresh
            catalogs, roots, registrations = inputs
            log_lengths = [_log_lengths(catalog) for catalog in catalogs]
            next_id = iter(range(size["live"], len(registrations)))
        bring_ups.append(sum(register(fresh, qid) for qid in range(size["live"])))
        index = _timed_windows(m, seconds / size["rounds"], size["fixed_windows"],
                               trigger, before=churn, start=index)
    m.optimize_s = statistics.median(bring_ups)

    m.attempted += 1
    try:
        outcome = service.run_window(collect_results=True)
        catalog = catalogs[outcome.window % len(catalogs)]
        queries = [
            Query(service.slots[qid], registration.name, registration.query.root)
            for qid, registration in service.registrations.items()
        ]
        _compare(m, "window %d output check" % outcome.window,
                 outcome.run.query_results,
                 _reference_results(catalog, queries, config.stream_config))
    except Exception as exc:  # counted as a failed operation
        m.fail("output check: %s: %s" % (type(exc).__name__, exc))
    return service


# -- per-layer reduction ---------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _engine_layers(m):
    """Engine and physical metrics from what the trigger windows raised."""
    windows = len(m.windows)
    runs = [e for e in m.window_events if e.get("name") == "engine.run"]
    executes = [e for e in m.window_events if e.get("name") == "engine.execute"]
    final = [e for e in executes if e["args"].get("fraction") == "1"]
    counts = m.window_counts
    work = sum(e["args"].get("total_work", 0.0) for e in runs)
    run_s = sum(e["dur"] for e in runs) / 1e6
    lookups = counts["cache_hits"] + counts["cache_misses"]
    layers = {
        "engine.run_s": run_s / windows,
        "engine.final_exec_s": sum(e["dur"] for e in final) / 1e6 / windows,
        "engine.executions": len(executes) / windows,
        "engine.compile_cache.hit_rate":
            counts["cache_hits"] / lookups if lookups else 0.0,
        "engine.tree_reuse": counts["tree_reuse"] / windows,
        "engine.arrangement.resident_entries": m.resident_entries,
        "physical.s_per_kunit": run_s / (work / 1000.0) if work else 0.0,
    }
    for kind in ("input", "output", "rescan", "state"):
        layers["physical.work_units.%s" % kind] = counts[kind] / windows
    return layers


def _service_layers(m, service):
    records = OBS.declog.of_event("service_reoptimize")
    reused = sum(len(r["reused"]) for r in records)
    recalibrated = sum(len(r["recalibrated"]) for r in records)
    collected = (len(json.dumps(OBS.tracer.events))
                 + len(json.dumps(OBS.declog.records)))
    return {
        "service.reoptimize_window_s": _median(
            [s for s, re in zip(m.windows, m.reoptimized) if re]),
        "service.steady_window_s": _median(
            [s for s, re in zip(m.windows, m.reoptimized) if not re]),
        "service.reuse_frac": reused / (reused + recalibrated)
        if reused + recalibrated else 0.0,
        "service.memo_rows_carried": sum(r["memo_rows_carried"] for r in records),
        "service.traced_kb_per_window": collected / 1024.0 / len(m.windows),
        "service.admit_s_p50": _median(m.admit_s),
        "greedy.iterations": sum(r["search_iterations"] for r in records),
        "greedy.pace_search_s": sum(
            e["dur"] for e in m.loop_events
            if e.get("name") == "optimize.pace_search") / 1e6,
        "calibrate.s": sum(
            e["dur"] for e in m.loop_events
            if e.get("name") == "engine.calibrate") / 1e6,
        "calibrate.batch_runs": m.loop_counts["batch_runs"],
        "cost.simulations": m.loop_counts["simulations"],
        "cost.evaluations": m.loop_counts["evaluations"],
        "mqo.subplans": len(service.plan.subplans),
        "mqo.shared_nodes": sum(
            subplan.operator_count() for subplan in service.plan.shared_subplans()
        ),
    }


#: every per-layer metric and its unit, in BENCHMARK.json order; a
#: workload that does not exercise a layer reports 0 for it
LAYER_METRICS = (
    ("workloads.catalog_s", "s"), ("workloads.updates_s", "s"),
    ("mqo.merge_s", "s"), ("mqo.subplans", "count"),
    ("mqo.shared_nodes", "count"),
    ("calibrate.s", "s"), ("calibrate.batch_runs", "count"),
    ("cost.simulations", "count"), ("cost.evaluations", "count"),
    ("greedy.pace_search_s", "s"), ("greedy.iterations", "count"),
    ("decompose.s", "s"), ("decompose.evaluations", "count"),
    ("decompose.actions", "count"),
    ("engine.run_s", "s"), ("engine.final_exec_s", "s"),
    ("engine.executions", "count"),
    ("engine.compile_cache.hit_rate", "fraction"),
    ("engine.tree_reuse", "fraction"),
    ("engine.arrangement.resident_entries", "count"),
    ("physical.work_units.input", "work"),
    ("physical.work_units.output", "work"),
    ("physical.work_units.rescan", "work"),
    ("physical.work_units.state", "work"),
    ("physical.s_per_kunit", "s/kunit"),
    ("service.reoptimize_window_s", "s"), ("service.steady_window_s", "s"),
    ("service.reuse_frac", "fraction"), ("service.memo_rows_carried", "count"),
    ("service.traced_kb_per_window", "KB"), ("service.admit_s_p50", "s"),
    ("goal_miss_frac", "fraction"), ("obs.overhead_frac", "fraction"),
    ("obs.optimize_accounted_frac", "fraction"),
)


def _phase(workload, seed, seconds, size, spans, traced):
    """One measurement; returns ``(measurement, service, optimizer layers)``."""
    m = Measurement()
    if workload == "service-churn":
        return m, _run_service_phase(m, seed, seconds, size, spans), None
    setup = _setup_plan if workload == "plan-22q" else _setup_recurring
    return m, None, _run_plan_phase(m, seed, seconds, size, spans, setup, traced)


def run_workload(workload, seed, seconds, trace, size=None):
    """Run one workload; returns ``(measurement, layers)``.

    ``layers`` is None unless ``trace``: then the untraced phase and the
    traced phase each get half of ``seconds`` of trigger windows.
    """
    size = size or SIZES[workload]
    if not trace:
        return _phase(workload, seed, seconds, size, NO_SPANS, False)[0], None

    m = _phase(workload, seed, seconds / 2.0, size, NO_SPANS, False)[0]
    clear_compiled_caches()
    obs.enable(process_name="perfbench-%s" % workload)
    obs.reset()
    spans = Spans("%s-seed%d" % (workload, seed))
    try:
        traced, service, layers = _phase(
            workload, seed, seconds / 2.0, size, spans, True
        )
        layers = layers or {}
        layers.update(_engine_layers(traced))
        if service is not None:
            layers.update(_service_layers(traced, service))
        reps = len(traced.setup_s)
        layers["workloads.catalog_s"] = spans.total("workloads.catalog") / reps
        layers["workloads.updates_s"] = spans.total("workloads.updates") / reps
        layers["goal_miss_frac"] = (
            traced.fixed_misses / traced.fixed_query_windows
        )
        untraced_s = m.optimize_s + _median(m.windows)
        traced_s = traced.optimize_s + _median(traced.windows)
        layers["obs.overhead_frac"] = traced_s / untraced_s - 1.0
        if service is None:
            # the layer spans must cover the optimize calls they split up
            self_times = spans.self_times()
            accounted = sum(self_times[name] for name in spans.descendants("optimize"))
            calls = len(traced.paces)
            layers["obs.optimize_accounted_frac"] = accounted / calls / m.optimize_s
            traced.attempted += 1
            if accounted < 0.95 * spans.total("optimize"):
                traced.fail("layer spans cover only %.1f of %.1f traced optimize s"
                            % (accounted, spans.total("optimize")))
        _check_fidelity(m, traced)
    finally:
        obs.disable()
    m.attempted += traced.attempted
    m.failures.extend(traced.failures)
    return m, {name: layers.get(name, 0) for name, _ in LAYER_METRICS}


def _check_fidelity(m, traced):
    """The traced phase must describe the program the untraced one timed."""
    m.attempted += 1
    mismatched = [
        what for what, left, right in (
            ("pace config", m.paces, traced.paces),
            ("estimated total work", m.estimated_work, traced.estimated_work),
            ("subplan sids", m.subplan_sids, traced.subplan_sids),
            ("work over the fixed windows", m.fixed_work, traced.fixed_work),
            ("goal misses over the fixed windows", m.fixed_misses,
             traced.fixed_misses),
        )
        if left != right
    ]
    if mismatched:
        m.fail("traced run differs from the untraced run in: %s"
               % ", ".join(mismatched))
