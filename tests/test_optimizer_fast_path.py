"""Exactness of the optimizer's cost-evaluation fast path.

Plan-level evaluation reuses what is provably unchanged: neighbour
evaluation copies the estimates of subplans outside the changed sids'
ancestor set from the base evaluation, and decomposition carries memo
rows of subplans the surgery left untouched into each new cost model.
Both must leave every optimizer decision bit-identical, which these
oracles check against the paths that reuse nothing.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import decompose as decompose_mod
from repro.core.decompose import decompose_full_plan
from repro.core.greedy import PaceSearch
from repro.core.optimizer import (
    OptimizerConfig,
    optimize_ishare,
    reference_absolute_constraints,
)
from repro.core.pace import with_pace
from repro.cost.memo import FeedbackSample, PlanCostModel
from repro.cost.model import DEFAULT_COST_CONFIG, CostConfig
from repro.engine.calibrate import calibrate_plan
from repro.engine.stream import StreamConfig
from repro.mqo.merge import MQOOptimizer
from repro.obs import OBS
from repro.workloads.tpch import build_workload, generate_catalog

from .util import decomposition_fingerprint

MAX_PACE = 6


@pytest.fixture(autouse=True)
def _clean_session():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def tpch():
    """All 22 TPC-H queries merged and calibrated at a tiny scale; the
    decomposition adopts full unshares and a partial cut."""
    catalog = generate_catalog(0.08, seed=601)
    queries = build_workload(catalog)
    plan = MQOOptimizer(catalog).build_shared_plan(queries)
    stream_config = StreamConfig()
    calibrate_plan(plan, stream_config)
    config = CostConfig(state_factor=stream_config.state_factor)
    constraints = PlanCostModel(plan, config).absolute_constraints(
        {query.query_id: 0.2 for query in queries}
    )
    return plan, config, constraints


@pytest.fixture(scope="module")
def memo_model(tpch):
    """One memoizing model shared across hypothesis examples, so later
    examples also exercise memo hits."""
    plan, config, _ = tpch
    return PlanCostModel(plan, config)


def _fingerprint(value):
    """A structural, bit-exact rendering of an estimate (floats as hex).

    Private attributes are lazily filled caches and are skipped.
    """
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return sorted((key, _fingerprint(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return [_fingerprint(item) for item in value]
    slots = [name for cls in type(value).__mro__
             for name in getattr(cls, "__slots__", ())]
    return (type(value).__name__, [
        (name, _fingerprint(getattr(value, name, None)))
        for name in slots if not name.startswith("_")
    ])


def _evaluation_fingerprint(evaluation):
    return {
        "total_work": evaluation.total_work.hex(),
        "query_final_work": _fingerprint(evaluation.query_final_work),
        "subplan_total": _fingerprint(evaluation.subplan_total),
        "subplan_final": _fingerprint(evaluation.subplan_final),
        "subplan_outputs": _fingerprint(evaluation.subplan_outputs),
        "subplan_inputs": _fingerprint(evaluation.subplan_inputs),
    }


class TestCostConfigEquality:
    def test_value_equal_configs_compare_and_hash_equal(self):
        a = CostConfig(state_factor=0.3)
        b = CostConfig(state_factor=0.3)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a == DEFAULT_COST_CONFIG
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("field", [
        "execution_overhead", "minmax_rescan_factor", "state_factor",
        "arranged_state",
    ])
    def test_every_slot_participates(self, field):
        changed = {"execution_overhead": 2.0, "minmax_rescan_factor": 0.25,
                   "state_factor": 0.5, "arranged_state": True}[field]
        assert CostConfig(**{field: changed}) != CostConfig()

    def test_repr_names_every_slot(self):
        text = repr(CostConfig(state_factor=0.5, arranged_state=True))
        assert text == (
            "CostConfig(execution_overhead=1.0, minmax_rescan_factor=0.5, "
            "state_factor=0.5, arranged_state=True)"
        )


class TestNeighbourEvaluation:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_matches_a_fresh_unmemoized_evaluation(self, tpch, memo_model,
                                                   data):
        plan, config, _ = tpch
        model = memo_model
        sids = sorted(subplan.sid for subplan in plan.subplans)
        base_paces = {
            sid: data.draw(st.integers(1, MAX_PACE), label="pace %d" % sid)
            for sid in sids
        }
        changed = data.draw(st.one_of(
            st.sampled_from(sids).map(lambda sid: (sid,)),
            st.lists(st.sampled_from(sids), min_size=2, max_size=4,
                     unique=True).map(tuple),
        ), label="changed")
        candidate = dict(base_paces)
        for sid in changed:
            candidate[sid] = data.draw(st.integers(1, MAX_PACE))
        collect = data.draw(st.booleans(), label="collect_inputs")

        base = model.evaluate(base_paces)
        fast = model.evaluate(candidate, collect_inputs=collect, base=base,
                              changed=changed)
        fresh = PlanCostModel(plan, config, use_memo=False).evaluate(
            candidate, collect_inputs=collect
        )
        assert _evaluation_fingerprint(fast) == _evaluation_fingerprint(fresh)

    def test_reuses_only_outside_the_changed_ancestors(self, tpch):
        plan, config, _ = tpch
        model = PlanCostModel(plan, config)
        paces = {subplan.sid: 1 for subplan in plan.subplans}
        base = model.evaluate(paces)
        leaf = plan.topological_order()[0]
        obs.enable()
        model.evaluate(with_pace(paces, leaf.sid, 2), base=base,
                       changed=(leaf.sid,))
        snap = OBS.metrics.snapshot()
        dirty = {leaf.sid} | {
            subplan.sid for subplan in plan.subplans
            if leaf.sid in model._descendants[subplan.sid]
        }
        assert snap["cost.neighbor.reused"]["value"] == (
            len(plan.subplans) - len(dirty)
        )
        # the real memo lookups are only the dirty subplans
        lookups = sum(snap.get(name, {"value": 0})["value"]
                      for name in ("cost.memo.hit", "cost.memo.miss"))
        assert lookups == len(dirty)

    def test_without_memo_the_base_is_ignored(self, tpch):
        plan, config, _ = tpch
        model = PlanCostModel(plan, config, use_memo=False)
        paces = {subplan.sid: 1 for subplan in plan.subplans}
        base = model.evaluate(paces)
        before = model.simulation_count
        sid = plan.topological_order()[0].sid
        model.evaluate(with_pace(paces, sid, 2), base=base, changed=(sid,))
        assert model.simulation_count - before == len(plan.subplans)

    def test_base_from_other_feedback_is_not_reused(self, tpch):
        plan, config, _ = tpch
        model = PlanCostModel(plan, config)
        paces = {subplan.sid: 2 for subplan in plan.subplans}
        base = model.evaluate(paces)
        sample = FeedbackSample(
            {sid: 2.0 * work for sid, work in base.subplan_total.items()},
            {sid: 3.0 * work for sid, work in base.subplan_final.items()},
        )
        model.apply_feedback(sample, paces)
        sid = plan.topological_order()[0].sid
        candidate = with_pace(paces, sid, 3)
        fast = model.evaluate(candidate, base=base, changed=(sid,))
        assert _evaluation_fingerprint(fast) == _evaluation_fingerprint(
            model.evaluate(candidate)
        )


def _logged_decomposition(plan, config, constraints):
    """Pace search + decomposition from a fresh model, with the decision log
    on; returns the outcome fingerprint and the metrics snapshot."""
    obs.enable()
    try:
        model = PlanCostModel(plan, config)
        found = PaceSearch(model, constraints, MAX_PACE).find()
        outcome = decompose_full_plan(
            plan, found.pace_config, constraints, MAX_PACE,
            cost_config=CostConfig(state_factor=config.state_factor),
            cost_model=model,
        )
        fingerprint = decomposition_fingerprint(outcome, OBS.declog.records)
        # the adopted model keeps exactly the rows its searches looked up
        fingerprint["memo_keys"] = {
            sid: sorted(rows) for sid, rows in outcome.cost_model._memo.items()
        }
        assert not any(outcome.cost_model._carried.values())
        return fingerprint, OBS.metrics.snapshot()
    finally:
        obs.disable()


class TestMemoCarry:
    def test_decomposition_identical_without_the_carry(self, tpch, monkeypatch):
        plan, config, constraints = tpch
        carrying, snap = _logged_decomposition(plan, config, constraints)
        assert {action[1] for action in carrying["actions"]} == {
            "unshare", "partial"}
        for name in ("split.simulations", "cost.memo.carried_rows",
                     "cost.neighbor.reused"):
            assert snap[name]["value"] > 0, name
        monkeypatch.setattr(decompose_mod, "_carry_memo",
                            lambda old_model, new_model: 0)
        plain, plain_snap = _logged_decomposition(plan, config, constraints)
        assert "cost.memo.carried_rows" not in plain_snap
        assert plain == carrying
        # the carry saved plan-level simulations
        assert (snap["cost.memo.miss"]["value"]
                < plain_snap["cost.memo.miss"]["value"])

    def test_carried_rows_are_exact(self, tpch):
        plan, config, _ = tpch
        old = PlanCostModel(plan, config)
        for pace in range(1, MAX_PACE + 1):
            old.evaluate({subplan.sid: pace for subplan in plan.subplans})
        new = PlanCostModel(plan.clone(), CostConfig(
            state_factor=config.state_factor))
        assert decompose_mod._carry_memo(old, new) > 0
        paces = {subplan.sid: 3 for subplan in plan.subplans}
        before = new.simulation_count
        carried = new.evaluate(paces)
        assert new.simulation_count == before  # every row came across
        fresh = PlanCostModel(plan, config, use_memo=False).evaluate(paces)
        assert _evaluation_fingerprint(carried) == _evaluation_fingerprint(fresh)

    def test_skipped_when_state_factor_differs(self, tpch):
        plan, config, _ = tpch
        old = PlanCostModel(plan, config)
        old.evaluate({subplan.sid: 2 for subplan in plan.subplans})
        other = CostConfig(state_factor=config.state_factor + 0.1)
        assert decompose_mod._carry_memo(
            old, PlanCostModel(plan.clone(), other)
        ) == 0

    def test_skipped_without_memoization(self, tpch):
        plan, config, _ = tpch
        old = PlanCostModel(plan, config, use_memo=False)
        old.evaluate({subplan.sid: 2 for subplan in plan.subplans})
        assert decompose_mod._carry_memo(
            old, PlanCostModel(plan.clone(), config)
        ) == 0

    def test_decomposition_defaults_to_the_models_config(self, tpch):
        plan, _, constraints = tpch
        custom = CostConfig(state_factor=0.45)
        model = PlanCostModel(plan, custom)
        found = PaceSearch(model, constraints, MAX_PACE).find()
        outcome = decompose_full_plan(
            plan, found.pace_config, constraints, MAX_PACE, cost_model=model,
        )
        assert outcome.actions
        assert outcome.cost_model is not model
        assert outcome.cost_model.config == custom


class TestOptimizerCounters:
    def test_lookups_and_reuse_cover_every_subplan(self, tpch):
        plan, config, constraints = tpch
        obs.enable()
        model = PlanCostModel(plan, config)
        PaceSearch(model, constraints, MAX_PACE).find()
        snap = OBS.metrics.snapshot()
        covered = sum(snap.get(name, {"value": 0})["value"] for name in (
            "cost.memo.hit", "cost.memo.miss", "cost.neighbor.reused"))
        assert covered == model.evaluation_count * len(plan.subplans)
        assert snap["cost.memo.miss"]["value"] == model.simulation_count


#: chosen plans on the perfbench tiny ``plan-22q`` size (scale 0.08,
#: max pace 6, relative constraint 0.2), one catalog seed each:
#: (adopted actions, paces of every subplan, estimated total work)
GOLDEN_PLANS = {
    3: (
        [("unshare", 20), ("unshare", 3), ("unshare", 33), ("unshare", 37)],
        {0: 6, 1: 6, 2: 6, 5: 2, 6: 1, 8: 6, 9: 6, 10: 6, 11: 6, 12: 6,
         14: 6, 15: 5, 16: 6, 17: 5, 18: 6, 19: 6, 21: 6, 22: 3, 23: 1,
         24: 6, 25: 6, 26: 6, 27: 6, 28: 6, 29: 6, 30: 6, 34: 6},
        "0x1.364abeda3cd2bp+15",
    ),
    601: (
        [("unshare", 20), ("unshare", 3), ("unshare", 34), ("unshare", 37)],
        {0: 6, 1: 6, 2: 6, 5: 2, 6: 1, 8: 6, 9: 6, 10: 6, 11: 6, 12: 6,
         14: 6, 15: 5, 16: 6, 17: 5, 18: 6, 19: 6, 21: 6, 22: 3, 23: 1,
         24: 6, 25: 6, 26: 6, 27: 6, 28: 6, 29: 6, 30: 6, 35: 6},
        "0x1.3664e8b904a63p+15",
    ),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_PLANS))
def test_golden_plan(seed):
    """Any drift in optimizer decisions fails loudly here."""
    actions, paces, total_hex = GOLDEN_PLANS[seed]
    catalog = generate_catalog(0.08, seed=seed)
    queries = build_workload(catalog)
    config = OptimizerConfig(max_pace=MAX_PACE)
    relative = {query.query_id: 0.2 for query in queries}
    absolute = reference_absolute_constraints(catalog, queries, relative, config)
    chosen = optimize_ishare(catalog, queries, relative, config,
                             absolute_constraints=absolute)
    assert [(a.kind, a.target_sid) for a in chosen.diagnostics["actions"]] == actions
    assert sorted(sp.sid for sp in chosen.plan.subplans) == sorted(paces)
    assert dict(chosen.pace_config) == paces
    if sys.version_info < (3, 12):
        assert chosen.evaluation.total_work.hex() == total_hex
    else:
        # Python 3.12's sum() of floats is compensated, which moves the
        # last bits of every simulated total
        assert chosen.evaluation.total_work == pytest.approx(
            float.fromhex(total_hex), rel=1e-12
        )
