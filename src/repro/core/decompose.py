"""Applying decomposition to the full plan (paper section 4.4).

After the greedy search fixes a nonuniform pace configuration, iShare
walks the shared subplans from parents to children and, for each one,
proposes a split (greedy clustering or brute force over the local
optimization of section 4.1), regenerates the plan (section 4.2), derives
a corrected, lazier pace configuration with the descending search, and
adopts the new plan iff its estimated total work is lower.  When the full
split is rejected, partial decomposition candidates (section 4.3) are
tried as a fallback.

Every candidate plan gets a fresh cost model.  Surgery leaves most
subplans untouched -- same sid, operators, statistics and descendant
cone -- and the memo rows of those are carried into the new model
(:func:`_carry_memo`), so the descending search re-simulates only what
the surgery changed.  The adopted model keeps just the carried rows its
searches hit.
"""

import logging

from ..cost.memo import PlanCostModel
from ..obs import OBS
from ..relational import bitvec
from .greedy import decrease_paces
from .incremental import match_subplans
from .partial import partial_cut_candidates
from .regenerate import SplitLineage, apply_split
from .split import LocalSplitOptimizer

logger = logging.getLogger(__name__)


def total_missed_final_work(evaluation, constraints):
    """Sum of constraint violations: how infeasible a configuration is."""
    return sum(
        max(0.0, evaluation.query_final_work.get(qid, 0.0) - bound)
        for qid, bound in constraints.items()
    )


def _improves(new_eval, old_eval, constraints, epsilon=1e-6):
    """Feasibility-first acceptance (the paper's optimization objective).

    The problem statement minimizes total work *subject to* the final-work
    constraints, so a candidate that reduces the total missed final work
    is adopted even at higher total work; with equal feasibility, lower
    total work wins.
    """
    new_missed = total_missed_final_work(new_eval, constraints)
    old_missed = total_missed_final_work(old_eval, constraints)
    if new_missed < old_missed - epsilon:
        return True
    if new_missed > old_missed + epsilon:
        return False
    return new_eval.total_work < old_eval.total_work - epsilon


class DecompositionAction:
    """Record of one adopted decomposition step (for diagnostics)."""

    __slots__ = ("target_sid", "kind", "partitions", "work_before", "work_after")

    def __init__(self, target_sid, kind, partitions, work_before, work_after):
        self.target_sid = target_sid
        self.kind = kind
        self.partitions = partitions
        self.work_before = work_before
        self.work_after = work_after

    def __repr__(self):
        return "DecompositionAction(sp%d %s %s: %.1f -> %.1f)" % (
            self.target_sid,
            self.kind,
            [list(p) for p in self.partitions],
            self.work_before,
            self.work_after,
        )


class DecompositionOutcome:
    """The final plan, paces and evaluation after full-plan decomposition.

    ``sid_origin`` maps each sid of the (possibly rewritten) output plan
    to the input-plan sid whose operators it carries (identity entries
    omitted; look up with ``sid_origin.get(sid, sid)``), composed across
    every adopted surgery step.  ``tainted_origins`` holds input sids
    whose work can no longer be attributed one-to-one because a
    regeneration merge combined two originals' operators.  Together they
    let measured per-subplan work on the output plan be folded back onto
    the input plan's sids (:func:`repro.cost.memo.fold_run_for_feedback`).
    """

    __slots__ = ("plan", "pace_config", "evaluation", "cost_model", "actions",
                 "sid_origin", "tainted_origins")

    def __init__(self, plan, pace_config, evaluation, cost_model, actions,
                 sid_origin=None, tainted_origins=None):
        self.plan = plan
        self.pace_config = pace_config
        self.evaluation = evaluation
        self.cost_model = cost_model
        self.actions = actions
        self.sid_origin = dict(sid_origin or {})
        self.tainted_origins = set(tainted_origins or ())


def decompose_full_plan(plan, pace_config, absolute_constraints, max_pace,
                        cost_config=None, use_brute_force=False,
                        enable_partial=True, cost_model=None):
    """Run section 4.4 over the whole plan.

    ``cost_model`` may pass in the model already built for the greedy
    search so its memo tables are reused; ``cost_config`` then defaults
    to that model's.
    """
    current_plan = plan
    current_paces = dict(pace_config)
    if cost_config is None and cost_model is not None:
        cost_config = cost_model.config
    model = cost_model or PlanCostModel(current_plan, cost_config)
    evaluation = model.evaluate(current_paces)
    actions = []
    lineage = SplitLineage()  # cumulative, relative to the input plan
    declog = OBS.declog if OBS.enabled else None
    start_us = OBS.tracer.now_us() if OBS.enabled else 0.0

    worklist = [
        subplan.sid
        for subplan in reversed(current_plan.topological_order())
        if bitvec.popcount(subplan.query_mask) > 1
    ]
    while worklist:
        sid = worklist.pop(0)
        target = _find_subplan(current_plan, sid)
        if target is None or bitvec.popcount(target.query_mask) < 2:
            continue
        candidate = _try_subplan(
            current_plan, current_paces, model, evaluation, sid,
            absolute_constraints, max_pace, cost_config,
            use_brute_force, enable_partial,
        )
        if candidate is None:
            if declog is not None:
                declog.log("decompose_reject", sid=sid, reason="no_split")
            continue
        new_plan, new_paces, new_model, new_eval, action, step_lineage = candidate
        if not _improves(new_eval, evaluation, absolute_constraints):
            if declog is not None:
                declog.log(
                    "decompose_reject", sid=sid, reason="not_improving",
                    kind=action.kind,
                    work_before=round(evaluation.total_work, 4),
                    work_after=round(new_eval.total_work, 4),
                )
            continue
        action.work_before = evaluation.total_work
        action.work_after = new_eval.total_work
        actions.append(action)
        logger.debug(
            "decomposition adopted: subplan %d %s, work %.1f -> %.1f",
            sid, action.kind, action.work_before, action.work_after,
        )
        if declog is not None:
            declog.log(
                "decompose_adopt", sid=sid, kind=action.kind,
                partitions=[list(p) for p in action.partitions],
                work_before=round(action.work_before, 4),
                work_after=round(action.work_after, 4),
            )
        current_plan, current_paces = new_plan, new_paces
        model, evaluation = new_model, new_eval
        lineage = lineage.compose(step_lineage)
        # newly created shared pieces may decompose further
        fresh = [
            subplan.sid
            for subplan in reversed(current_plan.topological_order())
            if bitvec.popcount(subplan.query_mask) > 1
            and subplan.sid not in worklist
            and subplan.sid != sid
        ]
        worklist = fresh + [s for s in worklist if s in {p.sid for p in current_plan.subplans}]
    model.release_carried_rows()
    if OBS.enabled:
        OBS.tracer.complete("optimize.decompose", start_us, {
            "adopted": len(actions),
            "total_work": round(evaluation.total_work, 2),
        })
    return DecompositionOutcome(
        current_plan, current_paces, evaluation, model, actions,
        sid_origin=lineage.origin, tainted_origins=lineage.tainted,
    )


def _carry_memo(old_model, new_model):
    """Carry memo rows into a post-surgery model; returns the row count.

    Only subplans the surgery left untouched qualify: the same sid, a
    :func:`~repro.core.incremental.match_subplans`-identical operator
    tree and query mask, and (checked by
    :meth:`~repro.cost.memo.PlanCostModel.carry_memo_from`) an identical
    descendant cone.  Surgery works on a plan clone, which shares every
    node's calibrated statistics by reference, so the private pace
    configurations of those subplans index the same simulations in both
    models and the rows are exact.
    """
    untouched = {
        sid: sid
        for sid, old_sid in match_subplans(old_model.plan, new_model.plan).items()
        if sid == old_sid
    }
    return new_model.carry_memo_from(old_model, untouched)


def _find_subplan(plan, sid):
    for subplan in plan.subplans:
        if subplan.sid == sid:
            return subplan
    return None


def _try_subplan(plan, paces, model, evaluation, sid, absolute_constraints,
                 max_pace, cost_config, use_brute_force, enable_partial):
    """Best decomposition candidate for one subplan, or None."""
    target = plan.subplan_by_id(sid)
    inputs_eval = model.evaluate(paces, collect_inputs=True)
    input_stats = inputs_eval.subplan_inputs[sid]
    local = model.local_constraints(target, absolute_constraints)
    splitter = LocalSplitOptimizer(target, input_stats, local, max_pace, cost_config)
    decision = splitter.brute_force() if use_brute_force else splitter.cluster()

    if decision.is_split():
        parts = [part for part, _ in decision.partitions]
        lineage = SplitLineage()
        new_plan, initial = apply_split(plan, paces, sid, parts, lineage=lineage)
        new_model = PlanCostModel(new_plan, cost_config)
        _carry_memo(model, new_model)
        new_paces, new_eval = decrease_paces(
            new_model, absolute_constraints, initial
        )
        action = DecompositionAction(sid, "unshare", parts, 0.0, 0.0)
        return new_plan, new_paces, new_model, new_eval, action, lineage

    if not enable_partial:
        return None
    return _try_partial(
        plan, paces, model, sid, absolute_constraints, max_pace, cost_config,
        use_brute_force, evaluation,
    )


def _try_partial(plan, paces, model, sid, absolute_constraints, max_pace,
                 cost_config, use_brute_force, evaluation):
    """Partial-decomposition fallback (section 4.3)."""
    best = None
    for cut_plan, top_sid, bottom_sids in partial_cut_candidates(plan, sid):
        cut_paces = dict(paces)
        for bottom_sid in bottom_sids:
            cut_paces[bottom_sid] = paces[sid]
        cut_model = PlanCostModel(cut_plan, cost_config)
        _carry_memo(model, cut_model)
        cut_eval = cut_model.evaluate(cut_paces, collect_inputs=True)
        top = cut_plan.subplan_by_id(top_sid)
        local = cut_model.local_constraints(top, absolute_constraints)
        splitter = LocalSplitOptimizer(
            top, cut_eval.subplan_inputs[top_sid], local, max_pace, cost_config
        )
        decision = splitter.brute_force() if use_brute_force else splitter.cluster()
        if not decision.is_split():
            continue
        parts = [part for part, _ in decision.partitions]
        # the vertical cut carved sid into top + bottoms: pre-seed the
        # lineage so pieces of the top piece resolve back to sid
        lineage = SplitLineage(
            origin={top_sid: sid, **{b: sid for b in bottom_sids}}
        )
        new_plan, initial = apply_split(
            cut_plan, cut_paces, top_sid, parts, lineage=lineage
        )
        new_model = PlanCostModel(new_plan, cost_config)
        _carry_memo(cut_model, new_model)
        new_paces, new_eval = decrease_paces(new_model, absolute_constraints, initial)
        if not _improves(new_eval, evaluation, absolute_constraints):
            continue
        if best is None or _improves(new_eval, best[3], absolute_constraints):
            action = DecompositionAction(sid, "partial", parts, 0.0, 0.0)
            best = (new_plan, new_paces, new_model, new_eval, action, lineage)
    return best
