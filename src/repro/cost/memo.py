"""Plan-level cost evaluation with memoization (paper Algorithm 1).

Estimating the total work and per-query final work of a pace
configuration simulates every subplan bottom-up: each subplan's simulated
output cardinality feeds its parents.  The estimated results of one
subplan depend only on its *private pace configuration* -- the paces of
the subplan and its descendants -- so each subplan keeps a memo table
keyed by that private configuration (section 3.2).  The greedy pace
search evaluates thousands of neighbouring configurations that differ in
a single pace; with memoization only the changed subplan and its
ancestors are ever re-simulated, and :meth:`PlanCostModel.evaluate` given
the neighbour's base evaluation and the changed sids copies every other
subplan's estimate from the base without even a memo lookup.

``use_memo=False`` reproduces the baseline that re-simulates every
configuration from scratch (the "iShare (w/o memo)" of Figure 15, which
DNFs at large max paces).
"""

import time
from operator import itemgetter

from ..errors import CostModelError
from ..mqo.nodes import SubplanRef, TableRef
from ..obs import OBS
from .model import DEFAULT_COST_CONFIG, UniformProfile, simulate_subplan
from .stats import EdgeStat

#: Feedback correction factors are clamped to this range.  A single
#: degenerate measured run (a subplan that happened to do zero work
#: against a positive estimate, or a transient spike) must not zero out
#: or blow up every later estimate the memo serves; within the range the
#: correction is applied exactly as measured.
FEEDBACK_FACTOR_MIN = 0.01
FEEDBACK_FACTOR_MAX = 100.0


def clamp_feedback_factor(factor):
    """Clamp one multiplicative correction into the documented range."""
    return min(FEEDBACK_FACTOR_MAX, max(FEEDBACK_FACTOR_MIN, factor))


class CostEvaluation:
    """Estimated cost of one pace configuration.

    ``source`` identifies the model state that produced it (see
    :meth:`PlanCostModel.evaluate`'s ``base``).
    """

    __slots__ = (
        "total_work",
        "query_final_work",
        "subplan_total",
        "subplan_final",
        "subplan_inputs",
        "subplan_outputs",
        "source",
    )

    def __init__(self, source=None):
        self.total_work = 0.0
        self.query_final_work = {}
        self.subplan_total = {}
        self.subplan_final = {}
        self.subplan_inputs = {}
        self.subplan_outputs = {}
        self.source = source

    def __repr__(self):
        return "CostEvaluation(total=%.1f)" % self.total_work


class OptimizationTimeout(CostModelError):
    """Raised when an optimizer exceeds its time budget (the DNF case)."""


class PlanCostModel:
    """Cost model over one :class:`~repro.mqo.nodes.SharedQueryPlan`.

    Nodes must carry calibrated statistics
    (:func:`repro.engine.calibrate.calibrate_plan`).

    Parameters
    ----------
    use_memo:
        enable the per-subplan memo tables of Algorithm 1.
    time_budget:
        optional wall-clock seconds; :class:`OptimizationTimeout` is
        raised from :meth:`evaluate` once exceeded (used to reproduce the
        30-minute DNF cutoff of Figure 15 at benchmark scale).
    """

    def __init__(self, plan, config=None, use_memo=True, time_budget=None):
        self.plan = plan
        self.config = config or DEFAULT_COST_CONFIG
        self.use_memo = use_memo
        self.time_budget = time_budget
        self._deadline = (time.monotonic() + time_budget) if time_budget else None
        self._order = plan.topological_order()
        self._descendants = self._compute_descendants()
        self._ancestors = {subplan.sid: {subplan.sid} for subplan in self._order}
        for sid, cone in self._descendants.items():
            for desc in cone:
                self._ancestors[desc].add(sid)
        self._memo = {subplan.sid: {} for subplan in self._order}
        # memo rows carried in by carry_memo_from; a row moves into
        # _memo on its first hit, and release_carried_rows drops the rest
        self._carried = {subplan.sid: {} for subplan in self._order}
        # one entry per subplan in topological order: everything evaluate
        # needs besides the pace configuration, computed once
        self._layout = []
        for subplan in self._order:
            sid = subplan.sid
            cone = self._descendants[sid]
            self._layout.append((
                subplan, sid, self._memo[sid], self._carried[sid],
                itemgetter(*cone), len(cone) == 1, subplan.query_ids(),
            ))
        self._table_stats = {}
        self._solo_cache = {}
        self._feedback = {}
        # replaced whenever the feedback corrections change, so a base
        # evaluation computed under other corrections is never reused
        self._state = object()
        self.simulation_count = 0
        self.evaluation_count = 0

    def _compute_descendants(self):
        sets = {}
        for subplan in self._order:  # child-first: children already computed
            acc = {subplan.sid}
            for child in subplan.child_subplans():
                acc |= sets[child.sid]
            sets[subplan.sid] = acc
        return {sid: tuple(sorted(acc)) for sid, acc in sets.items()}

    def _set_feedback(self, feedback):
        self._feedback = feedback
        self._state = object()

    def reset_deadline(self):
        if self.time_budget:
            self._deadline = time.monotonic() + self.time_budget

    def _check_deadline(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise OptimizationTimeout(
                "optimization exceeded its %.1fs budget" % self.time_budget
            )

    def table_stat(self, name):
        """The arrival profile of a base table (uniform across queries)."""
        profile = self._table_stats.get(name)
        if profile is None:
            table = self.plan.catalog.get(name)
            stat = EdgeStat(
                total=table.log_length(),
                deletes=table.delete_count(),
                uniform=True,
            )
            profile = UniformProfile(stat, granularity=None)
            self._table_stats[name] = profile
        return profile

    def _inputs_for(self, subplan, outputs):
        inputs = {}
        for ref in subplan.source_refs():
            if isinstance(ref, TableRef):
                inputs[ref.key()] = self.table_stat(ref.name)
            elif isinstance(ref, SubplanRef):
                inputs[ref.key()] = outputs[ref.subplan.sid]
            else:
                raise CostModelError("unknown source ref %r" % (ref,))
        return inputs

    # -- Algorithm 1 ---------------------------------------------------------

    def evaluate(self, pace_config, collect_inputs=False, base=None,
                 changed=()):
        """Estimate ``C_T(P)`` and ``C_F(P, q)`` for every query.

        ``base`` is an evaluation this model produced for a neighbouring
        configuration that differs from ``pace_config`` only in the paces
        of the ``changed`` sids.  A subplan whose descendant cone holds no
        changed sid has the same private pace configuration in both, so
        its estimate is copied from ``base`` -- exactly the memo row a
        lookup would return.  Totals are still summed in topological
        order, so the result is bit-identical to evaluating from scratch.
        Without memoization ``base`` is ignored.
        """
        self._check_deadline()
        self.evaluation_count += 1
        metrics = OBS.metrics if OBS.enabled else None
        if metrics is not None:
            metrics.counter("cost.evaluations").inc()
            if self._deadline is not None:
                metrics.gauge("cost.deadline_headroom_seconds").set(
                    round(self._deadline - time.monotonic(), 4)
                )
        use_memo = self.use_memo
        dirty = None
        if base is not None and use_memo and base.source is self._state:
            dirty = set()
            for sid in changed:
                dirty |= self._ancestors[sid]
            base_total = base.subplan_total
            base_final = base.subplan_final
            base_outputs = base.subplan_outputs
        feedback = self._feedback
        evaluation = CostEvaluation(self._state)
        subplan_total = evaluation.subplan_total
        subplan_final = evaluation.subplan_final
        outputs = evaluation.subplan_outputs
        query_final_work = evaluation.query_final_work
        total_work = 0.0
        reused = 0
        for subplan, sid, memo, carried, key_of, single, qids in self._layout:
            if dirty is not None and sid not in dirty:
                private_total = base_total[sid]
                private_final = base_final[sid]
                out_profile = base_outputs[sid]
                reused += 1
            else:
                key = key_of(pace_config)
                if single:
                    key = (key,)
                cached = memo.get(key) if use_memo else None
                if cached is None and carried:
                    cached = carried.pop(key, None)
                    if cached is not None:
                        memo[key] = cached
                if metrics is not None:
                    metrics.counter(
                        "cost.memo.hit" if cached is not None
                        else "cost.memo.miss"
                    ).inc()
                if cached is None:
                    inputs = self._inputs_for(subplan, outputs)
                    sim = simulate_subplan(
                        subplan, pace_config[sid], inputs, self.config
                    )
                    self.simulation_count += 1
                    cached = (sim.private_total, sim.private_final,
                              sim.out_profile)
                    if use_memo:
                        memo[key] = cached
                    self._check_deadline()
                private_total, private_final, out_profile = cached
                correction = feedback.get(sid)
                if correction is not None:
                    private_total *= correction[0]
                    private_final *= correction[1]
            outputs[sid] = out_profile
            total_work += private_total
            subplan_total[sid] = private_total
            subplan_final[sid] = private_final
            if collect_inputs:
                evaluation.subplan_inputs[sid] = self._inputs_for(
                    subplan, outputs
                )
            for qid in qids:
                query_final_work[qid] = (
                    query_final_work.get(qid, 0.0) + private_final
                )
        evaluation.total_work = total_work
        for qid in self.plan.query_roots:
            query_final_work.setdefault(qid, 0.0)
        if reused and metrics is not None:
            metrics.counter("cost.neighbor.reused").inc(reused)
        return evaluation

    # -- feedback calibration from prior executions -----------------------------

    def apply_feedback(self, run_result, pace_config):
        """Calibrate estimates against a measured execution (section 3.2).

        The paper notes that recurring queries allow calibrating the
        cardinality estimation from previous executions.  This derives a
        per-subplan multiplicative correction of (total, final) work from
        one measured :class:`~repro.engine.metrics.RunResult` under
        ``pace_config`` and applies it to every later :meth:`evaluate`.
        Call with ``run_result=None`` to clear the corrections.

        A subplan *absent* from the measurement (``None``) keeps factor
        1.0; a subplan that measurably did **zero** work against a
        positive estimate is calibrated down (to the clamp floor).  All
        factors are clamped to
        ``[FEEDBACK_FACTOR_MIN, FEEDBACK_FACTOR_MAX]``.
        """
        if run_result is None:
            self._set_feedback({})
            return {}
        self._set_feedback({})  # measure corrections against raw estimates
        estimate = self.evaluate(pace_config)
        feedback = {}
        for subplan in self.plan.subplans:
            sid = subplan.sid
            est_total = estimate.subplan_total.get(sid, 0.0)
            est_final = estimate.subplan_final.get(sid, 0.0)
            measured_total = run_result.subplan_total_work.get(sid)
            measured_final = run_result.subplan_final_work.get(sid)
            total_factor = (
                clamp_feedback_factor(measured_total / est_total)
                if measured_total is not None and est_total > 0 else 1.0
            )
            final_factor = (
                clamp_feedback_factor(measured_final / est_final)
                if measured_final is not None and est_final > 0 else 1.0
            )
            feedback[sid] = (total_factor, final_factor)
        self._set_feedback(feedback)
        if OBS.enabled:
            # Q-error of the *total-work* estimate: max(f, 1/f) >= 1, the
            # standard symmetric under/over-estimation measure
            qerror = OBS.metrics.histogram("cost.feedback.qerror")
            for sid in sorted(feedback):
                total_factor = feedback[sid][0]
                if total_factor > 0:
                    qerror.observe(max(total_factor, 1.0 / total_factor))
            OBS.metrics.counter("cost.feedback.applications").inc()
        return feedback

    def feedback_factors(self):
        """The live ``{sid: (total_factor, final_factor)}`` corrections.

        A copy of the measured multiplicative corrections currently
        applied to every :meth:`evaluate` -- the regret report's oracle
        re-scores logged pace decisions with exactly these factors.
        """
        return dict(self._feedback)

    def carry_state_from(self, old_model, sid_map, qid_map=None):
        """Warm-start this model from another model across a plan change.

        ``sid_map`` maps this plan's subplan ids to ``old_model``'s for
        subplans that are structurally identical (same operators, same
        query set, children matched) after a churn re-merge; ``qid_map``
        likewise maps this plan's query ids to the old plan's when churn
        renumbered the dense query slots.  Carried per
        matched subplan whose *entire* descendant cone also matched --
        memo keys are private pace configurations over the descendants,
        so they only translate when the cone does:

        * memo rows (Algorithm 1), pace keys re-indexed from the old
          descendant sid order to the new one;
        * feedback correction factors from measured executions;
        * solo one-batch estimates for queries all of whose subplans
          matched.

        Returns the number of memo rows carried over.
        """
        carried, cones = self._carry_memo_rows(old_model, sid_map, self._memo)
        feedback = dict(self._feedback)
        for new_sid, old_sid in cones:
            correction = old_model._feedback.get(old_sid)
            if correction is not None:
                feedback[new_sid] = correction
        self._set_feedback(feedback)
        for qid in self.plan.query_roots:
            new_sids = [s.sid for s in self.plan.subplans_of_query(qid)]
            if any(sid not in sid_map for sid in new_sids):
                continue
            old_qid = qid_map.get(qid) if qid_map is not None else qid
            if old_qid is None:
                continue
            old_entry = old_model._solo_cache.get(old_qid)
            if old_entry is None:
                continue
            total, per_subplan = old_entry
            mapped = {
                sid: per_subplan[sid_map[sid]]
                for sid in new_sids
                if sid_map[sid] in per_subplan
            }
            if len(mapped) == len(per_subplan) == len(new_sids):
                self._solo_cache[qid] = (total, mapped)
        return carried

    def carry_memo_from(self, old_model, sid_map):
        """Carry the memo rows of :meth:`carry_state_from`, and only those.

        Used across decomposition surgery, where ``sid_map`` pairs
        subplans the surgery left untouched.  A memo row is a pure
        function of the subplan's operators, their statistics, its cone
        and the cost constants, so rows move only between memoizing
        models whose :class:`~repro.cost.model.CostConfig` compare equal.
        The rows stay apart from this model's own memo until a lookup
        hits them (:meth:`release_carried_rows`).  Returns the number of
        rows carried.
        """
        if not (self.use_memo and old_model.use_memo) \
                or old_model.config != self.config:
            return 0
        return self._carry_memo_rows(old_model, sid_map, self._carried)[0]

    def release_carried_rows(self):
        """Drop carried memo rows no lookup has hit.

        A model that outlives its search then holds the rows it used,
        no more than if it had simulated them itself.
        """
        for rows in self._carried.values():
            rows.clear()

    def _carry_memo_rows(self, old_model, sid_map, into):
        """Rows of every ``sid_map`` pair whose whole cone matched, copied
        from both of ``old_model``'s tiers into ``into`` (``{sid: rows}``).

        Returns ``(rows carried, [(new sid, old sid)] of those pairs)``.
        """
        carried = 0
        cones = []
        for new_sid, old_sid in sid_map.items():
            old_desc = old_model._descendants.get(old_sid)
            new_desc = self._descendants.get(new_sid)
            if old_desc is None or new_desc is None:
                continue
            translated = tuple(sid_map.get(d) for d in new_desc)
            if None in translated or sorted(translated) != sorted(old_desc):
                continue
            cones.append((new_sid, old_sid))
            new_rows = into[new_sid]
            # position i of a new memo key holds the pace of new_desc[i],
            # which lives at old_desc.index(translated[i]) in an old key
            positions = [old_desc.index(t) for t in translated]
            for old_rows in (old_model._memo[old_sid], old_model._carried[old_sid]):
                carried += len(old_rows)
                if translated == old_desc:  # keys already in this order
                    new_rows.update(old_rows)
                    continue
                for old_key, value in old_rows.items():
                    new_rows[tuple(old_key[p] for p in positions)] = value
        if carried and OBS.enabled:
            OBS.metrics.counter("cost.memo.carried_rows").inc(carried)
        return carried, cones

    # -- solo (separate, one-batch) estimates ---------------------------------

    def solo_batch(self, query_id):
        """Estimated cost of running ``query_id`` separately in one batch.

        Simulates only the query's subplans, restricted to the query's own
        tuples, with pace 1.  Returns ``(total_work, {sid: work})``.  This
        is the denominator of relative final-work constraints and the
        basis of the per-subplan local constraint fractions (section
        4.1.1).
        """
        cached = self._solo_cache.get(query_id)
        if cached is not None:
            return cached
        outputs = {}
        per_subplan = {}
        for subplan in self.plan.subplans_of_query(query_id):
            inputs = {}
            for ref in subplan.source_refs():
                if isinstance(ref, TableRef):
                    inputs[ref.key()] = self.table_stat(ref.name)
                else:
                    inputs[ref.key()] = outputs[ref.subplan.sid]
            sim = simulate_subplan(
                subplan, 1, inputs, self.config, query_subset=(query_id,)
            )
            outputs[subplan.sid] = sim.out_profile
            per_subplan[subplan.sid] = sim.private_total
        result = (sum(per_subplan.values()), per_subplan)
        self._solo_cache[query_id] = result
        return result

    def absolute_constraints(self, relative_constraints):
        """Translate relative constraints into absolute final-work bounds."""
        absolute = {}
        for qid, relative in relative_constraints.items():
            total, _ = self.solo_batch(qid)
            absolute[qid] = relative * total
        return absolute

    def local_constraints(self, subplan, absolute_constraints):
        """Per-query local final-work constraints of one subplan.

        Each query's absolute constraint is scaled by the fraction of the
        query's solo one-batch work done by this subplan's operators
        (section 4.1.1).
        """
        local = {}
        for qid in subplan.query_ids():
            if qid not in absolute_constraints:
                continue
            total, per_subplan = self.solo_batch(qid)
            if total <= 0:
                local[qid] = absolute_constraints[qid]
                continue
            fraction = per_subplan.get(subplan.sid, 0.0) / total
            local[qid] = absolute_constraints[qid] * fraction
        return local


class FeedbackSample:
    """Just the measured per-subplan work :meth:`PlanCostModel.apply_feedback`
    reads -- a :class:`~repro.engine.metrics.RunResult` stand-in for folded
    measurements."""

    __slots__ = ("subplan_total_work", "subplan_final_work")

    def __init__(self, subplan_total_work, subplan_final_work):
        self.subplan_total_work = subplan_total_work
        self.subplan_final_work = subplan_final_work


def fold_run_for_feedback(run_result, measured_paces, sid_origin,
                          tainted_origins, base_paces):
    """Fold a run measured on a decomposed plan back onto the pre-split sids.

    Decomposition renames subplans (``apply_split`` allocates fresh sids
    for every piece), so a measurement taken on the decomposed plan
    cannot feed :meth:`PlanCostModel.apply_feedback` on the next window's
    freshly merged plan directly.  ``sid_origin`` (from
    :class:`~repro.core.decompose.DecompositionOutcome`) maps each
    decomposed sid to the original subplan it carries operators of;
    pieces of one original subplan have their measured work summed back
    together.  Origins in ``tainted_origins`` (single-consumer merges
    folded two originals' operators into one piece, so per-original
    attribution is lost) are dropped -- they degrade to "no measurement"
    and keep correction factor 1.0.

    Returns ``(sample, paces)``: a :class:`FeedbackSample` over original
    sids plus the pace configuration to evaluate it against --
    ``base_paces`` (the pre-decomposition configuration) with each
    surviving origin raised to the eagerest pace any of its pieces ran
    at (a piece's measured work was produced under that piece's pace;
    max is the conservative choice when pieces disagree).
    """
    tainted = set(tainted_origins)
    totals = {}
    finals = {}
    for sid, work in run_result.subplan_total_work.items():
        origin = sid_origin.get(sid, sid)
        if origin not in tainted:
            totals[origin] = totals.get(origin, 0.0) + work
    for sid, work in run_result.subplan_final_work.items():
        origin = sid_origin.get(sid, sid)
        if origin not in tainted:
            finals[origin] = finals.get(origin, 0.0) + work
    paces = dict(base_paces)
    folded = {}
    for sid, pace in measured_paces.items():
        origin = sid_origin.get(sid, sid)
        if origin not in tainted and origin in paces:
            folded[origin] = max(folded.get(origin, 0), pace)
    paces.update(folded)
    return FeedbackSample(totals, finals), paces
