"""Analytic cost simulation of a subplan under a pace.

This implements the *simulated incremental executions* of the paper's
memoization algorithm (section 3.2): to estimate the cost of a subplan
with pace ``k``, take the estimated total input data of the subplan and
simulate ``k`` incremental executions, each processing ``1/k`` of that
input, updating intermediate-state statistics (hash-table sizes, groups
materialized so far) after every execution.  The simulation yields the
subplan's *private total work*, *private final work* (the cost of the
final execution) and an *emission profile* describing its output stream,
which becomes the input of its parent subplans.

Emission profiles and buffer compaction
---------------------------------------
Inter-subplan buffers are compacted: retract/insert churn that cancels
within a consumer's unread window is never processed by the consumer
(matching the physical engine's consolidating reads).  A subplan whose
churn comes from an aggregate therefore looks *cheaper* to a lazy parent
than to an eager one -- the mechanism behind delaying subplans (paper
Figure 3c).  :class:`CollapsingProfile` models this by re-deriving the
aggregate's emissions at the consumer's own window granularity;
:class:`UniformProfile` models churn-free streams (base tables, pure
scan/join pipelines).

Operator models
---------------
* **source**: scans every compacted buffer record in its window, applies
  calibrated per-query filter selectivities, unions survivors under
  independence.
* **join**: symmetric hash join delta model:
  ``out = sel * (dL * |R| + (|L| + dL) * dR)``, with calibrated per-query
  and union selectivities; deletions propagate proportionally.
* **aggregate**: balls-into-bins group-touch model.  With group universe
  ``G``, the expected distinct groups touched by ``n`` records is
  ``G * (1 - (1 - 1/G)^n)``; groups touched for the first time emit one
  insert, groups already emitted emit a retract + insert pair.  This is
  what makes eager execution expensive (paper Figure 1).
* **MIN/MAX rescan**: a deletion that removes the current extremum of its
  group forces a rescan of the group's stored values (section 5.3's Q15
  effect); expected cost is one rescan over the net stored values per
  group receiving deletions, weighted by ``minmax_rescan_factor``.
"""

import math

from .stats import EdgeStat, require_stats, union_estimate


class CostConfig:
    """Tunable constants of the cost model.

    ``execution_overhead`` mirrors the engine's fixed per-execution charge;
    ``minmax_rescan_factor`` is the expected fraction of delete-touched
    groups whose extremum is displaced (monotonically growing aggregates
    displace it nearly every time, which is why Q15 is non-incrementable).

    ``arranged_state`` makes :func:`simulate_subplan` skip the state
    charge of arrangement-eligible join sides (bare base-table scans, see
    :func:`repro.engine.arrangements.arrangeable_side`), modeling a
    deployment that bills shared-index maintenance once instead of once
    per reader.  It defaults to off because the engine's *charged* work
    is arrangement-invariant by contract -- arrangements reduce resident
    state and physical maintenance, not WorkMeter charges -- so the
    default keeps the simulation aligned with what the engine bills.
    Turning it on is the what-if: the split optimizer then sees shared
    base-table join state as free, which shifts sharing benefits.
    """

    __slots__ = ("execution_overhead", "minmax_rescan_factor", "state_factor",
                 "arranged_state")

    def __init__(self, execution_overhead=1.0, minmax_rescan_factor=0.5,
                 state_factor=0.3, arranged_state=False):
        self.execution_overhead = float(execution_overhead)
        self.minmax_rescan_factor = float(minmax_rescan_factor)
        self.state_factor = float(state_factor)
        self.arranged_state = bool(arranged_state)

    def _key(self):
        return (self.execution_overhead, self.minmax_rescan_factor,
                self.state_factor, self.arranged_state)

    def __eq__(self, other):
        if not isinstance(other, CostConfig):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("CostConfig(execution_overhead=%r, minmax_rescan_factor=%r, "
                "state_factor=%r, arranged_state=%r)" % self._key())


DEFAULT_COST_CONFIG = CostConfig()


def expected_touched(universe, n):
    """Expected distinct bins hit by ``n`` balls thrown into ``universe`` bins."""
    if universe <= 0 or n <= 0:
        return 0.0
    if universe <= 1:
        return min(1.0, n)
    # universe * (1 - (1 - 1/universe)^n), computed stably
    return -universe * math.expm1(n * math.log1p(-1.0 / universe))


def emissions(universe, seen, n):
    """Aggregate emissions for ``n`` new records after ``seen`` prior ones.

    Returns ``(emitted, retracted)``: groups touched for the first time
    emit one insert; groups that already emitted a row emit a retract +
    insert pair.
    """
    if n <= 0:
        return 0.0, 0.0
    before = expected_touched(universe, seen)
    after = expected_touched(universe, seen + n)
    new_groups = max(0.0, after - before)
    touched_now = expected_touched(universe, n)
    touched_existing = max(0.0, min(touched_now - new_groups, before))
    return new_groups + 2.0 * touched_existing, touched_existing


def _window_bounds(index, pace, granularity):
    """Progress interval ``[t0, t1]`` of one consumer execution.

    Consumers cannot observe finer granularity than the producer's pace:
    window boundaries are quantized down to the producer's execution grid.
    ``granularity=None`` means a continuous stream (base-table arrival).
    """
    if pace < 1:
        raise ValueError("consumer pace must be >= 1, got %r" % (pace,))
    if granularity is None:
        return (index - 1) / pace, index / pace
    if granularity < 1:
        raise ValueError(
            "producer granularity must be >= 1, got %r" % (granularity,)
        )
    lo = (index - 1) * granularity // pace
    hi = index * granularity // pace
    return lo / granularity, hi / granularity


class UniformProfile:
    """A churn-free output stream: records spread uniformly over the window."""

    __slots__ = ("stat", "granularity")

    def __init__(self, stat, granularity=None):
        self.stat = stat
        self.granularity = granularity

    def window(self, index, pace):
        t0, t1 = _window_bounds(index, pace, self.granularity)
        return self.stat.scaled(t1 - t0)

    def total_stat(self):
        return self.stat

    def __repr__(self):
        return "UniformProfile(%r, granularity=%r)" % (self.stat, self.granularity)


class LedgerProfile:
    """Output stream recorded per producer execution (no self-cancellation).

    Join-rooted subplans emit *non-uniformly* over the window -- a fact
    row only matches dimension rows that have already arrived, so output
    arrives superlinearly and the final windows carry well over a uniform
    share.  The ledger keeps the simulated per-execution output stats and
    serves consumer windows by summing the producer executions they
    cover (quantized to the producer's grid).
    """

    __slots__ = ("exec_stats", "granularity", "_cumulative")

    def __init__(self, exec_stats, granularity):
        self.exec_stats = list(exec_stats)
        self.granularity = granularity
        self._cumulative = None

    def window(self, index, pace):
        g = self.granularity
        lo = (index - 1) * g // pace
        hi = index * g // pace
        acc = EdgeStat()
        for position in range(lo, hi):
            acc.add(self.exec_stats[position])
        return acc

    def total_stat(self):
        acc = EdgeStat()
        for stat in self.exec_stats:
            acc.add(stat)
        return acc

    def __repr__(self):
        return "LedgerProfile(%d executions)" % len(self.exec_stats)


class CollapsingProfile:
    """Output stream of a subplan whose churn stems from an aggregate.

    When consumed through a compacted buffer at pace ``k``, the stream
    looks like the anchoring aggregate had emitted at granularity ``k``:
    per window the aggregate's group-touch model is re-applied, so a lazy
    consumer sees (almost) only net rows while an eager one sees the full
    retract/insert churn.  The anchor's *cumulative input series* (one
    entry per producer execution) preserves the non-uniform arrival of
    join-produced input; ``scale_total`` / ``scale_per_q`` account for the
    operators between the aggregate and the subplan's output.
    """

    __slots__ = (
        "universe",
        "series",
        "per_q",
        "scale_total",
        "scale_per_q",
        "granularity",
    )

    def __init__(self, universe, series, per_q, scale_total, scale_per_q,
                 granularity):
        self.universe = max(universe, 1.0)
        #: cumulative anchor input after each producer execution; series[0]=0
        self.series = list(series)
        #: {qid: (universe_q, cumulative_series_q)}
        self.per_q = dict(per_q)
        self.scale_total = scale_total
        self.scale_per_q = dict(scale_per_q)
        self.granularity = granularity

    def window(self, index, pace):
        g = self.granularity
        lo = (index - 1) * g // pace
        hi = index * g // pace
        if hi <= lo:
            return EdgeStat()
        seen = self.series[lo]
        fresh = self.series[hi] - seen
        emitted, retracted = emissions(self.universe, seen, fresh)
        total = emitted * self.scale_total
        deletes = retracted * self.scale_total
        per_q = {}
        for qid, (universe_q, series_q) in self.per_q.items():
            seen_q = series_q[lo]
            fresh_q = series_q[hi] - seen_q
            emitted_q, _ = emissions(universe_q, seen_q, fresh_q)
            card = emitted_q * self.scale_per_q.get(qid, self.scale_total)
            if card > 0:
                per_q[qid] = min(card, total) if total > 0 else card
        return EdgeStat(total, deletes, per_q)

    def total_stat(self):
        """The whole-run flow at the producer's own granularity."""
        acc = EdgeStat()
        for index in range(1, self.granularity + 1):
            acc.add(self.window(index, self.granularity))
        return acc

    def __repr__(self):
        return "CollapsingProfile(U=%.0f, in=%.0f, granularity=%d)" % (
            self.universe,
            self.series[-1] if self.series else 0.0,
            self.granularity,
        )


class SubplanSimResult:
    """Result of simulating one subplan under one pace."""

    __slots__ = ("private_total", "private_final", "out_stat", "out_profile", "works")

    def __init__(self, private_total, private_final, out_stat, out_profile, works):
        self.private_total = private_total
        self.private_final = private_final
        self.out_stat = out_stat
        self.out_profile = out_profile
        self.works = works

    def __repr__(self):
        return "SubplanSimResult(total=%.1f, final=%.1f)" % (
            self.private_total,
            self.private_final,
        )


class _JoinSimState:
    __slots__ = ("left_net", "right_net", "left_q", "right_q")

    def __init__(self):
        self.left_net = 0.0
        self.right_net = 0.0
        self.left_q = {}
        self.right_q = {}


class _AggSimState:
    __slots__ = ("n_union", "n_q", "net_union")

    def __init__(self):
        self.n_union = 0.0
        self.n_q = {}
        self.net_union = 0.0


def simulate_subplan(subplan, pace, input_stats, config=None, query_subset=None):
    """Simulate ``pace`` incremental executions of ``subplan``.

    Parameters
    ----------
    input_stats:
        ``{source_ref_key: EmissionProfile}`` -- the output streams of the
        subplan's source buffers over the whole trigger window.
    query_subset:
        restrict the simulation to these query ids (used by the
        decomposition's local optimization, section 4.1); ``None`` means
        the subplan's full query set.
    """
    config = config or DEFAULT_COST_CONFIG
    if pace < 1:
        # a zero/negative pace would silently simulate zero executions and
        # report a free subplan; fail loudly instead
        raise ValueError(
            "subplan %d pace must be >= 1, got %r" % (subplan.sid, pace)
        )
    mask_queries = set(subplan.query_ids())
    if query_subset is not None:
        mask_queries &= set(query_subset)
    mask_queries = sorted(mask_queries)

    anchor = next(
        (node for node in subplan.root.walk() if node.kind == "aggregate"), None
    )
    anchor_raw = EdgeStat()

    node_states = {}
    works = []
    out_stat = EdgeStat()
    work_box = [0.0]
    exec_box = [0]

    def charge(units):
        work_box[0] += units

    def decorate(node, stat):
        if node.filters:
            stats = require_stats(node)
            charge(stat.total)
            per_q = {}
            for qid in mask_queries:
                card = stat.query_card(qid)
                if card <= 0:
                    continue
                per_q[qid] = card * stats.filter_selectivity(qid)
            total = union_estimate(stat.total, per_q.values())
            delete_ratio = stat.deletes / stat.total if stat.total > 0 else 0.0
            stat = EdgeStat(total, total * delete_ratio, per_q)
        if node.projections:
            charge(stat.total)
        return stat

    def eval_node(node, pace_count):
        if node.kind == "source":
            profile = input_stats.get(node.ref.key())
            if profile is None:
                raise KeyError("no input stats for source %r" % (node.ref,))
            window = profile.window(exec_box[0], pace_count)
            charge(window.total)  # scanning every (compacted) buffer record
            kept = window.restricted(mask_queries)
            return decorate(node, kept)
        if node.kind == "join":
            left = eval_node(node.children[0], pace_count)
            right = eval_node(node.children[1], pace_count)
            return decorate(node, _join_model(node, left, right))
        child = eval_node(node.children[0], pace_count)
        raw = _aggregate_model(node, child)
        if node is anchor:
            anchor_raw.add(raw)
        return decorate(node, raw)

    def _join_model(node, left, right):
        stats = require_stats(node)
        state = node_states.get(node.uid)
        if state is None:
            state = node_states[node.uid] = _JoinSimState()
        charge(left.total + right.total)
        sel_union = stats.join_selectivity()
        base = sel_union * (
            left.total * state.right_net
            + (state.left_net + left.total) * right.total
        )
        per_q = {}
        for qid in mask_queries:
            sel_q = stats.join_selectivity(qid)
            if sel_q <= 0:
                continue
            l_new = left.query_card(qid)
            r_new = right.query_card(qid)
            l_old = state.left_q.get(qid, 0.0)
            r_old = state.right_q.get(qid, 0.0)
            out_q = sel_q * (l_new * r_old + (l_old + l_new) * r_new)
            if out_q > 0:
                per_q[qid] = out_q
        total = max(base, max(per_q.values(), default=0.0))
        total = min(total, sum(per_q.values())) if per_q else total
        # contribution-weighted delete fraction
        f_left = left.deletes / left.total if left.total > 0 else 0.0
        f_right = right.deletes / right.total if right.total > 0 else 0.0
        left_part = left.total * (state.right_net + right.total)
        right_part = state.left_net * right.total
        parts = left_part + right_part
        if parts > 0:
            delete_fraction = (left_part * f_left + right_part * f_right) / parts
        else:
            delete_fraction = 0.0
        charge(total)
        # install the new deltas into the simulated hash tables (net sizes)
        left_keep = left.net() / left.total if left.total > 0 else 0.0
        right_keep = right.net() / right.total if right.total > 0 else 0.0
        state.left_net += left.net()
        state.right_net += right.net()
        for qid in mask_queries:
            state.left_q[qid] = (
                state.left_q.get(qid, 0.0) + left.query_card(qid) * left_keep
            )
            state.right_q[qid] = (
                state.right_q.get(qid, 0.0) + right.query_card(qid) * right_keep
            )
        return EdgeStat(total, total * delete_fraction, per_q)

    def _aggregate_model(node, child):
        stats = require_stats(node)
        state = node_states.get(node.uid)
        if state is None:
            state = node_states[node.uid] = _AggSimState()
        charge(child.total)
        universe = stats.group_universe(mask_queries)
        n = child.total
        emit_union, retract_union = emissions(universe, state.n_union, n)
        per_q = {}
        for qid in mask_queries:
            n_q = child.query_card(qid)
            if n_q <= 0:
                continue
            universe_q = max(1.0, stats.groups_per_q.get(qid, stats.groups_union))
            agg_universes[(node.uid, qid)] = universe_q
            emit_q, _ = emissions(universe_q, state.n_q.get(qid, 0.0), n_q)
            per_q[qid] = min(emit_q, emit_union) if emit_union > 0 else emit_q
            state.n_q[qid] = state.n_q.get(qid, 0.0) + n_q
        charge(emit_union)
        if stats.has_minmax and child.deletes > 0:
            # A deletion that removes the current extremum of its group
            # forces a rescan of the group's stored value multiset.  With
            # monotone update streams the extremum-holding group is hit in
            # nearly every execution, so we charge one rescan per group
            # that receives deletions, over the *net* values stored so far
            # (retract/insert pairs cancel in the multiset).
            groups_hit = expected_touched(universe, child.deletes)
            net_values = max(state.net_union + child.net(), 0.0)
            # group_universe clamps to >= 1.0, but guard explicitly so a
            # future stats change cannot reintroduce a division by zero
            values_per_group = net_values / universe if universe > 0 else 0.0
            charge(config.minmax_rescan_factor * groups_hit * values_per_group)
        state.n_union += n
        state.net_union += child.net()
        return EdgeStat(emit_union, retract_union, per_q)

    agg_universes = {}

    arranged_sides = {}
    if config.arranged_state and config.state_factor:
        from ..engine.arrangements import arrangeable_side

        for node in subplan.root.walk():
            if node.kind == "join":
                arranged_sides[node.uid] = (
                    arrangeable_side(node, 0) is not None,
                    arrangeable_side(node, 1) is not None,
                )

    def _state_charge():
        """Per-execution state-store maintenance (mirrors the engine)."""
        if not config.state_factor:
            return 0.0
        entries = 0.0
        for uid, state in node_states.items():
            if isinstance(state, _JoinSimState):
                left_shared, right_shared = arranged_sides.get(
                    uid, (False, False)
                )
                if not left_shared:
                    entries += state.left_net
                if not right_shared:
                    entries += state.right_net
            else:
                # one state entry per (group, query) pair, like the engine
                for qid, n_q in state.n_q.items():
                    universe_q = agg_universes.get((uid, qid), 1.0)
                    entries += expected_touched(universe_q, n_q)
        return config.state_factor * entries

    exec_outputs = []
    anchor_series = [0.0]
    anchor_series_q = {}
    latency_work = 0.0
    for index in range(1, pace + 1):
        exec_box[0] = index
        work_box[0] = 0.0
        execution_out = eval_node(subplan.root, pace)
        out_stat.add(execution_out)
        exec_outputs.append(execution_out)
        latency_work = work_box[0] + config.execution_overhead
        works.append(latency_work + _state_charge())
        if anchor is not None and anchor.uid in node_states:
            anchor_state = node_states[anchor.uid]
            anchor_series.append(anchor_state.n_union)
            for qid, n_q in anchor_state.n_q.items():
                anchor_series_q.setdefault(qid, [0.0] * index)
                anchor_series_q[qid].append(n_q)
            for qid, series in anchor_series_q.items():
                while len(series) < index + 1:
                    series.append(series[-1])

    out_profile = _build_profile(
        subplan, pace, anchor, anchor_raw, node_states, out_stat, mask_queries,
        exec_outputs, anchor_series, anchor_series_q,
    )
    return SubplanSimResult(
        sum(works), latency_work, out_stat, out_profile, works
    )


def _build_profile(subplan, pace, anchor, anchor_raw, node_states, out_stat,
                   mask_queries, exec_outputs, anchor_series, anchor_series_q):
    """Derive the output emission profile of a simulated subplan."""
    if anchor is None or anchor.uid not in node_states or anchor_raw.total <= 0:
        return LedgerProfile(exec_outputs, pace)
    state = node_states[anchor.uid]
    stats = anchor.stats
    universe = stats.group_universe(mask_queries)
    per_q = {}
    scale_per_q = {}
    scale_total = out_stat.total / anchor_raw.total
    for qid in mask_queries:
        in_q = state.n_q.get(qid, 0.0)
        if in_q <= 0:
            continue
        universe_q = max(1.0, stats.groups_per_q.get(qid, stats.groups_union))
        series_q = anchor_series_q.get(qid, [0.0] * (pace + 1))
        per_q[qid] = (universe_q, series_q)
        raw_q = anchor_raw.per_q.get(qid, 0.0)
        if raw_q > 0:
            scale_per_q[qid] = out_stat.per_q.get(qid, 0.0) / raw_q
    return CollapsingProfile(
        universe, anchor_series, per_q, scale_total, scale_per_q, pace
    )
