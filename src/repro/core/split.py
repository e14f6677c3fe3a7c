"""The local split optimization of a shared subplan (paper section 4.1).

Given one shared subplan, its estimated input flow under the current pace
configuration, and per-query *local final-work constraints* (each query's
absolute constraint scaled by the share of the query's one-batch work
this subplan performs), find a partitioning ("split") of the subplan's
query set -- plus a pace per partition -- that minimizes the subplan's
*local total work* while each partition's local final work meets the
lowest constraint among its queries.

Key notions (section 4.1.2):

* **selected pace** ``R*`` of a partition: the smallest pace meeting the
  partition's constraint; the laziest legal execution.  Merging two
  partitions can only raise the selected pace (monotonicity), which lets
  the clustering grow paces monotonically while merging bottom-up.
* **sharing benefit** (Eq. 4): the partial-local-total-work saved by
  merging two partitions at their selected paces.

Both the greedy clustering and the exponential brute-force splitter
(every set partition) are provided; Figures 14 and 16 compare them.
"""

from ..cost.model import simulate_subplan
from ..errors import OptimizationError
from ..obs import OBS


class SplitDecision:
    """A chosen split: partitions with their selected paces."""

    __slots__ = ("partitions", "local_total_work", "pairs_evaluated")

    def __init__(self, partitions, local_total_work, pairs_evaluated=0):
        #: list of (sorted qid tuple, selected pace)
        self.partitions = partitions
        self.local_total_work = local_total_work
        self.pairs_evaluated = pairs_evaluated

    def is_split(self):
        """True if the subplan actually decomposes (more than 1 partition)."""
        return len(self.partitions) > 1

    def __repr__(self):
        return "SplitDecision(%s, W=%.1f)" % (
            [(list(p), r) for p, r in self.partitions],
            self.local_total_work,
        )


class LocalSplitOptimizer:
    """Solves the section 4.1 local optimization for one shared subplan."""

    def __init__(self, subplan, input_stats, local_constraints, max_pace,
                 cost_config=None, verify_warm_start=False):
        self.subplan = subplan
        self.input_stats = input_stats
        self.local_constraints = dict(local_constraints)
        self.max_pace = max_pace
        self.cost_config = cost_config
        self.queries = tuple(sorted(subplan.query_ids()))
        self._cost_cache = {}
        self.simulations = 0
        #: re-run every warm-started selected-pace search from pace 1 and
        #: assert the answers match (tests; guards the monotonicity
        #: argument the warm starts rely on)
        self.verify_warm_start = verify_warm_start

    # -- primitive costs ------------------------------------------------------

    def partition_cost(self, partition, pace):
        """``(W_PT, W_F)`` of one partition at one pace (cached)."""
        key = (frozenset(partition), pace)
        cached = self._cost_cache.get(key)
        if cached is None:
            sim = simulate_subplan(
                self.subplan,
                pace,
                self.input_stats,
                self.cost_config,
                query_subset=partition,
            )
            self.simulations += 1
            if OBS.enabled:
                OBS.metrics.counter("split.simulations").inc()
            cached = (sim.private_total, sim.private_final)
            self._cost_cache[key] = cached
        return cached

    def partition_constraint(self, partition):
        """The lowest local constraint among the partition's queries."""
        return min(self.local_constraints.get(qid, float("inf")) for qid in partition)

    def selected_pace(self, partition, start=1):
        """Smallest pace >= ``start`` meeting the partition's constraint.

        Returns ``(pace, W_PT)``.  If even the max pace misses the
        constraint, the max pace is selected (the laziest among the
        equally-infeasible options is never chosen -- eagerest remaining).
        """
        bound = self.partition_constraint(partition)
        for pace in range(start, self.max_pace + 1):
            total, final = self.partition_cost(partition, pace)
            if final <= bound:
                return pace, total
        total, _ = self.partition_cost(partition, self.max_pace)
        return self.max_pace, total

    def is_feasible(self, partition, pace):
        """True if the partition meets its constraint at ``pace``."""
        _, final = self.partition_cost(partition, pace)
        return final <= self.partition_constraint(partition)

    def _selected_pace_warm(self, partition, start):
        """:meth:`selected_pace` from a warm start, optionally verified.

        Monotonicity (section 4.1.2) guarantees a merged partition's
        selected pace is at least each part's selected pace, so scanning
        from ``start = max(parts' paces)`` skips paces that cannot win.
        With :attr:`verify_warm_start` on, the scan is repeated from
        pace 1 and any divergence raises — the assertion that the skip
        changed nothing.
        """
        pace, total = self.selected_pace(partition, start)
        if self.verify_warm_start and start > 1:
            cold = self.selected_pace(partition, 1)
            if cold != (pace, total):
                raise OptimizationError(
                    "warm-started selected pace diverged for %s: "
                    "warm(start=%d) -> %s, cold -> %s"
                    % (list(partition), start, (pace, total), cold)
                )
        return pace, total

    def sharing_benefit(self, part_i, selected_i, part_j, selected_j):
        """Eq. 4: work saved by merging two partitions.

        ``selected_*`` are ``(pace, W_PT)`` pairs; the merged partition's
        selected-pace search starts at the larger of the two paces
        (monotonicity observation, section 4.1.2).
        """
        merged = tuple(sorted(set(part_i) | set(part_j)))
        start = max(selected_i[0], selected_j[0])
        merged_pace, merged_total = self._selected_pace_warm(merged, start)
        gain = selected_i[1] + selected_j[1] - merged_total
        return gain, merged, (merged_pace, merged_total)

    # -- the greedy clustering (section 4.1.2) ---------------------------------

    def cluster(self):
        """Bottom-up clustering by maximal positive sharing benefit."""
        declog = OBS.declog if OBS.enabled else None
        partitions = [(qid,) for qid in self.queries]
        selected = {part: self.selected_pace(part, 1) for part in partitions}
        pairs = 0
        while len(partitions) > 1:
            best = None
            for i in range(len(partitions)):
                for j in range(i + 1, len(partitions)):
                    pairs += 1
                    part_i, part_j = partitions[i], partitions[j]
                    gain, merged, merged_sel = self.sharing_benefit(
                        part_i, selected[part_i], part_j, selected[part_j],
                    )
                    if gain <= 0:
                        continue
                    # feasibility first: never merge a feasible partition
                    # into an infeasible union (the local constraints are
                    # the optimization problem's subject-to clause)
                    either_feasible = self.is_feasible(
                        part_i, selected[part_i][0]
                    ) or self.is_feasible(part_j, selected[part_j][0])
                    if either_feasible and not self.is_feasible(
                        merged, merged_sel[0]
                    ):
                        if declog is not None:
                            declog.log(
                                "cluster_reject", sid=self.subplan.sid,
                                left=list(part_i), right=list(part_j),
                                sharing_benefit=round(gain, 4),
                                reason="merged_infeasible",
                            )
                        continue
                    if best is None or gain > best[0]:
                        best = (gain, i, j, merged, merged_sel)
            if best is None:
                break
            gain, i, j, merged, merged_sel = best
            if declog is not None:
                declog.log(
                    "cluster_merge", sid=self.subplan.sid,
                    left=list(partitions[i]), right=list(partitions[j]),
                    sharing_benefit=round(gain, 4),
                    selected_pace=merged_sel[0],
                )
            removed = {partitions[i], partitions[j]}
            partitions = [p for p in partitions if p not in removed]
            partitions.append(merged)
            selected[merged] = merged_sel
        result = [(part, selected[part][0]) for part in partitions]
        total = sum(selected[part][1] for part in partitions)
        decision = SplitDecision(result, total, pairs)
        self._log_decision(declog, decision, "cluster")
        return decision

    def _log_decision(self, declog, decision, method):
        if declog is not None:
            declog.log(
                "split_decision", sid=self.subplan.sid, method=method,
                partitions=[(list(p), r) for p, r in decision.partitions],
                local_total_work=round(decision.local_total_work, 4),
                pairs_evaluated=decision.pairs_evaluated,
                is_split=decision.is_split(),
            )

    # -- exhaustive splitter (the Brute-force baseline) -------------------------

    def brute_force(self, max_queries=9):
        """Search every set partition of the query set (exponential).

        The Bell number explodes quickly (the point of Figure 16); above
        ``max_queries`` queries the search falls back to the greedy
        clustering so the ablation stays runnable on large shared
        subplans.
        """
        if len(self.queries) > max_queries:
            return self.cluster()
        # every block contains some singleton, and monotonicity puts the
        # block's selected pace at or above each member's singleton pace:
        # warm-start each block's scan from the max member pace instead
        # of re-scanning from pace 1 (``selected_pace(part, 1)``) on
        # every one of the Bell-number partition sets
        singleton_pace = {
            qid: self.selected_pace((qid,), 1)[0] for qid in self.queries
        }
        best = None
        count = 0
        for partition_set in set_partitions(self.queries):
            count += 1
            total = 0.0
            entries = []
            for part in partition_set:
                start = max(singleton_pace[qid] for qid in part)
                pace, work = self._selected_pace_warm(part, start)
                total += work
                entries.append((part, pace))
            if best is None or total < best.local_total_work:
                best = SplitDecision(entries, total, count)
        self._log_decision(OBS.declog if OBS.enabled else None, best, "brute_force")
        return best


def set_partitions(items):
    """Yield every partition of ``items`` as a list of sorted tuples.

    Standard recursive construction: the first item starts a block; each
    later item either joins an existing block or opens a new one.  The
    count is the Bell number -- exponential, which is the point of the
    Figure 16 comparison.
    """
    items = list(items)
    if not items:
        yield []
        return

    def extend(index, blocks):
        if index == len(items):
            yield [tuple(sorted(block)) for block in blocks]
            return
        item = items[index]
        for block in blocks:
            block.append(item)
            yield from extend(index + 1, blocks)
            block.pop()
        blocks.append([item])
        yield from extend(index + 1, blocks)
        blocks.pop()

    yield from extend(1, [[items[0]]])
