"""Single-vector *window* search for dynamically conflict-free STGs.

Combining Proposition 1 with the marking equation collapses the pair search
to a search over single event sets:

* by Proposition 1 it suffices to look at nested pairs ``C' ⊂ C''``;
* the difference window ``D = C'' \\ C'`` determines both remaining
  constraints: the codes agree iff the signal-change vector of ``D``
  vanishes, and — by the marking equation on the original net —
  ``Mark(C'') - Mark(C') = I · parikh(D)`` depends on ``D`` alone;
* conversely any pairwise conflict-free and *convex* ``D`` embeds into a
  valid pair: take ``C'' = MCC(D)`` (which exists by Theorem 2) and
  ``C' = C'' \\ D``.  Convexity — no event of ``MCC(D) \\ D`` lies causally
  above an event of ``D`` — is exactly what makes ``C'`` downward closed,
  and every real difference window ``C'' \\ C'`` has it.

Hence a USC conflict exists iff some non-empty, conflict-free, convex event
set ``D`` has a zero signal-change vector and a non-zero original-net marking
delta.  The search below enumerates such windows over a single 0-1 vector
— exponentially fewer nodes on the conflict-free benchmarks, where the pair
search must enumerate every configuration pair.  Because the branching
order is topological, convexity reduces to one incremental mask check per
inclusion: none of the new event's causal predecessors may be an excluded
successor of the window.

The signal-balance bound counts only *live* later edges (the prefix-order
propagation of the paper's branch and bound, used for pruning as well as
for legality).  Each frame carries a ``dead`` position mask of events no
completion can include any more: the events in conflict with an included
event, and the causal successors of an excluded successor of the window
(they would break convexity).  Both are permanent — the window only grows,
and an excluded successor stays excluded and stays in the successor mask —
so a signal whose difference ``d > 0`` (``d < 0``) exceeds the live ``s-``
(``s+``) edges left has no balanced leaf below it and the subtree is
pruned.  A decision that kills no event re-checks only its own signal; one
that kills events re-checks every unbalanced signal.

Like :class:`repro.core.search.PairSearch`, the descent is an iterative
explicit-stack loop: one preallocated frame per depth, and a small stage
machine for the include/exclude branches.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from time import perf_counter

from repro.core.context import SolverContext
from repro.core.search import SearchStats
from repro.exceptions import SolverLimitError
from repro.obs import get_tracer
from repro.utils.bitset import popcount

_NO_BOUND = 1 << 62

#: Frame stages of the iterative descent.
_FRESH = 0          # node not expanded yet
_TRY_EXCLUDE = 1    # include branch done (skipped or pruned), exclude next
_IN_INCLUDE = 2     # include child running; undo its deltas on return
_IN_EXCLUDE = 3     # exclude child running; pop on return


class WindowSearch:
    """Enumerate balanced, marking-changing, conflict-free windows.

    Yields pairs ``(closure_mask, window_mask)`` in position-mask space:
    ``closure_mask`` is ``C'' = MCC(D)`` and ``window_mask`` is ``D``; the
    corresponding ``C'`` is ``closure_mask & ~window_mask``.

    Only sound for dynamically conflict-free STGs (Proposition 1).
    """

    def __init__(
        self,
        context: SolverContext,
        node_budget: Optional[int] = None,
        movable_places: Optional[List[bool]] = None,
    ):
        self.context = context
        self.node_budget = node_budget
        self.stats = SearchStats()
        self.flows: List[Tuple[Tuple[int, int], ...]] = context.window_flows
        self.succ_pos: List[int] = context.succ_pos
        # refinement tightening (repro.refine): places certified immovable
        # have zero token-flow delta in every balanced window, so once the
        # movable places are all balanced and no undecided position touches
        # one, the subtree can only complete to windows with an all-zero
        # marking delta — which the marking-change leaf test drops anyway.
        # Pruning them early changes no yielded solution.
        self._movable = movable_places
        self._movable_suffix: List[bool] = []
        if self._movable is not None:
            self._movable_suffix = [False] * (context.num_vars + 1)
            for index in range(context.num_vars - 1, -1, -1):
                self._movable_suffix[index] = self._movable_suffix[index + 1] or any(
                    self._movable[place] for place, _ in self.flows[index]
                )
        # balance masks per signal: a positive difference can only be undone
        # by later live s- positions, a negative one by live s+ positions
        self._plus_mask: List[int] = [0] * context.num_signals
        self._minus_mask: List[int] = [0] * context.num_signals
        for index in range(context.num_vars):
            signal = context.signal_of[index]
            if signal is not None:
                if context.delta_of[index] > 0:
                    self._plus_mask[signal] |= 1 << index
                else:
                    self._minus_mask[signal] |= 1 << index
        # per position: the positions after it, and the signals its decision
        # re-checks when it kills no event (its own, if it has one)
        full = (1 << context.num_vars) - 1
        self._later: List[int] = [
            full & ~((2 << index) - 1) for index in range(context.num_vars)
        ]
        self._own_signal: List[Tuple[int, ...]] = [
            () if signal is None else (signal,) for signal in context.signal_of
        ]

    # -- public API -------------------------------------------------------------

    def solutions(self) -> Iterator[Tuple[int, int]]:
        return self._walk()

    # -- the iterative hot loop --------------------------------------------------

    def _walk(self) -> Iterator[Tuple[int, int]]:
        context = self.context
        num_vars = context.num_vars
        depth_cap = num_vars + 1
        budget = self.node_budget if self.node_budget is not None else _NO_BOUND
        pred_pos = context.pred_pos
        conf_pos = context.conf_pos
        signal_of = context.signal_of
        delta_of = context.delta_of
        flows = self.flows
        succ_pos = self.succ_pos
        plus_mask = self._plus_mask
        minus_mask = self._minus_mask
        later = self._later
        own_signal = self._own_signal
        all_signals = range(context.num_signals)

        movable = self._movable
        movable_suffix = self._movable_suffix if movable is not None else None

        diff = [0] * context.num_signals
        place_delta = [0] * context.num_places
        chosen = [0] * depth_cap
        succ = [0] * depth_cap
        dead = [0] * depth_cap
        nonzero = [0] * depth_cap
        movable_nonzero = [0] * depth_cap
        stage = [_FRESH] * depth_cap

        nodes = leaves = pruned = pruned_struct = found = 0
        depth = 0
        try:
            while depth >= 0:
                index = depth
                st = stage[depth]
                if st == _FRESH:
                    nodes += 1
                    if nodes > budget:
                        raise SolverLimitError(
                            f"window search exceeded node budget "
                            f"{self.node_budget}"
                        )
                    if index == num_vars:
                        leaves += 1
                        window = chosen[depth]
                        if window != 0 and not any(diff) and nonzero[depth] != 0:
                            found += 1
                            yield self._closure(window), window
                        depth -= 1
                        continue
                    if (
                        movable is not None
                        and movable_nonzero[depth] == 0
                        and not movable_suffix[index]
                    ):
                        # every completion's marking delta vanishes on the
                        # certified-immovable places and stays zero on the
                        # balanced movable ones: no leaf here survives the
                        # marking-change test
                        pruned_struct += 1
                        depth -= 1
                        continue
                    # include the event: must be conflict-free with the
                    # window and must not create a gap (a causal predecessor
                    # outside the window that is itself above a window event
                    # would break convexity)
                    window = chosen[depth]
                    stage[depth] = _TRY_EXCLUDE
                    if (
                        conf_pos[index] & window == 0
                        and pred_pos[index] & succ[depth] & ~window == 0
                    ):
                        signal = signal_of[index]
                        if signal is not None:
                            diff[signal] += delta_of[index]
                        # the events in conflict with the new one die; if any
                        # did, every unbalanced signal may have lost its last
                        # counter-edges, else only this one's suffix shrank
                        live = later[index] & ~dead[depth]
                        killed = conf_pos[index] & live
                        live &= ~killed
                        balanced = True
                        for sig in all_signals if killed else own_signal[index]:
                            value = diff[sig]
                            if (
                                value > 0
                                and popcount(minus_mask[sig] & live) < value
                            ) or (
                                value < 0
                                and popcount(plus_mask[sig] & live) < -value
                            ):
                                balanced = False
                                break
                        if not balanced:
                            if signal is not None:
                                diff[signal] -= delta_of[index]
                            pruned += 1
                            continue
                        nz = nonzero[depth]
                        mnz = movable_nonzero[depth]
                        for place, d in flows[index]:
                            before = place_delta[place]
                            after = before + d
                            place_delta[place] = after
                            if after == 0:
                                nz -= 1
                                if movable is not None and movable[place]:
                                    mnz -= 1
                            elif before == 0:
                                nz += 1
                                if movable is not None and movable[place]:
                                    mnz += 1
                        stage[depth] = _IN_INCLUDE
                        child = depth + 1
                        chosen[child] = window | (1 << index)
                        succ[child] = succ[depth] | succ_pos[index]
                        dead[child] = dead[depth] | killed
                        nonzero[child] = nz
                        movable_nonzero[child] = mnz
                        stage[child] = _FRESH
                        depth = child
                    continue
                if st == _IN_INCLUDE:
                    # include child finished: undo its contributions
                    signal = signal_of[index]
                    if signal is not None:
                        diff[signal] -= delta_of[index]
                    for place, d in flows[index]:
                        place_delta[place] -= d
                    st = _TRY_EXCLUDE
                if st == _TRY_EXCLUDE:
                    stage[depth] = _IN_EXCLUDE
                    # an excluded successor of the window kills its causal
                    # successors (including one would break convexity)
                    live = later[index] & ~dead[depth]
                    killed = succ_pos[index] & live if succ[depth] >> index & 1 else 0
                    live &= ~killed
                    balanced = True
                    for sig in all_signals if killed else own_signal[index]:
                        value = diff[sig]
                        if (
                            value > 0 and popcount(minus_mask[sig] & live) < value
                        ) or (
                            value < 0 and popcount(plus_mask[sig] & live) < -value
                        ):
                            balanced = False
                            break
                    if not balanced:
                        pruned += 1
                        depth -= 1
                        continue
                    child = depth + 1
                    chosen[child] = chosen[depth]
                    succ[child] = succ[depth]
                    dead[child] = dead[depth] | killed
                    nonzero[child] = nonzero[depth]
                    movable_nonzero[child] = movable_nonzero[depth]
                    stage[child] = _FRESH
                    depth = child
                    continue
                # _IN_EXCLUDE: both branches done
                depth -= 1
        finally:
            stats = self.stats
            stats.nodes += nodes
            stats.leaves += leaves
            stats.pruned_balance += pruned
            stats.pruned_structure += pruned_struct
            stats.solutions += found

    def _closure(self, chosen: int) -> int:
        # MCC(D) in position space (Definition 1; existence by Theorem 2
        # since windows are conflict-free by construction)
        tracer = get_tracer()
        started = perf_counter() if tracer.enabled else 0.0
        closure = chosen
        rest = chosen
        while rest:
            low = rest & -rest
            closure |= self.context.pred_pos[low.bit_length() - 1]
            rest ^= low
        if tracer.enabled:
            tracer.add_time("closure.window", perf_counter() - started)
            tracer.incr("closure.mcc_calls")
            tracer.incr("closure.mcc_hits")
        return closure
