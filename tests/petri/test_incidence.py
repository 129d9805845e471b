"""Tests for the incidence matrix and the marking equation."""

import itertools

import numpy as np
import pytest

from repro.petri.generators import chain, cycle
from repro.petri.incidence import (
    balance_matrix_from_changes,
    incidence_matrix,
    marking_equation_feasible,
    parikh_vector,
    signal_flows,
    state_equation_result,
    transition_flow_matrix,
)
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import explore


class TestIncidenceMatrix:
    def test_shape_and_entries(self, simple_net):
        matrix = incidence_matrix(simple_net)
        assert matrix.shape == (3, 2)
        # t0 consumes p0, produces p1
        assert matrix[0, 0] == -1
        assert matrix[1, 0] == 1
        assert matrix[2, 0] == 0

    def test_self_loop_cancels(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        assert incidence_matrix(net)[0, 0] == 0

    def test_weighted_arcs(self):
        net = PetriNet()
        net.add_place("p", tokens=2)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        net.add_arc("t", "q", weight=3)
        matrix = incidence_matrix(net)
        assert matrix[0, 0] == -2
        assert matrix[1, 0] == 3


class TestBalanceMatrixFromChanges:
    def test_one_signed_entry_per_signal_column(self):
        changes = [(0, 1), (1, -1), (None, 0), (0, -1)]
        assert balance_matrix_from_changes(changes, 2).tolist() == [
            [1, 0, 0, -1],
            [0, -1, 0, 0],
        ]

    def test_unused_signals_get_zero_rows(self):
        assert balance_matrix_from_changes([(1, 1)], 3).tolist() == [[0], [1], [0]]


class TestTransitionFlowMatrix:
    def test_columns_copy_incidence_with_repeats(self, simple_net):
        columns = [1, 0, 1]
        assert np.array_equal(
            transition_flow_matrix(simple_net, columns),
            incidence_matrix(simple_net)[:, columns],
        )

    def test_empty_column_list(self, simple_net):
        assert transition_flow_matrix(simple_net, []).shape == (3, 0)


class TestSignalFlows:
    def test_falling_edge_flow_is_negated(self):
        flows = signal_flows([(0, -1)], np.array([[2], [-1]]))
        assert flows[0].tolist() == [-2, 1]

    def test_opposite_edges_moving_a_token_back_agree(self):
        # z+ moves the token p -> q, z- moves it back
        flow = np.array([[-1, 1], [1, -1]])
        flows = signal_flows([(0, 1), (0, -1)], flow)
        assert flows is not None and flows[0].tolist() == [-1, 1]

    def test_same_edges_on_different_places_disagree(self):
        # two z+ edges, each moving a token between its own pair of places
        flow = np.array([[-1, 0], [1, 0], [0, -1], [0, 1]])
        assert signal_flows([(0, 1), (0, 1)], flow) is None

    def test_arc_weights_count(self):
        assert signal_flows([(0, 1), (0, 1)], np.array([[2, 1]])) is None
        flows = signal_flows([(0, 1), (0, 1)], np.array([[2, 2]]))
        assert flows[0].tolist() == [2]

    def test_one_disagreeing_signal_spoils_the_answer(self):
        changes = [(0, 1), (0, -1), (1, 1), (1, 1)]
        flow = np.array([[1, -1, 1, 0]])
        assert signal_flows(changes[:2], flow[:, :2]) is not None
        assert signal_flows(changes, flow) is None

    def test_only_signals_with_columns_appear(self):
        flows = signal_flows([(2, 1), (None, 0)], np.array([[1, 0]]))
        assert set(flows) == {2}

    def test_self_loop_edges_have_zero_flow(self):
        flows = signal_flows([(0, 1), (0, -1)], np.zeros((2, 2), dtype=np.int64))
        assert flows[0].tolist() == [0, 0]

    def test_net_without_places_is_decided(self):
        flows = signal_flows(
            [(0, 1), (None, 0), (0, -1)], np.zeros((0, 3), dtype=np.int64)
        )
        assert set(flows) == {0} and flows[0].shape == (0,)

    def test_answer_does_not_depend_on_column_order(self):
        changes = [(0, 1), (1, -1), (None, 0), (0, -1), (1, 1)]
        flow = np.array([[1, 0, 0, -1, 0], [0, 2, 0, 0, -2]])
        expected = signal_flows(changes, flow)
        assert expected is not None
        for order in itertools.permutations(range(len(changes))):
            flows = signal_flows([changes[j] for j in order], flow[:, list(order)])
            assert flows.keys() == expected.keys()
            for signal, vector in expected.items():
                assert np.array_equal(flows[signal], vector)

    def test_inputs_are_left_untouched(self):
        changes = [(0, -1), (0, 1)]
        flow = np.array([[1, -1], [-1, 1]])
        flows = signal_flows(changes, flow)
        flows[0][:] = 7
        assert changes == [(0, -1), (0, 1)]
        assert flow.tolist() == [[1, -1], [-1, 1]]


class TestStateEquation:
    def test_firing_sequence_satisfies_equation(self, ring_net):
        sequence = [0, 1, 2]
        parikh = parikh_vector(ring_net, sequence)
        final = ring_net.fire_sequence(ring_net.initial_marking, sequence)
        predicted = state_equation_result(ring_net, ring_net.initial_marking, parikh)
        assert np.array_equal(predicted, np.array(final.counts))

    def test_every_reachable_marking_feasible(self):
        net = cycle(4)
        graph = explore(net)
        for marking in graph.markings:
            assert marking_equation_feasible(net, marking)

    def test_infeasible_marking_rejected(self, simple_net):
        # two tokens cannot appear from one
        impossible = Marking((1, 1, 1))
        assert not marking_equation_feasible(simple_net, impossible)

    def test_feasible_but_unreachable_spurious_solution(self):
        # the classical gap: the equation is necessary, not sufficient.
        # two places swap tokens through a cycle that is never enabled.
        net = PetriNet()
        net.add_place("a", tokens=1)
        net.add_place("b")
        net.add_place("lock")  # required by both transitions, never marked
        net.add_transition("ab")
        net.add_transition("ba")
        net.add_arc("a", "ab")
        net.add_arc("lock", "ab")
        net.add_arc("ab", "b")
        net.add_arc("ab", "lock")
        net.add_arc("b", "ba")
        net.add_arc("ba", "a")
        target = Marking((0, 1, 0))
        # unreachable (lock never marked) but the equation has a solution
        graph = explore(net)
        assert target not in graph.index
        assert marking_equation_feasible(net, target)

    def test_acyclic_net_equation_exact(self, simple_net):
        # on acyclic nets feasibility == reachability (paper Section 2.2)
        graph = explore(simple_net)
        reachable = set(graph.markings)
        all_markings = [
            Marking((a, b, c)) for a in (0, 1) for b in (0, 1) for c in (0, 1)
        ]
        for marking in all_markings:
            assert marking_equation_feasible(simple_net, marking) == (
                marking in reachable
            )
