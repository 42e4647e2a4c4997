import numpy as np
import pytest
from hypothesis import given

from bagsolve import (
    Bag,
    BagValidationError,
    generate_family,
    generate_star,
    max_indegree,
    parent_vector,
    topological_order,
)
from conftest import bags


def three_node_cycle_bag() -> Bag:
    # a attacks b and c; b and c support each other
    return Bag(["a", "b", "c"], [0.6, 0.9, 0.4],
               attacks={(0, 1), (0, 2)}, supports={(1, 2), (2, 1)})


class TestParentVector:
    def test_attacker_and_supporter_encoding(self):
        bag = three_node_cycle_bag()
        assert parent_vector(bag, 1).tolist() == [-1, 0, 1]
        assert bag.indegree(1) == 2

    def test_no_parents_gives_zero_vector(self):
        bag = three_node_cycle_bag()
        assert parent_vector(bag, 0).tolist() == [0, 0, 0]

    def test_family_member_has_self_attack_and_cross_support(self):
        # independent oracle: the family definition enumerated by hand for
        # k=1 is attacks {(a1,a1),(b1,b1)}, supports {(a1,b1),(b1,a1)}
        bag = generate_family(1, 0.9, 0.1)
        assert bag.attacks == {(0, 0), (1, 1)}
        assert bag.supports == {(0, 1), (1, 0)}
        assert parent_vector(bag, 0).tolist() == [-1, 1]

    def test_index_out_of_range(self):
        bag = three_node_cycle_bag()
        with pytest.raises(IndexError):
            parent_vector(bag, 3)

    @given(bags())
    def test_roundtrip_from_edge_sets(self, bag):
        for i in range(bag.n):
            v = parent_vector(bag, i)
            for j in range(bag.n):
                if (j, i) in bag.attacks:
                    assert v[j] == -1
                elif (j, i) in bag.supports:
                    assert v[j] == 1
                else:
                    assert v[j] == 0
            assert bag.indegree(i) == int(np.sum(np.abs(v)))


class TestTopologicalOrder:
    def test_chain(self):
        bag = Bag(["a", "b", "c"], [0.5, 0.5, 0.5],
                  attacks={(0, 1)}, supports={(1, 2)})
        assert topological_order(bag) == [0, 1, 2]

    def test_edgeless_uses_index_tiebreak(self):
        bag = Bag(["x", "y", "z"], [0.1, 0.2, 0.3])
        assert topological_order(bag) == [0, 1, 2]

    def test_self_attack_is_cyclic(self):
        assert topological_order(generate_family(1, 0.9, 0.1)) is None

    def test_two_cycle_is_cyclic(self):
        assert topological_order(three_node_cycle_bag()) is None

    def test_tiebreak_prefers_small_index_among_ready(self):
        # edges force 3 before 0; 1 and 2 are free and must come first
        bag = Bag(["a", "b", "c", "d"], [0.5] * 4, attacks={(3, 0)})
        assert topological_order(bag) == [1, 2, 3, 0]

    @given(bags(acyclic=True))
    def test_every_edge_points_forward(self, bag):
        order = topological_order(bag)
        assert order is not None
        position = {node: k for k, node in enumerate(order)}
        for u, v in bag.attacks | bag.supports:
            assert position[u] < position[v]


class TestMaxIndegree:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_family_indegree_is_2k(self, k):
        assert max_indegree(generate_family(k, 0.9, 0.1)) == 2 * k

    def test_edgeless(self):
        assert max_indegree(Bag(["a"], [0.5])) == 0

    def test_star(self):
        assert max_indegree(generate_star(10, 0.9, 0.9)) == 10

    @given(bags())
    def test_matches_parent_vector_mass(self, bag):
        expected = max(int(np.sum(np.abs(parent_vector(bag, i))))
                       for i in range(bag.n))
        assert max_indegree(bag) == expected


class TestValidation:
    def test_weight_out_of_range(self):
        with pytest.raises(BagValidationError, match="outside"):
            Bag(["a"], [1.5])
        with pytest.raises(BagValidationError, match="outside"):
            Bag(["a"], [-0.1])

    def test_duplicate_names(self):
        with pytest.raises(BagValidationError, match="duplicate"):
            Bag(["a", "a"], [0.5, 0.5])

    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(BagValidationError, match="missing argument"):
            Bag(["a"], [0.5], attacks={(0, 1)})

    def test_attack_support_collision(self):
        with pytest.raises(BagValidationError, match="both attack and support"):
            Bag(["a", "b"], [0.5, 0.5], attacks={(0, 1)}, supports={(0, 1)})

    def test_self_pair_collision_rejected(self):
        with pytest.raises(BagValidationError):
            Bag(["a"], [0.5], attacks={(0, 0)}, supports={(0, 0)})

    def test_duplicate_edges_collapse(self):
        bag = Bag(["a", "b"], [0.5, 0.5], attacks=[(0, 1), (0, 1)])
        assert len(bag.attacks) == 1

    def test_weights_are_read_only(self):
        bag = Bag(["a"], [0.5])
        with pytest.raises(ValueError):
            bag.weights[0] = 0.7


class TestRepresentation:
    """The CSR arrays are the only edge storage; every view derives from them."""

    EDGES = dict(attacks=[(0, 2), (3, 2), (1, 1), (2, 0)],
                 supports=[(1, 2), (0, 3), (3, 3)])

    def build(self, attacks, supports):
        return Bag(["a", "b", "c", "d"], [0.1, 0.2, 0.3, 0.4],
                   attacks=attacks, supports=supports)

    def test_edge_list_form_does_not_matter(self):
        attacks, supports = self.EDGES["attacks"], self.EDGES["supports"]
        reference = self.build(attacks, supports)
        variants = [
            (attacks[::-1], supports[::-1]),                 # permuted
            (attacks + attacks[:2], supports * 3),           # duplicated
            ((e for e in attacks), (e for e in supports)),   # generators
            (set(attacks), frozenset(supports)),
            (np.array(attacks), np.array(supports)),
        ]
        for att, sup in variants:
            bag = self.build(att, sup)
            assert bag == reference
            assert hash(bag) == hash(reference)

    def test_different_edges_differ(self):
        reference = self.build(self.EDGES["attacks"], self.EDGES["supports"])
        swapped = self.build(self.EDGES["supports"], self.EDGES["attacks"])
        assert swapped != reference

    @given(bags())
    def test_relations_round_trip(self, bag):
        again = Bag(bag.names, bag.weights, bag.attacks, bag.supports)
        assert again == bag
        assert again.attacks == bag.attacks
        assert again.supports == bag.supports
        assert not bag.attacks & bag.supports

    def test_relations_return_the_input_sets(self):
        bag = self.build(self.EDGES["attacks"], self.EDGES["supports"])
        assert bag.attacks == set(self.EDGES["attacks"])
        assert bag.supports == set(self.EDGES["supports"])
        assert bag.attackers_of(2) == (0, 3)
        assert bag.supporters_of(2) == (1,)
        assert bag.indegree(2) == 3

    def test_rows_list_supporters_before_attackers(self):
        bag = self.build(self.EDGES["attacks"], self.EDGES["supports"])
        assert bag.indptr.tolist() == [0, 1, 2, 5, 7]
        assert bag.src.tolist() == [2, 1, 1, 0, 3, 0, 3]
        assert bag.sign.tolist() == [-1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0]
        assert bag.targets().tolist() == [0, 1, 2, 2, 2, 3, 3]

    def test_arrays_are_read_only(self):
        bag = self.build(self.EDGES["attacks"], self.EDGES["supports"])
        for arr in (bag.indptr, bag.src, bag.sign):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_nan_weight_rejected(self):
        with pytest.raises(BagValidationError, match="outside"):
            Bag(["a", "b"], [0.5, float("nan")])
