import numpy as np
import pytest
from hypothesis import given

from bagsolve import (
    Bag,
    BagValidationError,
    generate_family,
    generate_star,
    max_indegree,
    topological_levels,
    topological_order,
)
from conftest import bags
from reference import parent_vector


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


def mirrored(bag: Bag) -> Bag:
    # the same graph with the indices reversed, so edges run from high to
    # low index
    last = bag.n - 1
    return Bag(bag.names[::-1], bag.weights[::-1],
               [(last - u, last - v) for u, v in bag.attacks],
               [(last - u, last - v) for u, v in bag.supports])


def longest_path_depths(bag: Bag) -> list[int]:
    # brute force: 0 without parents, else one more than the deepest parent
    parents = [[] for _ in range(bag.n)]
    for u, v in bag.attacks | bag.supports:
        parents[v].append(u)

    def depth(v):
        return max((depth(u) + 1 for u in parents[v]), default=0)
    return [depth(v) for v in range(bag.n)]


def has_cycle(bag: Bag) -> bool:
    # brute force: some argument reaches itself (Warshall's closure)
    reach = [[False] * bag.n for _ in range(bag.n)]
    for u, v in bag.attacks | bag.supports:
        reach[u][v] = True
    for k in range(bag.n):
        for i in range(bag.n):
            if reach[i][k]:
                for j in range(bag.n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return any(reach[i][i] for i in range(bag.n))


class TestTopologicalLevels:
    @given(bags(acyclic=True))
    def test_levels_are_longest_path_depths(self, bag):
        for graph in (bag, mirrored(bag)):
            levels = topological_levels(graph)
            depths = longest_path_depths(graph)
            assert [[i for i in range(graph.n) if depths[i] == k]
                    for k in range(max(depths) + 1)] == [
                        level.tolist() for level in levels]
            assert topological_order(graph) == [
                i for level in levels for i in level.tolist()]

    @given(bags())
    def test_both_agree_with_a_cycle_check(self, bag):
        cyclic = has_cycle(bag)
        assert (topological_levels(bag) is None) == cyclic
        assert (topological_order(bag) is None) == cyclic

    def test_order_is_level_by_level(self):
        # 2 has no parent, so it shares level 0 with 0 and precedes 1
        bag = Bag(["a", "b", "c"], [0.5] * 3, attacks={(0, 1)})
        assert topological_order(bag) == [0, 2, 1]
        assert [level.tolist() for level in topological_levels(bag)] == [
            [0, 2], [1]]

    def test_empty_bag(self):
        assert topological_levels(Bag([], [])) == []
        assert topological_order(Bag([], [])) == []

    def test_long_chain_has_one_argument_per_level(self):
        n = 20_000
        chain = Bag([f"a{i}" for i in range(n)], [0.5] * n,
                    attacks=[(i, i + 1) for i in range(n - 1)])
        levels = topological_levels(chain)
        assert len(levels) == n
        assert [level.tolist() for level in levels] == [[i] for i in range(n)]


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

    def test_duplicate_among_many_names_is_named(self):
        names = [f"a{i}" for i in range(10**5)]
        names[70_000] = "a123"
        with pytest.raises(BagValidationError) as err:
            Bag(names, [0.5] * len(names))
        assert str(err.value) == "duplicate argument names: ['a123']"

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
