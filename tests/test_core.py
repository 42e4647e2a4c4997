import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from reference import parent_vector, relations


def three_node_cycle_bag() -> Bag:
    # a attacks b and c; b and c support each other
    return Bag(["a", "b", "c"], [0.6, 0.9, 0.4],
               attacks={(0, 1), (0, 2)}, supports={(1, 2), (2, 1)})


class TestParentVector:
    def test_attacker_and_supporter_encoding(self):
        bag = three_node_cycle_bag()
        assert parent_vector(bag, 1).tolist() == [-1, 0, 1]
        assert np.diff(bag.indptr)[1] == 2

    def test_no_parents_gives_zero_vector(self):
        bag = three_node_cycle_bag()
        assert parent_vector(bag, 0).tolist() == [0, 0, 0]

    def test_family_member_has_self_attack_and_cross_support(self):
        # independent oracle: the family definition enumerated by hand for
        # k=1 is attacks {(a1,a1),(b1,b1)}, supports {(a1,b1),(b1,a1)}
        bag = generate_family(1, 0.9, 0.1)
        assert bag == Bag(["a1", "b1"], [0.9, 0.1], attacks=[(0, 0), (1, 1)],
                          supports=[(0, 1), (1, 0)])
        assert parent_vector(bag, 0).tolist() == [-1, 1]

    def test_index_out_of_range(self):
        bag = three_node_cycle_bag()
        with pytest.raises(IndexError):
            parent_vector(bag, 3)

    @given(bags())
    def test_roundtrip_from_edge_sets(self, bag):
        attacks, supports = relations(bag)
        for i in range(bag.n):
            v = parent_vector(bag, i)
            for j in range(bag.n):
                if (j, i) in attacks:
                    assert v[j] == -1
                elif (j, i) in supports:
                    assert v[j] == 1
                else:
                    assert v[j] == 0
            assert np.diff(bag.indptr)[i] == int(np.sum(np.abs(v)))


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
        for u, v in edges(bag):
            assert position[u] < position[v]


def edges(bag: Bag) -> frozenset:
    attacks, supports = relations(bag)
    return attacks | supports


def mirrored(bag: Bag) -> Bag:
    # the same graph with the indices reversed, so edges run from high to
    # low index
    last = bag.n - 1
    attacks, supports = relations(bag)
    return Bag(bag.names[::-1], bag.weights[::-1],
               [(last - u, last - v) for u, v in attacks],
               [(last - u, last - v) for u, v in supports])


def longest_path_depths(bag: Bag) -> list[int]:
    # brute force: 0 without parents, else one more than the deepest parent
    parents = [[] for _ in range(bag.n)]
    for u, v in edges(bag):
        parents[v].append(u)

    def depth(v):
        return max((depth(u) + 1 for u in parents[v]), default=0)
    return [depth(v) for v in range(bag.n)]


def has_cycle(bag: Bag) -> bool:
    # brute force: some argument reaches itself (Warshall's closure)
    reach = [[False] * bag.n for _ in range(bag.n)]
    for u, v in edges(bag):
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
            assert levels.tolist() == longest_path_depths(graph)
            assert levels.dtype == np.min_scalar_type(graph.n)
            assert topological_order(graph) == sorted(
                range(graph.n), key=levels.tolist().__getitem__)

    @given(bags())
    def test_both_agree_with_a_cycle_check(self, bag):
        cyclic = has_cycle(bag)
        assert (topological_levels(bag) is None) == cyclic
        assert (topological_order(bag) is None) == cyclic

    def test_order_is_level_by_level(self):
        # 2 has no parent, so it shares level 0 with 0 and precedes 1
        bag = Bag(["a", "b", "c"], [0.5] * 3, attacks={(0, 1)})
        assert topological_order(bag) == [0, 2, 1]
        assert topological_levels(bag).tolist() == [0, 1, 0]

    def test_empty_bag(self):
        assert topological_levels(Bag([], [])).shape == (0,)
        assert topological_order(Bag([], [])) == []

    def test_long_chain_has_one_argument_per_level(self):
        n = 20_000
        chain = Bag([f"a{i}" for i in range(n)], [0.5] * n,
                    attacks=[(i, i + 1) for i in range(n - 1)])
        levels = topological_levels(chain)
        assert levels.dtype == np.uint16
        assert levels.tolist() == list(range(n))


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

    @pytest.mark.parametrize("weights,shape", [
        ([0.5], "(1,)"), ([0.5, 0.5, 0.5], "(3,)"), ([[0.5, 0.5]], "(1, 2)"),
        (0.5, "()")])
    def test_weights_of_another_shape(self, weights, shape):
        with pytest.raises(BagValidationError) as err:
            Bag(["a", "b"], weights)
        assert str(err.value) == f"expected 2 weights, got shape {shape}"

    def test_negative_zero_weight_is_zero(self):
        # -0.0 == 0.0, so the two Bags are equal and must hash alike
        zero, negative = Bag(["a"], [0.0]), Bag(["a"], [-0.0])
        assert zero == negative and hash(zero) == hash(negative)
        assert len({zero, negative}) == 1
        assert not np.signbit(negative.weights).any()

    def test_duplicate_names(self):
        with pytest.raises(BagValidationError, match="duplicate"):
            Bag(["a", "a"], [0.5, 0.5])

    def test_unknown_name_has_no_index(self):
        bag = Bag(["a", "b"], [0.5, 0.5])
        assert bag.index("b") == 1
        with pytest.raises(KeyError, match="unknown argument 'c'"):
            bag.index("c")

    def test_equality_with_another_type_and_repr(self):
        bag = Bag(["a", "b", "c"], [0.5] * 3, attacks=[(0, 1), (2, 1)],
                  supports=[(1, 2)])
        assert bag != 1 and not bag == 1
        assert bag.__eq__(1) is NotImplemented
        assert repr(bag) == "Bag(n=3, attacks=2, supports=1)"

    @pytest.mark.parametrize("names,bad", [
        ([1, (2, 3)], "1"), (["a", (2, 3)], "(2, 3)"), (["a", None], "None"),
        (["a", b"b"], "b'b'"), ([["a"]], "['a']")])
    def test_names_that_are_not_strings(self, names, bad):
        # no reader of the format makes them, and the writers refuse them
        # only with an error from deep inside re
        with pytest.raises(BagValidationError) as err:
            Bag(names, [0.5] * len(names), [(0, len(names) - 1)])
        assert str(err.value) == f"argument names must be strings, got {bad}"

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

    @given(st.data())
    def test_every_shared_pair_is_named(self, data):
        # several pairs in both relations, anywhere in their rows, among
        # pairs in one relation only; names not in index order
        n = data.draw(st.integers(1, 8))
        names = data.draw(st.permutations([f"a{i}" for i in range(n)]))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        shared = data.draw(st.sets(pair, min_size=1, max_size=10))
        attacks = list(shared | data.draw(st.sets(pair, max_size=20)))
        supports = list(shared | data.draw(st.sets(pair, max_size=20)))
        both = set(attacks) & set(supports)
        with pytest.raises(BagValidationError) as err:
            Bag(names, [0.5] * n, attacks, supports)
        pretty = sorted((names[u], names[v]) for u, v in both)
        assert str(err.value) == (
            f"edges declared as both attack and support: {pretty}")

    def test_duplicate_edges_collapse(self):
        bag = Bag(["a", "b"], [0.5, 0.5], attacks=[(0, 1), (0, 1)])
        assert bag == Bag(["a", "b"], [0.5, 0.5], attacks=[(0, 1)])

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
        attacks, supports = relations(bag)
        again = Bag(bag.names, bag.weights, attacks, supports)
        assert again == bag
        assert relations(again) == (attacks, supports)
        assert not attacks & supports
        # the same edges as arrays, straight from the CSR arrays
        pairs = np.column_stack([bag.src, bag.targets()])
        m = bag.sign < 0
        assert Bag(bag.names, bag.weights, pairs[m], pairs[~m]) == bag

    def test_relations_return_the_input_sets(self):
        bag = self.build(self.EDGES["attacks"], self.EDGES["supports"])
        assert relations(bag) == (set(self.EDGES["attacks"]),
                                  set(self.EDGES["supports"]))
        assert parent_vector(bag, 2).tolist() == [-1, 1, 0, -1]
        assert np.diff(bag.indptr).tolist() == [1, 1, 3, 2]

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


class TestMemo:
    """``bag.memo(build)`` calls ``build(bag)`` on first use only, and
    returns what that call built every time after."""

    def test_one_build_per_builder(self):
        bag = three_node_cycle_bag()
        calls = []

        def fresh_list(b):
            calls.append((fresh_list, b))
            return [len(calls)]  # a new object per call

        def empty(b):  # falsy, as the plan of a parentless Bag
            calls.append((empty, b))
            return ()

        def nothing(b):
            calls.append((nothing, b))

        first = bag.memo(fresh_list)
        for _ in range(3):
            assert bag.memo(fresh_list) is first
            assert bag.memo(empty) == ()
            assert bag.memo(nothing) is None
        assert first == [1]
        assert [f for f, _ in calls] == [fresh_list, empty, nothing]
        assert all(b is bag for _, b in calls)
        other = three_node_cycle_bag()
        assert other.memo(fresh_list) == [4]  # each Bag builds its own
        assert bag.memo(fresh_list) is first


def built(attacks, supports, n=3):
    """The Bag on n arguments, or the message of the BagValidationError."""
    try:
        return Bag([f"n{i}" for i in range(n)], [0.5] * n, attacks, supports)
    except BagValidationError as err:
        return str(err)


class TestArrayEdges:
    """A (k, 2) integer array is read whole, with the checks and messages
    of the pairs it holds."""

    @given(st.data())
    def test_arrays_give_the_bag_of_the_pairs(self, data):
        # duplicates and self-loops are drawn; a pair in both relations
        # gives the same collision message either way
        n = data.draw(st.integers(1, 6))
        pairs = st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=12)
        attacks, supports = data.draw(pairs), data.draw(pairs)
        dtype = data.draw(st.sampled_from(
            [np.int64, np.intp, np.int32, np.uint16]))
        as_array = [np.array(e, dtype=dtype).reshape(-1, 2)
                    for e in (attacks, supports)]
        assert built(*as_array, n=n) == built(attacks, supports, n=n)

    @pytest.mark.parametrize("dtype", [np.int64, np.intp])
    def test_empty_arrays(self, dtype):
        empty = np.empty((0, 2), dtype=dtype)
        assert built(empty, empty) == built((), ())
        assert built(empty, [(0, 1)]) == built((), [(0, 1)])

    def test_duplicates_and_self_loops(self):
        attacks = [(0, 0), (1, 2), (0, 0), (1, 2), (2, 2)]
        supports = [(2, 1), (2, 1), (1, 1)]
        bag = built(np.array(attacks, dtype=np.intp),
                    np.array(supports, dtype=np.int64))
        assert bag == built(attacks, supports)
        assert relations(bag)[0] == {(0, 0), (1, 2), (2, 2)}

    @pytest.mark.parametrize("edges", [
        np.zeros((1, 3), dtype=np.int64),
        np.zeros((2, 3), dtype=np.int64),
        np.zeros(4, dtype=np.int64),
        np.array([[0.0, 1.0]]),
        np.array([[0.5, 1.0]], dtype=np.float32),
        np.array([[True, False]]),
        [(0.5, 1.0)],
        [(0, 1, 1), (1, 0, 0)],
        [(0, 1), (1,)],
        [(True, False)],
        [(2**70, 1)],
        [("0", "1")],
        [0, 1],
    ], ids=["1x3", "2x3", "flat", "float", "float32", "bool", "float-tuple",
            "triples", "ragged", "bool-tuple", "huge-int", "str-tuple",
            "flat-list"])
    def test_wrong_shape_or_dtype(self, edges):
        message = "attack edges must be (source, target) pairs"
        assert built(edges, ()) == message
        assert built((), edges) == message.replace("attack", "support")

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -2), (3, 0), (1, 7)])
    @pytest.mark.parametrize("dtype", [np.int64, np.intp, np.int8])
    def test_indices_out_of_range(self, pair, dtype):
        edges = [(0, 1), pair, (2, 2)]
        message = (f"attack edge ({pair[0]},{pair[1]}) references a missing "
                   f"argument")
        assert built(edges, ()) == message
        assert built(np.array(edges, dtype=dtype), ()) == message
        assert built((), np.array(edges, dtype=dtype)) == message.replace(
            "attack", "support")
