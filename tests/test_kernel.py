"""The vector update kernel against the per-argument scalar reference.

``update`` evaluates all arguments at once with numpy kernels over the
indegree blocks of ``Bag``; the scalar ``aggregate`` over ``parent_vector``
followed by the scalar ``influence``, kept in ``tests/reference.py``, is the
reference. The aggregations add and multiply in the same order on both
paths, but numpy's ``exp`` and ``power`` may round differently from the C
library's, so the two may differ by round-off, bounded here beforehand by
1e-15. The library's own ``aggregate`` and ``influence`` run the kernel, so
they are held to ``update`` bit for bit.
"""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bagsolve import (
    Bag,
    SemanticsSpec,
    codomain_bound,
    dfq,
    generate_family,
    generate_star,
    influence,
    max_indegree,
    qe,
    solve_acyclic,
    topological_levels,
    update,
    update_levels,
)
from bagsolve import core, semantics
from conftest import AGG_KINDS, INFL_KINDS, bags, random_bag, specs
import reference
from reference import aggregate, parent_vector

TOL = 1e-15
PAIRS = [(agg, infl) for agg in AGG_KINDS for infl in INFL_KINDS]


def scalar_update(bag: Bag, spec: SemanticsSpec, s) -> np.ndarray:
    s = np.asarray(s, dtype=float).tolist()
    return np.array([
        reference.influence(spec, float(bag.weights[i]),
                            aggregate(spec, parent_vector(bag, i), s))
        for i in range(bag.n)
    ])


def spec_for(agg: str, infl: str, bag: Bag, p: int = 2) -> SemanticsSpec:
    """The pair with the smallest kappa the linear influence admits on
    ``bag``; the p-max influence gets kappa 0.5, so that its aggregates
    cross both branches of its response function."""
    if infl == "linear":
        kappa = max(1.0, float(codomain_bound(
            SemanticsSpec(agg, "constant"), max_indegree(bag))))
    else:
        kappa = 0.5
    return SemanticsSpec(agg, infl, kappa=kappa, p=p)


def seeded_graphs():
    yield "family-k1", generate_family(1, 0.9, 0.1)
    yield "family-k3", generate_family(3, 0.3, 0.8)
    yield "family-k50", generate_family(50, 0.9, 0.1)   # indegree 100
    yield "star-k10", generate_star(10, 0.9, 0.4)
    yield "star-k1000", generate_star(1000, 0.2, 0.7)
    rng = np.random.default_rng(11)
    for k in range(4):
        yield f"random-{k}", random_bag(rng, n_max=40, max_parents=8)


GRAPHS = dict(seeded_graphs())


def states(bag: Bag, seed: int):
    rng = np.random.default_rng(seed)
    yield bag.weights
    yield rng.random(bag.n)
    yield np.where(rng.random(bag.n) < 0.5, 0.0, 1.0)


class TestDifferential:
    @pytest.mark.parametrize("agg,infl", PAIRS)
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_seeded_graphs(self, name, agg, infl):
        bag = GRAPHS[name]
        for p in (1, 2, 3) if infl == "pmax" else (2,):
            spec = spec_for(agg, infl, bag, p)
            for s in states(bag, seed=len(name)):
                vector = update(bag, spec, s)
                assert np.max(np.abs(vector - scalar_update(bag, spec, s)),
                              initial=0.0) <= TOL

    @pytest.mark.parametrize("agg,infl", PAIRS)
    @given(bag=bags(max_n=8, max_edges=30), data=st.data())
    def test_random_bags(self, agg, infl, bag, data):
        spec = spec_for(agg, infl, bag, p=data.draw(st.sampled_from([1, 2, 3])))
        s = np.asarray(data.draw(st.lists(
            st.floats(0, 1, allow_nan=False), min_size=bag.n, max_size=bag.n)))
        vector = update(bag, spec, s)
        assert np.max(np.abs(vector - scalar_update(bag, spec, s)),
                      initial=0.0) <= TOL

    @pytest.mark.parametrize("agg", AGG_KINDS)
    def test_aggregations_fold_in_scalar_order(self, agg):
        # the linear influence uses only + - * / in the scalar order, so
        # with it any difference would come from the aggregation, which
        # must add and multiply the parents in the scalar order
        for name, bag in GRAPHS.items():
            spec = spec_for(agg, "linear", bag)
            s = np.random.default_rng(5).random(bag.n)
            assert np.array_equal(update(bag, spec, s),
                                  scalar_update(bag, spec, s)), name
        # the center level of a star is one argument with 100 or 2000
        # parents, a lone column in the level sweep
        for k in (50, 1000):
            bag = generate_star(k, 0.2, 0.7)
            spec = spec_for(agg, "linear", bag)
            assert np.array_equal(solve_acyclic(bag, spec),
                                  scalar_update(bag, spec, bag.weights)), k

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_rows_kernel_matches_full_update(self, name):
        # a sweep of one level updates just its arguments, from the weights
        bag = GRAPHS[name]
        rng = np.random.default_rng(3)
        rows = np.sort(rng.choice(bag.n, size=bag.n // 3, replace=False))
        rest = np.setdiff1d(np.arange(bag.n), rows)
        for agg, infl in PAIRS:
            spec = spec_for(agg, infl, bag)
            swept = update_levels(bag, spec, [rows])
            assert np.array_equal(swept[rows],
                                  update(bag, spec, bag.weights)[rows])
            assert np.array_equal(swept[rest], bag.weights[rest])

    @given(bag=bags(max_n=7, max_edges=20, acyclic=True), spec=specs())
    def test_acyclic_solve_is_one_update_per_level(self, bag, spec):
        # every level is final once the levels before it are, so as many
        # synchronous updates from the weights reach the same state; seven
        # arguments have at most the 6 parents that specs() keeps valid
        s = bag.weights
        for _ in topological_levels(bag):
            s = update(bag, spec, s)
        assert np.array_equal(solve_acyclic(bag, spec), s)


def distinct_indegrees_bag(rng: np.random.Generator) -> Bag:
    """Indegrees 1..300, one argument each, parents and signs drawn from
    ``rng``, plus one parentless argument."""
    n = 301
    edges = ([], [])
    for i in range(1, n):
        for j in rng.choice(n - 1, size=i, replace=False).tolist():
            edges[rng.random() < 0.5].append((j + (j >= i), i))
    return Bag([f"a{i}" for i in range(n)], rng.random(n), *edges)


def assert_bit_length_blocks(bag: Bag) -> None:
    """Each block holds the arguments of one indegree bit length, padded to
    the largest indegree among them; hence at most max_indegree.bit_length()
    blocks, and fewer slots than twice the edges."""
    degree = np.diff(bag.indptr)
    lengths, slots = [], 0
    for pos, code in bag.blocks:
        classes = {int(d).bit_length() for d in degree[pos].tolist()}
        assert len(classes) == 1
        assert code.shape[0] == degree[pos].max()
        lengths += classes
        slots += code.size
    assert len(set(lengths)) == len(lengths)
    assert len(bag.blocks) <= max_indegree(bag).bit_length()
    assert slots < 2 * bag.src.size or not bag.src.size


def decode(bag: Bag):
    """(pos, parents, signs, padding) of each block of ``bag``."""
    n = bag.n
    for pos, code in bag.blocks:
        attack = code > n
        parents = np.where(attack, code - (n + 1), code)
        yield pos, parents, np.where(attack, -1.0, 1.0), code == n


class TestIndegreeBlocks:
    def test_built_once_per_bag(self, monkeypatch):
        # every build groups the indegrees once; the level sweep of
        # solve_acyclic reads the same cached blocks as update
        builds = []
        real = core._indegree_groups
        monkeypatch.setattr(core, "_indegree_groups",
                            lambda degree: builds.append(1) or real(degree))
        family = generate_family(3, 0.3, 0.8)
        star = generate_star(10, 0.9, 0.4)
        for agg in AGG_KINDS:
            solve_acyclic(star, spec_for(agg, "euler", star))
            for bag in (family, star):
                spec = spec_for(agg, "euler", bag)
                for s in states(bag, seed=2):
                    update(bag, spec, s)
        assert len(builds) == 2

    def test_cache_takes_no_part_in_equality(self):
        filled = generate_family(3, 0.3, 0.8)
        fresh = generate_family(3, 0.3, 0.8)
        update(filled, spec_for("sum", "euler", filled), filled.weights)
        assert filled == fresh and fresh == filled
        assert hash(filled) == hash(fresh)
        assert len({filled, fresh}) == 1

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_blocks_hold_every_edge_once_in_csr_order(self, name):
        bag = GRAPHS[name]
        seen = []
        for pos, parents, sign, pad in decode(bag):
            d = parents.shape[0]
            assert parents.shape == (d, pos.size) and parents.flags.c_contiguous
            assert pos.size and np.all(np.diff(pos) > 0)
            for j, i in enumerate(pos.tolist()):
                row = slice(bag.indptr[i], bag.indptr[i + 1])
                live = ~pad[:, j]
                # the padding, if any, ends the column
                assert live.tolist() == sorted(live.tolist(), reverse=True)
                assert parents[live, j].tolist() == bag.src[row].tolist()
                assert sign[live, j].tolist() == bag.sign[row].tolist()
            seen += pos.tolist()
        assert sorted(seen) == np.flatnonzero(np.diff(bag.indptr)).tolist()

    @given(bag=bags(max_n=12, max_edges=60))
    def test_blocks_are_bit_length_classes(self, bag):
        assert_bit_length_blocks(bag)

    def test_bit_length_classes_of_fixed_graphs(self):
        # indegrees 1 | 2, 3 | 4 make three blocks, one per bit length
        small = Bag([f"a{i}" for i in range(5)], [0.5] * 5,
                    attacks={(j, i) for i in range(5) for j in range(i)})
        assert len(small.blocks) == 3
        many = distinct_indegrees_bag(np.random.default_rng(6))
        for bag in (small, many, *GRAPHS.values()):
            assert_bit_length_blocks(bag)

    def test_many_distinct_indegrees_share_few_blocks(self):
        # one block per indegree would make 300 blocks; the bit lengths of
        # 1..300 make 9, padded to 1, 3, 7, ..., 255 and 300
        rng = np.random.default_rng(6)
        bag = distinct_indegrees_bag(rng)
        n = bag.n
        assert len(bag.blocks) <= 30
        s = rng.random(n)
        # one level with arguments in several blocks
        rows = np.sort(rng.choice(n, size=100, replace=False))
        assert sum(np.isin(pos, rows).any() for pos, _ in bag.blocks) > 1
        for agg in AGG_KINDS:
            spec = spec_for(agg, "linear", bag)
            assert np.array_equal(update(bag, spec, s),
                                  scalar_update(bag, spec, s))
            assert np.array_equal(update_levels(bag, spec, [rows])[rows],
                                  scalar_update(bag, spec, bag.weights)[rows])


class TestEdgeCases:
    @pytest.mark.parametrize("agg,infl", PAIRS)
    def test_parentless_arguments_keep_their_weight(self, agg, infl):
        bag = generate_star(20, 0.35, 0.65)
        spec = spec_for(agg, infl, bag)
        out = update(bag, spec, np.random.default_rng(1).random(bag.n))
        assert out[1:].tolist() == bag.weights[1:].tolist()

    @pytest.mark.parametrize("agg", AGG_KINDS)
    def test_euler_at_zero_aggregate_returns_weight(self, agg):
        # c has an attacker and a supporter of equal strength, so every
        # aggregation gives exactly 0 while c still has parents
        bag = Bag(["a", "b", "c"], [0.3, 0.3, 0.123456789],
                  attacks={(0, 2)}, supports={(1, 2)})
        out = update(bag, SemanticsSpec(agg, "euler"), [0.7, 0.7, 0.5])
        assert out[2] == bag.weights[2]

    @pytest.mark.parametrize("agg", AGG_KINDS)
    def test_linear_rejects_out_of_domain_aggregate(self, agg):
        # three supporters at 0.9 aggregate to 2.7, 0.999 or 0.9
        bag = Bag(["a", "b", "c", "d"], [0.9, 0.9, 0.9, 0.5],
                  supports={(0, 3), (1, 3), (2, 3)})
        with pytest.raises(ValueError, match="outside"):
            update(bag, SemanticsSpec(agg, "linear", kappa=0.5), bag.weights)

    @pytest.mark.parametrize("agg,infl", PAIRS)
    def test_empty_bag(self, agg, infl):
        bag = Bag([], [])
        spec = SemanticsSpec(agg, infl)
        assert update(bag, spec, []).shape == (0,)
        assert update_levels(bag, spec, []).shape == (0,)
        assert solve_acyclic(bag, spec).shape == (0,)

    @pytest.mark.parametrize("agg", AGG_KINDS)
    def test_linear_with_subnormal_kappa_keeps_parentless_weights(self, agg):
        # w / kappa overflows to inf, and inf * 0 would be NaN
        bag = Bag(["a", "b"], [0.5, 0.25])
        spec = SemanticsSpec(agg, "linear", kappa=1e-320)
        assert influence(spec, 0.25, 0.0) == 0.25
        with np.errstate(all="ignore"):
            assert update(bag, spec, bag.weights).tolist() == [0.5, 0.25]
        assert solve_acyclic(bag, spec).tolist() == [0.5, 0.25]

    def test_euler_saturates_above_exp_range(self):
        bag = Bag(["s", "t", "u"], [1.0, 0.4, 0.0], supports={(0, 1), (0, 2)})
        spec = SemanticsSpec("sum", "euler")
        s = [800.0, 0.0, 0.0]
        assert update(bag, spec, s).tolist() == [1.0, 1.0, 0.0]
        assert scalar_update(bag, spec, s).tolist() == [1.0, 1.0, 0.0]


def reference_influence(spec: SemanticsSpec, w: np.ndarray,
                        a: np.ndarray) -> np.ndarray:
    """The influence of every argument by the kernel's documented formulas,
    written out in numpy from the weights on every call. For ``linear`` and
    ``constant`` these are the scalar reference ``influence`` bit for bit;
    for ``euler`` they are 1 - (1 - w^2) / (1 + w e^a), and for ``pmax``
    the overflow-free h(y) with y = min(|x|, 1/|x|), which is where
    numpy's ``exp`` and ``power`` make them differ from the scalar ones."""
    w = np.asarray(w, dtype=float)
    a = np.asarray(a, dtype=float)
    if spec.influence in ("linear", "constant"):
        return np.array([reference.influence(spec, wi, ai)
                         for wi, ai in zip(w.tolist(), a.tolist())])
    if spec.influence == "euler":
        out = 1.0 - (1.0 - w * w) / (1.0 + w * np.exp(np.minimum(a, 709.0)))
        out = np.where(a > 709.0, np.where(w > 0.0, 1.0, 0.0), out)
        return np.where(a == 0.0, w, out)
    with np.errstate(over="ignore"):
        x = a / spec.kappa
    ax = np.abs(x)
    yp = np.minimum(ax, 1.0 / np.maximum(ax, 1.0)) ** spec.p
    h = np.where(ax < 1.0, yp, 1.0) / (1.0 + yp)
    return np.where(x < 0.0, w - w * h, w + (1.0 - w) * h)


def reference_update(bag: Bag, spec: SemanticsSpec, s,
                     rows=None) -> np.ndarray:
    """The new strengths of ``rows`` (default: every argument) from ``s``:
    the scalar ``aggregate`` of each, then ``reference_influence``."""
    s = np.asarray(s, dtype=float).tolist()
    rows = range(bag.n) if rows is None else np.asarray(rows).tolist()
    a = [aggregate(spec, parent_vector(bag, i), s) for i in rows]
    return reference_influence(spec, bag.weights[list(rows)], a)


def reference_levels(bag: Bag, spec: SemanticsSpec, levels) -> np.ndarray:
    values = bag.weights.copy()
    for rows in levels:
        if len(rows):
            values[rows] = reference_update(bag, spec, values, rows)
    return values


def assert_same_bits(x: np.ndarray, y: np.ndarray) -> None:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    assert x.shape == y.shape
    assert x.tobytes() == y.tobytes(), np.flatnonzero(x.view(np.int64)
                                                      != y.view(np.int64))


def random_levels(bag: Bag, rng: np.random.Generator):
    """The topological levels, or three random disjoint argument sets of a
    cyclic graph."""
    levels = topological_levels(bag)
    if levels is not None:
        return levels
    cut = np.sort(rng.integers(0, bag.n + 1, size=2))
    perm = rng.permutation(bag.n)
    return [np.sort(part) for part in np.split(perm, cut)]


def lone_column_bag() -> Bag:
    """Five arguments with one parent each, d with five parents alone in
    the 4-7 block (a lone column), and the parentless e."""
    names = ["a", "b", "c", "d", "e", "f", "g"]
    return Bag(names, [0.1, 0.3, 0.5, 0.7, 0.9, 0.2, 0.6],
               attacks={(4, 0), (0, 1), (1, 3), (2, 3), (6, 3), (3, 5)},
               supports={(5, 2), (4, 3), (5, 3), (3, 6)})


BIT_GRAPHS = {
    "lone-column": lone_column_bag(),
    "parentless": Bag(["a", "b"], [0.5, 0.25]),
    "one-block": generate_family(4, 0.9, 0.1),   # every argument, in order
    "star": generate_star(9, 0.4, 0.8),          # a lone centre, 9 leaves
    "zero-aggregate": Bag(["a", "b", "c"], [0.3, 0.3, 0.123456789],
                          attacks={(0, 2)}, supports={(1, 2)}),
    # star-k1000 is left out: the reference is quadratic in n
    **{name: bag for name, bag in GRAPHS.items() if name != "star-k1000"},
}


def bit_specs(agg: str, infl: str, bag: Bag):
    yield spec_for(agg, infl, bag)
    if infl == "pmax":
        yield from (SemanticsSpec(agg, infl, kappa=k, p=p)
                    for k, p in ((10.0, 1), (10.0, 3), (1e-320, 2)))


class TestBitIdentity:
    """``update`` and ``update_levels`` against ``reference_update``, which
    builds no blocks, tables or cached constants: equal bit for bit."""

    @pytest.mark.parametrize("agg,infl", PAIRS)
    @pytest.mark.parametrize("name", sorted(BIT_GRAPHS))
    def test_fixed_graphs(self, name, agg, infl):
        bag = BIT_GRAPHS[name]
        rng = np.random.default_rng(len(name))
        for spec in bit_specs(agg, infl, bag):
            for s in states(bag, seed=len(name)):
                assert_same_bits(update(bag, spec, s),
                                 reference_update(bag, spec, s))
            levels = random_levels(bag, rng)
            assert_same_bits(update_levels(bag, spec, levels),
                             reference_levels(bag, spec, levels))

    @pytest.mark.parametrize("agg,infl", PAIRS)
    @given(bag=bags(max_n=9, max_edges=40), data=st.data())
    def test_random_bags(self, agg, infl, bag, data):
        spec = spec_for(agg, infl, bag, p=data.draw(st.sampled_from([1, 2, 3])))
        s = np.asarray(data.draw(st.lists(
            st.floats(0, 1, allow_nan=False), min_size=bag.n, max_size=bag.n)))
        assert_same_bits(update(bag, spec, s), reference_update(bag, spec, s))
        levels = random_levels(bag, np.random.default_rng(data.draw(
            st.integers(0, 2**32 - 1))))
        assert_same_bits(update_levels(bag, spec, levels),
                         reference_levels(bag, spec, levels))

    @pytest.mark.parametrize("agg", AGG_KINDS)
    def test_euler_beyond_the_exp_range(self, agg):
        # strengths of 800 give aggregates above 709 (saturated), below
        # -709 and exactly 0; at the weight 1e-300 the formula itself would
        # stay below 1 at a = 709, so only the saturation gives 1
        bag = Bag(["s", "t", "u", "v", "z"], [1.0, 0.4, 0.0, 0.7, 1e-300],
                  attacks={(1, 3)},
                  supports={(0, 1), (0, 2), (0, 3), (0, 4)})
        spec = SemanticsSpec(agg, "euler")
        for s in ([800.0, 0.0, 0.0, 0.0, 0.0], [800.0, 800.0, 0.0, 0.0, 0.0],
                  [0.0, 800.0, 0.5, 0.5, 0.5], [709.5, 0.0, 0.0, 0.0, 0.0]):
            assert_same_bits(update(bag, spec, s),
                             reference_update(bag, spec, s))

    @pytest.mark.parametrize("agg", AGG_KINDS)
    @pytest.mark.parametrize("infl", ["linear", "pmax"])
    def test_subnormal_kappa(self, agg, infl):
        # linear: every aggregate is 0 (w / kappa is inf, and inf * 0 must
        # not leak); pmax: a / kappa is +-inf, which saturates h to 1
        bag = BIT_GRAPHS["zero-aggregate"]
        spec = SemanticsSpec(agg, infl, kappa=1e-320)
        states_ = [[0.7, 0.7, 0.5], [0.2, 0.2, 0.9]]
        if infl == "pmax":
            states_ += [[0.7, 0.2, 0.5], [0.2, 0.7, 0.5]]
        for s in states_:
            with np.errstate(all="raise"):
                out = update(bag, spec, s)
            assert_same_bits(out, reference_update(bag, spec, s))
        assert_same_bits(update_levels(bag, spec, [[0, 1], [2]]),
                         reference_levels(bag, spec, [[0, 1], [2]]))


def parent_matrix(bag: Bag) -> np.ndarray:
    """The parent vectors of every argument, one per row."""
    return np.array([parent_vector(bag, i) for i in range(bag.n)],
                    dtype=int).reshape(bag.n, bag.n)


def assert_public_kernel_is_update(bag: Bag, spec: SemanticsSpec, s) -> None:
    """The public ``aggregate`` over every argument's parent vector, then
    ``influence``, is ``update`` bit for bit, and each aggregate equals
    the scalar reference."""
    v = parent_matrix(bag)
    s = np.asarray(s, dtype=float)
    a = semantics.aggregate(spec, v, np.tile(s, (bag.n, 1)))
    assert a.tolist() == [aggregate(spec, row, s.tolist()) for row in v]
    assert_same_bits(influence(spec, bag.weights, a), update(bag, spec, s))


class TestPublicKernel:
    """``aggregate`` and ``influence`` run the kernel that ``update`` runs,
    on parent vectors and (w, a) pairs."""

    @pytest.mark.parametrize("agg,infl", PAIRS)
    @pytest.mark.parametrize("name", sorted(BIT_GRAPHS))
    def test_fixed_graphs(self, name, agg, infl):
        bag = BIT_GRAPHS[name]
        for spec in bit_specs(agg, infl, bag):
            for s in states(bag, seed=len(name)):
                assert_public_kernel_is_update(bag, spec, s)

    @pytest.mark.parametrize("agg,infl", PAIRS)
    @given(bag=bags(max_n=9, max_edges=40), data=st.data())
    def test_random_bags(self, agg, infl, bag, data):
        spec = spec_for(agg, infl, bag, p=data.draw(st.sampled_from([1, 2, 3])))
        s = data.draw(st.lists(st.floats(0, 1, allow_nan=False),
                               min_size=bag.n, max_size=bag.n))
        assert_public_kernel_is_update(bag, spec, s)

    @pytest.mark.parametrize("agg", AGG_KINDS)
    def test_one_long_parent_vector_folds_in_order(self, agg):
        # one parent vector is a lone column, which numpy would otherwise
        # sum pairwise; a batch of one row is the same case
        rng = np.random.default_rng(9)
        v = rng.choice([-1, 0, 1], size=900)
        s = rng.random(900)
        spec = SemanticsSpec(agg, "constant")
        one = semantics.aggregate(spec, v, s)
        assert type(one) is float
        assert one == aggregate(spec, v.tolist(), s.tolist())
        assert semantics.aggregate(spec, v[None], s[None]).tolist() == [one]
        assert semantics.aggregate(spec, np.stack([v, -v]), np.stack(
            [s, s])).tolist() == [one, aggregate(spec, (-v).tolist(),
                                                 s.tolist())]


class TestKernelCache:
    """The constants of one (Bag, spec) are built once and kept with the
    Bag; they are read-only, and a Bag keeps the latest spec's only."""

    def test_built_once_per_spec_in_a_row(self, monkeypatch):
        builds = []
        real = semantics._build_kernel
        monkeypatch.setattr(semantics, "_build_kernel",
                            lambda bag, spec: builds.append(spec)
                            or real(bag, spec))
        bag = generate_family(3, 0.3, 0.8)
        first, second = qe(2.0), SemanticsSpec("sum", "euler")
        for spec in (first, first, qe(2.0), second, second, first):
            update(bag, spec, bag.weights)
        assert builds == [first, second, first]

    def test_constants_are_read_only(self):
        bag = generate_star(5, 0.3, 0.6)
        for infl in INFL_KINDS:
            spec = SemanticsSpec("product", infl, kappa=6.0)
            update(bag, spec, bag.weights)
            blocks, _, pad, consts = bag.memo(spec, semantics._build_kernel)
            for arr in (pad, *consts, *(x for b in blocks for x in b)):
                assert not arr.flags.writeable

    @pytest.mark.parametrize("name", ["one-block", "lone-column", "random-1"])
    def test_alternating_specs_match_a_fresh_bag(self, name):
        # the cache is keyed on the whole spec: two specs that share the
        # aggregation, or the influence, or all but kappa never mix
        bag = BIT_GRAPHS[name]
        pairs = [(qe(1.0), qe(4.0)),
                 (SemanticsSpec("sum", "pmax", kappa=2.0, p=1),
                  SemanticsSpec("sum", "pmax", kappa=2.0, p=3)),
                 (SemanticsSpec("product", "euler"),
                  SemanticsSpec("top", "euler")),
                 (SemanticsSpec("sum", "linear", kappa=50.0),
                  SemanticsSpec("sum", "constant"))]
        s = np.random.default_rng(4).random(bag.n)
        levels = random_levels(bag, np.random.default_rng(5))
        for one, other in pairs:
            for spec in (one, other, one, other):
                fresh = Bag(bag.names, bag.weights, bag.attacks, bag.supports)
                assert_same_bits(update(bag, spec, s), update(fresh, spec, s))
                assert_same_bits(update_levels(bag, spec, levels),
                                 update_levels(fresh, spec, levels))

    def test_interleaved_calls_are_reentrant(self):
        # more threads than cores share one Bag and swap its cached spec all
        # the time, with thread switches forced often; every call must still
        # see a whole kernel of its own spec
        bag = generate_family(6, 0.9, 0.1)
        specs_ = [qe(1.0), SemanticsSpec("product", "euler"), dfq(12.0),
                  SemanticsSpec("top", "pmax", kappa=0.5, p=3)]
        rng = np.random.default_rng(8)
        work = [(specs_[i % 4], rng.random(bag.n)) for i in range(400)]
        expected = [reference_update(bag, spec, s) for spec, s in work]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda job: update(bag, *job), work,
                                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(work)
        for out, ref in zip(got, expected):
            assert_same_bits(out, ref)
