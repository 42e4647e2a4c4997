import random
import time

import numpy as np
import pytest

import reference
from bagsolve import (
    Bag,
    Outcome,
    SemanticsSpec,
    check_duality_aggregation,
    check_duality_influence,
    check_lipschitz_aggregation,
    check_lipschitz_influence,
    dfq,
    euler_semantics,
    fixture_duality_bag,
    generate_family,
    generate_star,
    influence,
    max_indegree,
    open_mindedness_bound,
    qe,
    solve,
    solve_acyclic,
)
from bagsolve import analysis
from reference import parent_vector, relations


class TestGenerateFamily:
    def test_smallest_member(self):
        bag = generate_family(1, 0.9, 0.1)
        assert bag.names == ("a1", "b1")
        assert bag == Bag(["a1", "b1"], [0.9, 0.1], attacks=[(0, 0), (1, 1)],
                          supports=[(0, 1), (1, 0)])
        assert np.diff(bag.indptr).tolist() == [2, 2]

    def test_k2_counts(self):
        bag = generate_family(2, 0.5, 0.5)
        assert bag.n == 4
        assert np.count_nonzero(bag.sign < 0) == 8
        assert np.count_nonzero(bag.sign > 0) == 8
        assert np.diff(bag.indptr).tolist() == [4] * 4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_indegree_is_2k(self, k):
        assert max_indegree(generate_family(k, 0.9, 0.1)) == 2 * k

    @pytest.mark.parametrize("k,va,vb", [(1, 0.9, 0.1), (2, 0.3, 0.8)])
    def test_group_swap_symmetry(self, k, va, vb):
        bag = generate_family(k, va, vb)
        swapped = generate_family(k, vb, va)
        perm = {i: (i + k) % (2 * k) for i in range(2 * k)}
        for mine, theirs in zip(relations(bag), relations(swapped)):
            assert {(perm[u], perm[v]) for u, v in theirs} == mine
        for i in range(2 * k):
            assert swapped.weights[perm[i]] == bag.weights[i]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_family(0, 0.5, 0.5)

    @pytest.mark.parametrize("k", [1, 3, 50, 200])
    def test_equals_the_tuple_built_family(self, k):
        assert generate_family(k, 0.9, 0.1) == reference.generate_family(
            k, 0.9, 0.1)


class TestGenerateStar:
    def test_smallest_star(self):
        bag = generate_star(1, 0.9, 0.9)
        assert bag.n == 2
        assert bag == Bag(["a", "b1"], [0.9, 0.9], attacks=[(1, 0)])

    @pytest.mark.parametrize("k", [10, 100])
    def test_center_indegree(self, k):
        bag = generate_star(k, 0.9, 0.9)
        assert np.diff(bag.indptr).tolist() == [k] + [0] * k

    @pytest.mark.parametrize("k", [1, 3, 50, 200])
    def test_equals_the_tuple_built_star(self, k):
        assert generate_star(k, 0.9, 0.2) == reference.generate_star(
            k, 0.9, 0.2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_a_star_needs_a_leaf(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            generate_star(k, 0.9, 0.9)


class TestDualityFixture:
    def test_shape(self):
        bag = fixture_duality_bag()
        assert bag.n == 9
        assert np.count_nonzero(bag.sign < 0) == 3
        assert np.count_nonzero(bag.sign > 0) == 3

    def test_middle_column_wiring(self):
        bag = fixture_duality_bag()
        v = parent_vector(bag, bag.index("a2"))
        assert v[bag.index("x2")] == -1
        assert int(np.sum(np.abs(v))) == 1

    def test_x_arguments_have_no_parents(self):
        bag = fixture_duality_bag()
        indegree = np.diff(bag.indptr)
        for name in ("x1", "x2", "x3"):
            assert indegree[bag.index(name)] == 0

    def test_weights(self):
        bag = fixture_duality_bag()
        assert bag.weights[bag.index("b3")] == 0.8
        for a, b in (("a1", "b1"), ("a2", "b2"), ("a3", "b3")):
            assert bag.weights[bag.index(a)] + bag.weights[bag.index(b)] == \
                pytest.approx(1.0)


@pytest.mark.parametrize("check", [
    check_duality_aggregation, check_duality_influence,
    check_lipschitz_aggregation, check_lipschitz_influence])
@pytest.mark.parametrize("trials", [0, -3])
def test_checks_need_at_least_one_trial(check, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check(qe(1.0), trials)


class TestDualityChecks:
    @pytest.mark.parametrize("agg", ["sum", "product", "top"])
    def test_aggregations_satisfy_sign_flip(self, agg):
        report = check_duality_aggregation(SemanticsSpec(agg, "constant"),
                                           trials=3000)
        assert report.passed, report

    def test_zero_parent_vector_is_self_dual(self):
        from bagsolve import aggregate
        for agg in ("sum", "product", "top"):
            spec = SemanticsSpec(agg, "constant")
            assert aggregate(spec, [0, 0], [0.4, 0.9]) == 0.0
            assert aggregate(spec, [0, 0], [0.4, 0.9]) == \
                -aggregate(spec, [0, 0], [0.4, 0.9])

    @pytest.mark.parametrize("spec", [
        dfq(1.0),
        qe(1.0),
        SemanticsSpec("sum", "pmax", kappa=3.0, p=3),
        SemanticsSpec("sum", "linear", kappa=2.0),
        SemanticsSpec("sum", "constant"),
    ])
    def test_complement_identity_holds(self, spec):
        report = check_duality_influence(spec, trials=3000)
        assert report.passed, report

    def test_euler_influence_breaks_duality(self):
        report = check_duality_influence(euler_semantics(), trials=3000)
        assert not report.passed
        ce = report.counterexample
        lhs = 1.0 - influence(euler_semantics(), 1.0 - ce["w"], ce["a"])
        rhs = influence(euler_semantics(), ce["w"], -ce["a"])
        assert abs(lhs - rhs) > 1e-12
        assert ce["1-iota_(1-w)(a)"] == pytest.approx(lhs)
        assert ce["iota_w(-a)"] == pytest.approx(rhs)

    def test_euler_asymmetry_reference_magnitude(self):
        # support by 0.8 lifts 0.5 to ~0.645; attack drops it to ~0.388 only
        lhs = 1.0 - influence(euler_semantics(), 0.5, 0.8)
        rhs = influence(euler_semantics(), 0.5, -0.8)
        assert lhs == pytest.approx(0.355, abs=5e-3)
        assert rhs == pytest.approx(0.388, abs=5e-3)


CHECKS = {("duality", "aggregation"): check_duality_aggregation,
          ("duality", "influence"): check_duality_influence,
          ("lipschitz", "aggregation"): check_lipschitz_aggregation,
          ("lipschitz", "influence"): check_lipschitz_influence}


class TestBatchedChecks:
    """The checks evaluate their draws in chunks through the kernel's
    ``aggregate`` and ``influence``; the verdict, the trial count and the
    counterexample are those of the scalar replay in ``reference.check``."""

    @pytest.mark.parametrize("spec", [
        dfq(1.0), qe(1.0), euler_semantics(), qe(10.0), dfq(5.0),
        SemanticsSpec("sum", "pmax", kappa=3.0, p=3),
        SemanticsSpec("sum", "linear", kappa=2.0),
        SemanticsSpec("top", "linear", kappa=1e300),
        SemanticsSpec("sum", "linear", kappa=1e-320),
        SemanticsSpec("product", "euler"),
        SemanticsSpec("top", "pmax", kappa=0.5, p=1),
        SemanticsSpec("sum", "constant"),
    ], ids=repr)
    @pytest.mark.parametrize("trials", [1, 2, analysis._CHUNK + 3])
    def test_matches_the_scalar_replay(self, spec, trials):
        # trials=1 folds one lone column; the last count crosses a chunk
        for (prop, part), check in CHECKS.items():
            for seed in range(3):
                report = check(spec, trials, seed)
                passed, count, example = reference.check(prop, part, spec,
                                                         trials, seed)
                assert (report.passed, report.trials) == (passed, count)
                assert report.counterexample == example, (prop, part, seed)

    def test_counterexample_holds_plain_python_values(self):
        report = check_duality_influence(euler_semantics(), trials=100)
        assert [type(x) for x in report.counterexample.values()] == [float] * 4
        report = check_lipschitz_aggregation(SemanticsSpec("sum", "constant"),
                                             trials=1)
        assert report.passed and type(report.trials) is int

    def test_first_failure_ends_the_check_whatever_the_budget(self):
        # a chunk is drawn and evaluated at a time, never the whole budget
        start = time.perf_counter()
        report = check_duality_influence(euler_semantics(), trials=10**12)
        assert time.perf_counter() - start < 10.0
        assert not report.passed and report.trials == 1

    def test_counterexample_lists_keep_their_length(self, monkeypatch):
        # the parent vectors are padded to 8 for the kernel, not in the report
        monkeypatch.setattr(analysis, "aggregate",
                            lambda spec, v, s: np.full(len(v), np.nan))
        for seed in range(5):
            ce = check_lipschitz_aggregation(qe(1.0), 5, seed).counterexample
            n = len(ce["v"])
            assert len(ce["s1"]) == len(ce["s2"]) == n and 1 <= n <= 8
            assert all(type(x) is int for x in ce["v"])
            assert all(type(x) is float for x in ce["s1"] + ce["s2"])


class TestNaNFails:
    """A NaN on either side of a check fails its trial; it never passes."""

    @pytest.mark.parametrize("prop,part", sorted(CHECKS))
    def test_nan_is_reported(self, monkeypatch, prop, part):
        name = {"aggregation": "aggregate", "influence": "influence"}[part]
        monkeypatch.setattr(analysis, name, lambda spec, x, y: np.full(
            np.shape(y)[:1], np.nan))
        report = CHECKS[prop, part](qe(1.0), trials=50)
        assert not report.passed and report.trials == 1
        assert any(np.isnan(x) for x in report.counterexample.values()
                   if isinstance(x, float))

    @pytest.mark.parametrize("kappa", [np.inf, 1e308, 2.0 ** 1023])
    def test_huge_kappa_samples_finite_aggregates(self, monkeypatch, kappa):
        # 2 kappa overflows, so rng.uniform(-kappa, kappa) would draw NaN
        # (kappa = inf) or +-inf; the draws stay within max/2
        seen = []
        real = analysis.influence
        monkeypatch.setattr(analysis, "influence", lambda spec, w, a: (
            seen.append(np.asarray(a)) or real(spec, w, a)))
        for check in (check_duality_influence, check_lipschitz_influence):
            assert check(dfq(kappa), trials=3000).passed
        a = np.concatenate([np.ravel(x) for x in seen])
        assert np.isfinite(a).all() and np.abs(a).max() > 1e306

    def test_draws_for_finite_two_kappa_are_unchanged(self):
        kappa = float(np.finfo(float).max / 2)  # largest with 2 kappa finite
        draw = analysis._influence_draw(dfq(kappa), "a1", "a2")
        ours, plain = random.Random(4), random.Random(4)
        for _ in range(100):
            assert list(draw(ours).values()) == [
                plain.random(), plain.uniform(-kappa, kappa),
                plain.uniform(-kappa, kappa)]


class TestPmaxDraws:
    """pmax aggregates are drawn over a span that grows with kappa."""

    @pytest.mark.parametrize("kappa", [100.0, 1e6])
    def test_draws_reach_the_steep_part_at_large_kappa(self, monkeypatch,
                                                        kappa):
        # aggregates were drawn in [-10, 10] whatever kappa, so under qe(100)
        # a/kappa stayed within 0.1 of 0, far from where h' peaks, and a
        # constant ten times too small passed
        true = analysis.lipschitz_influence
        monkeypatch.setattr(analysis, "lipschitz_influence",
                            lambda spec, w: true(spec, w) / 10)
        assert not check_lipschitz_influence(qe(kappa)).passed

    @pytest.mark.parametrize("kappa", [100.0, 1e6, np.inf])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_true_constant_passes_at_large_kappa(self, kappa, p):
        spec = SemanticsSpec("sum", "pmax", kappa=kappa, p=p)
        assert check_lipschitz_influence(spec).passed
        assert check_duality_influence(spec).passed

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    def test_draws_at_small_kappa_are_unchanged(self, kappa):
        draw = analysis._influence_draw(qe(kappa), "a1", "a2")
        ours, plain = random.Random(4), random.Random(4)
        for _ in range(100):
            assert list(draw(ours).values()) == [
                plain.random(), plain.uniform(-10.0, 10.0),
                plain.uniform(-10.0, 10.0)]


class TestDualArgumentPairs:
    @pytest.mark.parametrize("spec", [dfq(1.0), qe(1.0)])
    def test_mirrored_pairs_sum_to_one(self, spec):
        bag = fixture_duality_bag()
        s = solve_acyclic(bag, spec)
        for a, b in (("a1", "b1"), ("a2", "b2"), ("a3", "b3")):
            total = s[bag.index(a)] + s[bag.index(b)]
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_euler_semantics_breaks_the_sum(self):
        bag = fixture_duality_bag()
        s = solve_acyclic(bag, euler_semantics())
        total = s[bag.index("a1")] + s[bag.index("b1")]
        assert abs(total - 1.0) > 1e-2  # 0.39 + 0.65 lands near 1.03


class TestOpenMindedness:
    def test_top_euler_width_is_half(self):
        bag = generate_star(3, 0.5, 0.9)
        bound = open_mindedness_bound(bag, SemanticsSpec("top", "euler"))
        assert bound.upper[0] - bound.lower[0] == pytest.approx(0.5)
        # leaves have no parents: zero-width intervals
        assert bound.upper[1] == bound.lower[1] == bag.weights[1]

    @pytest.mark.parametrize("spec", [qe(1e-320), dfq(1e-320)],
                             ids=["qe", "dfq"])
    def test_subnormal_kappa_leaves_parentless_bounds_at_the_weight(self,
                                                                    spec):
        # the influence constant is inf; 0 * inf must not make them NaN
        bag = Bag(["a", "b", "c"], [0.5, 0.25, 0.3],
                  attacks={(0, 2)}, supports={(1, 2)})
        if spec.influence == "linear":
            bag = Bag(["a", "b"], [0.5, 0.25])  # linear refuses parents here
        bound = open_mindedness_bound(bag, spec)
        assert bound.lower[:2].tolist() == bound.upper[:2].tolist() == [0.5, 0.25]
        assert bound.lower[2:].tolist() == [-np.inf] * (bag.n - 2)
        assert bound.upper[2:].tolist() == [np.inf] * (bag.n - 2)

    @pytest.mark.parametrize("state", [0.5, [0.5], [0.5] * 5, [[0.5] * 4]])
    def test_contains_refuses_a_state_of_the_wrong_shape(self, state):
        # four arguments: a scalar or a short state used to broadcast
        bound = open_mindedness_bound(generate_star(3, 0.5, 0.5), qe(1.0))
        with pytest.raises(ValueError, match="expected a state of 4 "):
            bound.contains(state)
        assert bound.contains([0.5] * 4)

    def test_constant_influence_pins_everything(self):
        bag = generate_family(2, 0.3, 0.7)
        bound = open_mindedness_bound(bag, SemanticsSpec("sum", "constant"))
        assert np.array_equal(bound.lower, bag.weights)
        assert np.array_equal(bound.upper, bag.weights)

    def test_star_euler_observation_inside_interval(self):
        bag = generate_star(1, 0.9, 0.9)
        spec = euler_semantics()
        bound = open_mindedness_bound(bag, spec)
        s = solve_acyclic(bag, spec)
        assert s[0] == pytest.approx(0.862, abs=5e-3)
        assert bound.lower[0] <= s[0] <= bound.upper[0]

    def test_converged_fixtures_respect_their_intervals(self):
        fixtures = [
            (fixture_duality_bag(), dfq(1.0)),
            (fixture_duality_bag(), qe(1.0)),
            (fixture_duality_bag(), euler_semantics()),
            (generate_star(10, 0.9, 0.9), qe(1.0)),
            (generate_star(10, 0.9, 0.9), euler_semantics()),
            (generate_family(1, 0.9, 0.1), qe(1.0)),
            (generate_family(1, 0.9, 0.1), SemanticsSpec("top", "euler")),
        ]
        for bag, spec in fixtures:
            _, result = solve(bag, spec, record_trajectory=False)
            assert result.outcome is Outcome.CONVERGED
            bound = open_mindedness_bound(bag, spec)
            assert bound.contains(result.strengths, slack=1e-6), (spec, result)
