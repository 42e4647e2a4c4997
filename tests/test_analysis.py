import numpy as np
import pytest

from bagsolve import (
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
    parent_vector,
    qe,
    solve,
    solve_acyclic,
)


class TestGenerateFamily:
    def test_smallest_member(self):
        bag = generate_family(1, 0.9, 0.1)
        assert bag.names == ("a1", "b1")
        assert bag.attacks == {(0, 0), (1, 1)}
        assert bag.supports == {(0, 1), (1, 0)}
        assert [bag.indegree(i) for i in range(2)] == [2, 2]

    def test_k2_counts(self):
        bag = generate_family(2, 0.5, 0.5)
        assert bag.n == 4
        assert len(bag.attacks) == 8
        assert len(bag.supports) == 8
        assert all(bag.indegree(i) == 4 for i in range(4))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_max_indegree_is_2k(self, k):
        assert max_indegree(generate_family(k, 0.9, 0.1)) == 2 * k

    @pytest.mark.parametrize("k,va,vb", [(1, 0.9, 0.1), (2, 0.3, 0.8)])
    def test_group_swap_symmetry(self, k, va, vb):
        bag = generate_family(k, va, vb)
        swapped = generate_family(k, vb, va)
        perm = {i: (i + k) % (2 * k) for i in range(2 * k)}
        assert {(perm[u], perm[v]) for u, v in swapped.attacks} == bag.attacks
        assert {(perm[u], perm[v]) for u, v in swapped.supports} == bag.supports
        for i in range(2 * k):
            assert swapped.weights[perm[i]] == bag.weights[i]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_family(0, 0.5, 0.5)


class TestGenerateStar:
    def test_smallest_star(self):
        bag = generate_star(1, 0.9, 0.9)
        assert bag.n == 2
        assert bag.attacks == {(1, 0)}
        assert not bag.supports

    @pytest.mark.parametrize("k", [10, 100])
    def test_center_indegree(self, k):
        bag = generate_star(k, 0.9, 0.9)
        assert bag.indegree(0) == k
        assert all(bag.indegree(i) == 0 for i in range(1, k + 1))


class TestDualityFixture:
    def test_shape(self):
        bag = fixture_duality_bag()
        assert bag.n == 9
        assert len(bag.attacks) == 3
        assert len(bag.supports) == 3

    def test_middle_column_wiring(self):
        bag = fixture_duality_bag()
        v = parent_vector(bag, bag.index("a2"))
        assert v[bag.index("x2")] == -1
        assert int(np.sum(np.abs(v))) == 1

    def test_x_arguments_have_no_parents(self):
        bag = fixture_duality_bag()
        for name in ("x1", "x2", "x3"):
            assert bag.indegree(bag.index(name)) == 0

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
