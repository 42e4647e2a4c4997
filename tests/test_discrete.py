import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bagsolve import (
    Bag,
    CyclicGraphError,
    Outcome,
    SemanticsSpec,
    certify,
    dfq,
    euler_semantics,
    generate_family,
    generate_star,
    iterate,
    qe,
    solve_acyclic,
    update,
)
from conftest import bags, random_bag, specs

FAMILY = generate_family(1, 0.9, 0.1)


class TestSolveAcyclic:
    def test_edgeless_returns_weights(self):
        bag = Bag(["a", "b"], [0.25, 0.75])
        assert solve_acyclic(bag, qe(1.0)).tolist() == [0.25, 0.75]

    def test_single_attack_dfq(self):
        bag = Bag(["a", "b"], [0.6, 0.9], attacks={(0, 1)})
        assert solve_acyclic(bag, dfq(1.0)).tolist() == pytest.approx([0.6, 0.36])

    def test_star_euler_reference_value(self):
        strengths = solve_acyclic(generate_star(1, 0.9, 0.9), euler_semantics())
        assert strengths[0] == pytest.approx(0.862, abs=5e-3)

    def test_cyclic_graph_is_rejected(self):
        with pytest.raises(CyclicGraphError, match="iterative or continuous"):
            solve_acyclic(FAMILY, qe(1.0))

    def test_deep_chain_needs_one_pass_only(self):
        # a1 -> a2 -> ... -> a8, alternating attack/support
        n = 8
        names = [f"a{i}" for i in range(n)]
        attacks = {(i, i + 1) for i in range(0, n - 1, 2)}
        supports = {(i, i + 1) for i in range(1, n - 1, 2)}
        bag = Bag(names, [0.7] * n, attacks, supports)
        exact = solve_acyclic(bag, qe(1.0))
        long_run = iterate(bag, qe(1.0), tolerance=1e-12).strengths
        assert np.max(np.abs(exact - long_run)) < 1e-10

    @given(bags(acyclic=True), specs())
    @settings(max_examples=50)
    def test_agrees_with_iteration_on_random_dags(self, bag, spec):
        exact = solve_acyclic(bag, spec)
        iterated = iterate(bag, spec, tolerance=1e-12,
                           record_trajectory=False)
        assert iterated.outcome is Outcome.CONVERGED
        assert np.max(np.abs(exact - iterated.strengths)) < 1e-8

    def test_agrees_with_iteration_on_twenty_node_dags(self):
        from conftest import random_bag
        rng = np.random.default_rng(99)
        pool = [dfq(1.0), euler_semantics(), qe(1.0)]
        for trial in range(20):
            bag = random_bag(rng, n_max=20, acyclic=True, max_parents=3)
            spec = pool[trial % len(pool)]
            exact = solve_acyclic(bag, spec)
            iterated = iterate(bag, spec, tolerance=1e-12,
                               record_trajectory=False)
            assert np.max(np.abs(exact - iterated.strengths)) < 1e-8


class TestIterate:
    @pytest.mark.parametrize("spec", [qe(1.0), dfq(1.0)])
    def test_family_diverges_with_period_two_evidence(self, spec):
        result = iterate(FAMILY, spec, max_iterations=1000)
        assert result.outcome is Outcome.DIVERGED
        s1, s2 = result.divergence_evidence
        # the two evidence states genuinely alternate under the update map
        assert np.max(np.abs(update(FAMILY, spec, s1) - s2)) < 1e-6
        assert np.max(np.abs(update(FAMILY, spec, s2) - s1)) < 1e-6
        assert np.max(np.abs(s1 - s2)) > 1e-4

    @pytest.mark.parametrize("spec", [qe(2.1), dfq(1.9)])
    def test_family_converges_with_larger_kappa(self, spec):
        result = iterate(FAMILY, spec, tolerance=1e-4)
        assert result.outcome is Outcome.CONVERGED

    def test_budget_exhaustion(self):
        result = iterate(FAMILY, qe(1.0), max_iterations=5)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.effort == 5

    def test_trajectory_starts_at_weights(self):
        result = iterate(FAMILY, dfq(1.9))
        traj = result.trajectory
        assert traj.times[0] == 0.0
        assert traj.states[0].tolist() == FAMILY.weights.tolist()
        assert len(traj) == int(result.effort) + 1

    def test_trajectory_can_be_skipped(self):
        assert iterate(FAMILY, dfq(1.9), record_trajectory=False).trajectory is None

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            iterate(FAMILY, qe(1.0), tolerance=0.0)

    @given(bags(), specs())
    @settings(max_examples=50)
    def test_all_iterates_stay_in_unit_cube(self, bag, spec):
        result = iterate(bag, spec, max_iterations=60)
        for state in result.trajectory.states:
            assert np.all(state >= 0.0) and np.all(state <= 1.0)


class TestCertify:
    def test_star_certificate_and_iteration_bound(self):
        cert = certify(generate_star(1, 0.9, 0.9), qe(5.0))
        assert cert.global_lambda == pytest.approx(0.36)
        assert cert.guaranteed
        assert cert.iterations_for(1e-6) == 14

    def test_subnormal_kappa_gives_parentless_arguments_lambda_zero(self):
        # the influence constant is inf; 0 * inf must not make them NaN
        bag = Bag(["a", "b", "c"], [0.5, 0.25, 0.3],
                  attacks={(0, 2)}, supports={(1, 2)})
        cert = certify(bag, qe(1e-320))
        assert cert.per_argument_lambda.tolist() == [0.0, 0.0, np.inf]
        assert cert.global_lambda == np.inf and cert.rule == "none"
        cert = certify(Bag(["a", "b"], [0.5, 0.25]), dfq(1e-320))
        assert cert.per_argument_lambda.tolist() == [0.0, 0.0]
        assert cert.guaranteed and cert.rule == "indegree:product+linear"

    def test_family_is_not_certified_at_kappa_one(self):
        cert = certify(FAMILY, qe(1.0))
        assert cert.global_lambda == pytest.approx(3.6)
        assert not cert.guaranteed
        with pytest.raises(ValueError, match="no contraction certificate"):
            cert.iterations_for(1e-6)

    def test_edgeless_is_trivially_certified(self):
        cert = certify(Bag(["a", "b"], [0.3, 0.6]), dfq(1.0))
        assert cert.global_lambda == 0.0
        assert cert.guaranteed
        assert cert.iterations_for(1e-6) == 1

    def test_epsilon_domain(self):
        cert = certify(Bag(["a"], [0.5]), qe(1.0))
        with pytest.raises(ValueError, match="epsilon"):
            cert.iterations_for(1.5)
        with pytest.raises(ValueError, match="epsilon"):
            cert.iterations_for(0.0)
        # checked before the certificate, so the error names the epsilon
        # even where no bound exists
        with pytest.raises(ValueError, match="epsilon"):
            certify(FAMILY, qe(1.0)).iterations_for(2.0)

    @given(bags(), specs())
    def test_global_lambda_is_max_of_per_argument(self, bag, spec):
        cert = certify(bag, spec)
        assert cert.global_lambda == max(cert.per_argument_lambda)

    @given(bags(), st.sampled_from(["linear", "pmax"]),
           st.integers(1, 3), st.floats(0.1, 4.0), st.floats(1.0, 4.0))
    @settings(max_examples=60)
    def test_monotone_in_kappa(self, bag, infl, p, kappa, factor):
        if infl == "linear":
            kappa = max(kappa, float(bag.n))  # keep the spec valid
        small = SemanticsSpec("sum", infl, kappa=kappa, p=p)
        large = SemanticsSpec("sum", infl, kappa=kappa * factor, p=p)
        assert certify(bag, large).global_lambda <= \
            certify(bag, small).global_lambda + 1e-15


class TestGuaranteeByCorollary:
    """The rule labels that certify puts on its certificate."""

    def test_family_dfq_kappa_one_is_unknown(self):
        result = certify(FAMILY, dfq(1.0))
        assert not result.guaranteed
        assert result.rule == "none"

    def test_sum_pmax_indegree_rule(self):
        bag = Bag(["a", "b", "c"], [0.5, 0.4, 0.6],
                  attacks={(0, 2), (1, 2)})
        result = certify(bag, qe(5.0))
        assert result.guaranteed
        assert result.rule == "indegree:sum+pmax"

    def test_relaxed_bound_needs_interior_weights(self):
        # max indegree == kappa/p: no named rule, the products decide
        spec = SemanticsSpec("sum", "pmax", kappa=4.0, p=2)
        interior = Bag(["a", "b"], [0.5, 0.5],
                       attacks={(0, 1), (1, 0)}, supports={(0, 0), (1, 1)})
        assert certify(interior, spec).rule == "contraction"
        extreme = Bag(["a", "b"], [1.0, 0.5],
                      attacks={(0, 1), (1, 0)}, supports={(0, 0), (1, 1)})
        assert certify(extreme, spec).rule == "none"

    def test_subnormal_weight_is_not_interior(self):
        # 1 - 5e-324 rounds to 1.0, so the Lipschitz product reaches 1
        bag = Bag(["a", "b"], [5e-324, 0.5],
                  attacks={(0, 1), (1, 0)}, supports={(0, 0), (1, 1)})
        result = certify(bag, SemanticsSpec("sum", "pmax", kappa=4, p=2))
        assert result.global_lambda == 1.0
        assert not result.guaranteed
        assert result.rule == "none"

    def test_product_euler_indegree_rule(self):
        spec = SemanticsSpec("product", "euler")
        result = certify(FAMILY, spec)
        assert result.guaranteed
        assert result.rule == "indegree:product+euler"

    def test_top_euler_always_guaranteed(self):
        result = certify(FAMILY, SemanticsSpec("top", "euler"))
        assert result.guaranteed
        assert result.rule == "top+euler"

    def test_constant_influence_trivially_guaranteed(self):
        result = certify(FAMILY, SemanticsSpec("sum", "constant"))
        assert result.guaranteed
        assert result.rule == "constant-influence"

    def test_general_contraction_fallback(self):
        result = certify(FAMILY, SemanticsSpec("top", "pmax", kappa=5.0, p=2))
        assert result.guaranteed
        assert result.rule == "contraction"

    @given(bags(), specs())
    def test_corollary_never_contradicts_certificate(self, bag, spec):
        # a rule is named exactly when convergence is guaranteed
        result = certify(bag, spec)
        assert (result.rule != "none") == result.guaranteed
        assert result.guaranteed == (result.global_lambda < 1.0)


class TestContractionBound:
    def test_certified_iteration_counts_reach_the_fixed_point(self):
        rng = np.random.default_rng(7)
        accepted = 0
        while accepted < 10:
            bag = random_bag(rng, n_max=8)
            spec = qe(float(rng.choice([4.0, 6.0, 10.0])))
            cert = certify(bag, spec)
            if not cert.guaranteed or cert.global_lambda > 0.95:
                continue
            accepted += 1
            # long-run oracle: enough iterations to pin the fixed point
            probe = bag.weights.copy()
            burn = cert.iterations_for(1e-13) if cert.global_lambda else 1
            for _ in range(burn):
                probe = update(bag, spec, probe)
            fixed = probe
            for eps in (1e-2, 1e-4, 1e-6):
                state = bag.weights.copy()
                for _ in range(cert.iterations_for(eps)):
                    state = update(bag, spec, state)
                assert np.max(np.abs(state - fixed)) <= eps + 1e-12
