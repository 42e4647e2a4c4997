import numpy as np
import pytest
from hypothesis import given, strategies as st

from bagsolve import (
    Bag,
    SemanticsConfigError,
    SemanticsSpec,
    aggregate,
    check_lipschitz_aggregation,
    check_lipschitz_influence,
    codomain_bound,
    dfq,
    euler_semantics,
    influence,
    lipschitz_aggregation,
    lipschitz_influence,
    qe,
    update,
    validate_spec,
)
from conftest import bags, specs
from reference import parent_vector

SUM = SemanticsSpec("sum", "constant")
PRODUCT = SemanticsSpec("product", "constant")
TOP = SemanticsSpec("top", "constant")


class TestPresets:
    def test_table_of_presets(self):
        assert (dfq(1.0).aggregation, dfq(1.0).influence) == ("product", "linear")
        assert (euler_semantics().aggregation,
                euler_semantics().influence) == ("sum", "euler")
        s = qe(1.0)
        assert (s.aggregation, s.influence, s.p) == ("sum", "pmax", 2)

    def test_parameter_validation(self):
        with pytest.raises(SemanticsConfigError):
            SemanticsSpec("sum", "pmax", kappa=0.0)
        with pytest.raises(SemanticsConfigError):
            SemanticsSpec("sum", "pmax", p=0)
        with pytest.raises(SemanticsConfigError):
            SemanticsSpec("median", "linear")
        with pytest.raises(SemanticsConfigError):
            SemanticsSpec("sum", "sigmoid")


class TestAggregate:
    def test_sum_single_attacker(self):
        assert aggregate(SUM, [-1], [0.8]) == pytest.approx(-0.8)

    def test_zero_parents_gives_zero(self):
        for spec in (SUM, PRODUCT, TOP):
            assert aggregate(spec, [0, 0], [0.3, 0.9]) == 0.0

    def test_product_mixed_parents(self):
        # (1-0.6) - (1-0.4) = -0.2 by hand
        assert aggregate(PRODUCT, [-1, 1], [0.6, 0.4]) == pytest.approx(-0.2)

    def test_top_mixed_parents(self):
        # strongest supporter 0.7 minus strongest attacker 0.3
        assert aggregate(TOP, [-1, 1], [0.3, 0.7]) == pytest.approx(0.4)

    def test_top_takes_only_the_strongest(self):
        assert aggregate(TOP, [-1, -1, 1, 1], [0.2, 0.9, 0.4, 0.5]) == \
            pytest.approx(0.5 - 0.9)

    @given(bags(), specs(), st.randoms(use_true_random=False))
    def test_directionality_is_exact(self, bag, spec, rnd):
        # states agreeing on the parents must aggregate identically
        i = rnd.randrange(bag.n)
        v = parent_vector(bag, i)
        s1 = [rnd.random() for _ in range(bag.n)]
        s2 = [x if v[j] != 0 else rnd.random() for j, x in enumerate(s1)]
        assert aggregate(spec, v, s1) == aggregate(spec, v, s2)


class TestInfluence:
    @pytest.mark.parametrize("spec", [
        dfq(1.0), euler_semantics(), qe(1.0),
        SemanticsSpec("sum", "constant"),
        SemanticsSpec("sum", "pmax", kappa=3.0, p=5),
    ])
    @pytest.mark.parametrize("w", [0.0, 0.25, 0.3, 0.5, 0.9, 1.0])
    def test_stability_at_zero_aggregate_is_exact(self, spec, w):
        assert influence(spec, w, 0.0) == w

    def test_linear_moves_proportionally(self):
        assert influence(dfq(1.0), 0.5, -0.8) == pytest.approx(0.10)
        assert influence(dfq(1.0), 0.5, 0.8) == pytest.approx(0.90)

    def test_euler_based_reference_points(self):
        assert influence(euler_semantics(), 0.5, -0.8) == pytest.approx(0.39, abs=5e-3)
        assert influence(euler_semantics(), 0.5, 0.8) == pytest.approx(0.65, abs=5e-3)
        assert influence(euler_semantics(), 0.9, -0.9) == pytest.approx(0.862, abs=5e-3)

    def test_pmax_reference_points(self):
        assert influence(qe(1.0), 0.5, -0.8) == pytest.approx(0.30, abs=5e-3)
        # positive branch scales with (1 - w): 0.3 + 0.7 * 0.36/1.36
        assert influence(qe(1.0), 0.3, 0.6) == pytest.approx(0.49, abs=5e-3)
        assert influence(qe(1.0), 0.3, 0.6) == pytest.approx(0.3 + 0.7 * (0.36 / 1.36))

    def test_linear_outside_domain_raises(self):
        with pytest.raises(ValueError, match="outside"):
            influence(dfq(1.0), 0.5, 1.5)

    def test_euler_saturates_for_extreme_aggregates(self):
        assert influence(euler_semantics(), 0.5, 1e6) == 1.0
        assert influence(euler_semantics(), 0.0, 1e6) == 0.0
        assert influence(euler_semantics(), 0.9, -1e6) == pytest.approx(0.81)

    @given(st.floats(0, 1, allow_nan=False), st.floats(-30, 30, allow_nan=False))
    def test_euler_never_below_squared_weight(self, w, a):
        assert influence(euler_semantics(), w, a) >= w * w - 1e-12

    def test_euler_monotone_sweep(self):
        w = 0.7
        values = [influence(euler_semantics(), w, a)
                  for a in np.linspace(-40, 40, 2001)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(w * w, abs=1e-9)
        assert values[-1] == pytest.approx(1.0, abs=1e-9)

    @given(specs(), st.floats(0, 1, allow_nan=False),
           st.floats(-8, 8, allow_nan=False))
    def test_range_is_unit_interval(self, spec, w, a):
        if spec.influence == "linear":
            a = max(-spec.kappa, min(spec.kappa, a))
        assert 0.0 <= influence(spec, w, a) <= 1.0


class TestArraysAndBatches:
    """``aggregate`` takes one parent vector or a batch of rows, and
    ``influence`` scalars or arrays; each is what one call per row or per
    element gives."""

    def test_aggregate_batch_rows(self):
        v = [[-1, 1, 0], [1, 1, 1], [0, 0, 0], [-1, -1, 1]]
        s = [[0.8, 0.1, 0.3], [0.1, 0.2, 0.3], [0.5, 0.5, 0.5],
             [0.6, 0.9, 0.2]]
        for spec in (SUM, PRODUCT, TOP):
            batch = aggregate(spec, v, s)
            assert batch.shape == (4,) and batch[2] == 0.0
            assert batch.tolist() == [aggregate(spec, row, state)
                                      for row, state in zip(v, s)]

    def test_aggregate_of_an_empty_vector_is_zero(self):
        for spec in (SUM, PRODUCT, TOP):
            assert aggregate(spec, [], []) == 0.0

    @pytest.mark.parametrize("spec", [
        dfq(1.0), euler_semantics(), qe(1.0), SemanticsSpec("sum", "constant"),
        SemanticsSpec("sum", "pmax", kappa=0.5, p=3)])
    def test_influence_is_elementwise(self, spec):
        w = np.array([[0.0, 0.3, 0.5], [0.7, 0.9, 1.0]])
        a = np.array([[-1.0, -0.4, 0.0], [0.25, 0.6, 1.0]])
        out = influence(spec, w, a)
        assert out.shape == (2, 3)
        assert out.ravel().tolist() == [
            influence(spec, x, y) for x, y in zip(w.ravel().tolist(),
                                                  a.ravel().tolist())]
        assert type(influence(spec, 0.3, -0.4)) is float
        assert influence(spec, 0.3, a[1]).tolist() == [
            influence(spec, 0.3, y) for y in a[1].tolist()]

    def test_linear_array_outside_domain_raises(self):
        with pytest.raises(ValueError, match="aggregate 1.5 outside"):
            influence(dfq(1.0), [0.5, 0.5, 0.5], [0.2, 1.5, -3.0])

    @pytest.mark.parametrize("kappa", [1e-320, 2.0 ** -1024])
    def test_linear_at_subnormal_kappa_stays_in_the_unit_interval(self,
                                                                 kappa):
        # w / kappa overflows to inf, but a / kappa does not; 2^-1024 is the
        # largest kappa at which 1 / kappa overflows
        a = np.array([-kappa, -kappa / 2, 0.0, kappa / 4, kappa])
        with np.errstate(all="raise"):
            out = influence(dfq(kappa), 0.4, a)
        assert out.tolist() == (
            0.4 + np.where(a < 0.0, 0.4, 0.6) * (a / kappa)).tolist()
        assert out[0] == 0.0 and out[2] == 0.4 and out[-1] == 1.0
        bag = Bag(["a", "c"], [0.5, 0.4], attacks={(0, 1)})
        spec = SemanticsSpec("sum", "linear", kappa=kappa)
        new = update(bag, spec, [kappa / 2, 0.4])
        assert new[0] == 0.5 and new[1] == pytest.approx(0.2, rel=1e-3)


class TestUpdate:
    def test_edgeless_bag_is_fixed_at_weights(self):
        bag = Bag(["a", "b"], [0.3, 0.8])
        for spec in (dfq(1.0), euler_semantics(), qe(1.0)):
            assert update(bag, spec, bag.weights).tolist() == [0.3, 0.8]

    def test_single_attack_dfq(self):
        # alpha(b) = (1-0.6) - 1 = -0.6; iota = 0.9 - 0.9*0.6 = 0.36
        bag = Bag(["a", "b"], [0.6, 0.9], attacks={(0, 1)})
        out = update(bag, dfq(1.0), bag.weights)
        assert out[0] == pytest.approx(0.6)
        assert out[1] == pytest.approx(0.36)

    def test_update_fixes_converged_state(self):
        from bagsolve import generate_family, integrate_rk4
        bag = generate_family(1, 0.9, 0.1)
        spec = qe(1.0)
        s = integrate_rk4(bag, spec, tolerance=1e-10,
                          record_trajectory=False).strengths
        once = update(bag, spec, s)
        twice = update(bag, spec, once)
        assert np.max(np.abs(twice - s)) < 1e-8

    @given(bags(), specs())
    def test_stability_for_parentless_arguments(self, bag, spec):
        out = update(bag, spec, bag.weights * 0.5)
        for i in range(bag.n):
            if bag.indegree(i) == 0:
                assert out[i] == bag.weights[i]

    @given(bags(), specs(), st.lists(st.floats(0, 1, allow_nan=False),
                                     min_size=6, max_size=6))
    def test_update_stays_in_unit_cube(self, bag, spec, raw):
        s = np.asarray(raw[:bag.n] + [0.5] * max(0, bag.n - len(raw)))
        out = update(bag, spec, s)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestLipschitzConstants:
    def test_aggregation_constants(self):
        assert lipschitz_aggregation(SUM, 2) == 2.0
        assert lipschitz_aggregation(TOP, 5) == 2.0
        assert lipschitz_aggregation(TOP, 1) == 1.0
        assert lipschitz_aggregation(PRODUCT, 3) == 3.0
        for spec in (SUM, PRODUCT, TOP):
            assert lipschitz_aggregation(spec, 0) == 0.0

    def test_influence_constants(self):
        assert lipschitz_influence(euler_semantics(), 0.1) == 0.25
        assert lipschitz_influence(euler_semantics(), 0.9) == 0.25
        assert lipschitz_influence(dfq(2.0), 0.9) == pytest.approx(0.45)
        assert lipschitz_influence(qe(1.0), 0.5) == pytest.approx(1.0)
        assert lipschitz_influence(SemanticsSpec("sum", "constant"), 0.7) == 0.0

    def test_empirical_never_exceeds_analytic(self):
        for agg in ("sum", "product", "top"):
            report = check_lipschitz_aggregation(
                SemanticsSpec(agg, "constant"), trials=2000)
            assert report.passed, report
        for spec in (dfq(1.0), euler_semantics(), qe(1.0),
                     SemanticsSpec("sum", "pmax", kappa=2.0, p=3)):
            report = check_lipschitz_influence(spec, trials=2000)
            assert report.passed, report


class TestCodomainBound:
    def test_values(self):
        assert codomain_bound(PRODUCT, 2) == 1.0
        assert codomain_bound(TOP, 1) == 1.0
        assert codomain_bound(SUM, 3) == 3.0
        for spec in (SUM, PRODUCT, TOP):
            assert codomain_bound(spec, 0) == 0.0

    @given(bags(), specs(), st.data())
    def test_aggregate_lives_inside_bound(self, bag, spec, data):
        i = data.draw(st.integers(0, bag.n - 1))
        v = parent_vector(bag, i)
        s = data.draw(st.lists(st.floats(0, 1, allow_nan=False),
                               min_size=bag.n, max_size=bag.n))
        bound = codomain_bound(spec, bag.indegree(i))
        assert abs(aggregate(spec, v, s)) <= bound + 1e-12


class TestValidateSpec:
    def test_product_linear_ok_on_any_graph(self):
        bag = Bag(["a", "b", "c"], [0.5] * 3, attacks={(0, 2), (1, 2)})
        validate_spec(bag, dfq(1.0))

    def test_sum_linear_rejects_indegree_above_kappa(self):
        bag = Bag(["a", "b", "c"], [0.5] * 3, attacks={(0, 2), (1, 2)})
        with pytest.raises(SemanticsConfigError, match="'c'"):
            validate_spec(bag, SemanticsSpec("sum", "linear", kappa=1.0))

    def test_sum_linear_with_room_is_ok(self):
        bag = Bag(["a", "b", "c", "d"], [0.5] * 4,
                  attacks={(0, 3), (1, 3)}, supports={(2, 3)})
        validate_spec(bag, SemanticsSpec("sum", "linear", kappa=5.0))

    def test_non_linear_influences_always_validate(self):
        bag = Bag(["a", "b", "c"], [0.5] * 3, attacks={(0, 2), (1, 2)})
        for spec in (euler_semantics(), qe(0.25),
                     SemanticsSpec("sum", "constant")):
            validate_spec(bag, spec)
