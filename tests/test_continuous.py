from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import bagsolve.continuous
import bagsolve.discrete
from bagsolve import (
    MODES,
    Bag,
    CyclicGraphError,
    Outcome,
    SemanticsSpec,
    SolveResult,
    Trajectory,
    certify,
    dfq,
    euler_semantics,
    fixture_duality_bag,
    generate_family,
    generate_star,
    integrate_euler,
    integrate_rk4,
    iterate,
    parse_bag,
    qe,
    rhs,
    solve,
    solve_acyclic,
    topological_order,
    verify_fixed_point,
)
from conftest import bags, random_bag, specs

FAMILY = generate_family(1, 0.9, 0.1)


def assert_same_result(a: SolveResult, b: SolveResult) -> None:
    assert a.outcome is b.outcome
    assert a.effort == b.effort
    assert np.array_equal(a.strengths, b.strengths)
    assert (a.divergence_evidence is None) == (b.divergence_evidence is None)
    if a.divergence_evidence is not None:
        for x, y in zip(a.divergence_evidence, b.divergence_evidence):
            assert np.array_equal(x, y)
    assert a.trajectory.times == b.trajectory.times
    assert len(a.trajectory.states) == len(b.trajectory.states)
    for x, y in zip(a.trajectory.states, b.trajectory.states):
        assert np.array_equal(x, y)


@pytest.fixture
def update_calls(monkeypatch):
    """Records the state of every update the solvers make."""
    calls = []
    real = bagsolve.continuous.update

    def counted(bag, spec, s):
        calls.append(s)
        return real(bag, spec, s)

    monkeypatch.setattr(bagsolve.continuous, "update", counted)
    return calls


class TestRhs:
    def test_zero_at_fixed_point(self):
        bag = Bag(["a", "b"], [0.2, 0.7])
        assert rhs(bag, qe(1.0), bag.weights).tolist() == [0.0, 0.0]

    def test_single_attack_derivative(self):
        bag = Bag(["a", "b"], [0.6, 0.9], attacks={(0, 1)})
        d = rhs(bag, dfq(1.0), bag.weights)
        assert d[0] == 0.0
        assert d[1] == pytest.approx(0.36 - 0.9)

    def test_parentless_component_vanishes_at_weight(self):
        bag = Bag(["a", "b"], [0.4, 0.8], attacks={(0, 1)})
        assert rhs(bag, qe(1.0), bag.weights)[0] == 0.0


class TestEuler:
    def test_family_step_size_study(self):
        spec = dfq(1.0)
        assert integrate_euler(FAMILY, spec, delta=1.0).outcome is Outcome.DIVERGED
        assert integrate_euler(FAMILY, spec, delta=0.9).outcome is Outcome.DIVERGED
        assert integrate_euler(FAMILY, spec, delta=0.5).outcome is Outcome.CONVERGED

    @pytest.mark.parametrize("spec", [
        dfq(1.0), dfq(1.9), qe(1.0), qe(2.1),
        euler_semantics(), SemanticsSpec("top", "pmax", kappa=0.5, p=3),
    ])
    @pytest.mark.parametrize("bag", [
        FAMILY,
        generate_family(2, 0.3, 0.8),
        pytest.param(None, id="duality-fixture"),
        generate_family(3, 0.9, 0.1),
        generate_star(3, 0.9, 0.9),
        random_bag(np.random.default_rng(5), n_max=8),
    ])
    def test_unit_step_bitmatches_discrete_iteration(self, bag, spec):
        if bag is None:
            bag = fixture_duality_bag()
        for budget in (1, 2, 5, 2000):
            discrete = iterate(bag, spec, max_iterations=budget)
            euler = integrate_euler(bag, spec, delta=1.0, t_max=budget)
            if discrete.converged:
                # iterate also reports the update it converged on; the euler
                # run checks the derivative before stepping and stops there
                traj = discrete.trajectory
                discrete = SolveResult(
                    Outcome.CONVERGED, traj.states[-2], discrete.effort - 1,
                    trajectory=Trajectory(traj.times[:-1], traj.states[:-1]))
            assert_same_result(discrete, euler)

    def test_already_at_fixed_point_converges_immediately(self):
        bag = Bag(["a", "b"], [0.35, 0.65])
        result = integrate_euler(bag, qe(1.0))
        assert result.outcome is Outcome.CONVERGED
        assert result.effort == 0.0
        assert result.strengths.tolist() == [0.35, 0.65]

    def test_overshooting_step_is_clamped_into_range(self):
        result = integrate_euler(FAMILY, dfq(1.0), delta=1.8, t_max=50)
        for state in result.trajectory.states:
            assert np.all(state >= 0.0) and np.all(state <= 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="step size"):
            integrate_euler(FAMILY, qe(1.0), delta=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            integrate_euler(FAMILY, qe(1.0), tolerance=-1.0)


class TestRk4:
    @pytest.mark.parametrize("spec", [qe(1.0), dfq(1.0)])
    def test_family_converges_where_discrete_diverges(self, spec):
        result = integrate_rk4(FAMILY, spec)
        assert result.outcome is Outcome.CONVERGED
        assert verify_fixed_point(FAMILY, spec, result.strengths, 1e-3)

    def test_acyclic_limit_matches_single_pass(self):
        bag = Bag(["a", "b", "c"], [0.6, 0.9, 0.5],
                  attacks={(0, 1)}, supports={(1, 2)})
        for spec in (dfq(1.0), qe(1.0)):
            result = integrate_rk4(bag, spec, tolerance=1e-5)
            exact = solve_acyclic(bag, spec)
            assert result.outcome is Outcome.CONVERGED
            assert np.max(np.abs(result.strengths - exact)) < 10 * 1e-5

    def test_budget_exhaustion_reports_last_state(self):
        result = integrate_rk4(FAMILY, qe(1.0), delta=0.1, t_max=0.3)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.effort == pytest.approx(0.3)

    @given(bags(max_n=4), specs())
    @settings(max_examples=25)
    def test_trajectory_contract(self, bag, spec):
        result = integrate_rk4(bag, spec, delta=0.2, t_max=40.0)
        traj = result.trajectory
        assert traj.times[0] == 0.0
        assert traj.states[0].tolist() == bag.weights.tolist()
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        for state in traj.states:
            assert np.all(state >= 0.0) and np.all(state <= 1.0)
        if result.outcome is Outcome.CONVERGED:
            assert verify_fixed_point(bag, spec, result.strengths, 10 * 1e-4)


class TestSolverLoop:
    @pytest.mark.parametrize("bag", [FAMILY, Bag(["a"], [0.5])])
    def test_zero_budget_makes_no_update(self, bag, update_calls):
        for result in (iterate(bag, qe(1.0), max_iterations=0),
                       integrate_euler(bag, qe(1.0), t_max=0),
                       integrate_rk4(bag, qe(1.0), t_max=0)):
            # checked before any work, even on a state that is already fixed
            assert result.outcome is Outcome.BUDGET_EXHAUSTED
            assert result.effort == 0
            assert result.strengths.tolist() == bag.weights.tolist()
        assert update_calls == []

    def test_converged_rk4_makes_four_updates_per_step_plus_one(
            self, update_calls):
        result = integrate_rk4(FAMILY, qe(1.0), delta=0.1)
        assert result.outcome is Outcome.CONVERGED
        steps = len(result.trajectory) - 1
        assert steps > 0
        assert len(update_calls) == 4 * steps + 1


    @pytest.mark.parametrize("integrator", [integrate_euler, integrate_rk4])
    def test_step_that_cannot_move_the_state_ends_the_run(self, integrator):
        result = integrator(FAMILY, qe(1.0), delta=1e-300)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.effort == 0.0
        assert result.strengths.tolist() == FAMILY.weights.tolist()
        assert len(result.trajectory) == 1


class TestVerifyFixedPoint:
    def test_rk4_limit_is_a_fixed_point(self):
        result = integrate_rk4(FAMILY, qe(1.0))
        assert verify_fixed_point(FAMILY, qe(1.0), result.strengths, 1e-3)

    def test_edgeless_weights_are_exact_fixed_points(self):
        bag = Bag(["a", "b"], [0.15, 0.85])
        for spec in (dfq(1.0), qe(1.0),
                     SemanticsSpec("sum", "euler"),
                     SemanticsSpec("top", "constant")):
            assert verify_fixed_point(bag, spec, bag.weights, 0.0)

    def test_initial_weights_of_family_are_not_fixed(self):
        assert not verify_fixed_point(FAMILY, qe(1.0), FAMILY.weights, 1e-3)


class TestDiscreteContinuousAgreement:
    def test_certified_runs_share_the_limit(self):
        rng = np.random.default_rng(21)
        accepted = 0
        while accepted < 10:
            bag = random_bag(rng, n_max=6)
            spec = qe(float(rng.choice([4.0, 8.0])))
            if not certify(bag, spec).guaranteed:
                continue
            accepted += 1
            disc = iterate(bag, spec, tolerance=1e-9, record_trajectory=False)
            cont = integrate_rk4(bag, spec, delta=0.1, tolerance=1e-7,
                                 record_trajectory=False)
            assert disc.outcome is Outcome.CONVERGED
            assert cont.outcome is Outcome.CONVERGED
            assert np.max(np.abs(disc.strengths - cont.strengths)) < 1e-4


FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.bag"))
SOLVE_SPECS = {"dfq": dfq(1.0), "qe": qe(1.0), "euler": euler_semantics()}
# off the defaults, so that solve must pass each one on
SOLVE_PARAMS = dict(delta=0.05, tolerance=1e-6, t_max=200.0)
SOLVE_ITERATIONS = 500


def acyclic_result(bag, spec) -> SolveResult:
    strengths = solve_acyclic(bag, spec)
    trajectory = Trajectory()
    trajectory.append(0.0, bag.weights)
    trajectory.append(1.0, strengths)
    return SolveResult(Outcome.CONVERGED, strengths, 1.0, trajectory=trajectory)


class TestSolve:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("spec_name", SOLVE_SPECS)
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_matches_the_solver_of_its_mode(self, path, spec_name, mode):
        bag = parse_bag(path.read_text())
        spec = SOLVE_SPECS[spec_name]
        acyclic = topological_order(bag) is not None
        if mode == "acyclic" and not acyclic:
            with pytest.raises(CyclicGraphError):
                solve(bag, spec, mode, **SOLVE_PARAMS)
            return
        expected_mode = {"auto": "acyclic" if acyclic else "rk4"}.get(mode, mode)
        if expected_mode == "acyclic":
            expected = acyclic_result(bag, spec)
        elif expected_mode == "discrete":
            expected = iterate(bag, spec, SOLVE_PARAMS["tolerance"],
                               SOLVE_ITERATIONS)
        else:
            integrator = {"euler": integrate_euler,
                          "rk4": integrate_rk4}[expected_mode]
            expected = integrator(bag, spec, **SOLVE_PARAMS)
        ran, result = solve(bag, spec, mode, max_iterations=SOLVE_ITERATIONS,
                            **SOLVE_PARAMS)
        assert ran == expected_mode
        assert_same_result(result, expected)

    @pytest.mark.parametrize("mode", MODES)
    def test_trajectory_is_optional(self, mode):
        bag = generate_star(3, 0.9, 0.9)
        _, result = solve(bag, qe(1.0), mode, record_trajectory=False)
        assert result.trajectory is None

    @pytest.mark.parametrize("flags,message", [
        (dict(delta=float("inf")), "step size must be positive"),
        (dict(tolerance=0.0), "tolerance must be positive"),
        (dict(t_max=float("nan")), "budget must be a number"),
        (dict(max_iterations=float("nan")), "budget must be a number"),
    ])
    @pytest.mark.parametrize("mode", MODES)
    def test_run_flags_are_checked_in_every_mode(self, mode, flags, message):
        # refused on an acyclic graph too, where auto runs none of them
        with pytest.raises(ValueError, match=message):
            solve(generate_star(3, 0.9, 0.9), qe(1.0), mode, **flags)

    def test_auto_tests_for_cycles_once(self, monkeypatch):
        # a cyclic graph costs one failed single pass, then the rk4 run
        calls = []
        real = bagsolve.discrete.topological_levels
        monkeypatch.setattr(bagsolve.discrete, "topological_levels",
                            lambda bag: calls.append(bag) or real(bag))
        assert solve(FAMILY, qe(1.0))[0] == "rk4"
        assert solve(generate_star(3, 0.9, 0.9), qe(1.0))[0] == "acyclic"
        assert len(calls) == 2

    def test_acyclic_mode_on_a_cycle_raises(self):
        with pytest.raises(CyclicGraphError):
            solve(FAMILY, qe(1.0), "acyclic")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            solve(FAMILY, qe(1.0), "exact")


def reference_rk4_step(bag, spec, delta):
    """The RK4 step written plainly, with a fresh array per stage."""
    def step(state, updated):
        k1 = updated - state
        k2 = rhs(bag, spec, np.clip(state + 0.5 * delta * k1, 0.0, 1.0))
        k3 = rhs(bag, spec, np.clip(state + 0.5 * delta * k2, 0.0, 1.0))
        k4 = rhs(bag, spec, np.clip(state + delta * k3, 0.0, 1.0))
        return state + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return step


class TestRk4Step:
    @pytest.mark.parametrize("delta", [0.01, 2.5])
    @pytest.mark.parametrize("spec_name", SOLVE_SPECS)
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_matches_the_plain_step_bit_for_bit(self, path, spec_name, delta):
        # with delta 2.5 the states leave [0, 1] on every fixture, so the
        # clamping is compared too
        bag = parse_bag(path.read_text())
        spec = SOLVE_SPECS[spec_name]
        expected = bagsolve.continuous._solve(
            bag, spec, reference_rk4_step(bag, spec, delta), delta,
            1e-6, 50.0, record_trajectory=True)
        result = integrate_rk4(bag, spec, delta=delta, tolerance=1e-6,
                               t_max=50.0)
        assert_same_result(result, expected)
