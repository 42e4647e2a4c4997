import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    open_mindedness_bound,
    parse_bag,
    qe,
    solve,
    solve_acyclic,
    topological_order,
    update,
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


def rhs(bag, spec, sigma):
    """Time derivative of the continuized flow at state ``sigma``."""
    return update(bag, spec, sigma) - sigma


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

    def test_budget_ended_fixed_rk4_makes_no_look_ahead_update(
            self, update_calls):
        # four updates per step; a step that also brought the update of the
        # state it reached would leave one more behind at the budget
        result = integrate_rk4(FAMILY, qe(1.0), delta=0.1, t_max=1.0)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert len(result.trajectory) == 11
        assert len(update_calls) == 40

    @pytest.mark.parametrize("integrator", [integrate_euler, integrate_rk4])
    def test_step_that_cannot_move_the_state_ends_the_run(self, integrator):
        result = integrator(FAMILY, qe(1.0), delta=1e-300)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert result.effort == 0.0
        assert result.strengths.tolist() == FAMILY.weights.tolist()
        assert len(result.trajectory) == 1


check_run = bagsolve.continuous._check_run


class TestRunClock:
    """_check_run turns a budget into the steps of dt the run takes: the
    first k >= 0 with k * dt >= budget."""

    def test_first_multiple_at_or_past_the_budget(self):
        # 53 * 0.3 is a hair below 15.9, so ceil(15.9 / 0.3) is one short
        assert 53 * 0.3 < 15.9 <= 54 * 0.3
        assert check_run(0.3, 1e-4, 15.9) == 54
        assert check_run(1, 1e-4, 2.5) == 3
        assert check_run(2.0, 1e-4, 5e-324) == 1  # the quotient rounds to 0

    @pytest.mark.parametrize("budget", [-5, 0, -0.0, -1e308])
    def test_no_budget_is_no_steps(self, budget):
        assert check_run(0.1, 1e-4, budget) == 0
        assert check_run(1, 1e-4, budget) == 0

    def test_more_steps_than_any_run_takes_are_never_reached(self):
        assert check_run(1, 1e-4, 10**18) == math.inf
        assert check_run(1e-300, 1e-4, 1.7e308) == math.inf
        result = iterate(generate_star(3, 0.9, 0.9), qe(1.0),
                         max_iterations=10**18)
        assert result.converged

    @given(st.floats(1e-6, 1e3), st.floats(-10.0, 1e6))
    def test_is_the_first_multiple_of_dt(self, dt, budget):
        k = check_run(dt, 1e-4, budget)
        assert k * dt >= budget
        assert k == 0 or (k - 1) * dt < budget

    @given(st.floats(1e293, 1.7976931348623157e308),
           st.floats(1e307, 1.7976931348623157e308))
    def test_an_infinite_end_is_refused(self, dt, budget):
        # near the top of float range the first multiple can be inf; these
        # quotients stay below 2**52
        first = next(j for j in range(max(0, math.ceil(budget / dt) - 2),
                                      math.ceil(budget / dt) + 3)
                     if j * dt >= budget)
        if first * dt < math.inf:
            assert check_run(dt, 1e-4, budget) == first
        else:
            with pytest.raises(ValueError, match="at an infinite time"):
                check_run(dt, 1e-4, budget)

    def test_advance_reads_the_steps_left(self):
        lefts = []

        def advance(state, updated, left):
            lefts.append(left)
            return state + 1e-3, max(1, min(5, left)), None

        result = bagsolve.continuous._solve(FAMILY, qe(1.0), advance, 0.3,
                                            1e-12, 15.9, False)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert lefts == list(range(54, 0, -5))
        assert result.effort == 54 * 0.3

    def test_step_control_ends_with_the_steps_left(self, monkeypatch):
        # every estimate passes, so m doubles until the budget cuts it:
        # 1 + 2 + 4 + 8 + 16 steps of 0.3, then the 23 left to 54
        monkeypatch.setattr(bagsolve.continuous, "ERROR_SHARE", math.inf)
        sizes = []
        real = bagsolve.continuous._hermite
        monkeypatch.setattr(bagsolve.continuous, "_hermite",
                            lambda *args: sizes.append(args[4])
                            or real(*args))
        result = integrate_rk4(RESCUE, qe(1.0), delta=0.3, tolerance=1e-12,
                               t_max=15.9, step_control=True)
        assert result.outcome is Outcome.BUDGET_EXHAUSTED
        assert sizes == [2, 4, 8, 16, 23]
        assert result.effort == 54 * 0.3
        assert len(result.trajectory) == 55


class TestResultObjects:
    """Results hold arrays, so they compare by identity and hash."""

    @pytest.mark.parametrize("make", [
        lambda: certify(FAMILY, qe(1.0)),
        lambda: open_mindedness_bound(FAMILY, qe(1.0)),
        lambda: solve(FAMILY, qe(1.0))[1],
        lambda: solve(FAMILY, qe(1.0))[1].trajectory,
    ], ids=["certificate", "open-mindedness", "result", "trajectory"])
    def test_compare_and_hash(self, make):
        a, b = make(), make()
        assert a == a and not a != a
        assert a != b and not a == b
        assert a in [b, a] and a not in [b]
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_trajectory_time_never_decreases(self):
        trajectory = Trajectory()
        trajectory.append(1.0, [0.5])
        trajectory.append(1.0, [0.25])
        with pytest.raises(ValueError, match="time must be nondecreasing, "
                                             "got 0.5 after 1.0"):
            trajectory.append(0.5, [0.5])
        assert trajectory.times == [1.0, 1.0]
        assert len(trajectory.states) == 2

    def test_constructor_keeps_the_rule_of_append(self):
        with pytest.raises(ValueError, match="time must be nondecreasing, "
                                             "got 0.0 after 1.0"):
            Trajectory([1.0, 0.0], [np.array([0.5]), np.array([0.5])])
        trajectory = Trajectory([0, 1], [[0.5], np.array([0.25])])
        assert trajectory.times == [0.0, 1.0]
        assert [s.tolist() for s in trajectory.states] == [[0.5], [0.25]]

    @pytest.mark.parametrize("times,states", [([0.0, 1.0], [[0.5]]),
                                              ([0.0], [[0.5], [0.25]])])
    def test_constructor_needs_one_state_per_time(self, times, states):
        with pytest.raises(ValueError, match=f"{len(times)} times but "
                                             f"{len(states)} states"):
            Trajectory(times, states)


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
            # auto integrates with step control, explicit rk4 without
            control = {"step_control": True} if mode == "auto" else {}
            expected = integrator(bag, spec, **SOLVE_PARAMS, **control)
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
        (dict(t_max=float("inf")), "budget must be finite"),
        (dict(max_iterations=float("inf")), "budget must be finite"),
        (dict(delta=1e308, t_max=1.7e308), "at an infinite time"),
        (dict(t_max=-float("inf")), "budget must be finite"),
        (dict(t_max=10**400), "budget must be finite"),
        (dict(max_iterations=10**400), "budget must be finite"),
        # ceil(t_max / delta) is 33 and 33 * delta < t_max: 34 * delta is inf
        (dict(delta=5.313896654326354e+306, t_max=1.753585895927697e+308),
         "at an infinite time"),
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
    def advance(state, updated, units):
        k1 = updated - state
        k2 = rhs(bag, spec, np.clip(state + 0.5 * delta * k1, 0.0, 1.0))
        k3 = rhs(bag, spec, np.clip(state + 0.5 * delta * k2, 0.0, 1.0))
        k4 = rhs(bag, spec, np.clip(state + delta * k3, 0.0, 1.0))
        stepped = state + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return np.clip(stepped, 0.0, 1.0), 1, None
    return advance


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


CYCLIC_FIXTURES = [path for path in FIXTURES
                   if topological_order(parse_bag(path.read_text())) is None]
RESCUE = generate_family(50, 0.9, 0.1)


class TestStepControl:
    """integrate_rk4(..., step_control=True), the integrator of auto mode."""

    @staticmethod
    def pair(bag, spec, **flags):
        return (integrate_rk4(bag, spec, **flags),
                integrate_rk4(bag, spec, step_control=True, **flags))

    @pytest.mark.parametrize("spec_name", SOLVE_SPECS)
    @pytest.mark.parametrize("path", CYCLIC_FIXTURES, ids=lambda p: p.stem)
    def test_steps_of_one_delta_match_the_fixed_run(self, path, spec_name,
                                                    monkeypatch):
        # the rows up to the start of the first longer step are the fixed
        # run's, bit for bit
        bag = parse_bag(path.read_text())
        spec = SOLVE_SPECS[spec_name]
        starts = []
        real = bagsolve.continuous._hermite
        monkeypatch.setattr(bagsolve.continuous, "_hermite",
                            lambda x0, *rest: starts.append(x0)
                            or real(x0, *rest))
        fixed, controlled = self.pair(bag, spec)
        assert starts, "no step longer than delta"
        first = next(i for i, s in enumerate(controlled.trajectory.states)
                     if s is starts[0])
        assert first >= 1
        for a, b in zip(fixed.trajectory.states[:first + 1],
                        controlled.trajectory.states[:first + 1]):
            assert np.array_equal(a, b)
        assert (controlled.trajectory.times[:first + 1]
                == fixed.trajectory.times[:first + 1])

    @pytest.mark.parametrize("delta", [1.0, 2.5])
    @pytest.mark.parametrize("spec_name", SOLVE_SPECS)
    @pytest.mark.parametrize("path", CYCLIC_FIXTURES, ids=lambda p: p.stem)
    def test_a_run_that_never_lengthens_its_step_is_the_fixed_run(
            self, path, spec_name, delta):
        # at these steps no error estimate admits a longer one
        bag = parse_bag(path.read_text())
        fixed, controlled = self.pair(bag, SOLVE_SPECS[spec_name],
                                      delta=delta, t_max=100.0)
        assert_same_result(controlled, fixed)

    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.3])
    @pytest.mark.parametrize("spec_name", SOLVE_SPECS)
    @pytest.mark.parametrize("path", CYCLIC_FIXTURES, ids=lambda p: p.stem)
    def test_time_and_rows_are_on_the_delta_grid(self, path, spec_name, delta):
        bag = parse_bag(path.read_text())
        result = integrate_rk4(bag, SOLVE_SPECS[spec_name], delta=delta,
                               step_control=True)
        traj = result.trajectory
        units = round(result.effort / delta)
        assert result.effort == units * delta
        assert len(traj) == units + 1
        assert traj.times == [j * delta for j in range(units + 1)]
        assert traj.states[-1] is result.strengths
        for state in traj.states:
            assert np.all(state >= 0.0) and np.all(state <= 1.0)

    @pytest.mark.parametrize("spec_name", SOLVE_SPECS)
    @pytest.mark.parametrize("bag", [
        *[pytest.param(parse_bag(p.read_text()), id=p.stem)
          for p in CYCLIC_FIXTURES],
        pytest.param(generate_family(5, 0.9, 0.1), id="family_k5"),
        *[pytest.param(random_bag(np.random.default_rng(seed), n_max=30),
                       id=f"random{seed}") for seed in range(4)],
    ])
    def test_converges_exactly_when_the_fixed_run_does(self, bag, spec_name):
        spec = SOLVE_SPECS[spec_name]
        for tolerance in (1e-4, 1e-7):
            fixed, controlled = self.pair(bag, spec, tolerance=tolerance,
                                          t_max=200.0, record_trajectory=False)
            assert controlled.outcome is fixed.outcome
            if controlled.converged:
                assert verify_fixed_point(bag, spec, controlled.strengths,
                                          tolerance)

    @pytest.mark.parametrize("spec", [qe(1.0), qe(0.3), euler_semantics()],
                             ids=["qe1", "qe0.3", "euler"])
    def test_no_hover_at_the_stability_limit(self, spec, update_calls):
        # steps that parked at the stability limit, in a spurious steady
        # state, used to run on to t_max
        result = integrate_rk4(RESCUE, spec, step_control=True,
                               record_trajectory=False)
        assert result.outcome is Outcome.CONVERGED
        assert len(update_calls) <= 400
        assert verify_fixed_point(RESCUE, spec, result.strengths, 1e-4)

    # 14 * 0.01 is a hair above 0.14, so the clamp's first m overshoots
    @pytest.mark.parametrize("t_max", [0.05, 0.3, 2.37, 4.0, 14 * 0.01])
    def test_budget_ends_where_the_fixed_run_ends(self, t_max):
        fixed, controlled = self.pair(RESCUE, euler_semantics(), t_max=t_max)
        assert controlled.outcome is Outcome.BUDGET_EXHAUSTED
        assert controlled.effort == fixed.effort
        assert len(controlled.trajectory) == len(fixed.trajectory)

    def test_every_try_costs_four_updates(self, update_calls):
        # the update at a step's end is the next step's first stage
        result = integrate_rk4(RESCUE, euler_semantics(), step_control=True)
        assert result.converged
        assert len(update_calls) % 4 == 1
        assert len(update_calls) < 4 * round(result.effort / 0.01)

    def test_oscillation_counts_only_across_equal_steps(self):
        # a stand-in control that swings between the weights and another
        # state: with alternating step lengths that is no period-2 evidence
        other = np.full(FAMILY.n, 0.5)

        def control_of(sizes):
            taken = []

            def control(state, updated, units):
                m = sizes[len(taken) % len(sizes)]
                taken.append(m)
                target = other if np.array_equal(state, FAMILY.weights) \
                    else FAMILY.weights.copy()
                return target, m, bagsolve.continuous.update(
                    FAMILY, qe(1.0), target)
            return control

        def run(sizes):
            return bagsolve.continuous._solve(
                FAMILY, qe(1.0), control_of(sizes), 0.1, 1e-4, 5.0, False)

        assert run([1]).outcome is Outcome.DIVERGED
        assert run([2]).outcome is Outcome.DIVERGED
        alternating = run([1, 2])
        assert alternating.outcome is Outcome.BUDGET_EXHAUSTED
        assert alternating.effort >= 5.0


class TestHermite:
    def test_reproduces_cubics(self):
        # exact for x(t) = c0 + c1 t + c2 t^2 + c3 t^3 on a step of 5 * 0.1
        c = np.array([[0.2, 0.3], [0.1, -0.2], [0.3, 0.4], [-0.2, 0.1]])
        x = lambda t: c[0] + c[1] * t + c[2] * t ** 2 + c[3] * t ** 3
        dx = lambda t: c[1] + 2 * c[2] * t + 3 * c[3] * t ** 2
        rows = bagsolve.continuous._hermite(x(0.0), dx(0.0), x(0.5), dx(0.5),
                                            5, 0.1)
        assert rows.shape == (4, 2)
        for j, row in enumerate(rows, 1):
            assert row == pytest.approx(x(0.1 * j), abs=1e-14)

    def test_clamps_into_range(self):
        rows = bagsolve.continuous._hermite(np.array([1.0]), np.array([5.0]),
                                            np.array([0.0]), np.array([-5.0]),
                                            4, 1.0)
        assert np.all(rows >= 0.0) and np.all(rows <= 1.0)
        assert rows.max() == 1.0
