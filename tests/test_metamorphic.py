"""Properties of the final strengths that hold in every solve mode, checked by
transforming the graph instead of by a second implementation.

Duality by mirror leaves: give every argument a childless *mirror* with the
same parents, attack and support swapped, and weight 1 - w. Every aggregation
is dual (alpha_{-v}(s) = -alpha_v(s)), and so are the linear, p-max and
constant influences (1 - iota_{1-w}(a) = iota_w(-a)), so each step of every
mode keeps sigma(mirror) = 1 - sigma(a) up to round-off: the identity holds
for every outcome and every trajectory row, not only at a fixed point. The
Euler-based influence is not dual, and breaks it.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bagsolve import (
    MODES,
    Bag,
    SemanticsSpec,
    dfq,
    euler_semantics,
    qe,
    solve,
)
from conftest import bags, random_bag, specs

DUAL_INFLUENCES = ("linear", "pmax", "constant")
# small budgets: the identity holds at every step, so no run need converge
BUDGET = dict(delta=0.1, t_max=10.0, max_iterations=30)


def mirrored(bag: Bag) -> Bag:
    """``bag`` with a childless mirror of each argument appended: argument
    n + i has the parents of i, attack and support swapped, and weight
    1 - w_i."""
    n = bag.n
    target = np.repeat(np.arange(n), np.diff(bag.indptr))
    attack = bag.sign < 0.0
    edges = {sign: np.column_stack((bag.src[picked], target[picked]))
             for sign, picked in (("att", attack), ("sup", ~attack))}
    mirror = {sign: pairs + (0, n) for sign, pairs in edges.items()}
    return Bag([*bag.names, *(f"mirror_{name}" for name in bag.names)],
               np.concatenate((bag.weights, 1.0 - bag.weights)),
               attacks=np.concatenate((edges["att"], mirror["sup"])),
               supports=np.concatenate((edges["sup"], mirror["att"])))


def mirror_run(bag: Bag, spec: SemanticsSpec, mode: str):
    """The mirrored ``bag`` and every state a ``mode`` run on it reports: its
    trajectory, then the final strengths."""
    both = mirrored(bag)
    _, result = solve(both, spec, mode, **BUDGET)
    return both, [*result.trajectory.states, result.strengths]


def duality_gap(n: int, states: list) -> float:
    # max |sigma(a) + sigma(mirror of a) - 1| over the states
    return max(float(np.abs(s[:n] + s[n:] - 1.0).max(initial=0.0))
               for s in states)


def assert_mirror_properties(bag: Bag, spec: SemanticsSpec, mode: str):
    both, states = mirror_run(bag, spec, mode)
    assert duality_gap(bag.n, states) <= 1e-12
    # a parentless argument keeps its weight exactly, but in euler mode,
    # whose step (1 - delta) x + delta update(x) keeps delta = 1 bit-exact
    # and w only to a few ulps
    keep = np.flatnonzero(np.diff(both.indptr) == 0)
    w = both.weights[keep]
    for s in states:
        if mode == "euler":
            assert np.all(np.abs(s[keep] - w) <= 4 * np.spacing(w))
        else:
            np.testing.assert_array_equal(s[keep], w)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=25)
@given(data=st.data())
def test_mirror_leaves_are_dual(mode, data):
    # acyclic mode solves DAGs only; every other mode takes any graph
    bag = data.draw(bags(max_n=6, max_edges=14, acyclic=mode == "acyclic"))
    spec = data.draw(specs(influences=DUAL_INFLUENCES))
    assert_mirror_properties(bag, spec, mode)


SPECS = {"qe(10)": qe(10.0), "qe(1)": qe(1.0), "dfq(4)": dfq(4.0),
         "top+linear(2)": SemanticsSpec("top", "linear", kappa=2.0)}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SPECS)
def test_mirror_leaves_on_a_larger_graph(name, mode):
    # up to 40 arguments, each with up to 3 parents; cyclic unless the mode
    # is acyclic
    bag = random_bag(np.random.default_rng(7), n_max=40,
                     acyclic=mode == "acyclic")
    assert bag.n > 20
    assert_mirror_properties(bag, SPECS[name], mode)


@pytest.mark.parametrize("mode", ("discrete", "rk4", "auto"))
def test_euler_influence_breaks_mirror_duality(mode):
    # the harness can fail: under the Euler-based influence the mirror of an
    # attacked argument is not its complement
    bag = random_bag(np.random.default_rng(7), n_max=40)
    _, states = mirror_run(bag, euler_semantics(), mode)
    assert duality_gap(bag.n, states) > 1e-3
