"""Shared strategies and builders for the test suite."""
from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
from hypothesis import settings, strategies as st

from bagsolve import Bag, SemanticsSpec

settings.register_profile("default", deadline=None)
settings.load_profile("default")

AGG_KINDS = ("sum", "product", "top")
INFL_KINDS = ("linear", "euler", "pmax", "constant")


@st.composite
def bags(draw, min_n: int = 1, max_n: int = 6, max_edges: int = 12,
         acyclic: bool = False):
    """Random valid Bag; attacks and supports never share an ordered pair."""
    n = draw(st.integers(min_n, max_n))
    names = [f"n{i}" for i in range(n)]
    weights = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=n, max_size=n))
    raw = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
        max_size=max_edges))
    attacks: set[tuple[int, int]] = set()
    supports: set[tuple[int, int]] = set()
    for u, v, is_attack in raw:
        if acyclic:
            if u == v:
                continue
            if u > v:
                u, v = v, u
        pair = (u, v)
        if pair in attacks or pair in supports:
            continue
        (attacks if is_attack else supports).add(pair)
    return Bag(names, weights, attacks, supports)


@st.composite
def specs(draw, influences=INFL_KINDS, max_parents: int = 6):
    """Random semantics that is valid for any bag with <= max_parents parents
    per argument (linear gets a kappa at least that large)."""
    agg = draw(st.sampled_from(AGG_KINDS))
    infl = draw(st.sampled_from(influences))
    if infl == "linear":
        kappa = draw(st.sampled_from([float(max_parents), 2.0 * max_parents]))
    else:
        kappa = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    p = draw(st.sampled_from([1, 2, 3]))
    return SemanticsSpec(agg, infl, kappa=kappa, p=p)


def edges_of(bag: Bag) -> dict:
    """The attacks ("att") and the supports ("sup") of ``bag``, each as an
    array of (source, target) rows."""
    target = np.repeat(np.arange(bag.n), np.diff(bag.indptr))
    attack = bag.sign < 0.0
    return {sign: np.column_stack((bag.src[picked], target[picked]))
            for sign, picked in (("att", attack), ("sup", ~attack))}


def random_bag(rng: np.random.Generator, n_max: int = 10,
               acyclic: bool = False, max_parents: int = 3) -> Bag:
    """Seeded random bag for deterministic 50-graph sweeps."""
    n = int(rng.integers(2, n_max + 1))
    names = [f"n{i}" for i in range(n)]
    weights = rng.uniform(0.02, 0.98, size=n)
    attacks: set[tuple[int, int]] = set()
    supports: set[tuple[int, int]] = set()
    for v in range(n):
        candidates = list(range(v)) if acyclic else list(range(n))
        if not candidates:
            continue
        k = int(rng.integers(0, min(max_parents, len(candidates)) + 1))
        parents = rng.choice(candidates, size=k, replace=False)
        for u in parents:
            pair = (int(u), v)
            if rng.random() < 0.5:
                attacks.add(pair)
            else:
                supports.add(pair)
    return Bag(names, weights, attacks, supports)


def fresh_python(code: str, **env: str) -> str:
    """Run ``code`` in a new interpreter, without OPENBLAS_NUM_THREADS but
    with ``env``; return its stdout."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
