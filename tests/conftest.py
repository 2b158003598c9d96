"""Shared test helpers: random-formula builders and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.aig.backend import numpy_available
from repro.aig.graph import Aig
from repro.formula.dqbf import Dqbf

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

#: Inputs of the AIGs built by :func:`aig_scripts` / :func:`build_aig`.
NUM_VARS = 6


def random_clauses(rng: random.Random, num_vars: int, num_clauses: int, max_len: int = 3):
    """Plain random k-CNF clauses over variables 1..num_vars."""
    clauses = []
    for _ in range(num_clauses):
        k = rng.randint(1, max_len)
        clauses.append(
            [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(k)]
        )
    return clauses


def random_dqbf(rng: random.Random, max_universals: int = 3, max_existentials: int = 3,
                max_clauses: int = 10) -> Dqbf:
    """A small random DQBF suitable for oracle cross-checking."""
    nu = rng.randint(1, max_universals)
    ne = rng.randint(1, max_existentials)
    universals = list(range(1, nu + 1))
    existentials = []
    for i in range(ne):
        deps = [x for x in universals if rng.random() < 0.6]
        existentials.append((nu + 1 + i, deps))
    clauses = random_clauses(rng, nu + ne, rng.randint(1, max_clauses))
    return Dqbf.build(universals, existentials, clauses)


@st.composite
def dqbf_strategy(draw, max_universals: int = 3, max_existentials: int = 3,
                  max_clauses: int = 8):
    """Hypothesis strategy producing small closed DQBFs."""
    nu = draw(st.integers(1, max_universals))
    ne = draw(st.integers(1, max_existentials))
    universals = list(range(1, nu + 1))
    existentials = []
    for i in range(ne):
        deps = draw(st.lists(st.sampled_from(universals), unique=True, max_size=nu))
        existentials.append((nu + 1 + i, deps))
    num_vars = nu + ne
    literals = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clauses = draw(
        st.lists(
            st.lists(literals, min_size=1, max_size=3),
            min_size=1,
            max_size=max_clauses,
        )
    )
    return Dqbf.build(universals, existentials, clauses)


@st.composite
def cnf_strategy(draw, max_vars: int = 10, max_clauses: int = 40, max_len: int = 4):
    """Hypothesis strategy for plain CNF clause lists."""
    num_vars = draw(st.integers(1, max_vars))
    literals = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    return draw(
        st.lists(
            st.lists(literals, min_size=1, max_size=max_len),
            min_size=1,
            max_size=max_clauses,
        )
    )


def random_qbf(rng: random.Random, max_vars: int = 6, max_clauses: int = 12):
    """A small random prenex CNF QBF with alternating blocks."""
    from repro.formula.prefix import EXISTS, FORALL
    from repro.formula.qbf import Qbf

    num_vars = rng.randint(2, max_vars)
    variables = list(range(1, num_vars + 1))
    rng.shuffle(variables)
    blocks = []
    index = 0
    quantifier = rng.choice([EXISTS, FORALL])
    while index < num_vars:
        size = rng.randint(1, num_vars - index)
        blocks.append((quantifier, variables[index : index + size]))
        quantifier = FORALL if quantifier == EXISTS else EXISTS
        index += size
    clauses = [
        [rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(1, max_clauses))
    ]
    return Qbf.build(blocks, clauses)


@st.composite
def aig_scripts(draw):
    """A deterministic AIG construction script over NUM_VARS inputs.

    Each step combines two earlier edges (with random complement flags)
    via AND; replaying the script on any backend yields the same node
    numbering because construction order is identical.
    """
    num_steps = draw(st.integers(min_value=1, max_value=40))
    steps = []
    for index in range(num_steps):
        choices = NUM_VARS + index  # edges available before this step
        steps.append(
            (
                draw(st.integers(min_value=0, max_value=choices - 1)),
                draw(st.integers(min_value=0, max_value=choices - 1)),
                draw(st.booleans()),
                draw(st.booleans()),
            )
        )
    return steps


def build_aig(script, backend):
    """Replay an :func:`aig_scripts` script; returns ``(aig, last edge)``."""
    aig = Aig(backend=backend)
    edges = [aig.var(i) for i in range(1, NUM_VARS + 1)]
    for left, right, complement_left, complement_right in script:
        a = edges[left] ^ (1 if complement_left else 0)
        b = edges[right] ^ (1 if complement_right else 0)
        edges.append(aig.land(a, b))
    return aig, edges[-1]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20150309)  # DATE'15 conference date
