"""The front end's output, pinned: parse and preprocess hashes per formula.

``tests/data/preprocess_digest.json`` holds, for every formula of the four
``benchmarks/e2e`` suites at seed 2015 and for 50 seeded
:func:`repro.formula.generator.random_dqbf` formulas, one hash of the parsed
formula (prefix, clause tuples in order) and one of :func:`preprocess`'s
result (status, clause tuples in order, gates in order, prefix).  A change
to the parser or to preprocessing that alters any clause, its literal
order, the order of clauses or gates, or a dependency set fails here.

Regenerate (only for a change that means to alter the front end's output,
and say so in CHANGES.md)::

    PYTHONPATH=src python tests/test_preprocess_digest.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Dict, Iterator, Tuple

from repro.core.preprocess import preprocess
from repro.formula.dqbf import Dqbf
from repro.formula.dqdimacs import parse_dqdimacs, write_dqdimacs
from repro.formula.generator import RandomDqbfConfig, random_dqbf

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST = os.path.join(HERE, "data", "preprocess_digest.json")
E2E = os.path.join(os.path.dirname(HERE), "benchmarks", "e2e")
SEED = 2015
SUITES = ("table1", "wide", "serve-repeat", "serve-unique")
RANDOM_FORMULAS = 50


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:20]


def _formula_text(formula: Dqbf) -> str:
    return f"{formula.prefix!r}\n{formula.matrix.num_vars}\n{formula.matrix.clauses!r}"


def digest(formula: Dqbf) -> Dict[str, str]:
    """Hashes of ``formula`` itself and of :func:`preprocess`'s result."""
    result = preprocess(formula)
    gates = [(g.output, g.kind, g.inputs) for g in result.gates]
    simplified = _formula_text(result.formula) if result.formula is not None else "-"
    return {
        "parse": _hash(_formula_text(formula)),
        "preprocess": _hash(f"{result.status}\n{simplified}\n{gates!r}"),
    }


def random_formula(index: int) -> Dqbf:
    """A seeded :func:`random_dqbf` plus a few Tseitin gates and equivalences.

    Plain random DQBFs of this size mostly fall to unit propagation; the
    added definitions (outputs that see every universal) give gate
    detection and equivalence substitution something to find.
    """
    rng = random.Random(1000 + index)
    config = RandomDqbfConfig(
        num_universals=rng.randint(2, 6),
        num_existentials=rng.randint(6, 16),
        dependency_density=rng.choice((0.5, 0.7, 0.9)),
        num_clauses=rng.randint(4, 12),
        clause_width=rng.randint(3, 5),
    )
    formula = random_dqbf(rng, config)
    prefix, matrix = formula.prefix, formula.matrix
    universals = prefix.universals
    for _ in range(rng.randint(0, 4)):
        a, b = (rng.choice((1, -1)) * rng.randint(1, matrix.num_vars) for _ in range(2))
        out = matrix.fresh_var()
        prefix.add_existential(out, universals)
        if rng.random() < 0.5:
            matrix.extend([(out, -a, -b), (-out, a), (-out, b)])
        else:
            matrix.extend([(-out, a, b), (-out, -a, -b), (out, a, -b), (out, -a, b)])
        if rng.random() < 0.5:
            twin = matrix.fresh_var()
            prefix.add_existential(twin, universals)
            sign = rng.choice((1, -1))
            matrix.extend([(twin, -sign * out), (-twin, sign * out), (twin, a, -out)])
    # Round-trip through the parser, as every solve does.
    return parse_dqdimacs(write_dqdimacs(formula))


def suite_formulas() -> Iterator[Tuple[str, Dqbf]]:
    if E2E not in sys.path:
        sys.path.insert(0, E2E)
    import workloads

    for name in SUITES:
        suite = workloads.WORKLOADS[name].suite
        for item in workloads.build_items(suite, SEED):
            yield f"{name}/{item.name}", parse_dqdimacs(item.text)


def compute() -> Dict[str, Dict[str, str]]:
    digests: Dict[str, Dict[str, str]] = {}
    for name, formula in list(suite_formulas()) + [
        (f"random_{index}", random_formula(index)) for index in range(RANDOM_FORMULAS)
    ]:
        digests[name] = digest(formula)
    return digests


def test_front_end_output_unchanged():
    with open(DIGEST, "r", encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = compute()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"front-end output changed on {len(changed)} formulas: {changed[:5]}"


if __name__ == "__main__":
    with open(DIGEST, "w", encoding="utf-8") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DIGEST}")
