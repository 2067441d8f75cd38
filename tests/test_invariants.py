"""Structural properties of the decision procedures across catalog data:
parity and vanishing of the nilpotent expansion, dimension bounds and
independence, and the verdict symmetries (inverse, conjugation, nef sums)."""

from itertools import product

from sigmaample import engine
from sigmaample.ampleness import is_ample
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.intmat import mat_pow
from sigmaample.lattice import (
    AutomorphismAction,
    DivisorClass,
    apply,
    intersect,
    validate,
)

from conftest import delta_symbolic, nilpotent_steps, power_symbolic, random_divisors

SAMPLE = 30


def _entries():
    return [catalog_entry(name) for name in catalog_names()]


def _qu_actions(sf):
    out = []
    for action in sf.automorphisms.values():
        cls = engine.classify(action.matrix)
        if cls.quasi_unipotent:
            out.append((action, cls))
    return out


def test_jordan_index_even_on_catalog():
    for sf in _entries():
        for action, cls in _qu_actions(sf):
            assert cls.jordan_index % 2 == 0, (action.name, cls)


def test_vanishing_of_high_nilpotent_intersections():
    for sf in _entries():
        for action, cls in _qu_actions(sf):
            unipotent = mat_pow(action.matrix, cls.unipotent_power)
            k = cls.jordan_index
            for comp in sf.scheme.components:
                n = comp.dim
                cutoff = k * (n - 1)
                for d in random_divisors(sf.scheme.rank, SAMPLE, seed=41):
                    steps = nilpotent_steps(unipotent, d)
                    for combo in product(range(k + 1), repeat=n):
                        if sum(combo) > cutoff:
                            value = comp.top_form.evaluate(
                                [steps[i].coords for i in combo]
                            )
                            assert value == 0, (action.name, combo, d)


def test_gk_dimension_independent_of_ample_class():
    for sf in _entries():
        oracle = sf.oracle()
        candidates = [
            d for d in random_divisors(sf.scheme.rank, 60, seed=43) if is_ample(oracle, d)
        ][:6]
        for action, _ in _qu_actions(sf):
            dims = {
                engine.gk_profile(sf.scheme, action, oracle, d).gk_dimension for d in candidates
            }
            assert len(dims) <= 1, (action.name, dims)


def test_gk_dimension_bounds_on_equidimensional_catalog():
    for sf in _entries():
        oracle = sf.oracle()
        dims = {c.dim for c in sf.scheme.components}
        if len(dims) != 1:
            continue
        n = dims.pop()
        ample = next(
            d for d in random_divisors(sf.scheme.rank, 60, seed=47) if is_ample(oracle, d)
        )
        for action, cls in _qu_actions(sf):
            k = cls.jordan_index
            gk = engine.gk_profile(sf.scheme, action, oracle, ample).gk_dimension
            assert k + n + 1 <= gk <= k * (n - 1) + n + 1, (action.name, k, gk)


def test_partial_sum_expansion_has_positive_leading_for_ample():
    for sf in _entries():
        oracle = sf.oracle()
        for action, _ in _qu_actions(sf):
            for d in random_divisors(sf.scheme.rank, 20, seed=53):
                if not is_ample(oracle, d):
                    continue
                profile = engine.gk_profile(sf.scheme, action, oracle, d)
                for comp in profile.components:
                    assert comp.polynomial.leading > 0, (action.name, comp.name)


def _verdict_class(sf, action, divisor):
    return engine.is_sigma_ample(sf.scheme, action, sf.oracle(), divisor).sigma_ample


def test_direction_symmetry_inverse_action():
    for sf in _entries():
        for action in sf.automorphisms.values():
            inverse = AutomorphismAction(
                f"{action.name}^-1", action.matrix.inverse_unimodular()
            )
            assert validate(sf.scheme, inverse).valid
            for d in random_divisors(sf.scheme.rank, SAMPLE, seed=59):
                assert _verdict_class(sf, action, d) == _verdict_class(sf, inverse, d), (
                    action.name,
                    d,
                )


def test_conjugation_invariance():
    for sf in _entries():
        actions = list(sf.automorphisms.values())
        for action in actions:
            for tau in actions:
                conjugated = AutomorphismAction(
                    f"{tau.name}*{action.name}",
                    tau.matrix * action.matrix * tau.matrix.inverse_unimodular(),
                )
                assert validate(sf.scheme, conjugated).valid
                for d in random_divisors(sf.scheme.rank, 10, seed=61):
                    assert _verdict_class(sf, action, d) == _verdict_class(
                        sf, conjugated, apply(tau, d)
                    ), (action.name, tau.name, d)


def test_nef_sum_preserves_sigma_ampleness():
    for sf in _entries():
        oracle = sf.oracle()
        nef = [
            d
            for d in random_divisors(sf.scheme.rank, 60, seed=67)
            if all(v >= 0 for v in oracle.conditions(d.coords))
        ]
        nef.append(DivisorClass((0,) * sf.scheme.rank))
        for action, _ in _qu_actions(sf):
            yes = [
                d
                for d in random_divisors(sf.scheme.rank, 30, seed=71)
                if engine.is_sigma_ample(sf.scheme, action, oracle, d).sigma_ample
            ][:6]
            for d in yes:
                for extra in nef[:6]:
                    verdict = engine.is_sigma_ample(sf.scheme, action, oracle, d + extra)
                    assert verdict.sigma_ample, (action.name, d, extra)


def test_verdicts_depend_only_on_coordinates_and_matrix(wehler):
    # rebuilding equal-valued inputs from scratch gives identical verdicts
    rebuilt_action = AutomorphismAction("other-name", wehler.action("s1").matrix)
    original = engine.is_sigma_ample(
        wehler.scheme, wehler.action("s1"), wehler.oracle(), wehler.divisor("H1")
    )
    rebuilt = engine.is_sigma_ample(
        wehler.scheme,
        rebuilt_action,
        wehler.oracle(),
        DivisorClass.of(1, 0),
    )
    assert (original.sigma_ample, original.unipotent_power, original.witness) == (
        rebuilt.sigma_ample,
        rebuilt.unipotent_power,
        rebuilt.witness,
    )


def test_power_polynomial_reproduces_iterated_pairings():
    # the polynomial expansion of the m-th image reproduces the iterated
    # matrix orbit pairings for m = 1 .. 50
    for sf in _entries():
        comp0 = sf.scheme.components[0]
        basis = [
            DivisorClass.of(*(1 if j == i else 0 for j in range(sf.scheme.rank)))
            for i in range(sf.scheme.rank)
        ]
        for action, cls in _qu_actions(sf):
            unipotent = mat_pow(action.matrix, cls.unipotent_power)
            for d in random_divisors(sf.scheme.rank, 5, seed=73):
                family = power_symbolic(unipotent, d)
                current = d
                for m in range(1, 51):
                    current = DivisorClass(unipotent.column_action(current.coords))
                    predicted = DivisorClass.of(*(p.evaluate(m) for p in family))
                    assert predicted == current
                    if comp0.dim == 2:
                        for b in basis:
                            assert intersect(comp0, [predicted, b]) == intersect(
                                comp0, [current, b]
                            )


def test_delta_symbolic_matches_direct_sums_on_catalog():
    for sf in _entries():
        for action, cls in _qu_actions(sf):
            unipotent = mat_pow(action.matrix, cls.unipotent_power)
            for name, d in sf.divisors.items():
                family = delta_symbolic(unipotent, d)
                for m in range(0, 26):
                    at = DivisorClass.of(*(p.evaluate(m) for p in family))
                    assert at == engine.partial_sum(unipotent, d, m), (name, m)
