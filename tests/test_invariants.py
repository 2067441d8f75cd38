"""Structural properties of the decision procedures across catalog data:
parity and vanishing of the nilpotent expansion, dimension bounds and
independence, and the verdict symmetries (inverse, conjugation, nef sums)."""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from sigmaample import engine
from sigmaample.ampleness import PolyhedralCone, SurfacePositiveCone, is_ample
from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.errors import InvalidSchemeData
from sigmaample.intmat import IntegerMatrix, mat_pow
from sigmaample.lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
    SymmetricForm,
    apply,
    intersect,
    validate,
)
from sigmaample.schemefile import SchemeFile

import reference_numpoly as rn
from conftest import (
    family_at,
    linear_combination,
    nilpotent_steps,
    power_symbolic,
    random_divisors,
    reduced_steps,
    seeded_unimodular,
    unimodular_matrices,
)
from reference_intmat import inverse_unimodular

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
    # sigma and sigma^-1 give the same verdict, unipotent power and witness,
    # and on sigma-ample classes the same GK dimension
    gk_cases = 0
    for sf in _entries():
        oracle = sf.oracle()
        for action in sf.automorphisms.values():
            inverse = AutomorphismAction(
                f"{action.name}^-1", inverse_unimodular(action.matrix)
            )
            assert all(c.passed for c in validate(sf.scheme, inverse))
            for d in random_divisors(sf.scheme.rank, SAMPLE, seed=59):
                forward, backward = (
                    engine.is_sigma_ample(sf.scheme, a, oracle, d) for a in (action, inverse)
                )
                assert (forward.sigma_ample, forward.unipotent_power, forward.witness) == (
                    backward.sigma_ample,
                    backward.unipotent_power,
                    backward.witness,
                ), (action.name, d)
                if forward.sigma_ample:
                    dims = [
                        engine.gk_profile(sf.scheme, a, oracle, d).gk_dimension
                        for a in (action, inverse)
                    ]
                    assert dims[0] == dims[1], (action.name, d)
                    gk_cases += 1
    assert gk_cases > 0


def test_positive_scaling_keeps_verdict_and_scales_gk_polynomials():
    # every oracle condition is homogeneous in D of positive degree, so
    # D -> cD (c > 0) keeps q, the witness and GK, and scales the
    # self-intersection polynomial of a dim-d component by c^d
    gk_cases = 0
    for sf in _entries():
        oracle = sf.oracle()
        dims = {comp.name: comp.dim for comp in sf.scheme.components}
        for action, _ in _qu_actions(sf):
            for d in random_divisors(sf.scheme.rank, SAMPLE, seed=83):
                verdict = engine.is_sigma_ample(sf.scheme, action, oracle, d)
                profile = (
                    engine.gk_profile(sf.scheme, action, oracle, d) if verdict.sigma_ample else None
                )
                for c in (3, Fraction(2, 7), 10**12 + 1, Fraction(1, 10**12 + 39)):
                    scaled = linear_combination((c, d))
                    got = engine.is_sigma_ample(sf.scheme, action, oracle, scaled)
                    assert (got.sigma_ample, got.unipotent_power, got.witness) == (
                        verdict.sigma_ample,
                        verdict.unipotent_power,
                        verdict.witness,
                    ), (action.name, d, c)
                    if profile is None:
                        continue
                    other = engine.gk_profile(sf.scheme, action, oracle, scaled)
                    assert other.gk_dimension == profile.gk_dimension
                    for comp, twin in zip(profile.components, other.components):
                        factor = c ** dims[comp.name]
                        assert twin.polynomial.coeffs == tuple(
                            factor * x for x in comp.polynomial.coeffs
                        ), (action.name, d, c, comp.name)
                    gk_cases += 1
    assert gk_cases > 0


def test_conjugation_invariance():
    for sf in _entries():
        actions = list(sf.automorphisms.values())
        for action in actions:
            for tau in actions:
                conjugated = AutomorphismAction(
                    f"{tau.name}*{action.name}",
                    tau.matrix * action.matrix * inverse_unimodular(tau.matrix),
                )
                assert all(c.passed for c in validate(sf.scheme, conjugated))
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
            if all(v >= 0 for v in oracle.conditions(d))
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
                    verdict = engine.is_sigma_ample(
                        sf.scheme, action, oracle, linear_combination((1, d), (1, extra))
                    )
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
                    current = DivisorClass.of(*unipotent.column_action(current.coords))
                    predicted = DivisorClass.of(*(rn.evaluate(p, m) for p in family))
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
                family = reduced_steps(unipotent, d)
                for m in range(0, 26):
                    at = family_at(family, m)
                    assert at == engine.partial_sum(unipotent, d, m), (name, m)


def _change_basis(sf, u):
    """The same data in the basis of U's columns, for U in GL_n(Z), and the
    map on classes. A class x has new coordinates U^-1 x, so each form is
    pulled back by its table on U's columns, an action P becomes U^-1 P U
    and a facet f becomes U^T f."""
    inverse = inverse_unimodular(u)
    columns = tuple(zip(*u.rows))

    def pull(form):
        table = form.step_table(columns)
        return SymmetricForm(form.rank, form.arity, tuple(table.items()), form.denominator)

    def move(d):
        return DivisorClass(inverse.column_action(d.numerators), d.denominator)

    components = {
        comp.name: ComponentDescriptor(
            comp.name,
            comp.dim,
            pull(comp.top_form),
            None if comp.todd is None else tuple(map(pull, comp.todd)),
        )
        for comp in sf.scheme.components
    }
    transposed = u.transpose()
    oracles = {
        name: PolyhedralCone(
            oracle.rank, tuple(transposed.column_action(f) for f in oracle.facets)
        )
        if oracle.kind == "polyhedral"
        else SurfacePositiveCone(
            components[oracle.component.name],
            move(oracle.reference_ample),
            tuple(map(move, oracle.obstructions)),
        )
        for name, oracle in sf.oracles.items()
    }
    moved = SchemeFile(
        SchemeDescriptor(sf.scheme.rank, tuple(components.values()), sf.scheme.euler_char),
        oracles,
        {
            name: AutomorphismAction(a.name, inverse * a.matrix * u, a.todd_invariant)
            for name, a in sf.automorphisms.items()
        },
        {name: move(d) for name, d in sf.divisors.items()},
    )
    return moved, move


def _basis_free_answers(sf, action, divisors):
    """Everything a change of lattice basis must keep, for one action.
    Whether the action keeps the oracle's cone does not depend on the basis,
    so a refusal, by its error type and failed check, is an answer too."""
    oracle = sf.oracle()
    out = [all(c.passed for c in validate(sf.scheme, action)), engine.classify(action.matrix)]
    for d in divisors:
        try:
            verdict = engine.is_sigma_ample(sf.scheme, action, oracle, d)
        except InvalidSchemeData as exc:
            # "action 'a' does not keep the oracle's cone: CHECK (detail)"
            out.append((type(exc), str(exc).partition("cone: ")[2].split(" (")[0]))
        else:
            out.append((verdict.unipotent_power, verdict.witness))
            if verdict.sigma_ample:
                profile = engine.gk_profile(sf.scheme, action, oracle, d)
                out.append((profile.gk_dimension, profile.reduced_power, profile.components))
        out.append(engine.euler_char_series(sf.scheme, action, d, 12))
    return out


def _compare_in_new_basis(sf, u, divisors) -> int:
    moved, move = _change_basis(sf, u)
    compared = 0
    for name, action in sf.automorphisms.items():
        before = _basis_free_answers(sf, action, divisors)
        after = _basis_free_answers(moved, moved.action(name), [move(d) for d in divisors])
        assert len(before) == len(after), (name, u)
        for i, (x, y) in enumerate(zip(before, after)):
            assert x == y, (name, u, i)
        compared += len(before)
    return compared


def _with_orthant(sf):
    """The entry with its oracle replaced by the positive orthant's cone, so
    that facets are moved at every rank."""
    rows = IntegerMatrix.identity(sf.scheme.rank).rows
    return SchemeFile(
        sf.scheme, {"orthant": PolyhedralCone(sf.scheme.rank, rows)}, sf.automorphisms, sf.divisors
    )


def test_change_of_lattice_basis_keeps_every_answer():
    compared = 0
    for sf in _entries():
        sample = random_divisors(sf.scheme.rank, 6, seed=97)
        divisors = (
            list(sf.divisors.values())
            + sample
            + [linear_combination((Fraction(-2, 5), d)) for d in sample[:3]]
        )
        for seed in range(4):
            u = seeded_unimodular(sf.scheme.rank, seed=101 + seed)
            for data in (sf, _with_orthant(sf)):
                compared += _compare_in_new_basis(data, u, divisors)
    assert compared > 2000


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_change_of_lattice_basis_on_drawn_unimodular_matrices(data):
    sf = catalog_entry(data.draw(st.sampled_from(catalog_names())))
    u = data.draw(unimodular_matrices(sf.scheme.rank))
    assert _compare_in_new_basis(sf, u, list(sf.divisors.values()))


def test_veronese_keeps_verdict_and_gk():
    # the partial sums of Delta_k D under P^k are the Delta_(km) D, so the
    # pair (P^k, Delta_k D) is a Veronese of (P, D): it has the same
    # sigma-ample verdict and, on sigma-ample classes, the same GK dimension
    cases = gk_cases = 0
    for sf in _entries():
        oracle = sf.oracle()
        divisors = list(sf.divisors.values()) + random_divisors(sf.scheme.rank, 12, seed=89)
        for action, _ in _qu_actions(sf):
            for k in (2, 3, 5):
                power = AutomorphismAction(
                    f"{action.name}^{k}", mat_pow(action.matrix, k), action.todd_invariant
                )
                assert all(c.passed for c in validate(sf.scheme, power)), (action.name, k)
                for d in divisors:
                    summed = engine.partial_sum(action.matrix, d, k)
                    pairs = ((action, d), (power, summed))
                    verdicts = [engine.is_sigma_ample(sf.scheme, a, oracle, x) for a, x in pairs]
                    assert verdicts[0].sigma_ample == verdicts[1].sigma_ample, (action.name, k, d)
                    cases += 1
                    if verdicts[0].sigma_ample:
                        gks = [
                            engine.gk_profile(sf.scheme, a, oracle, x).gk_dimension
                            for a, x in pairs
                        ]
                        assert gks[0] == gks[1], (action.name, k, d)
                        gk_cases += 1
    assert cases > 400 and gk_cases > 100
