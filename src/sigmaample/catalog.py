"""Builtin example schemes.

Each entry is a fully self-contained document: lattice rank, components with
intersection forms and Todd functionals, an ampleness oracle, named
automorphism actions, and named divisor classes.

wehler_k3 is the rank-2 K3 family with two involutions whose composite moves
divisor classes at an exponential rate; abelian_square is the self-product of
an elliptic curve with the unipotent shear induced by (x, y) -> (x + y, y),
whose numerical action on the span of the two fiber classes and the diagonal
is re-derived here from the graph classes and machine-verified by the tests.
"""
from __future__ import annotations

from fractions import Fraction

from .ampleness import PolyhedralCone, SurfacePositiveCone
from .errors import UnknownName
from .intmat import IntegerMatrix
from .lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
    SymmetricForm,
)
from .schemefile import SchemeFile


def _form(rank: int, arity: int, table: dict) -> SymmetricForm:
    return SymmetricForm.of(rank, arity, table.items())


def wehler_k3() -> SchemeFile:
    # K3 surface with Picard rank 2: (H1.H1) = (H2.H2) = 2, (H1.H2) = 4,
    # trivial canonical class, chi(O) = 2. The two involutions below generate
    # the automorphisms; their composite has spectral radius 7 + 4*sqrt(3).
    rank = 2
    top = _form(rank, 2, {(0, 0): 2, (0, 1): 4, (1, 1): 2})
    todd = (_form(rank, 0, {(): 2}), _form(rank, 1, {}), top)
    comp = ComponentDescriptor("X", 2, top, todd)
    scheme = SchemeDescriptor(rank, (comp,), euler_char=Fraction(2))
    s1 = IntegerMatrix([[1, 4], [0, -1]])
    s2 = IntegerMatrix([[-1, 0], [4, 1]])
    automorphisms = {
        "id": AutomorphismAction("id", IntegerMatrix.identity(rank), todd_invariant=True),
        "s1": AutomorphismAction("s1", s1, todd_invariant=True),
        "s2": AutomorphismAction("s2", s2, todd_invariant=True),
        "s1s2": AutomorphismAction("s1s2", s1 * s2, todd_invariant=True),
    }
    divisors = {
        "H1": DivisorClass.of(1, 0),
        "H2": DivisorClass.of(0, 1),
        "H1plusH2": DivisorClass.of(1, 1),
        "minusH1": DivisorClass.of(-1, 0),
    }
    oracles = {
        # no integral classes of negative or zero self-intersection exist on
        # this lattice, so the positive cone around H1 + H2 is the ample cone
        "ample": SurfacePositiveCone(comp, divisors["H1plusH2"], ()),
    }
    return SchemeFile(scheme, oracles, automorphisms, divisors)


def _projective_space(name: str, todd: tuple) -> SchemeFile:
    # projective n-space, n = len(todd), on its hyperplane class H: (H^n) = 1,
    # T_j(H, ..., H) = todd[j] for j < n, chi(O) = 1, ample cone m*H with m > 0
    n = len(todd)
    top = _form(1, n, {(0,) * n: 1})
    forms = tuple(_form(1, j, {(0,) * j: t}) for j, t in enumerate(todd)) + (top,)
    comp = ComponentDescriptor(name, n, top, forms)
    return SchemeFile(
        SchemeDescriptor(1, (comp,), euler_char=Fraction(1)),
        {"ample": PolyhedralCone(1, ((1,),))},
        {"id": AutomorphismAction("id", IntegerMatrix.identity(1), todd_invariant=True)},
        {"D": DivisorClass.of(1), "minusD": DivisorClass.of(-1)},
    )


def abelian_square() -> SchemeFile:
    # E x E for an elliptic curve E without extra endomorphisms. Basis of the
    # numerical lattice: f1 = {0} x E, f2 = E x {0}, d = diagonal, with
    # (f1.f2) = (f1.d) = (f2.d) = 1 and all self-intersections 0. The shear
    # automorphism (x, y) -> (x + y, y) pulls back f1 to the antidiagonal
    # 2f1 + 2f2 - d, fixes f2, and sends d to f1, giving the columns below.
    # Trivial canonical class and chi(O) = 0.
    rank = 3
    top = _form(rank, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    todd = (_form(rank, 0, {(): 0}), _form(rank, 1, {}), top)
    comp = ComponentDescriptor("X", 2, top, todd)
    scheme = SchemeDescriptor(rank, (comp,), euler_char=Fraction(0))
    shear = IntegerMatrix([[2, 0, 1], [2, 1, 0], [-1, 0, 0]])
    swap = IntegerMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    divisors = {
        "D111": DivisorClass.of(1, 1, 1),
        "fiber1": DivisorClass.of(1, 0, 0),
        "fiber2": DivisorClass.of(0, 1, 0),
        "diag": DivisorClass.of(0, 0, 1),
        "minusD": DivisorClass.of(-1, -1, -1),
    }
    return SchemeFile(
        scheme,
        {"ample": SurfacePositiveCone(comp, divisors["D111"], ())},
        {
            "id": AutomorphismAction("id", IntegerMatrix.identity(rank), todd_invariant=True),
            "shear": AutomorphismAction("shear", shear, todd_invariant=True),
            "swap": AutomorphismAction("swap", swap, todd_invariant=True),
        },
        divisors,
    )


_ENTRIES = {
    "wehler_k3": wehler_k3,
    # chi(O(m)) on P^1, P^2 and P^3 (pn): m + 1, m^2/2 + 3m/2 + 1 and C(m+3, 3)
    "p1": lambda: _projective_space("C", (1,)),
    "p2": lambda: _projective_space("X", (1, Fraction(3, 2))),
    "pn": lambda: _projective_space("X", (1, Fraction(11, 6), 2)),
    "abelian_square": abelian_square,
}


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def catalog_entry(name: str) -> SchemeFile:
    try:
        builder = _ENTRIES[name]
    except KeyError:
        raise UnknownName(f"no catalog entry named {name!r}") from None
    return builder()
