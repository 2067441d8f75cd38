"""Headline decision procedures on a validated (scheme, action) pair.

The central reduction: a divisor D admits an ample partial sum
D + PD + ... + P^(m-1)D for some m exactly when the same holds after
replacing D by the q-fold partial sum D' and P by the unipotent power P^q,
because the reduced partial sums are the original ones sampled at multiples
of q, and sampling along an arithmetic progression preserves the existence
question for ample partial sums. Once P is unipotent with nilpotent part N,
the m-th partial sum has coordinates

    sum over i of C(m, i+1) * N^i D,

a polynomial family in m, so existence of an ample member reduces to exact
polynomial sign analysis with Cauchy bounds. Growth questions ride on the
same expansion: intersection numbers of the family against itself are
numerical polynomials whose degree drives the Gelfand-Kirillov dimension,
while a non-quasi-unipotent action forces exponential growth of the Euler
characteristic sequence at the rate of the spectral radius.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .ampleness import AmplenessOracle, is_ample, is_ample_symbolic
from .errors import (
    InvalidSchemeData,
    MissingToddData,
    NotAmple,
    NotQuasiUnipotent,
)
from .intmat import (
    IntegerMatrix,
    mat_pow,
    nilpotency_index,
    quasi_unipotence,
    spectral_radius,
)
from .intpoly import RationalInterval
from .lattice import (
    AutomorphismAction,
    DivisorClass,
    SchemeDescriptor,
    apply,
    validate,
)
from .numpoly import ZERO, NumericalPolynomial, binomial_basis
from .record import Record

DEFAULT_EPS = Fraction(1, 1000)


class Classification(Record):
    """Classification of an action. When every eigenvalue is a root of unity
    (quasi-unipotent), the minimal q with action^q unipotent and the least k
    with (action^q - I)^(k+1) = 0, and radius is None. Otherwise both are
    None and radius encloses the spectral radius with lower end above 1."""

    __slots__ = ("unipotent_power", "jordan_index", "radius")

    def __init__(
        self,
        unipotent_power: int | None,
        jordan_index: int | None,
        radius: RationalInterval | None,
    ) -> None:
        object.__setattr__(self, "unipotent_power", unipotent_power)
        object.__setattr__(self, "jordan_index", jordan_index)
        object.__setattr__(self, "radius", radius)

    @property
    def quasi_unipotent(self) -> bool:
        return self.radius is None


class SigmaAmpleVerdict(Record):
    """The q used for the reduction and the reduced partial sums as
    polynomials in m (None and () when the action is not quasi-unipotent),
    and the minimal m with the reduced partial sum ample (None when no
    partial sum is ample)."""

    __slots__ = ("unipotent_power", "witness", "family")

    def __init__(
        self,
        unipotent_power: int | None,
        witness: int | None,
        family: tuple[NumericalPolynomial, ...],
    ) -> None:
        object.__setattr__(self, "unipotent_power", unipotent_power)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "family", family)

    @property
    def sigma_ample(self) -> bool:
        return self.witness is not None

    @property
    def reason(self) -> str | None:
        """Why the class is not sigma-ample, or None when it is."""
        if self.witness is not None:
            return None
        if self.unipotent_power is None:
            return "not-quasi-unipotent"
        return "no-ample-partial-sum"


class ComponentExpansion(Record):
    """A component's self-intersection of the partial sums, in m."""

    __slots__ = ("name", "polynomial")

    def __init__(self, name: str, polynomial: NumericalPolynomial) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "polynomial", polynomial)


class GKProfile(Record):
    """GK dimension, the step at which partial sums and action powers are
    taken, and the per-component expansions."""

    __slots__ = ("gk_dimension", "reduced_power", "components")

    def __init__(
        self, gk_dimension: int, reduced_power: int, components: tuple[ComponentExpansion, ...]
    ) -> None:
        object.__setattr__(self, "gk_dimension", gk_dimension)
        object.__setattr__(self, "reduced_power", reduced_power)
        object.__setattr__(self, "components", components)

    @property
    def hilbert_degree(self) -> int:
        return self.gk_dimension - 1


class GrowthReport(Record):
    """GK dimension for a quasi-unipotent action (radius None, no ratios,
    threshold_exceeded None). Otherwise gk_dimension is None and the report
    carries the radius enclosure, the consecutive Euler-characteristic
    ratios, and whether the partial-sum root statistic is above 1 + 1/1000."""

    __slots__ = ("gk_dimension", "radius", "ratio_samples", "threshold_exceeded")

    def __init__(
        self,
        gk_dimension: int | None,
        radius: RationalInterval | None,
        ratio_samples: tuple[Fraction, ...],
        threshold_exceeded: bool | None,
    ) -> None:
        object.__setattr__(self, "gk_dimension", gk_dimension)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "ratio_samples", ratio_samples)
        object.__setattr__(self, "threshold_exceeded", threshold_exceeded)

    @property
    def hilbert_degree(self) -> int | None:
        return None if self.gk_dimension is None else self.gk_dimension - 1


@lru_cache(maxsize=4096)
def _first_validation_failure(scheme: SchemeDescriptor, action: AutomorphismAction):
    report = validate(scheme, action)
    return None if report.valid else report.failures[0]


def require_valid(scheme: SchemeDescriptor, action: AutomorphismAction) -> None:
    """Raise InvalidSchemeData naming the action's first failed check.

    Validation runs once per (scheme, action) pair in a process.
    """
    first = _first_validation_failure(scheme, action)
    if first is not None:
        raise InvalidSchemeData(
            f"action {action.name!r} fails validation: {first.name} ({first.detail})"
        )


def classify(matrix: IntegerMatrix, eps: Fraction = DEFAULT_EPS) -> Classification:
    """Quasi-unipotent (with reduction power and Jordan index) or not (with a
    spectral-radius enclosure whose lower end exceeds 1)."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    power = quasi_unipotence(matrix)
    if power is not None:
        return Classification(power, nilpotency_index(mat_pow(matrix, power)), None)
    while True:
        radius = spectral_radius(matrix, eps)
        if radius.lo > 1:
            return Classification(None, None, radius)
        # the radius is strictly above 1, so a tight enough enclosure shows it
        eps /= 4


def nilpotent_steps(matrix: IntegerMatrix, divisor: DivisorClass) -> list[DivisorClass]:
    """[N^0 D, ..., N^k D] for unipotent matrix with nilpotent part N."""
    k = nilpotency_index(matrix)
    nil = matrix - IntegerMatrix.identity(matrix.size)
    steps = [divisor]
    for _ in range(k):
        steps.append(DivisorClass(nil.column_action(steps[-1].coords)))
    return steps


def delta_symbolic(
    matrix: IntegerMatrix, divisor: DivisorClass
) -> tuple[NumericalPolynomial, ...]:
    """Coordinates of the m-th partial sum as polynomials: sum C(m, i+1) N^i D.

    Requires a unipotent matrix; evaluating at any integer m >= 0 agrees with
    the directly accumulated sum D + PD + ... + P^(m-1)D.
    """
    out = [ZERO] * divisor.rank
    for i, step in enumerate(nilpotent_steps(matrix, divisor)):
        basis = binomial_basis(i + 1)
        for coord, c in enumerate(step.coords):
            if c:
                out[coord] = out[coord] + c * basis
    return tuple(out)


def partial_sum(matrix: IntegerMatrix, divisor: DivisorClass, m: int) -> DivisorClass:
    """D + PD + ... + P^(m-1)D, accumulated directly (any matrix, m >= 0).

    The matrix is integral, so every image keeps the denominator of D and
    the sum runs over integer numerators.
    """
    if m < 0:
        raise ValueError("partial sum index must be >= 0")
    denom = lcm(*(c.denominator for c in divisor.coords))
    current = tuple(c.numerator * (denom // c.denominator) for c in divisor.coords)
    total = (0,) * divisor.rank
    for _ in range(m):
        total = tuple(a + b for a, b in zip(total, current))
        current = matrix.column_action(current)
    return DivisorClass(tuple(Fraction(t, denom) for t in total))


def is_sigma_ample(
    scheme: SchemeDescriptor,
    action: AutomorphismAction,
    oracle: AmplenessOracle,
    divisor: DivisorClass,
) -> SigmaAmpleVerdict:
    """Exact decision whether the divisor class admits ample partial sums.

    Non-quasi-unipotent actions never do. Otherwise, reduce to the unipotent
    power q (summing the first q images into one class), express the reduced
    partial sums as a polynomial family, and search for an ample member; the
    reduced family samples the original partial sums at multiples of q, so
    the existence verdict transfers exactly.
    """
    require_valid(scheme, action)
    q = quasi_unipotence(action.matrix)
    if q is None:
        return SigmaAmpleVerdict(None, None, ())
    reduced_matrix = mat_pow(action.matrix, q)
    reduced_divisor = partial_sum(action.matrix, divisor, q)
    family = delta_symbolic(reduced_matrix, reduced_divisor)
    witness = is_ample_symbolic(oracle, family)
    if witness is None:
        return SigmaAmpleVerdict(q, None, family)
    concrete = partial_sum(reduced_matrix, reduced_divisor, witness)
    if not is_ample(oracle, concrete):
        raise AssertionError("symbolic witness failed the concrete ampleness check")
    return SigmaAmpleVerdict(q, witness, family)


def gk_profile(
    scheme: SchemeDescriptor,
    action: AutomorphismAction,
    oracle: AmplenessOracle,
    divisor: DivisorClass,
) -> GKProfile:
    """Gelfand-Kirillov data for the twisted ring of an ample (or at least
    sigma-ample) class under a quasi-unipotent action.

    A non-ample input is first replaced by an ample partial sum when one
    exists (taking a Veronese step changes neither the growth degree nor the
    dimension); otherwise NotAmple. The family at the step q*w is the
    verdict's reduced family with m replaced by w*m. Per component, the top
    form evaluated on the reduced partial-sum family is the self-intersection
    polynomial, and the dimension is one more than the largest degree over
    components.
    """
    require_valid(scheme, action)
    q = quasi_unipotence(action.matrix)
    if q is None:
        raise NotQuasiUnipotent(f"action {action.name!r} is not quasi-unipotent")
    if is_ample(oracle, divisor):
        reduced_power = q
        family = delta_symbolic(mat_pow(action.matrix, q), partial_sum(action.matrix, divisor, q))
    else:
        verdict = is_sigma_ample(scheme, action, oracle, divisor)
        if not verdict.sigma_ample:
            raise NotAmple(
                "divisor is neither ample nor sigma-ample; no growth data exists"
            )
        w = verdict.witness
        reduced_power = q * w
        family = tuple(
            NumericalPolynomial(tuple(c * w**i for i, c in enumerate(p.coeffs)))
            for p in verdict.family
        )
    expansions = []
    best: int | None = None
    for comp in scheme.components:
        poly = ZERO + comp.top_form.evaluate([family] * comp.dim)
        expansions.append(ComponentExpansion(comp.name, poly))
        if poly.degree is not None:
            best = poly.degree if best is None else max(best, poly.degree)
    if best is None:
        raise NotAmple("partial-sum self-intersections all vanish; class cannot be ample")
    return GKProfile(best + 1, reduced_power, tuple(expansions))


def euler_char_series(
    scheme: SchemeDescriptor,
    action: AutomorphismAction,
    divisor: DivisorClass,
    m_max: int,
) -> list[Fraction]:
    """Euler characteristics of the partial sums, m = 1 .. m_max.

    Computed from the Todd functionals: chi = sum over components and j of
    T_j(Delta_m, ..., Delta_m) / j!. Every component must carry Todd data.
    """
    require_valid(scheme, action)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    missing = [c.name for c in scheme.components if c.todd is None]
    if missing:
        raise MissingToddData(f"components without Todd data: {', '.join(missing)}")
    out = []
    factorial = [1]
    for j in range(1, scheme.dim + 1):
        factorial.append(factorial[-1] * j)
    total = DivisorClass.zero(divisor.rank)
    current = divisor
    for _ in range(m_max):
        total = total + current
        current = apply(action, current)
        chi = Fraction(0)
        for comp in scheme.components:
            for j, form in enumerate(comp.todd):
                value = form.evaluate([total.coords] * j)
                if value:
                    chi += value / factorial[j]
        out.append(chi)
    return out


EXPONENTIAL_THRESHOLD = Fraction(1001, 1000)


def growth_report(
    scheme: SchemeDescriptor,
    action: AutomorphismAction,
    oracle: AmplenessOracle,
    divisor: DivisorClass,
    m_max: int = 12,
    eps: Fraction = DEFAULT_EPS,
) -> GrowthReport:
    """Polynomial growth data for quasi-unipotent actions, exponential
    evidence otherwise.

    The exponential branch reports the exact spectral-radius enclosure, the
    consecutive Euler-characteristic ratios (which approach the radius), and
    whether the m_max-th root of the partial Euler-characteristic sum already
    exceeds 1 + 1/1000. The limit statement itself is asymptotic; only the
    finite statistic and the exact radius are claimed.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    require_valid(scheme, action)
    if not is_ample(oracle, divisor):
        raise NotAmple("growth reports are defined for ample divisor classes")
    if quasi_unipotence(action.matrix) is not None:
        gk = gk_profile(scheme, action, oracle, divisor).gk_dimension
        return GrowthReport(gk, None, (), None)
    radius = classify(action.matrix, eps).radius
    series = euler_char_series(scheme, action, divisor, m_max + 1)
    ratios = []
    for m in range(1, m_max + 1):
        if series[m - 1] == 0:
            raise ValueError(f"Euler characteristic vanished at m={m}")
        ratios.append(series[m] / series[m - 1])
    partial = sum(series[:m_max], Fraction(0))
    exceeded = partial > EXPONENTIAL_THRESHOLD**m_max
    return GrowthReport(None, radius, tuple(ratios), exceeded)
