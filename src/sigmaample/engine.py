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
polynomial sign analysis, which tests only the integers just after the real
roots of the constraint polynomials. Growth questions ride on the
same expansion: intersection numbers of the family against itself are
numerical polynomials whose degree drives the Gelfand-Kirillov dimension,
while a non-quasi-unipotent action forces exponential growth of the Euler
characteristic sequence at the rate of the spectral radius.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, sub

from .ampleness import AmplenessOracle, is_ample, is_ample_symbolic
from .errors import (
    InvalidSchemeData,
    MissingToddData,
    NotAmple,
    NotQuasiUnipotent,
    RankMismatch,
)
from .intmat import (
    IntegerMatrix,
    UnipotentReduction,
    _square,
    exact_eps,
    spectral_radius,
    unipotent_reduction,
)
from .lattice import (
    AutomorphismAction,
    DivisorClass,
    SchemeDescriptor,
    validate,
)
from .numpoly import ZERO, NumericalPolynomial, _reduced, binomial_basis
from .record import Record

DEFAULT_EPS = Fraction(1, 1000)
DEFAULT_MMAX = 12


class Classification(Record):
    """Classification of an action. When every eigenvalue is a root of unity
    (quasi-unipotent), the minimal q with action^q unipotent and the least k
    with (action^q - I)^(k+1) = 0, and radius is None. Otherwise both are
    None and radius encloses the spectral radius with lower end above 1."""

    __slots__ = ("unipotent_power", "jordan_index", "radius")

    @property
    def quasi_unipotent(self) -> bool:
        return self.radius is None


class SigmaAmpleVerdict(Record):
    """The q used for the reduction and the reduced partial sums as
    polynomials in m (None and () when the action is not quasi-unipotent),
    and the minimal m with the reduced partial sum ample (None when no
    partial sum is ample)."""

    __slots__ = ("unipotent_power", "witness", "family")

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


class GKProfile(Record):
    """GK dimension, the step at which partial sums and action powers are
    taken, and the per-component expansions."""

    __slots__ = ("gk_dimension", "reduced_power", "components")

    @property
    def hilbert_degree(self) -> int:
        return self.gk_dimension - 1


class GrowthReport(Record):
    """GK dimension for a quasi-unipotent action (radius None, no ratios,
    threshold_exceeded None). Otherwise gk_dimension is None and the report
    carries the radius enclosure, the consecutive Euler-characteristic
    ratios, and whether the partial-sum root statistic is above 1 + 1/1000."""

    __slots__ = ("gk_dimension", "radius", "ratio_samples", "threshold_exceeded")

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
    eps = exact_eps(eps)
    reduction = unipotent_reduction(matrix)
    if reduction is not None:
        return Classification(reduction.power, reduction.jordan_index, None)
    while True:
        radius = spectral_radius(matrix, eps)
        if radius.lo > 1:
            return Classification(None, None, radius)
        # the radius is strictly above 1, so a tight enough enclosure shows it
        eps /= 4


def _nilpotent_numerators(
    unipotent: IntegerMatrix, k: int, divisor: DivisorClass
) -> tuple[int, list[tuple[int, ...]]]:
    """The common denominator d of D and the integer numerators over d of
    N^0 D .. N^k D (N v = M v - v keeps that denominator)."""
    denom, current = divisor.over_common_denominator()
    steps = [current]
    for _ in range(k):
        current = tuple(map(sub, unipotent.column_action(current), current))
        steps.append(current)
    return denom, steps


def _delta_symbolic(
    unipotent: IntegerMatrix, k: int, divisor: DivisorClass
) -> tuple[NumericalPolynomial, ...]:
    """Coordinates of the m-th partial sum under a unipotent matrix with
    Jordan index k, as polynomials in m: sum C(m, i+1) N^i D.

    All in integers: with v_i the numerators of N^i D over d, C(m, i+1) =
    b_i / c_i and L the lcm of the c_i, a coordinate is the sum of
    v_i (L / c_i) b_i over L d, reduced once.
    """
    denom, steps = _nilpotent_numerators(unipotent, k, divisor)
    bases = [binomial_basis(i + 1) for i in range(k + 1)]
    common = lcm(*(b.denominator for b in bases))
    scaled = [[c * (common // b.denominator) for c in b.numerators] for b in bases]
    out = []
    for column in zip(*steps):
        nums = [0] * (k + 2)
        for x, basis in zip(column, scaled):
            if x:
                for j, c in enumerate(basis):
                    nums[j] += x * c
        out.append(_reduced(nums, common * denom))
    return tuple(out)


def partial_sum(matrix: IntegerMatrix, divisor: DivisorClass, m: int) -> DivisorClass:
    """D + PD + ... + P^(m-1)D (any matrix, m >= 0), from the matrix alone.

    The matrix is integral, so every image keeps the denominator of D and
    the sum runs over integer numerators. The sum is built by doubling on the
    bits of m, lowest first, in O(log m) matrix products: with T = S(2^j) and
    B = P^(2^j), S(2^j + r) = T + B S(r) and S(2^(j+1)) = T + B T. The
    squares B are formed once per matrix in a process and shared with
    ``mat_pow``, so only the matrix-vector products are paid per call.
    """
    if m < 0:
        raise ValueError("partial sum index must be >= 0")
    denom, block = divisor.over_common_denominator()
    total, power = (0,) * divisor.rank, matrix
    while m:
        if m & 1:
            total = _vector_sum(block, power.column_action(total))
        m >>= 1
        if m:
            block = _vector_sum(block, power.column_action(block))
            power = _square(power)
    return DivisorClass(tuple(Fraction(t, denom) for t in total))


def _vector_sum(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _reduced_family(
    matrix: IntegerMatrix, reduction: UnipotentReduction, divisor: DivisorClass
) -> tuple[DivisorClass, tuple[NumericalPolynomial, ...]]:
    """The q-fold partial sum D' of the divisor and the reduced partial sums
    D' + P^q D' + ... as polynomials in m."""
    reduced_divisor = partial_sum(matrix, divisor, reduction.power)
    return reduced_divisor, _delta_symbolic(
        reduction.matrix, reduction.jordan_index, reduced_divisor
    )


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
    the existence verdict transfers exactly. A witness is checked once more
    on the partial sum computed from the matrix alone.
    """
    require_valid(scheme, action)
    if divisor.rank != action.matrix.size:
        raise RankMismatch(f"rank {divisor.rank} vs matrix size {action.matrix.size}")
    reduction = unipotent_reduction(action.matrix)
    if reduction is None:
        return SigmaAmpleVerdict(None, None, ())
    reduced_divisor, family = _reduced_family(action.matrix, reduction, divisor)
    witness = is_ample_symbolic(oracle, family)
    if witness is not None:
        concrete = partial_sum(reduction.matrix, reduced_divisor, witness)
        if not is_ample(oracle, concrete):
            raise AssertionError("symbolic witness failed the concrete ampleness check")
    return SigmaAmpleVerdict(reduction.power, witness, family)


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
    dimension); otherwise NotAmple. The family at the step q*w is the reduced
    family with m replaced by w*m, where w is 1 for an ample class (which
    needs no witness search) and the sigma-ample witness otherwise. Per
    component, the top form evaluated on the reduced partial-sum family is
    the self-intersection polynomial, and the dimension is one more than the
    largest degree over components.
    """
    require_valid(scheme, action)
    reduction = unipotent_reduction(action.matrix)
    if reduction is None:
        raise NotQuasiUnipotent(f"action {action.name!r} is not quasi-unipotent")
    if is_ample(oracle, divisor):
        w = 1
        family = _reduced_family(action.matrix, reduction, divisor)[1]
    else:
        verdict = is_sigma_ample(scheme, action, oracle, divisor)
        if not verdict.sigma_ample:
            raise NotAmple("divisor is neither ample nor sigma-ample; no growth data exists")
        w = verdict.witness
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
    return GKProfile(best + 1, reduction.power * w, tuple(expansions))


def euler_char_series(
    scheme: SchemeDescriptor,
    action: AutomorphismAction,
    divisor: DivisorClass,
    m_max: int,
) -> list[Fraction]:
    """Euler characteristics of the partial sums, m = 1 .. m_max.

    Computed from the Todd functionals: chi = sum over components and j of
    T_j(Delta_m, ..., Delta_m) / j!. Every component must carry Todd data.
    The partial sums run over integer numerators, as in ``partial_sum``;
    with d their common denominator, T_j(Delta_m, ...) is T_j of the
    numerators over d^j.
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
    if divisor.rank != action.matrix.size:
        raise RankMismatch(f"rank {divisor.rank} vs matrix size {action.matrix.size}")
    denom, current = divisor.over_common_denominator()
    total = (0,) * divisor.rank
    for _ in range(m_max):
        total = _vector_sum(total, current)
        current = action.matrix.column_action(current)
        chi = Fraction(0)
        for comp in scheme.components:
            for j, form in enumerate(comp.todd):
                value = form.evaluate([total] * j)
                if value:
                    chi += value / (factorial[j] * denom**j)
        out.append(chi)
    return out


EXPONENTIAL_THRESHOLD = Fraction(1001, 1000)


def growth_report(
    scheme: SchemeDescriptor,
    action: AutomorphismAction,
    oracle: AmplenessOracle,
    divisor: DivisorClass,
    m_max: int = DEFAULT_MMAX,
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
    eps = exact_eps(eps)
    require_valid(scheme, action)
    if not is_ample(oracle, divisor):
        raise NotAmple("growth reports are defined for ample divisor classes")
    if unipotent_reduction(action.matrix) is not None:
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
