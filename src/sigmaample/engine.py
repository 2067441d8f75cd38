"""Headline decision procedures on a validated (scheme, action) pair.

The central reduction: a divisor D admits an ample partial sum
D + PD + ... + P^(m-1)D for some m exactly when the same holds after
replacing D by the q-fold partial sum D' and P by the unipotent power P^q,
because the reduced partial sums are the original ones sampled at multiples
of q, and sampling along an arithmetic progression preserves the existence
question for ample partial sums. Once P is unipotent with nilpotent part N,
the m-th partial sum has coordinates

    sum over i of C(m, i+1) * N^i D,

a family in m given by the integer numerators of the N^i D over one
denominator. The oracle's constraints (whose common positivity reduces to
exact sign analysis at the integers just after their real roots) and the
self-intersections (whose degree drives the Gelfand-Kirillov dimension) are
each a form's table on those vectors summed over products of binomials. A
non-quasi-unipotent action instead forces exponential growth of the Euler
characteristic sequence at the rate of the spectral radius.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
from .numpoly import symmetric_binomial_sum
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
    """The q used for the reduction, the minimal m with the reduced partial
    sum ample (None when none is), and the reduced family as (d, vectors),
    whose m-th member is sum_j C(m, j) v_j / d. q and the family are None
    when the action is not quasi-unipotent."""

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
def _first_validation_failure(
    scheme: SchemeDescriptor, action: AutomorphismAction, oracle: AmplenessOracle | None
) -> str | None:
    """Why the action is refused, or None: its first failed lattice check,
    then, given an oracle, the first failed check that the action keeps the
    oracle's cone. The lattice checks are shared by every oracle."""
    if oracle is None:
        checks, refusal = validate(scheme, action), "fails validation"
    else:
        failure = _first_validation_failure(scheme, action, None)
        if failure is not None:
            return failure
        checks, refusal = oracle.stability_checks(action), "does not keep the oracle's cone"
    for check in checks:
        if not check.passed:
            return f"action {action.name!r} {refusal}: {check.name} ({check.detail})"
    return None


def require_valid(
    scheme: SchemeDescriptor, action: AutomorphismAction, oracle: AmplenessOracle | None = None
) -> None:
    """Raise InvalidSchemeData naming the first failed check of the action,
    and, given an oracle, of the action keeping the oracle's cone: the
    criterion reads an ample cone that the automorphism keeps, and a matrix
    that moves the cone comes from no automorphism.

    Each check runs once per (scheme, action, oracle) in a process.
    """
    failure = _first_validation_failure(scheme, action, oracle)
    if failure is not None:
        raise InvalidSchemeData(failure)


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


def partial_sum(matrix: IntegerMatrix, divisor: DivisorClass, m: int) -> DivisorClass:
    """D + PD + ... + P^(m-1)D (any matrix, m >= 0), from the matrix alone.

    The matrix is integral, so every image keeps the denominator of D and
    the sum runs over D's integer numerators. The sum is built by doubling on the
    bits of m, lowest first, in O(log m) matrix products: with T = S(2^j) and
    B = P^(2^j), S(2^j + r) = T + B S(r) and S(2^(j+1)) = T + B T. The
    squares B are formed once per matrix in a process and shared with
    ``mat_pow``, so only the matrix-vector products are paid per call.
    """
    if m < 0:
        raise ValueError("partial sum index must be >= 0")
    block = divisor.numerators
    total, power = (0,) * divisor.rank, matrix
    while m:
        if m & 1:
            total = _vector_sum(block, power.column_action(total))
        m >>= 1
        if m:
            block = _vector_sum(block, power.column_action(block))
            power = _square(power)
    return DivisorClass(total, divisor.denominator)


def _vector_sum(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _nilpotent_steps(
    matrix: IntegerMatrix, reduction: UnipotentReduction, divisor: DivisorClass
) -> tuple[DivisorClass, tuple[tuple[int, ...], ...]]:
    """The q-fold partial sum D' of the divisor, with denominator d, and the
    v_j with D' + P^q D' + ... + P^(q(m-1)) D' = sum_j C(m, j) v_j / d:
    v_0 = 0, v_(i+1) the numerators of N^i D' for N = P^q - I (which keeps d)."""
    reduced_divisor = partial_sum(matrix, divisor, reduction.power)
    unipotent = reduction.matrix
    current = reduced_divisor.numerators
    vectors = [(0,) * len(current), current]
    for _ in range(reduction.jordan_index):
        current = tuple(map(sub, unipotent.column_action(current), current))
        vectors.append(current)
    return reduced_divisor, tuple(vectors)


def is_sigma_ample(
    scheme: SchemeDescriptor,
    action: AutomorphismAction,
    oracle: AmplenessOracle,
    divisor: DivisorClass,
) -> SigmaAmpleVerdict:
    """Exact decision whether the divisor class admits ample partial sums.

    Non-quasi-unipotent actions never do. Otherwise, reduce to the unipotent
    power q (summing the first q images into one class D'), express the
    reduced partial sums by integer vectors, and search for an ample member;
    the reduced family samples the original partial sums at multiples of q,
    so the existence verdict transfers exactly. The member at m = 1 is D'
    itself, so the oracle is asked of D' first and the witness is 1 when it
    is ample; otherwise the constraint polynomials are built and a witness
    they give is checked once more on the partial sum of D' under P^q
    computed from the matrix alone.
    """
    require_valid(scheme, action, oracle)
    if divisor.rank != action.matrix.size:
        raise RankMismatch(f"rank {divisor.rank} vs matrix size {action.matrix.size}")
    reduction = unipotent_reduction(action.matrix)
    if reduction is None:
        return SigmaAmpleVerdict(None, None, None)
    reduced_divisor, vectors = _nilpotent_steps(action.matrix, reduction, divisor)
    family = (reduced_divisor.denominator, vectors)
    if is_ample(oracle, reduced_divisor):
        return SigmaAmpleVerdict(reduction.power, 1, family)
    witness = is_ample_symbolic(oracle, *family)
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
    """Gelfand-Kirillov data for the twisted ring of a sigma-ample class
    under a quasi-unipotent action.

    The class is replaced by its ample partial sum at the least witness w of
    ``is_sigma_ample`` (taking a Veronese step changes neither the growth
    degree nor the dimension); a class with no ample partial sum is NotAmple.
    The family is the verdict's reduced family at the step w, so its partial
    sums are taken at multiples of q*w. Per component, the top form's table
    on the family's vectors, summed at step w, is the self-intersection
    polynomial, and the dimension is one more than the largest degree over
    components.
    """
    require_valid(scheme, action, oracle)
    if unipotent_reduction(action.matrix) is None:
        raise NotQuasiUnipotent(f"action {action.name!r} is not quasi-unipotent")
    verdict = is_sigma_ample(scheme, action, oracle, divisor)
    w = verdict.witness
    if w is None:
        raise NotAmple("divisor is neither ample nor sigma-ample; no growth data exists")
    denom, vectors = verdict.family
    expansions = tuple(
        ComponentExpansion(
            comp.name,
            symmetric_binomial_sum(comp.top_form.step_table(vectors), denom**comp.dim, w),
        )
        for comp in scheme.components
    )
    degrees = [e.polynomial.degree for e in expansions if not e.polynomial.is_zero]
    if not degrees:
        raise NotAmple("partial-sum self-intersections all vanish; class cannot be ample")
    return GKProfile(max(degrees) + 1, verdict.unipotent_power * w, expansions)


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
    with d the class's denominator, T_j(Delta_m, ...) is T_j of the
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
    denom, current = divisor.denominator, divisor.numerators
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
    require_valid(scheme, action, oracle)
    if divisor.rank != action.matrix.size:
        raise RankMismatch(f"rank {divisor.rank} vs matrix size {action.matrix.size}")
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
