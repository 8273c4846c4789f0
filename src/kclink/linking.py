"""Closed-form Bayesian estimator linking two key comparisons.

Given a validated :class:`~kclink.model.ComparisonDataset`, the engine
computes the two key comparison reference values (KCRVs) together with
their uncertainties and mutual covariance, per-laboratory degrees of
equivalence, and a chi-square conformity check of the estimates against
the data.

The estimator is the generalized-least-squares solution for two measurands
observed by partially overlapping groups of laboratories: with a constant
prior, the posterior for the pair of measurands is a bivariate Gaussian
whose mode and covariance have closed forms in five data-only sums.  All
sums are accumulated with exactly rounded summation (``math.fsum``) so
results do not depend on the order in which laboratories are listed.

Squares are written as products: ``x * x`` is correctly rounded, while
``x**2`` goes through the platform's ``pow``, which may be off by one unit
in the last place, and results would then no longer scale bit-exactly
under a power-of-two change of units.

:func:`link` walks the laboratories twice: :func:`compute_aux` gathers the
five sums, which fix the KCRVs, and :func:`compute_residuals` then gives
the degrees of equivalence and the chi-square from the residuals against
those KCRVs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, fsum, inf, isfinite, pi, sqrt
from typing import Literal

from .model import (
    ComparisonDataset,
    InternalInconsistencyError,
    LabResult,
    ValidationError,
)

Standard = Literal["A", "B"]

# q2 at or below this counts as a pass when there are no degrees of freedom
# (one lab per standard, no linking): the estimates interpolate the data and
# any residual is floating-point noise.
ZERO_DOF_TIE_TOLERANCE = 1e-9

# Relative tolerance on the DOE variance radicand u(x)^2 - u(y)^2, which is
# non-negative in exact arithmetic for every lab in the dataset.
_RADICAND_RTOL = 1e-9


@dataclass(frozen=True)
class AuxQuantities:
    """The five data-only sums the closed-form estimator is built from.

    ``a`` and ``b`` are the inverse-variance weight totals for standards A
    and B, ``c`` the cross-weight contributed by linking covariances, and
    ``s1``/``s2`` the corresponding weighted value sums.  For a linking
    laboratory each term carries the denominator
    ``u_a^2 * u_b^2 - cov_ab^2``; exclusive laboratories contribute plain
    inverse variances.
    """

    a: float
    b: float
    c: float
    s1: float
    s2: float

    def __post_init__(self) -> None:
        if not self.a > 0.0 or not self.b > 0.0:
            raise InternalInconsistencyError(
                f"weight sums must be positive, got a={self.a}, b={self.b}"
            )
        if not self.a * self.b - self.c * self.c > 0.0:
            raise InternalInconsistencyError(
                "cross-weight exceeds the per-standard weights "
                f"(a*b - c^2 = {self.a * self.b - self.c * self.c})"
            )

    @property
    def det(self) -> float:
        return self.a * self.b - self.c * self.c


@dataclass(frozen=True)
class KcrvEstimate:
    """Both key comparison reference values with full covariance."""

    y_hat_a: float
    y_hat_b: float
    u_a: float
    u_b: float
    cov_ab: float
    r_tilde: float

    def __post_init__(self) -> None:
        if not self.u_a > 0.0 or not self.u_b > 0.0:
            raise InternalInconsistencyError("KCRV uncertainties must be positive")
        if abs(self.cov_ab) > self.u_a * self.u_b:
            raise InternalInconsistencyError(
                "KCRV covariance violates the Cauchy-Schwarz bound"
            )
        if not -1.0 < self.r_tilde < 1.0:
            raise InternalInconsistencyError(
                "KCRV correlation must lie strictly inside (-1, 1)"
            )


@dataclass(frozen=True)
class DegreeOfEquivalence:
    """A laboratory's deviation from the KCRV of one standard."""

    label: str
    standard: Standard
    d: float
    u_d: float


@dataclass(frozen=True)
class ConformityReport:
    """Residual chi-square of the estimates against the data.

    ``passed`` is ``q2 <= dof`` for ``dof > 0``.  With no degrees of
    freedom the estimates interpolate the data, so the report passes iff
    ``q2`` is zero up to :data:`ZERO_DOF_TIE_TOLERANCE`.
    """

    q2: float
    dof: int
    ratio: float | None
    passed: bool


@dataclass(frozen=True)
class LinkingResult:
    """Everything the linking analysis produces for one dataset."""

    dataset: ComparisonDataset
    aux: AuxQuantities
    kcrv: KcrvEstimate
    does: tuple[DegreeOfEquivalence, ...]
    conformity: ConformityReport
    warnings: tuple[str, ...]


def _bivariate_denominator(lab: LabResult) -> float | None:
    """The lab-kind rule shared by both walks over the labs.

    A linking lab with a nonzero covariance contributes one bivariate term
    with denominator ``u_a^2 * u_b^2 - cov_ab^2``, returned here.  Any other
    lab (``None``) contributes one univariate term per standard it
    measured; for a zero-covariance linking lab this keeps the uncorrelated
    reduction (independent weighted means) an identity rather than a limit.
    """
    cov = lab.covariance
    if not cov:
        return None
    den = (lab.u_a * lab.u_a) * (lab.u_b * lab.u_b) - cov * cov
    if not den > 0.0:
        # unreachable for validated labs (|cov| < u_a*u_b)
        raise InternalInconsistencyError(
            f"{lab.label}: singular covariance denominator"
        )
    return den


def compute_aux(dataset: ComparisonDataset) -> AuxQuantities:
    """Accumulate the five estimator sums over the dataset.

    Uses exactly rounded summation, so any permutation of the labs yields
    bit-identical results.  A weight term or sum beyond the float range
    (1 / u^2 or x / u^2 overflowing for a tiny u) is a
    :class:`ValidationError`.
    """
    t_a: list[float] = []
    t_b: list[float] = []
    t_c: list[float] = []
    t_s1: list[float] = []
    t_s2: list[float] = []
    try:
        for lab in dataset.labs:
            den = _bivariate_denominator(lab)
            if den is not None:
                cov, v_a, v_b = lab.covariance, lab.u_a * lab.u_a, lab.u_b * lab.u_b
                t_a.append(v_b / den)
                t_b.append(v_a / den)
                t_c.append(cov / den)
                t_s1.append((v_b * lab.value_a - cov * lab.value_b) / den)
                t_s2.append((v_a * lab.value_b - cov * lab.value_a) / den)
                continue
            if lab.in_group_a:
                v_a = lab.u_a * lab.u_a
                t_a.append(1.0 / v_a)
                t_s1.append(lab.value_a / v_a)
            if lab.in_group_b:
                v_b = lab.u_b * lab.u_b
                t_b.append(1.0 / v_b)
                t_s2.append(lab.value_b / v_b)
        sums = [fsum(terms) for terms in (t_a, t_b, t_c, t_s1, t_s2)]
    except (ZeroDivisionError, OverflowError, ValueError):
        # u * u underflowed to zero, a sum past the float range, or inf - inf
        sums = [inf]
    if not all(map(isfinite, sums)):
        raise ValidationError("the weight sums exceed the float range")
    return AuxQuantities(*sums)


def compute_kcrv(aux: AuxQuantities) -> KcrvEstimate:
    """Closed-form KCRVs, their uncertainties and their covariance.

    With a zero cross-weight the two groups decouple and the estimator is
    evaluated in its reduced form (two independent weighted means, exactly
    zero covariance), keeping group A results bit-identical under changes
    confined to group B and vice versa.
    """
    if aux.c == 0.0:
        return KcrvEstimate(
            y_hat_a=aux.s1 / aux.a,
            y_hat_b=aux.s2 / aux.b,
            u_a=1.0 / sqrt(aux.a),
            u_b=1.0 / sqrt(aux.b),
            cov_ab=0.0,
            r_tilde=0.0,
        )
    det = aux.det
    u_a = sqrt(aux.b / det)
    u_b = sqrt(aux.a / det)
    cov = aux.c / det
    return KcrvEstimate(
        y_hat_a=(aux.b * aux.s1 + aux.c * aux.s2) / det,
        y_hat_b=(aux.c * aux.s1 + aux.a * aux.s2) / det,
        u_a=u_a,
        u_b=u_b,
        cov_ab=cov,
        r_tilde=cov / (u_a * u_b),
    )


def _doe_uncertainty(label: str, u_x: float, u_y: float) -> float:
    """sqrt(u(x)^2 - u(y)^2), guarding the theoretically impossible sign.

    The estimator is a minimum-variance combination that includes x, hence
    u(y) <= u(x) for every lab in the dataset.  A tiny negative radicand
    from floating-point cancellation is treated as zero; anything beyond
    tolerance is an internal inconsistency, never silently clamped.  A
    u(x)^2 beyond the float range is a :class:`ValidationError`.
    """
    radicand = u_x * u_x - u_y * u_y
    if 0.0 <= radicand < inf:
        return sqrt(radicand)
    if radicand < 0.0:
        if radicand < -_RADICAND_RTOL * u_x * u_x:
            raise InternalInconsistencyError(
                f"{label}: KCRV uncertainty exceeds the reported uncertainty "
                f"(radicand {radicand})"
            )
        return 0.0
    raise ValidationError(f"{label}: the DOE variance exceeds the float range")


def compute_residuals(
    dataset: ComparisonDataset, kcrv: KcrvEstimate
) -> tuple[tuple[DegreeOfEquivalence, ...], ConformityReport]:
    """Degrees of equivalence and the residual chi-square, in one walk.

    The DOEs are one A entry per lab that measured A, then one B entry per
    lab that measured B, in input order: ``d = x - y_hat`` and
    ``u(d) = sqrt(u(x)^2 - u(y_hat)^2)``; the variances subtract because
    each result is itself part of the reference value, with covariance
    between them equal to the KCRV variance.

    q2 substitutes the estimates into the weighted sum of squared
    deviations; linking laboratories with a covariance contribute their
    full bivariate quadratic form.  The test passes when q2 does not exceed
    N - 2, the number of reported values minus the two estimated
    quantities.
    """
    does_a: list[DegreeOfEquivalence] = []
    does_b: list[DegreeOfEquivalence] = []
    terms: list[float] = []
    for lab in dataset.labs:
        den = _bivariate_denominator(lab)
        if lab.in_group_a:
            d_a = lab.value_a - kcrv.y_hat_a
            u_d = _doe_uncertainty(lab.label, lab.u_a, kcrv.u_a)
            does_a.append(DegreeOfEquivalence(lab.label, "A", d_a, u_d))
            if den is None:
                terms.append(d_a * d_a / (lab.u_a * lab.u_a))
        if lab.in_group_b:
            d_b = lab.value_b - kcrv.y_hat_b
            u_d = _doe_uncertainty(lab.label, lab.u_b, kcrv.u_b)
            does_b.append(DegreeOfEquivalence(lab.label, "B", d_b, u_d))
            if den is None:
                terms.append(d_b * d_b / (lab.u_b * lab.u_b))
        if den is not None:
            terms.append(
                (
                    d_a * d_a * (lab.u_b * lab.u_b)
                    - 2.0 * lab.covariance * d_a * d_b
                    + d_b * d_b * (lab.u_a * lab.u_a)
                )
                / den
            )
    try:
        q2 = fsum(terms)
    except (OverflowError, ValueError):  # a sum past the float range, inf - inf
        q2 = inf
    # a non-finite KCRV makes some d, and with it q2, non-finite as well
    if not isfinite(q2):
        raise ValidationError("the residual chi-square exceeds the float range")
    dof = dataset.n_total - 2
    if dof > 0:
        conformity = ConformityReport(q2, dof, q2 / dof, q2 <= dof)
    else:
        conformity = ConformityReport(q2, dof, None, q2 <= ZERO_DOF_TIE_TOLERANCE)
    return tuple(does_a + does_b), conformity


def posterior_density(y_a: float, y_b: float, kcrv: KcrvEstimate) -> float:
    """Posterior probability density of the two measurands at (y_a, y_b).

    The posterior is the bivariate Gaussian centred on the KCRVs with the
    KCRV covariance matrix.
    """
    one_minus_r2 = 1.0 - kcrv.r_tilde**2
    z_a = (y_a - kcrv.y_hat_a) / kcrv.u_a
    z_b = (y_b - kcrv.y_hat_b) / kcrv.u_b
    quad = z_a * z_a - 2.0 * kcrv.r_tilde * z_a * z_b + z_b * z_b
    norm = 2.0 * pi * kcrv.u_a * kcrv.u_b * sqrt(one_minus_r2)
    return exp(-quad / (2.0 * one_minus_r2)) / norm


def link(dataset: ComparisonDataset) -> LinkingResult:
    """Run the full analysis: sums, KCRVs, DOEs and conformity check."""
    aux = compute_aux(dataset)
    kcrv = compute_kcrv(aux)
    does, conformity = compute_residuals(dataset, kcrv)
    warnings = list(dataset.warnings)
    if conformity.dof == 0:
        warnings.append(
            "conformity test has no degrees of freedom (one laboratory per "
            "standard); the estimates interpolate the data"
        )
    return LinkingResult(
        dataset=dataset,
        aux=aux,
        kcrv=kcrv,
        does=does,
        conformity=conformity,
        warnings=tuple(warnings),
    )
