"""Closed-form Bayesian estimator linking two key comparisons.

Given a validated :class:`~kclink.model.ComparisonDataset`, the engine
computes the two key comparison reference values (KCRVs) together with
their uncertainties and mutual covariance, per-laboratory degrees of
equivalence, and a chi-square conformity check of the estimates against
the data.

The estimator is the generalized-least-squares solution for two measurands
observed by partially overlapping groups of laboratories: with a constant
prior, the posterior for the pair of measurands is a bivariate Gaussian
whose mode and covariance have closed forms in five data-only sums.

Squares are written as products: ``x * x`` is correctly rounded, while
``x**2`` goes through the platform's ``pow``, which may be off by one unit
in the last place, and results would then no longer scale bit-exactly
under a power-of-two change of units.

The engine works on the dataset's float64 columns: :func:`compute_aux`
gives the five sums, which fix the KCRVs, and :func:`compute_residuals`
the degrees of equivalence and the chi-square from the residuals against
those KCRVs.  Each per-lab term is computed elementwise in the expression
order of its scalar formula, and each sum is ``math.fsum`` over the terms'
``.tolist()``.  NumPy's elementwise ``+ - * /`` and ``sqrt`` are correctly
rounded, as Python's float operations are, and ``fsum`` is exactly rounded
whatever the order of its terms: the results are the bits a per-lab Python
walk gives, and they do not depend on the order in which labs are listed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat, starmap
from math import exp, fsum, inf, isfinite, pi, sqrt
from typing import Iterator, Literal

import numpy as np

from .model import ComparisonDataset, InternalInconsistencyError, ValidationError

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
    """Everything the linking analysis produces for one dataset.

    The degrees of equivalence ``d`` and ``u_d`` are read-only columns
    shaped like ``dataset.x``: NaN where a lab did not measure a standard.
    ``does`` holds them as objects, built on first access.
    """

    dataset: ComparisonDataset
    aux: AuxQuantities
    kcrv: KcrvEstimate
    conformity: ConformityReport
    warnings: tuple[str, ...]
    d: np.ndarray = field(repr=False, compare=False)
    u_d: np.ndarray = field(repr=False, compare=False)

    def doe_rows(self) -> Iterator[tuple[str, Standard, float, float]]:
        """``(label, standard, d, u_d)`` per degree of equivalence: one A
        entry per lab that measured A, then one B entry per lab that
        measured B, in input order."""
        return chain.from_iterable(
            compress(zip(self.dataset.labels, repeat(standard), d, u_d), measured)
            for standard, measured, d, u_d in zip(
                "AB", self.dataset.measured.tolist(), self.d.tolist(),
                self.u_d.tolist())
        )

    @cached_property
    def does(self) -> tuple[DegreeOfEquivalence, ...]:
        return tuple(starmap(DegreeOfEquivalence, self.doe_rows()))


def _bivariate(dataset: ComparisonDataset) -> tuple[np.ndarray, ...]:
    """``u^2``, the mask of the labs with one bivariate term (a nonzero
    covariance) and its denominator ``u_a^2 * u_b^2 - cov_ab^2``.  Other
    labs add a univariate term per standard, so that for a zero-covariance
    linking lab the uncorrelated reduction is an identity, not a limit."""
    v = dataset.u * dataset.u
    return v, dataset.cov.astype(bool), v[0] * v[1] - dataset.cov * dataset.cov


def _term_sums(*terms: list[float]) -> list[float]:
    try:
        return [fsum(column) for column in terms]
    except (OverflowError, ValueError):  # a sum past the float range, inf - inf
        return [inf]


def compute_aux(dataset: ComparisonDataset) -> AuxQuantities:
    """Accumulate the five estimator sums over the dataset.

    Uses exactly rounded summation, so any permutation of the labs yields
    bit-identical results.  A weight term or sum beyond the float range
    (1 / u^2 or x / u^2 overflowing for a tiny u) is a
    :class:`ValidationError`, and so is a bivariate denominator that is not a
    positive finite float, or a weight determinant ``a*b - c^2`` not positive.
    """
    with np.errstate(all="ignore"):
        return _aux(dataset, *_bivariate(dataset))


def _aux(dataset: ComparisonDataset, v, bivariate, den) -> AuxQuantities:
    x, cov, measured = dataset.x, dataset.cov, dataset.measured
    singular = ((den > 0.0) & (den < inf)) < bivariate  # inf: a weight of zero
    if np.count_nonzero(singular):
        raise ValidationError(
            f"{dataset.labels[singular.argmax()]}: u_a^2*u_b^2 - cov_ab^2 is "
            "not a positive finite float (beyond the float range or precision)"
        )
    # a bivariate term, else a univariate one; the mask flattens A's, then B's
    w = np.where(bivariate, v[::-1] / den, np.reciprocal(v))[measured].tolist()
    s = np.where(bivariate, (v[::-1] * x - cov * x[::-1]) / den, x / v)[
        measured].tolist()
    n_a = dataset.card_a
    sums = _term_sums(w[:n_a], w[n_a:], (cov / den)[bivariate].tolist(),
                      s[:n_a], s[n_a:])
    if not all(map(isfinite, sums)):
        raise ValidationError("the weight sums exceed the float range")
    a, b, c = sums[:3]
    if not (a > 0.0 and b > 0.0 and a * b - c * c > 0.0):
        raise ValidationError(
            f"the weight sums are beyond the float range (a = {a}, b = {b}, "
            f"a*b - c^2 = {a * b - c * c})"
        )
    return AuxQuantities(*sums)


def compute_kcrv(aux: AuxQuantities) -> KcrvEstimate:
    """Closed-form KCRVs, their uncertainties and their covariance.

    With a zero cross-weight the two groups decouple and the estimator is
    evaluated in its reduced form (two independent weighted means, exactly
    zero covariance), keeping group A results bit-identical under changes
    confined to group B and vice versa.  A weight determinant beyond the
    float range is a :class:`ValidationError`.
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
    if det == inf:  # a*b overflows: the KCRV variances would round to zero
        raise ValidationError(
            f"the weight sums are beyond the float range (a = {aux.a}, "
            f"b = {aux.b}, a*b - c^2 = {det})"
        )
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


def _doe_uncertainty(dataset: ComparisonDataset, v: np.ndarray, v_y: np.ndarray):
    """sqrt(u(x)^2 - u(y)^2), guarding the theoretically impossible sign.

    The estimator is a minimum-variance combination that includes x, hence
    u(y) <= u(x) for every lab in the dataset.  A tiny negative radicand
    from floating-point cancellation is treated as zero; anything beyond
    tolerance is an internal inconsistency, never silently clamped, and a
    u(x)^2 beyond the float range a :class:`ValidationError`, for the first lab.
    """
    radicand = v - v_y
    u_d = np.sqrt(radicand)  # NaN where not measured
    if np.count_nonzero(np.isfinite(u_d)) == dataset.n_total:
        return u_d
    tolerated = (radicand >= -_RADICAND_RTOL * dataset.u * dataset.u) & (radicand < inf)
    failed = dataset.measured > tolerated
    lab = int(failed.any(axis=0).argmax())
    if not failed[:, lab].any():
        return np.sqrt(np.maximum(radicand, 0.0))
    row = 0 if failed[0, lab] else 1  # the A entry before the B entry
    value, label = float(radicand[row, lab]), dataset.labels[lab]
    if value < 0.0:
        raise InternalInconsistencyError(f"{label}: KCRV uncertainty exceeds the "
                                         f"reported uncertainty (radicand {value})")
    raise ValidationError(f"{label}: the DOE variance exceeds the float range")


def compute_residuals(
    dataset: ComparisonDataset, kcrv: KcrvEstimate
) -> tuple[np.ndarray, np.ndarray, ConformityReport]:
    """Degrees of equivalence and the residual chi-square.

    The DOEs ``d = x - y_hat`` and ``u(d) = sqrt(u(x)^2 - u(y_hat)^2)`` are
    read-only columns shaped like ``dataset.x``; the variances subtract
    because each result is itself part of the reference value, with
    covariance between them equal to the KCRV variance.

    q2 substitutes the estimates into the weighted sum of squared
    deviations; linking laboratories with a covariance contribute their
    full bivariate quadratic form.  The test passes when q2 does not exceed
    N - 2, the number of reported values minus the two estimated
    quantities.
    """
    with np.errstate(all="ignore"):
        return _residuals(dataset, kcrv, *_bivariate(dataset))


def _residuals(dataset: ComparisonDataset, kcrv: KcrvEstimate, v, bivariate, den):
    y = np.array((kcrv.y_hat_a, kcrv.u_a * kcrv.u_a, kcrv.y_hat_b, kcrv.u_b * kcrv.u_b)
                 ).reshape(2, 2)  # per standard: y_hat, u(y_hat)^2
    d = dataset.x - y[:, :1]
    u_d = _doe_uncertainty(dataset, v, y[:, 1:])
    dd = d * d
    # bivariate: (d_a d_a v_b - 2 cov d_a d_b + d_b d_b v_a) / den, 2 cov exactly
    ddv, cov = dd * v[::-1], dataset.cov
    [q2] = _term_sums((dd / v)[dataset.measured > bivariate].tolist() + (
        (ddv[0] - (cov + cov) * d[0] * d[1] + ddv[1]) / den)[bivariate].tolist())
    # a non-finite KCRV makes some d, and with it q2, non-finite as well
    if not isfinite(q2):
        raise ValidationError("the residual chi-square exceeds the float range")
    dof = dataset.n_total - 2
    if dof > 0:
        conformity = ConformityReport(q2, dof, q2 / dof, q2 <= dof)
    else:
        conformity = ConformityReport(q2, dof, None, q2 <= ZERO_DOF_TIE_TOLERANCE)
    d.flags.writeable = u_d.flags.writeable = False
    return d, u_d, conformity


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
    with np.errstate(all="ignore"):
        terms = _bivariate(dataset)
        aux = _aux(dataset, *terms)
        kcrv = compute_kcrv(aux)
        d, u_d, conformity = _residuals(dataset, kcrv, *terms)
    warnings = list(dataset.warnings)
    if conformity.dof == 0:
        warnings.append(
            "conformity test has no degrees of freedom (one laboratory per "
            "standard); the estimates interpolate the data"
        )
    return LinkingResult(dataset, aux, kcrv, conformity, tuple(warnings), d, u_d)
