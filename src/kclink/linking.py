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

One statistics pass (``_statistics``) is a function of (2, N) arrays: the
values ``x``, the variances ``v = u^2``, the covariances ``cov`` and the two
masks, ``measured`` and ``bivariate``, so it runs on inputs that no dataset
holds.  It gives the five sums (:func:`compute_aux`), which fix the KCRVs
(:func:`compute_kcrv`), the residuals and their chi-square; :func:`link` runs
it on the dataset's columns and masks and adds the degrees of equivalence and
the conformity verdict.  Copies of the masks with one ``measured`` entry and
its lab's ``bivariate`` cleared give the statistics of the dataset without
that value, bit for bit.  Each per-lab term is computed elementwise in the
expression order of its scalar formula, in which every ``+`` and ``*``
commutes when A and B are exchanged, and each sum is ``math.fsum`` reading
the term array's doubles through a ``memoryview`` of its buffer.
NumPy's elementwise ``+ - * /`` and ``sqrt`` are correctly rounded, as
Python's float operations are, and ``fsum`` is exactly rounded whatever
the order of its terms: the results are the bits a per-lab Python walk
gives, they do not depend on the order in which labs are listed, and
exchanging the two comparisons exchanges them (neither has priority).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat, starmap
from math import exp, fsum, inf, isfinite, pi, sqrt
from typing import Literal

import numpy as np

from .model import ComparisonDataset, InternalInconsistencyError, ValidationError

Standard = Literal["A", "B"]

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

    The one guard on the sums: each is finite, ``a`` and ``b`` are positive,
    and where ``c`` is nonzero (the one case in which :func:`compute_kcrv`
    divides by it) the weight determinant ``a*b - c^2`` is a positive finite
    float; otherwise the sums are a :class:`ValidationError`.
    """

    a: float
    b: float
    c: float
    s1: float
    s2: float

    def __post_init__(self) -> None:
        if not all(map(isfinite, (self.a, self.b, self.c, self.s1, self.s2))):
            raise ValidationError("the weight sums exceed the float range")
        if not (self.a > 0.0 and self.b > 0.0
                and (self.c == 0.0 or 0.0 < self.det < inf)):
            raise ValidationError(
                f"the weight sums are beyond the float range (a = {self.a}, "
                f"b = {self.b}, a*b - c^2 = {self.det})"
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

    ``passed`` is ``q2 <= dof`` with ``dof`` = N - 2, without exception.
    Two reported values (``dof`` 0) are fitted exactly by the two estimates,
    so their ``q2`` is 0 and they pass.
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
    ``does`` holds them as objects, built on first access.  The caveats on
    the analysis are the dataset's: ``dataset.warnings``.
    """

    dataset: ComparisonDataset
    aux: AuxQuantities
    kcrv: KcrvEstimate
    conformity: ConformityReport
    d: np.ndarray = field(repr=False, compare=False)
    u_d: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def does(self) -> tuple[DegreeOfEquivalence, ...]:
        """One A entry per lab that measured A, then one B entry per lab that
        measured B, in input order."""
        return tuple(starmap(DegreeOfEquivalence, chain.from_iterable(
            compress(zip(self.dataset.labels, repeat(standard), d, u_d), measured)
            for standard, measured, d, u_d in zip(
                "AB", self.dataset.measured.tolist(), self.d.tolist(),
                self.u_d.tolist()))))


def _term_sums(*terms: np.ndarray) -> list[float]:
    try:
        return [fsum(memoryview(column)) for column in terms]
    except (OverflowError, ValueError):  # a sum past the float range, inf - inf
        return [inf] * len(terms)


def compute_aux(dataset: ComparisonDataset) -> AuxQuantities:
    """The five estimator sums over the dataset, from the statistics pass.

    Uses exactly rounded summation, so any permutation of the labs yields
    bit-identical results.  A bivariate denominator that is not a positive
    finite float is a :class:`ValidationError` naming its lab; the sums then
    meet :class:`AuxQuantities`' one guard, so a weight term or sum beyond the
    float range (1 / u^2 or x / u^2 overflowing for a tiny u) is one too, and
    the pass's :func:`compute_kcrv` of them raises the KCRVs' invariant errors.
    """
    with np.errstate(all="ignore"):
        return _statistics(dataset.labels, dataset.x, dataset.u * dataset.u,
                           dataset.cov_ab, dataset.measured, dataset.bivariate)[0]


def compute_kcrv(aux: AuxQuantities) -> KcrvEstimate:
    """Closed-form KCRVs, their uncertainties and their covariance.

    With a zero cross-weight the two groups decouple and the estimator is
    evaluated in its reduced form (two independent weighted means, exactly
    zero covariance), keeping group A results bit-identical under changes
    confined to group B and vice versa.  Only the coupled form divides by
    the weight determinant, which :class:`AuxQuantities`' guard has made a
    positive finite float.
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


def _doe_uncertainty(labels, measured, v: np.ndarray, v_y: np.ndarray):
    """sqrt(u(x)^2 - u(y)^2), guarding the theoretically impossible sign.

    The estimator is a minimum-variance combination that includes x, hence
    u(y) <= u(x) for every lab in the dataset.  A tiny negative radicand
    from floating-point cancellation is treated as zero; anything beyond
    tolerance is an internal inconsistency, never silently clamped, and a
    u(x)^2 beyond the float range a :class:`ValidationError`, for the first lab.
    """
    radicand = v - v_y
    u_d = np.sqrt(radicand)  # NaN where not measured
    if np.count_nonzero(np.isfinite(u_d)) == np.count_nonzero(measured):
        return u_d
    tolerated = (radicand >= -_RADICAND_RTOL * v) & (radicand < inf)
    failed = measured > tolerated
    lab = int(failed.any(axis=0).argmax())
    if not failed[:, lab].any():
        return np.sqrt(np.maximum(radicand, 0.0))
    row = 0 if failed[0, lab] else 1  # the A entry before the B entry
    value, label = float(radicand[row, lab]), labels[lab]
    if value < 0.0:
        raise InternalInconsistencyError(f"{label}: KCRV uncertainty exceeds the "
                                         f"reported uncertainty (radicand {value})")
    raise ValidationError(f"{label}: the DOE variance exceeds the float range")


def _statistics(labels, x, v, cov, measured, bivariate):
    """``(aux, kcrv, d, q2)``: the five sums over the ``measured`` entries, the
    KCRVs, the residuals ``d = x - y_hat`` and their chi-square, from (2, N)
    values ``x`` and variances ``v = u^2``, and covariances ``cov``, NaN where
    not reported and read only where ``bivariate`` is set; the caller opens the
    ``np.errstate`` scope.  ``labels`` words the one error that names a lab.
    q2 is the weighted sum of squared residuals, a bivariate form for a lab in
    ``bivariate``; over two values, which the two estimates fit exactly, it is
    0 (inf if a KCRV is not finite).  :func:`link` checks it after its DOE guard.

    Given copies of a dataset's masks with one lab's ``measured`` entry for one
    standard and its ``bivariate`` cleared, the lab adds no term for that
    standard and univariate terms for any other, every other lab adds the terms
    it adds to the rest (the dataset without that value), and ``fsum`` is
    exactly rounded, so the results, and the errors up to the KCRVs, are the
    rest's ``link``'s, bit for bit.
    """
    den = v[0] * v[1] - cov * cov
    singular = ((den > 0.0) & (den < inf)) < bivariate  # inf: a weight of zero
    if np.count_nonzero(singular):
        raise ValidationError(
            f"{labels[singular.argmax()]}: u_a^2*u_b^2 - cov_ab^2 is "
            "not a positive finite float (beyond the float range or precision)"
        )
    # a bivariate term, else a univariate one; the mask flattens A's, then B's
    w = np.where(bivariate, v[::-1] / den, np.reciprocal(v))[measured]
    s = np.where(bivariate, (v[::-1] * x - cov * x[::-1]) / den, x / v)[measured]
    n_a = np.count_nonzero(measured[0])
    aux = AuxQuantities(*_term_sums(
        w[:n_a], w[n_a:], (cov / den)[bivariate], s[:n_a], s[n_a:]))
    kcrv = compute_kcrv(aux)
    d = x - np.array(((kcrv.y_hat_a,), (kcrv.y_hat_b,)))
    if len(w) == 2:  # an exact fit: a computed q2 is rounding noise growing with x/u
        q2 = 0.0 if isfinite(kcrv.y_hat_a) and isfinite(kcrv.y_hat_b) else inf
    else:  # bivariate: (d_a (d_a v_b - cov d_b) + d_b (d_b v_a - cov d_a)) / den
        dwd = d * (d * v[::-1] - cov * d[::-1])  # its two products
        [q2] = _term_sums(np.concatenate(((d * d / v)[measured > bivariate],
                                          ((dwd[0] + dwd[1]) / den)[bivariate])))
    return aux, kcrv, d, q2


def posterior_density(y_a: float, y_b: float, kcrv: KcrvEstimate) -> float:
    """Posterior probability density of the two measurands at (y_a, y_b).

    The posterior is the bivariate Gaussian centred on the KCRVs with the
    KCRV covariance matrix.
    """
    r = kcrv.r_tilde
    one_minus_r2 = 1.0 - r * r
    z_a = (y_a - kcrv.y_hat_a) / kcrv.u_a
    z_b = (y_b - kcrv.y_hat_b) / kcrv.u_b
    quad = z_a * z_a - 2.0 * r * z_a * z_b + z_b * z_b
    norm = 2.0 * pi * kcrv.u_a * kcrv.u_b * sqrt(one_minus_r2)
    return exp(-quad / (2.0 * one_minus_r2)) / norm


def link(dataset: ComparisonDataset) -> LinkingResult:
    """Run the full analysis: sums, KCRVs, DOEs and conformity check.

    The DOEs ``d = x - y_hat`` and ``u(d) = sqrt(u(x)^2 - u(y_hat)^2)`` are
    read-only columns shaped like ``dataset.x``; the variances subtract
    because each result is itself part of the reference value, with
    covariance between them equal to the KCRV variance.  The conformity check
    compares q2 with ``dof`` = N - 2 (N reported values, two estimates); a
    non-finite q2 is a :class:`ValidationError`.
    """
    with np.errstate(all="ignore"):
        v = dataset.u * dataset.u
        aux, kcrv, d, q2 = _statistics(dataset.labels, dataset.x, v, dataset.cov_ab,
                                       dataset.measured, dataset.bivariate)
        v_y = np.array(((kcrv.u_a * kcrv.u_a,), (kcrv.u_b * kcrv.u_b,)))  # u(y_hat)^2
        u_d = _doe_uncertainty(dataset.labels, dataset.measured, v, v_y)
    # a non-finite KCRV makes some d, and with it q2, non-finite as well
    if not isfinite(q2):
        raise ValidationError("the residual chi-square exceeds the float range")
    dof = dataset.n_total - 2
    conformity = ConformityReport(q2, dof, q2 / dof if dof else None, q2 <= dof)
    d.flags.writeable = u_d.flags.writeable = False
    return LinkingResult(dataset, aux, kcrv, conformity, d, u_d)
