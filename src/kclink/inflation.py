"""Minimal uncertainty inflation to restore conformity.

When a dataset fails the chi-square conformity check, a standard remedy is
to question a single suspiciously small uncertainty claim and ask: what is
the smallest uncertainty for that laboratory at which the whole dataset
passes?  One leave-one-out rule answers it for every target.  The rest is
the dataset without the target's value for the inflated standard (a linking
target stays as an exclusive lab of the other standard).  One statistics
pass on the dataset's arrays, with that value's ``measured`` entry and the
target's ``bivariate`` cleared in copies of the masks, gives the rest's KCRVs
``y0``, KCRV covariance ``V0`` and residual ``q0``: bit for bit those of
linking the rest, with no dataset built.  The search starts from
:func:`~kclink.linking.link` of the data: data that ``link`` rejects raise
its error, data that pass are their own answer, and failing data make one
more full analysis, the confirming one.  Adding the value back adds one
scalar residual: ``q2(u) = q0 + eps(u)^2 / var(u)``, where ``eps`` and
``var`` are linear and quadratic in ``u`` because the target's correlation
stays fixed.  So the boundary ``q2(u) = N - 2`` is exactly a root of a
quadratic in ``u``.  It is reported rounded up to three significant digits
and confirmed by one full re-analysis.  That grid is exact decimal at every
scale: the gauge block in units 1e26 times smaller reports 1.12e27 where it
reports 11.2, and a boundary beyond the float range is raised by the grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import ROUND_CEILING, Context, Decimal

import numpy as np

from .linking import LinkingResult, Standard, _statistics, link
from .model import ComparisonDataset, KclinkError, ValidationError, validate_dataset

_BEYOND_FLOAT_RANGE = "the inflation boundary is beyond the float range"


class InflationError(KclinkError):
    """The requested inflation target cannot produce a passing dataset."""


@dataclass(frozen=True)
class InflationResult:
    """Outcome of the minimal-inflation search.

    ``minimal_u`` is the value to report: the smallest uncertainty with
    three significant digits at which the dataset passes, on an exact decimal
    grid at every scale (1.12e27, not 1.1200000000000001e27, for the gauge
    block in units 1e26 times smaller).  ``critical_u`` is the exact pass/fail
    boundary (``minimal_u`` is ``critical_u`` rounded up and confirmed by a
    full re-analysis; the rounding's backoff can leave it just below
    ``critical_u`` where the re-analysis passes).
    ``relinked`` is the full analysis at ``minimal_u``.
    """

    label: str
    standard: Standard
    original_u: float
    minimal_u: float
    critical_u: float
    relinked: LinkingResult


def _with_uncertainty(dataset: ComparisonDataset, index: int, row: int,
                      u: float) -> ComparisonDataset:
    """The dataset with lab ``index``'s uncertainty in row ``row`` of the
    columns replaced, as two column edits.

    For a linking laboratory with a reported covariance the correlation
    coefficient is held fixed, i.e. the covariance is rescaled in
    proportion to the new uncertainty.
    """
    uncertainties, cov_ab = dataset.u.copy(), dataset.cov_ab.copy()
    cov_ab[index] = cov_ab[index].item() * (u / uncertainties[row, index].item())
    uncertainties[row, index] = u
    return validate_dataset(dataset.labels, dataset.x, uncertainties, cov_ab)


def _three_digit_grid(x: float) -> Iterator[float]:
    """The numbers with three significant digits from x up, in exact decimal.

    The first is x's decimal ``repr`` rounded up less a backoff of 1e-9 of its
    third digit's unit, so 11.2000000001 gives 11.2; each next one adds a unit
    of the current third digit: 9.99, 10.0, 10.1.  A non-finite x, or a number
    past the float range, is a :class:`ValidationError`.
    """
    if not math.isfinite(x):
        raise ValidationError(_BEYOND_FLOAT_RANGE)
    context = Context(prec=20)  # exact: a repr has at most 17 digits
    value = Decimal(repr(x))
    unit = Decimal(1).scaleb(value.adjusted() - 2)
    value = context.subtract(value, unit.scaleb(-9)).quantize(unit, ROUND_CEILING, context)
    while float(value) < math.inf:
        yield float(value)
        value = context.add(value, Decimal(1).scaleb(value.adjusted() - 2))
    raise ValidationError(_BEYOND_FLOAT_RANGE)


def _nonnegative_intervals(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """Where a*u^2 + b*u + c >= 0, as sorted intervals (cancellation-free roots)."""
    if a == 0.0:
        if b == 0.0:
            return [(-math.inf, math.inf)] if c >= 0.0 else []
        root = -c / b
        return [(root, math.inf)] if b > 0.0 else [(-math.inf, root)]
    disc = b * b - 4.0 * a * c
    if not math.isfinite(disc):
        raise ValidationError(_BEYOND_FLOAT_RANGE)
    if disc < 0.0:
        return [(-math.inf, math.inf)] if a > 0.0 else []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    lo, hi = sorted((q / a, c / q)) if q != 0.0 else (0.0, 0.0)
    return [(-math.inf, lo), (hi, math.inf)] if a > 0.0 else [(lo, hi)]


def _critical_u(dataset: ComparisonDataset, index: int, row: int, dof: int) -> float | None:
    """Smallest u >= the original at which q2(u) <= dof; None if none.

    The rest drops only the target's value ``x_s`` for the inflated standard s
    (row ``row`` of the columns); a linking target keeps its value ``x_o`` of
    the other standard o.  Its ``y0``, ``V0``, ``q0`` and residuals
    ``e = x - y0`` come from the statistics pass on the dataset's ``x``,
    ``u^2`` and ``cov_ab`` with ``measured[row, index]`` and ``bivariate[index]``
    cleared in copies of the masks: the rest's ``link`` bit for bit, with no
    dataset built, no validation and no DOEs.  Given ``x_o``, the value ``x_s``
    adds one residual ``eps(u) = e_s - p u e_o`` with ``p = r / u_o``
    (``p = 0`` without a covariance), of variance
    ``var(u) = (1 - r^2) u^2 + V_ss - 2 p u V_so + p^2 u^2 V_oo``.  With
    ``k = dof - q0`` the data pass iff ``k var - eps^2 >= 0``, a quadratic in
    u.  The data fail at ``u0``, so the boundary is the first root above it,
    or ``u0`` itself when rounding puts it inside a passing interval.

    u is in units of a power of two near ``max(|e_s|, sqrt(V_ss))``; dividing
    ``e_s``, ``sqrt(V_ss)`` and ``V_so`` by it is exact and keeps squares in range.
    """
    if (dataset.card_a, dataset.card_b)[row] == 1:
        return None  # the target alone fixes this KCRV: q2 ignores u
    measured, bivariate = dataset.measured.copy(), dataset.bivariate.copy()
    measured[row, index] = bivariate[index] = False
    with np.errstate(all="ignore"):
        _, kcrv, e, q0 = _statistics(dataset.labels, dataset.x, dataset.u * dataset.u,
                                     dataset.cov_ab, measured, bivariate)
    if not math.isfinite(q0):
        raise ValidationError(f"the residual chi-square of the data without "
                              f"{dataset.labels[index]}'s standard-{'AB'[row]} value "
                              "exceeds the float range")
    k = dof - q0  # the rest has one value less
    if not k > 0.0:
        return None

    u_y = kcrv.u_a, kcrv.u_b
    es, us = e[:, index].tolist(), dataset.u[:, index].tolist()
    e_s, u0, other = es[row], us[row], 1 - row
    p = r = e_o = v_oo = 0.0
    if dataset.bivariate[index]:
        r = dataset.cov_ab[index].item() / (u0 * us[other])
        p, e_o, v_oo = r / us[other], es[other], u_y[other] * u_y[other]
    unit = 2.0 ** (math.frexp(max(abs(e_s), u_y[row]))[1] - 1)
    e_s, u_s = e_s / unit, u_y[row] / unit
    alpha = k * (1.0 - r * r + p * p * v_oo) - p * p * (e_o * e_o)
    beta = 2.0 * p * (e_s * e_o - k * (kcrv.cov_ab / unit))
    gamma = k * (u_s * u_s) - e_s * e_s
    for lo, hi in _nonnegative_intervals(alpha, beta, gamma):
        if hi * unit >= u0:
            return max(lo * unit, u0)
    return None


def minimal_inflation(
    dataset: ComparisonDataset, label: str, standard: Standard
) -> InflationResult:
    """Find the smallest uncertainty for one lab that makes the data conform.

    ``critical_u`` is the exact boundary from one leave-one-out statistics
    pass (see the module docstring); ``minimal_u`` is that boundary rounded up
    to three significant digits, stepped up while a full re-analysis still
    fails.  A target that reported a covariance keeps its correlation
    coefficient fixed while the covariance rescales.

    Raises :class:`InflationError` if the lab did not measure the named
    standard or no uncertainty makes the dataset pass (the misfit is then
    not attributable to this laboratory), the error of :func:`link` if it
    rejects the data, and :class:`ValidationError` if the boundary, or the
    chi-square of the data without the target's value, is beyond the float
    range.
    """
    if standard not in ("A", "B"):
        raise InflationError(f"unknown standard {standard!r} (expected 'A' or 'B')")
    try:
        index = dataset.labels.index(label)
    except ValueError:
        raise InflationError(f"unknown laboratory label: {label}") from None
    row = "AB".index(standard)
    if not dataset.measured[row, index]:
        raise InflationError(f"{label} did not measure standard {standard}")
    original_u = dataset.u[row, index].item()

    original = link(dataset)
    if original.conformity.passed:
        return InflationResult(label, standard, original_u, minimal_u=original_u,
                               critical_u=original_u, relinked=original)

    critical_u = _critical_u(dataset, index, row, original.conformity.dof)
    if critical_u is None:
        raise InflationError(
            f"no uncertainty makes the dataset pass; the misfit is not "
            f"attributable to {label} (standard {standard})"
        )
    for _, minimal_u in zip(range(100), _three_digit_grid(critical_u)):
        minimal_u = max(minimal_u, original_u)  # the backoff may round below it
        relinked = link(_with_uncertainty(dataset, index, row, minimal_u))
        if relinked.conformity.passed:
            break
    else:
        raise InflationError("could not settle on a rounded passing uncertainty")

    return InflationResult(label, standard, original_u, minimal_u=minimal_u,
                           critical_u=critical_u, relinked=relinked)
