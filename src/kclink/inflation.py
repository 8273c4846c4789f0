"""Minimal uncertainty inflation to restore conformity.

When a dataset fails the chi-square conformity check, a standard remedy is
to question a single suspiciously small uncertainty claim and ask: what is
the smallest uncertainty for that laboratory at which the whole dataset
passes?  One leave-one-out rule answers it for every target.  The rest is
the dataset without the target's value for the inflated standard (a linking
target stays as an exclusive lab of the other standard); linking it once
gives KCRVs ``y0``, KCRV covariance ``V0`` and residual ``q0``.  Adding the
value back adds one scalar residual: ``q2(u) = q0 + eps(u)^2 / var(u)``,
where ``eps`` and ``var`` are linear and quadratic in ``u`` because the
target's correlation stays fixed.  So the boundary ``q2(u) = N - 2`` is
exactly a root of a quadratic in ``u``.  It is reported rounded up to
three significant digits and confirmed by one full re-analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

from .linking import LinkingResult, Standard, link
from .model import ComparisonDataset, KclinkError, validate_dataset

_SIGNIFICANT_DIGITS = 3


class InflationError(KclinkError):
    """The requested inflation target cannot produce a passing dataset."""


@dataclass(frozen=True)
class InflationResult:
    """Outcome of the minimal-inflation search.

    ``minimal_u`` is the value to report: the smallest uncertainty with
    three significant digits at which the dataset passes.  ``critical_u``
    is the exact pass/fail boundary (``minimal_u`` is ``critical_u``
    rounded up and confirmed by a full re-analysis; the rounding's backoff can
    leave it just below ``critical_u`` where the re-analysis passes).
    ``relinked`` is the full analysis at ``minimal_u``.
    """

    label: str
    standard: Standard
    original_u: float
    minimal_u: float
    critical_u: float
    relinked: LinkingResult


def _with_uncertainty(
    dataset: ComparisonDataset, label: str, standard: Standard, u: float
) -> ComparisonDataset:
    """The dataset with one lab's uncertainty replaced, as two column edits.

    For a linking laboratory with a reported covariance the correlation
    coefficient is held fixed, i.e. the covariance is rescaled in
    proportion to the new uncertainty.
    """
    index, row = dataset.index(label), "AB".index(standard)
    uncertainties, cov_ab = dataset.u.copy(), dataset.cov_ab.copy()
    cov_ab[index] = cov_ab[index].item() * (u / uncertainties[row, index].item())
    uncertainties[row, index] = u
    return validate_dataset(dataset.labels, dataset.x, uncertainties, cov_ab)


def _round_up_significant(x: float, digits: int) -> float:
    """Smallest number with ``digits`` significant digits that is >= x, less a
    backoff of about 1e-9 of the last digit's unit: 11.2000000001 gives 11.2."""
    if x <= 0.0:
        raise ValueError("expected a positive value")
    exponent = math.floor(math.log10(x))
    decimals = digits - 1 - exponent
    quantum = 10.0 ** (-decimals)
    # the tiny backoff keeps values already on the grid from being bumped up
    candidate = math.ceil(x / quantum - 1e-9) * quantum
    return round(candidate, decimals) if decimals > 0 else candidate


def _next_up_significant(x: float, digits: int) -> float:
    stepped = _round_up_significant(x, digits)
    if stepped > x:
        return stepped
    exponent = math.floor(math.log10(x))
    decimals = digits - 1 - exponent
    stepped = x + 10.0 ** (-decimals)
    return round(stepped, decimals) if decimals > 0 else stepped


def _nonnegative_intervals(a: float, b: float, c: float) -> list[tuple[float, float]]:
    """Where a*u^2 + b*u + c >= 0, as sorted intervals (cancellation-free roots)."""
    if a == 0.0:
        if b == 0.0:
            return [(-math.inf, math.inf)] if c >= 0.0 else []
        root = -c / b
        return [(root, math.inf)] if b > 0.0 else [(-math.inf, root)]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return [(-math.inf, math.inf)] if a > 0.0 else []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    lo, hi = sorted((q / a, c / q)) if q != 0.0 else (0.0, 0.0)
    return [(-math.inf, lo), (hi, math.inf)] if a > 0.0 else [(lo, hi)]


def _critical_u(dataset: ComparisonDataset, index: int, row: int, dof: int) -> float | None:
    """Smallest u >= the original at which q2(u) <= dof; None if none.

    The rest drops only the target's value ``x_s`` for the inflated
    standard s (row ``row`` of the columns); a linking target keeps its
    value ``x_o`` of the other standard o.  Given ``x_o``, the value ``x_s``
    adds one residual ``eps(u) = e_s - p u e_o`` with ``e = x - y0`` and
    ``p = r / u_o`` (``p = 0`` without a covariance), of variance
    ``var(u) = (1 - r^2) u^2 + V_ss - 2 p u V_so + p^2 u^2 V_oo``.  With
    ``k = dof - q0`` the data pass iff ``k var - eps^2 >= 0``, a quadratic
    in u.  The data fail at ``u0``, so the boundary is the first root above
    it, or ``u0`` itself when rounding puts it inside a passing interval.
    """
    if (dataset.card_a, dataset.card_b)[row] == 1:
        return None  # the target alone fixes this KCRV: q2 ignores u
    x, u, cov_ab = dataset.x.copy(), dataset.u.copy(), dataset.cov_ab.copy()
    x[row, index] = u[row, index] = cov_ab[index] = math.nan
    keep = (x == x).any(axis=0)  # all labs but a target left with no value
    loo = link(validate_dataset(compress(dataset.labels, keep.tolist()),
                                x[:, keep], u[:, keep], cov_ab[keep]))
    k = dof - loo.conformity.q2
    if not k > 0.0:
        return None

    kcrv = loo.kcrv
    y0 = kcrv.y_hat_a, kcrv.y_hat_b
    v0 = kcrv.u_a * kcrv.u_a, kcrv.u_b * kcrv.u_b
    xs, us = dataset.x[:, index].tolist(), dataset.u[:, index].tolist()
    covariance, other = dataset.cov[index].item(), 1 - row
    e_s, u0 = xs[row] - y0[row], us[row]
    p = r = e_o = v_oo = 0.0
    if covariance:
        r = covariance / (u0 * us[other])
        p, e_o, v_oo = r / us[other], xs[other] - y0[other], v0[other]
    alpha = k * (1.0 - r * r + p * p * v_oo) - p * p * (e_o * e_o)
    beta = 2.0 * p * (e_s * e_o - k * kcrv.cov_ab)
    gamma = k * v0[row] - e_s * e_s
    for lo, hi in _nonnegative_intervals(alpha, beta, gamma):
        if hi >= u0:
            return max(lo, u0)
    return None


def minimal_inflation(
    dataset: ComparisonDataset, label: str, standard: Standard
) -> InflationResult:
    """Find the smallest uncertainty for one lab that makes the data conform.

    ``critical_u`` is the exact boundary from one leave-one-out analysis
    (see the module docstring); ``minimal_u`` is that boundary rounded up
    to three significant digits, stepped up while a full re-analysis still
    fails.  A target that reported a covariance keeps its correlation
    coefficient fixed while the covariance rescales.

    Raises :class:`InflationError` if the lab did not measure the named
    standard or no uncertainty makes the dataset pass (the misfit is then
    not attributable to this laboratory).
    """
    if standard not in ("A", "B"):
        raise InflationError(f"unknown standard {standard!r} (expected 'A' or 'B')")
    try:
        index = dataset.index(label)
    except KeyError:
        raise InflationError(f"unknown laboratory label: {label}") from None
    row = "AB".index(standard)
    if not dataset.measured[row, index]:
        raise InflationError(f"{label} did not measure standard {standard}")
    original_u = dataset.u[row, index].item()

    baseline = link(dataset)
    if baseline.conformity.passed:
        return InflationResult(label, standard, original_u, minimal_u=original_u,
                               critical_u=original_u, relinked=baseline)

    critical_u = _critical_u(dataset, index, row, baseline.conformity.dof)
    if critical_u is None:
        raise InflationError(
            f"no uncertainty makes the dataset pass; the misfit is not "
            f"attributable to {label} (standard {standard})"
        )

    minimal_u = max(
        _round_up_significant(critical_u, _SIGNIFICANT_DIGITS), original_u
    )
    for _ in range(100):
        relinked = link(_with_uncertainty(dataset, label, standard, minimal_u))
        if relinked.conformity.passed:
            break
        minimal_u = _next_up_significant(minimal_u, _SIGNIFICANT_DIGITS)
    else:
        raise InflationError("could not settle on a rounded passing uncertainty")

    return InflationResult(label, standard, original_u, minimal_u=minimal_u,
                           critical_u=critical_u, relinked=relinked)
