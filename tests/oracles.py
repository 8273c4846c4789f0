"""Independent numerical cross-checks for the linking estimator.

Everything here is computed directly from the raw laboratory data, on
purpose *not* reusing the production formulas: the weighted-deviation
objective is written in correlation-coefficient form and evaluated with
numpy, minimised by an iterative dense grid search, and differentiated by
finite differences.  Sums mirroring the estimator's five auxiliary
quantities are accumulated naively (plain ``sum``) in reversed lab order.
The minimal-inflation reference re-validates and re-links the whole
dataset at every trial uncertainty and bisects the pass/fail crossings;
``exact_q2`` evaluates q2 at a trial uncertainty in ``Fraction``
arithmetic, which is exact for float inputs.
The reference dataset is the earlier per-lab validation: a ``LabResult``
per row, then the dataset-wide checks, with the columns built from the
labs by ``np.fromiter``.
The reference link is the estimator's earlier per-lab form: one Python
walk over the ``LabResult`` objects for the five sums and one for the
degrees of equivalence and q2, building a ``DegreeOfEquivalence`` per
reported value.  The report references build the JSON report as a nested
dict handed to ``json.dumps``, render the text table from ``does`` objects,
round with a fresh ``Decimal`` context per value and write plot data and
CSV dataset files through ``csv.writer``.  The synthetic-data reference simulates
one laboratory at a time with its own ``SeedSequence`` and
``Generator(Philox(...))``, draws with ``Generator.integers`` and reduces
with 1-D ``np.mean``/``np.sum``; the seed's entropy pool is NumPy's
``SeedSequence`` mixing written out in Python ints.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import replace
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from itertools import chain
from math import fsum, inf, isfinite, nan, sqrt
from typing import NamedTuple

import numpy as np

from kclink.io import parse_number
from kclink.linking import (
    _RADICAND_RTOL,
    AuxQuantities,
    ConformityReport,
    DegreeOfEquivalence,
    KcrvEstimate,
    LinkingResult,
    compute_kcrv,
)
from kclink.model import (
    ComparisonDataset,
    InternalInconsistencyError,
    LabResult,
    ValidationError,
)
from kclink.version import __version__


def chi_square(dataset: ComparisonDataset, y_a, y_b):
    """Weighted sum of squared deviations at candidate measurand values.

    ``y_a`` and ``y_b`` may be scalars or broadcastable numpy arrays.
    """
    y_a = np.asarray(y_a, dtype=float)
    y_b = np.asarray(y_b, dtype=float)
    total = np.zeros(np.broadcast(y_a, y_b).shape)
    for lab in dataset.labs:
        if lab.is_linking:
            r = lab.covariance / (lab.u_a * lab.u_b)
            z_a = (y_a - lab.value_a) / lab.u_a
            z_b = (y_b - lab.value_b) / lab.u_b
            total = total + (z_a**2 - 2.0 * r * z_a * z_b + z_b**2) / (1.0 - r**2)
        elif lab.in_group_a:
            total = total + ((y_a - lab.value_a) / lab.u_a) ** 2
        else:
            total = total + ((y_b - lab.value_b) / lab.u_b) ** 2
    return total if total.shape else float(total)


def minimize_chi_square(
    dataset: ComparisonDataset,
    grid: int = 41,
    max_rounds: int = 200,
) -> tuple[float, float, float]:
    """Locate the chi-square minimum by iterative dense grid refinement.

    Returns ``(y_a, y_b, cell)`` where ``cell`` is the final grid spacing,
    i.e. the oracle's resolution.  Refinement stops once a grid step no
    longer changes the objective by more than its floating-point noise:
    around the minimum one step changes chi-square by about
    ``(cell / u)^2``, which must stay above ``eps * chi_square`` for the
    argmin to mean anything, giving a resolvable cell size of roughly
    ``8 * u * sqrt(eps * chi_square)``.  The start box generously covers
    all data.
    """
    values = [lab.value_a for lab in dataset.labs if lab.in_group_a]
    values += [lab.value_b for lab in dataset.labs if lab.in_group_b]
    u_max = max(
        max((lab.u_a for lab in dataset.labs if lab.in_group_a), default=0.0),
        max((lab.u_b for lab in dataset.labs if lab.in_group_b), default=0.0),
    )
    # the estimate's per-axis scale is bounded by the smallest reported
    # uncertainty on that axis; the soft direction of the quadratic valley
    # couples both axes, so the resolvable cell uses their norm
    u_min_a = min(lab.u_a for lab in dataset.labs if lab.in_group_a)
    u_min_b = min(lab.u_b for lab in dataset.labs if lab.in_group_b)
    u_floor = float(np.hypot(u_min_a, u_min_b))
    center_a = center_b = 0.5 * (min(values) + max(values))
    half = 0.5 * (max(values) - min(values)) + 20.0 * u_max + 1.0

    half_a = half_b = half
    eps = np.finfo(float).eps
    resolution = 2.0 * half / (grid - 1)
    for _ in range(max_rounds):
        grid_a = np.linspace(center_a - half_a, center_a + half_a, grid)
        grid_b = np.linspace(center_b - half_b, center_b + half_b, grid)
        mesh_a, mesh_b = np.meshgrid(grid_a, grid_b, indexing="ij")
        chi = chi_square(dataset, mesh_a, mesh_b)
        i, j = np.unravel_index(np.argmin(chi), chi.shape)
        center_a, center_b = float(grid_a[i]), float(grid_b[j])
        chi_min = float(chi[i, j])
        # resolution of the grid that produced the current center
        resolution = max(2.0 * half_a, 2.0 * half_b) / (grid - 1)
        if i in (0, grid - 1) or j in (0, grid - 1):
            half_a *= 3.0
            half_b *= 3.0
            continue
        noise_floor = 8.0 * u_floor * np.sqrt(eps * max(chi_min, 1.0))
        if resolution <= 10.0 * noise_floor:
            break
        half_a = 2.0 * (2.0 * half_a / (grid - 1))
        half_b = 2.0 * (2.0 * half_b / (grid - 1))
    return center_a, center_b, resolution


def covariance_from_hessian(
    dataset: ComparisonDataset, y_a: float, y_b: float
) -> np.ndarray:
    """Covariance matrix as the inverse of half the chi-square Hessian.

    The Hessian is taken by central finite differences at ``(y_a, y_b)``;
    since the objective is exactly quadratic the step size only needs to
    beat roundoff.
    """
    u_min = min(
        min((lab.u_a for lab in dataset.labs if lab.in_group_a), default=np.inf),
        min((lab.u_b for lab in dataset.labs if lab.in_group_b), default=np.inf),
    )
    h = 0.3 * u_min

    def f(da: float, db: float) -> float:
        return chi_square(dataset, y_a + da, y_b + db)

    h11 = (f(h, 0) - 2.0 * f(0, 0) + f(-h, 0)) / h**2
    h22 = (f(0, h) - 2.0 * f(0, 0) + f(0, -h)) / h**2
    h12 = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h**2)
    half_hessian = 0.5 * np.array([[h11, h12], [h12, h22]])
    det = half_hessian[0, 0] * half_hessian[1, 1] - half_hessian[0, 1] ** 2
    return (
        np.array(
            [
                [half_hessian[1, 1], -half_hessian[0, 1]],
                [-half_hessian[0, 1], half_hessian[0, 0]],
            ]
        )
        / det
    )


def correlation_form_sums(
    dataset: ComparisonDataset, with_scales: bool = False
):
    """The five estimator sums written with correlation coefficients.

    Exclusive labs contribute plain inverse-variance terms; a linking lab
    with correlation r contributes terms scaled by 1/(1 - r^2).  Summation
    is naive (plain ``+``) over the labs in reversed input order.  With
    ``with_scales`` the per-sum totals of absolute single-lab
    contributions are returned as well, as the natural magnitude against
    which to compare two algebraically equal routes.
    """
    sums = [0.0] * 5
    scales = [0.0] * 5

    def add(index: int, term: float) -> None:
        sums[index] += term
        scales[index] += abs(term)

    for lab in reversed(dataset.labs):
        if lab.is_linking:
            r = lab.covariance / (lab.u_a * lab.u_b)
            k = 1.0 / (1.0 - r * r)
            add(0, k / lab.u_a**2)
            add(1, k / lab.u_b**2)
            add(2, k * r / (lab.u_a * lab.u_b))
            add(3, k * (
                lab.value_a / lab.u_a**2
                - r * lab.value_b / (lab.u_a * lab.u_b)
            ))
            add(4, k * (
                lab.value_b / lab.u_b**2
                - r * lab.value_a / (lab.u_a * lab.u_b)
            ))
        elif lab.in_group_a:
            add(0, 1.0 / lab.u_a**2)
            add(3, lab.value_a / lab.u_a**2)
        else:
            add(1, 1.0 / lab.u_b**2)
            add(4, lab.value_b / lab.u_b**2)
    if with_scales:
        return tuple(sums), tuple(scales)
    return tuple(sums)


def random_dataset(rng: np.random.Generator, max_labs: int = 8):
    """A small random comparison dataset for oracle sweeps.

    Layout counts are drawn until each standard has at least one lab and
    the total lab count lies in [2, max_labs].  Values cluster around a
    common offset (as real comparisons do), uncertainties span two orders
    of magnitude, and linking correlations stay within +/- 0.95.
    """
    from kclink.model import LabResult, validate_dataset

    while True:
        n_a = int(rng.integers(0, 4))
        n_link = int(rng.integers(0, 4))
        n_b = int(rng.integers(0, 4))
        total = n_a + n_link + n_b
        if n_a + n_link >= 1 and n_b + n_link >= 1 and 2 <= total <= max_labs:
            break
    offset_a = rng.uniform(-200.0, 200.0)
    offset_b = rng.uniform(-200.0, 200.0)

    def value(offset: float) -> float:
        return float(offset + rng.normal(0.0, 30.0))

    def uncertainty() -> float:
        return float(10.0 ** rng.uniform(-0.5, 1.5))

    labs = []
    index = 0
    for _ in range(n_a):
        index += 1
        labs.append(LabResult(f"R{index:02d}", value_a=value(offset_a),
                              u_a=uncertainty()))
    for _ in range(n_link):
        index += 1
        u_a = uncertainty()
        u_b = uncertainty()
        r = float(rng.uniform(-0.95, 0.95))
        labs.append(
            LabResult(
                f"R{index:02d}",
                value_a=value(offset_a), u_a=u_a,
                value_b=value(offset_b), u_b=u_b,
                cov_ab=r * u_a * u_b,
            )
        )
    for _ in range(n_b):
        index += 1
        labs.append(LabResult(f"R{index:02d}", value_b=value(offset_b),
                              u_b=uncertainty()))
    return validate_dataset(labs)


class BisectedInflation(NamedTuple):
    """Reference inflation search result (see :func:`bisect_minimal_inflation`)."""

    critical_u: float | None
    minimal_u: float | None
    crossings: tuple[tuple[float, bool], ...]


def bisect_minimal_inflation(
    dataset: ComparisonDataset,
    label: str,
    standard: str,
    digits: int = 3,
    per_octave: int = 16,
    octaves: int = 16,
) -> BisectedInflation:
    """Minimal inflation found by re-validating and re-linking every trial.

    Each trial rebuilds the labs with the target's uncertainty replaced
    (its correlation coefficient held fixed) and runs the full
    ``validate_dataset`` + ``link``.  A geometric scan of
    ``[u0, 2**octaves * u0]`` with ``per_octave`` points per octave finds
    the pass/fail crossings, and each is bisected to a relative width of
    1e-13.  ``crossings`` lists them as ``(u, passes_above)``.

    ``critical_u`` is the first fail-to-pass crossing and ``minimal_u`` is
    it rounded up (in decimal) to ``digits`` significant digits, stepped
    up while the data still fail; both are None when no scanned
    uncertainty passes, and ``minimal_u`` is None when no rounded value
    within 100 steps passes.
    """
    from decimal import ROUND_CEILING, Decimal

    from kclink.linking import link
    from kclink.model import validate_dataset

    target = dataset.lab(label)
    u0 = target.u_a if standard == "A" else target.u_b
    u_other = target.u_b if standard == "A" else target.u_a
    r = 0.0 if target.cov_ab is None else target.cov_ab / (target.u_a * target.u_b)

    def passes(u: float) -> bool:
        fields = {"u_a": u} if standard == "A" else {"u_b": u}
        if target.cov_ab is not None:
            fields["cov_ab"] = r * u * u_other
        labs = [
            replace(lab, **fields) if lab.label == label else lab
            for lab in dataset.labs
        ]
        return link(validate_dataset(labs)).conformity.passed

    def bisect(lo: float, hi: float, passes_lo: bool) -> float:
        # the returned end lies on the far side of the crossing
        while hi - lo > 1e-13 * hi:
            mid = 0.5 * (lo + hi)
            if passes(mid) == passes_lo:
                lo = mid
            else:
                hi = mid
        return hi

    grid = [u0 * 2.0 ** (k / per_octave) for k in range(octaves * per_octave + 1)]
    verdicts = [passes(u) for u in grid]
    crossings = tuple(
        (bisect(lo, hi, before), not before)
        for lo, hi, before, after in zip(grid, grid[1:], verdicts, verdicts[1:])
        if before != after
    )
    rising = [u for u, passes_above in crossings if passes_above]
    if not rising:
        return BisectedInflation(None, None, crossings)
    critical_u = rising[0]

    def quantum(value: Decimal) -> Decimal:
        return Decimal(1).scaleb(value.adjusted() - digits + 1)

    rounded = Decimal(repr(critical_u))
    rounded = rounded.quantize(quantum(rounded), rounding=ROUND_CEILING)
    for _ in range(100):
        if passes(float(rounded)):
            return BisectedInflation(critical_u, float(rounded), crossings)
        rounded += quantum(rounded)
        rounded = rounded.quantize(quantum(rounded))
    return BisectedInflation(critical_u, None, crossings)


def exact_q2(
    dataset: ComparisonDataset, label: str, standard: str, u: float
) -> Fraction:
    """The exact q2 with one lab's uncertainty for ``standard`` set to ``u``.

    The target's correlation coefficient is held fixed, so its covariance
    becomes ``cov * u / u0``.  Each lab contributes its inverse covariance
    matrix to the 2x2 normal equations, which are solved exactly; q2 is
    the weighted sum of squared residuals at that solution.
    """
    normal = [[Fraction(0)] * 2 for _ in range(2)]
    rhs = [Fraction(0)] * 2
    observations = []
    for lab in dataset.labs:
        x = [lab.value_a, lab.value_b]
        var = [None if v is None else Fraction(v) ** 2 for v in (lab.u_a, lab.u_b)]
        cov = Fraction(lab.covariance)
        if lab.label == label:
            row = 0 if standard == "A" else 1
            scale = Fraction(u) / Fraction(lab.u_a if row == 0 else lab.u_b)
            var[row] *= scale * scale
            cov *= scale
        seen = [i for i in (0, 1) if x[i] is not None]
        if len(seen) == 2:
            det = var[0] * var[1] - cov * cov
            weight = {(0, 0): var[1] / det, (1, 1): var[0] / det,
                      (0, 1): -cov / det, (1, 0): -cov / det}
        else:
            weight = {(seen[0], seen[0]): 1 / var[seen[0]]}
        for (i, j), w in weight.items():
            normal[i][j] += w
            rhs[i] += w * Fraction(x[j])
        observations.append((x, weight))
    det = normal[0][0] * normal[1][1] - normal[0][1] * normal[1][0]
    y = [(normal[1][1] * rhs[0] - normal[0][1] * rhs[1]) / det,
         (normal[0][0] * rhs[1] - normal[1][0] * rhs[0]) / det]
    return sum(
        w * (Fraction(x[i]) - y[i]) * (Fraction(x[j]) - y[j])
        for x, weight in observations for (i, j), w in weight.items()
    )


def columns(labs) -> tuple:
    """``(labels, x, u, cov_ab)`` of a dataset of these labs, NaN for None,
    one Python walk per column."""
    def row(name):
        return [nan if getattr(lab, name) is None else getattr(lab, name)
                for lab in labs]

    return (tuple(lab.label for lab in labs),
            np.array([row("value_a"), row("value_b")]).reshape(2, -1),
            np.array([row("u_a"), row("u_b")]).reshape(2, -1),
            np.array(row("cov_ab")))


class ReferenceDataset(NamedTuple):
    labels: tuple
    x: np.ndarray
    u: np.ndarray
    cov_ab: np.ndarray
    only_a: tuple
    only_b: tuple
    linking: tuple
    warnings: tuple
    labs: tuple


def reference_dataset(rows):
    """A dataset as the per-lab path validated it, from ``(label, x_a, u_a,
    x_b, u_b, cov_ab)`` rows: each row in input order becomes a
    ``LabResult`` (string cells through ``parse_number``, as the readers
    did, and the first failing check raising), then the whole dataset is
    checked and partitioned, and its columns come from ``np.fromiter``.

    Returns a :class:`ReferenceDataset`; ``(i, message)`` when row ``i``
    fails; or ``(None, message)`` when the dataset as a whole does.
    """
    labs = []
    for i, (label, *cells) in enumerate(rows):
        try:
            labs.append(LabResult(label, *[
                parse_number(c) if isinstance(c, str) else c for c in cells]))
        except (ValueError, ValidationError) as exc:
            return i, str(exc)
    if not labs:
        return None, "dataset contains no laboratories"
    seen, groups = set(), {"a": [], "b": [], "link": []}
    for lab in labs:
        if lab.label in seen:
            return None, f"duplicate laboratory label: {lab.label}"
        seen.add(lab.label)
        groups["link" if lab.is_linking else "a" if lab.in_group_a else "b"].append(lab)
    if not groups["a"] and not groups["link"]:
        return None, "no laboratory measured standard A"
    if not groups["b"] and not groups["link"]:
        return None, "no laboratory measured standard B"
    warnings = []
    if not groups["link"]:
        warnings.append("no linking laboratories: the two comparisons are analysed "
                        "as independent weighted means")
    else:
        unreported = [lab.label for lab in groups["link"] if lab.cov_ab is None]
        if unreported:
            warnings.append("covariance not reported by linking laboratories "
                            f"({', '.join(unreported)}); treated as zero")
        if all(lab.covariance == 0.0 for lab in groups["link"]):
            warnings.append("all linking covariances are zero or absent: the linking "
                            "degenerates to independent per-group weighted means")
    if sum(lab.in_group_a + lab.in_group_b for lab in labs) == 2:
        warnings.append("conformity test has no degrees of freedom (one laboratory per "
                        "standard); the estimates interpolate the data")
    block = np.fromiter(chain.from_iterable(
        (lab.value_a, lab.value_b, lab.u_a, lab.u_b, lab.cov_ab) for lab in labs),
        float, 5 * len(labs)).reshape(len(labs), 5).T
    labels = tuple(lab.label for lab in labs)
    return ReferenceDataset(
        labels, block[:2], block[2:4], block[4],
        *(tuple(lab.label for lab in groups[key]) for key in ("a", "b", "link")),
        tuple(warnings), tuple(labs))


class ReferenceLink(NamedTuple):
    """The fields of a ``LinkingResult`` that the report references read."""

    dataset: ComparisonDataset
    aux: AuxQuantities
    kcrv: KcrvEstimate
    does: tuple[DegreeOfEquivalence, ...]
    conformity: ConformityReport


def _bivariate_denominator(lab: LabResult) -> float | None:
    cov = lab.covariance
    if not cov:
        return None
    den = (lab.u_a * lab.u_a) * (lab.u_b * lab.u_b) - cov * cov
    if not den > 0.0:
        raise InternalInconsistencyError(
            f"{lab.label}: singular covariance denominator"
        )
    return den


def _reference_aux(dataset: ComparisonDataset) -> AuxQuantities:
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
        sums = [inf]
    if not all(map(isfinite, sums)):
        raise ValidationError("the weight sums exceed the float range")
    return AuxQuantities(*sums)


def _reference_doe_uncertainty(label: str, u_x: float, u_y: float) -> float:
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


def _reference_residuals(dataset: ComparisonDataset, kcrv: KcrvEstimate):
    does_a: list[DegreeOfEquivalence] = []
    does_b: list[DegreeOfEquivalence] = []
    terms: list[float] = []
    for lab in dataset.labs:
        den = _bivariate_denominator(lab)
        if lab.in_group_a:
            d_a = lab.value_a - kcrv.y_hat_a
            u_d = _reference_doe_uncertainty(lab.label, lab.u_a, kcrv.u_a)
            does_a.append(DegreeOfEquivalence(lab.label, "A", d_a, u_d))
            if den is None:
                terms.append(d_a * d_a / (lab.u_a * lab.u_a))
        if lab.in_group_b:
            d_b = lab.value_b - kcrv.y_hat_b
            u_d = _reference_doe_uncertainty(lab.label, lab.u_b, kcrv.u_b)
            does_b.append(DegreeOfEquivalence(lab.label, "B", d_b, u_d))
            if den is None:
                terms.append(d_b * d_b / (lab.u_b * lab.u_b))
        if den is not None:
            terms.append(
                (
                    d_a * (d_a * (lab.u_b * lab.u_b) - lab.covariance * d_b)
                    + d_b * (d_b * (lab.u_a * lab.u_a) - lab.covariance * d_a)
                )
                / den
            )
    if dataset.n_total == 2:  # two values, two estimates: an exact fit
        q2 = 0.0 if isfinite(kcrv.y_hat_a) and isfinite(kcrv.y_hat_b) else inf
    else:
        try:
            q2 = fsum(terms)
        except (OverflowError, ValueError):
            q2 = inf
    if not isfinite(q2):
        raise ValidationError("the residual chi-square exceeds the float range")
    dof = dataset.n_total - 2
    conformity = ConformityReport(q2, dof, q2 / dof if dof else None, q2 <= dof)
    return tuple(does_a + does_b), conformity


def reference_link(dataset: ComparisonDataset) -> ReferenceLink:
    """The linking analysis with one Python walk over the labs for the
    sums and one for the DOEs and q2, each DOE a ``DegreeOfEquivalence``."""
    aux = _reference_aux(dataset)
    kcrv = compute_kcrv(aux)
    does, conformity = _reference_residuals(dataset, kcrv)
    return ReferenceLink(dataset, aux, kcrv, does, conformity)


def round_half_up(value: float, decimals: int) -> float:
    """Half-up rounding of the shortest round-trip digits of ``value``."""
    quantum = Decimal(1).scaleb(-decimals)
    # 309 integer digits cover every finite float
    context = Context(prec=max(decimals, 0) + 309)
    return float(Decimal(repr(value)).quantize(quantum, ROUND_HALF_UP, context))


def _fmt(value: float | None, decimals: int) -> str:
    return "-" if value is None else f"{round_half_up(value, decimals):.{decimals}f}"


def text_report(result: LinkingResult, decimals: int, units: str | None) -> str:
    """The text report, with each lab's DOEs looked up among ``does``."""
    unit_suffix = f" {units}" if units else ""
    doe = {(entry.label, entry.standard): entry for entry in result.does}
    width = max(len("lab"), max(len(lab.label) for lab in result.dataset.labs))
    col = max(10, decimals + 7)

    lines = [f"distributed linking of two key comparisons (kclink {__version__})"]
    if units:
        lines.append(f"values in {units}")
    lines.append("")
    header = (
        f"{'lab':<{width}}  "
        f"{'d_A':>{col}} {'u(d_A)':>{col}} {'d_B':>{col}} {'u(d_B)':>{col}}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for lab in result.dataset.labs:
        entry_a = doe.get((lab.label, "A"))
        entry_b = doe.get((lab.label, "B"))
        lines.append(
            f"{lab.label:<{width}}  "
            f"{_fmt(entry_a.d if entry_a else None, decimals):>{col}} "
            f"{_fmt(entry_a.u_d if entry_a else None, decimals):>{col}} "
            f"{_fmt(entry_b.d if entry_b else None, decimals):>{col}} "
            f"{_fmt(entry_b.u_d if entry_b else None, decimals):>{col}}"
        )
    lines.append("-" * len(header))
    kcrv = result.kcrv
    lines.append(
        f"KCRV A: y_A = {_fmt(kcrv.y_hat_a, decimals)}{unit_suffix}, "
        f"u(y_A) = {_fmt(kcrv.u_a, decimals)}{unit_suffix}"
    )
    lines.append(
        f"KCRV B: y_B = {_fmt(kcrv.y_hat_b, decimals)}{unit_suffix}, "
        f"u(y_B) = {_fmt(kcrv.u_b, decimals)}{unit_suffix}"
    )
    lines.append(f"cov(y_A, y_B) = {kcrv.cov_ab:.6g}, r = {_fmt(kcrv.r_tilde, 3)}")
    conf = result.conformity
    ratio = "n/a" if conf.ratio is None else _fmt(conf.ratio, 2)
    verdict = "passed" if conf.passed else "failed"
    lines.append(
        f"conformity: q2/(N-2) = {ratio} ({verdict})   "
        f"[q2 = {conf.q2:.6g}, dof = {conf.dof}]"
    )
    if result.dataset.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {warning}" for warning in result.dataset.warnings)
    lines.append("")
    return "\n".join(lines)


def json_report(result: LinkingResult, decimals: int, units: str | None) -> str:
    """The JSON report's documented structure, encoded by ``json.dumps``."""
    kcrv = result.kcrv
    conf = result.conformity
    data = {
        "tool": {"name": "kclink", "version": __version__},
        "units": units,
        "input": {
            "labs": [
                {
                    "label": lab.label,
                    "x_a": lab.value_a,
                    "u_a": lab.u_a,
                    "x_b": lab.value_b,
                    "u_b": lab.u_b,
                    "cov_ab": lab.cov_ab,
                }
                for lab in result.dataset.labs
            ],
            "groups": {
                "only_a": list(result.dataset.only_a),
                "linking": list(result.dataset.linking),
                "only_b": list(result.dataset.only_b),
            },
        },
        "aux": {
            "a": result.aux.a,
            "b": result.aux.b,
            "c": result.aux.c,
            "s1": result.aux.s1,
            "s2": result.aux.s2,
        },
        "kcrv": {
            "y_a": kcrv.y_hat_a,
            "u_a": kcrv.u_a,
            "y_b": kcrv.y_hat_b,
            "u_b": kcrv.u_b,
            "cov_ab": kcrv.cov_ab,
            "r_tilde": kcrv.r_tilde,
        },
        "doe": [
            {
                "label": entry.label,
                "standard": entry.standard,
                "d": entry.d,
                "u_d": entry.u_d,
            }
            for entry in result.does
        ],
        "conformity": {
            "q2": conf.q2,
            "dof": conf.dof,
            "ratio": conf.ratio,
            "passed": conf.passed,
        },
        "warnings": list(result.dataset.warnings),
        "display": {
            "decimals": decimals,
            "kcrv": {
                "y_a": round_half_up(kcrv.y_hat_a, decimals),
                "u_a": round_half_up(kcrv.u_a, decimals),
                "y_b": round_half_up(kcrv.y_hat_b, decimals),
                "u_b": round_half_up(kcrv.u_b, decimals),
            },
            "ratio": None if conf.ratio is None else round_half_up(conf.ratio, 2),
        },
    }
    return json.dumps(data, sort_keys=True, indent=2)


def plot_data(result: LinkingResult) -> str:
    """The DOE plot data as ``csv.writer`` writes it, one row at a time."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["label", "standard", "d", "u_d", "U_d_k2"])
    for entry in result.does:
        writer.writerow(
            [entry.label, entry.standard,
             repr(entry.d), repr(entry.u_d), repr(2.0 * entry.u_d)]
        )
    return buffer.getvalue()


def dataset_file(dataset: ComparisonDataset, suffix: str) -> str:
    """The dataset file of ``dataset.labs``: ``{"labs": [...]}`` through
    ``json.dumps`` for ``.json``, else CSV through ``csv.writer``."""
    fields = [[lab.label, lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab]
              for lab in dataset.labs]
    columns = ["label", "x_a", "u_a", "x_b", "u_b", "cov_ab"]
    if suffix == ".json":
        records = [dict(zip(columns, row)) for row in fields]
        return json.dumps({"labs": records}, sort_keys=True, indent=2) + "\n"
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for label, *numbers in fields:
        writer.writerow([label, *["" if v is None else repr(v) for v in numbers]])
    return buffer.getvalue()


_M32 = 0xFFFFFFFF
# seed_seq's hashmix constants: INIT_A * MULT_A**i for the i-th mixing step
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, i, 2**32) & _M32 for i in range(17)]


def _hashmix(value: int, step: int) -> int:
    value = (value ^ _HASH_A[step]) * _HASH_A[step + 1] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32  # MIX_MULT_L, MIX_MULT_R
    return value ^ value >> 16


def reference_seed_pool(seed: int) -> list[int]:
    """``SeedSequence(seed).pool`` for a seed in [0, 2**64), in Python ints:
    the seed's two 32-bit words and two zero words hashed into the 4-word
    pool, then each word's hash mixed into every other word."""
    words = (seed & _M32, seed >> 32 & _M32, 0, 0)
    pool = [_hashmix(word, step) for step, word in enumerate(words)]
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    for step, (src, dst) in enumerate(pairs, start=4):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], step))
    return pool


_KIND_KEYS = {"a_only": 0, "linking": 1, "b_only": 2}
_DEGENERATE_U_FLOOR = 1e-15


def _reference_normals(rng: np.random.Generator, size: int) -> np.ndarray:
    from scipy.special import ndtri

    # uniforms strictly inside (0, 1) so the inverse CDF stays finite
    return ndtri((rng.integers(0, 2**53, size=size) + 0.5) / 2**53)


def _reference_mean_and_u(obs: np.ndarray) -> tuple[float, float]:
    n = obs.size
    mean = float(np.mean(obs))
    var = float(np.sum((obs - mean) ** 2)) / (n - 1)
    return mean, float(np.sqrt(var / n))


def reference_sample_lab(scenario, kind: str, index: int, label: str | None = None):
    """One synthetic lab, simulated on its own from its one substream, with
    the generator's documented warning and floors for a degenerate sample."""
    from kclink.model import LabResult

    if label is None:
        label = f"{kind}-{index + 1:02d}"
    seq = np.random.SeedSequence(
        entropy=scenario.seed, spawn_key=(_KIND_KEYS[kind], index, 0)
    )
    rng = np.random.Generator(np.random.Philox(seq))
    if kind == "linking":
        z_a = _reference_normals(rng, scenario.n)
        z_i = _reference_normals(rng, scenario.n)
        z_b = scenario.rho * z_a + np.sqrt(1.0 - scenario.rho**2) * z_i
        obs_a = scenario.y_a_true + scenario.sigma_a * z_a
        obs_b = scenario.y_b_true + scenario.sigma_b * z_b
        x_a, u_a = _reference_mean_and_u(obs_a)
        x_b, u_b = _reference_mean_and_u(obs_b)
        sample_cov = float(
            np.sum((obs_a - x_a) * (obs_b - x_b))
        ) / (scenario.n - 1)
        cov = sample_cov / scenario.n
        # two draws correlate exactly +-1, however the rounding falls
        if scenario.n > 2 and u_a > 0.0 and u_b > 0.0 and abs(cov) < u_a * u_b:
            return LabResult(
                label=label, value_a=x_a, u_a=u_a, value_b=x_b, u_b=u_b,
                cov_ab=cov,
            )
    else:
        z = _reference_normals(rng, scenario.n)
        if kind == "a_only":
            x, u = _reference_mean_and_u(scenario.y_a_true + scenario.sigma_a * z)
        else:
            x, u = _reference_mean_and_u(scenario.y_b_true + scenario.sigma_b * z)
        if u > 0.0:
            if kind == "a_only":
                return LabResult(label=label, value_a=x, u_a=u)
            return LabResult(label=label, value_b=x, u_b=u)
    warnings.warn(
        f"{label}: degenerate sample, reported with floored uncertainties "
        f"and any covariance as 0.0",
        RuntimeWarning,
        stacklevel=2,
    )

    # degenerate: report the means with floored uncertainties
    if kind == "a_only":
        u = max(abs(x), 1.0) * _DEGENERATE_U_FLOOR
        return LabResult(label=label, value_a=x, u_a=u)
    if kind == "b_only":
        u = max(abs(x), 1.0) * _DEGENERATE_U_FLOOR
        return LabResult(label=label, value_b=x, u_b=u)
    u_a = max(u_a, max(abs(x_a), 1.0) * _DEGENERATE_U_FLOOR)
    u_b = max(u_b, max(abs(x_b), 1.0) * _DEGENERATE_U_FLOOR)
    return LabResult(
        label=label, value_a=x_a, u_a=u_a, value_b=x_b, u_b=u_b, cov_ab=0.0
    )


def reference_scenario_labs(scenario) -> list:
    """Every lab of a scenario in layout order, labelled LAB-01, ..."""
    labs = []
    for kind, count in (
        ("a_only", scenario.layout.only_a),
        ("linking", scenario.layout.linking),
        ("b_only", scenario.layout.only_b),
    ):
        for index in range(count):
            labs.append(reference_sample_lab(
                scenario, kind, index, label=f"LAB-{len(labs) + 1:02d}"
            ))
    return labs
