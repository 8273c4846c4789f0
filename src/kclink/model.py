"""Domain types for the joint analysis of two key comparisons.

A comparison dataset holds one entry per laboratory: a measurement of
travelling standard A, of travelling standard B, or of both.  Laboratories
that measured both standards link the two comparisons and may additionally
report the covariance between their two results.  A
:class:`ComparisonDataset` holds the labs as float64 columns and checks
them column-wise; :class:`LabResult`, one lab's entry, is built only to
hand a lab to an API user or to word the error of the first failing lab.
All types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from math import inf, isfinite
from numbers import Real
from typing import Iterable, Iterator, Sequence

import numpy as np


class KclinkError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KclinkError):
    """Input data violates a documented precondition."""


class InternalInconsistencyError(KclinkError):
    """A mathematically guaranteed invariant failed numerically.

    Seeing this error means the implementation (or the floating-point
    evaluation) is at fault, not the input data.
    """


@dataclass(frozen=True)
class LabResult:
    """One laboratory's reported measurement results.

    value_a / u_a
        Measured value for travelling standard A and its standard
        uncertainty.  Either both are present or both are absent.
    value_b / u_b
        The same for travelling standard B.
    cov_ab
        Covariance between the two results, reported only by linking
        laboratories (both values present).  ``None`` means "not
        reported" and is treated as zero during the analysis.

    Numbers are real (not ``bool`` or ``str``), within the float range and
    stored as ``float``; uncertainties are positive and any covariance
    satisfies ``|cov_ab| < u_a * u_b``, i.e. the implied correlation lies
    strictly inside (-1, 1).
    """

    label: str
    value_a: float | None = None
    u_a: float | None = None
    value_b: float | None = None
    u_b: float | None = None
    cov_ab: float | None = None

    def __post_init__(self) -> None:
        if not self.label or not isinstance(self.label, str):
            raise ValidationError("laboratory label must be a non-empty string")
        for name in ("value_a", "u_a", "value_b", "u_b", "cov_ab"):
            value = getattr(self, name)
            if value is None or type(value) is float:
                continue
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValidationError(
                    f"{self.label}: {name} must be a real number, got {value!r}"
                )
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ValidationError(
                    f"{self.label}: {name} is beyond the float range"
                ) from None
        for standard, value, u in (
            ("A", self.value_a, self.u_a),
            ("B", self.value_b, self.u_b),
        ):
            if (value is None) != (u is None):
                raise ValidationError(
                    f"{self.label}: value and uncertainty for standard "
                    f"{standard} must be reported together"
                )
            if value is not None:
                if not isfinite(value):
                    raise ValidationError(
                        f"{self.label}: non-finite value for standard {standard}"
                    )
                if not isfinite(u) or u <= 0.0:
                    raise ValidationError(
                        f"{self.label}: uncertainty for standard {standard} "
                        f"must be finite and positive"
                    )
        if self.value_a is None and self.value_b is None:
            raise ValidationError(f"{self.label}: no measurements reported")
        if self.cov_ab is not None:
            if not self.is_linking:
                raise ValidationError(
                    f"{self.label}: covariance reported without measurements "
                    f"of both standards"
                )
            if not isfinite(self.cov_ab):
                raise ValidationError(f"{self.label}: non-finite covariance")
            if abs(self.cov_ab) >= self.u_a * self.u_b:
                raise ValidationError(
                    f"{self.label}: |cov_ab| must be smaller than u_a*u_b "
                    f"(correlation coefficient strictly inside (-1, 1))"
                )

    @property
    def in_group_a(self) -> bool:
        return self.value_a is not None

    @property
    def in_group_b(self) -> bool:
        return self.value_b is not None

    @property
    def is_linking(self) -> bool:
        return self.in_group_a and self.in_group_b

    @property
    def covariance(self) -> float:
        """Reported covariance, zero when absent."""
        return 0.0 if self.cov_ab is None else self.cov_ab


class LabError(ValidationError):
    """What :class:`LabResult` raises for the lab at input position ``index``."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


def _rows(labels, x, u, cov_ab) -> Iterator[tuple]:
    """``(label, x_a, u_a, x_b, u_b, cov_ab)`` per lab, NaN where absent."""
    (x_a, x_b), (u_a, u_b) = x.tolist(), u.tolist()
    return zip(labels, x_a, u_a, x_b, u_b, cov_ab.tolist())


def check_labs(labels: Sequence, x: np.ndarray, u: np.ndarray,
               cov_ab: np.ndarray) -> tuple[LabResult, ...]:
    """The labs of the columns (NaN read as absent) as :class:`LabResult`, in
    input order; the first error is raised as a :class:`LabError`."""
    labs = []
    for index, (label, *numbers) in enumerate(_rows(labels, x, u, cov_ab)):
        try:
            labs.append(LabResult(label, *[None if v != v else v for v in numbers]))
        except ValidationError as exc:
            raise LabError(str(exc), index) from None
    return tuple(labs)


@dataclass(frozen=True, eq=False)
class ComparisonDataset:
    """A validated, partitioned comparison dataset, held as columns.

    Built from ``labels`` and float64 columns with one entry per lab in
    input order: ``x`` and ``u`` have a row for standard A (x_a, u_a) and
    one for B (x_b, u_b), and ``cov_ab`` is the covariance; NaN marks a
    value not reported.  Each lab is checked as :class:`LabResult` checks
    it, on whole columns; the first failing lab raises its :class:`LabResult`
    message as a :class:`LabError` (see :func:`check_labs`).  Then an
    empty input, duplicate labels or a standard that no laboratory measured
    raise :class:`ValidationError`.  The columns are kept as read-only
    copies, and datasets compare by them and ``labels``.  Derived: ``cov``
    (0 where not reported), the boolean ``measured`` (per standard, the
    labs that measured it) and ``labs``, built by :func:`check_labs` on first access.

    ``only_a``, ``only_b`` and ``linking`` hold the laboratory labels of
    the three disjoint participation groups, in input order.  ``warnings``
    records non-fatal findings: an empty linking group, linking labs that
    did not report a covariance (treated as zero), and the degenerate case
    in which every linking covariance is zero or absent, where the joint
    analysis reduces to two independent inverse-variance weighted means.
    """

    labels: tuple[str, ...]
    x: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    cov_ab: np.ndarray = field(repr=False)
    only_a: tuple[str, ...] = field(init=False)
    only_b: tuple[str, ...] = field(init=False)
    linking: tuple[str, ...] = field(init=False)
    warnings: tuple[str, ...] = field(init=False)
    cov: np.ndarray = field(init=False, repr=False)
    measured: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        x, u, cov_ab = (np.array(c, dtype=float) for c in (self.x, self.u, self.cov_ab))
        if not x.shape == u.shape == (2, len(labels)) == (2, *cov_ab.shape):
            raise ValidationError("x and u need two rows, cov_ab one, of an entry per label")
        count = np.count_nonzero
        with np.errstate(all="ignore"):  # u_a*u_b overflowing to inf still passes
            measured, reported = x == x, cov_ab == cov_ab
            good = np.isfinite(x) & (u > 0.0) & (u < inf)  # implies measured
            bounded = np.abs(cov_ab) < u[0] * u[1]  # implies reported and linking
        linked = measured[0] & measured[1]
        try:  # each lab as LabResult checks it
            "".join(labels)  # a TypeError for a label that is not a string
            passed = (all(labels) and count(good) == count(measured) == count(u == u)
                      and count(measured) - count(linked) == len(labels)  # a value per lab
                      and count(bounded) == count(reported))
        except TypeError:
            passed = False
        if not passed:
            check_labs(labels, x, u, cov_ab)
            raise InternalInconsistencyError("the column checks reject a lab LabResult accepts")
        if not labels:
            raise ValidationError("dataset contains no laboratories")
        if len(set(labels)) < len(labels):  # name the first repeat of a label
            first = dict(zip(labels[::-1], range(len(labels) - 1, -1, -1)))
            repeated = next(label for i, label in enumerate(labels) if first[label] != i)
            raise ValidationError(f"duplicate laboratory label: {repeated}")
        linking = tuple(compress(labels, linked.tolist()))
        # measured in one row only: True > False
        only_a, only_b = (tuple(compress(labels, row)) for row in (measured > linked).tolist())
        for standard, exclusive in (("A", only_a), ("B", only_b)):
            if not exclusive and not linking:
                raise ValidationError(f"no laboratory measured standard {standard}")
        cov = np.where(reported, cov_ab, 0.0)  # reported by linking labs only
        unreported = ", ".join(compress(labels, (linked ^ reported).tolist()))
        warnings = tuple(warning for warning, found in (
            ("no linking laboratories: the two comparisons are analysed as "
             "independent weighted means", not linking),
            ("covariance not reported by linking laboratories "
             f"({unreported}); treated as zero", unreported),
            ("all linking covariances are zero or absent: the linking degenerates "
             "to independent per-group weighted means",
             linking and not np.count_nonzero(cov)),
        ) if found)
        for column in (x, u, cov_ab, cov, measured):
            column.setflags(write=False)
        vars(self).update(labels=labels, x=x, u=u, cov_ab=cov_ab, only_a=only_a,
                          only_b=only_b, linking=linking, warnings=warnings, cov=cov,
                          measured=measured)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparisonDataset):
            return NotImplemented
        return self.labels == other.labels and all(
            np.array_equal(mine, theirs, equal_nan=True) for mine, theirs in
            ((self.x, other.x), (self.u, other.u), (self.cov_ab, other.cov_ab)))

    def __hash__(self) -> int:
        return hash(self.labels)

    @cached_property
    def labs(self) -> tuple[LabResult, ...]:
        return check_labs(self.labels, self.x, self.u, self.cov_ab)

    def rows(self) -> Iterator[tuple]:
        """``(label, x_a, u_a, x_b, u_b, cov_ab)`` per lab, NaN where absent."""
        return _rows(self.labels, self.x, self.u, self.cov_ab)

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.labels, range(len(self.labels))))

    def index(self, label: str) -> int:
        return self._index[label]

    def lab(self, label: str) -> LabResult:
        return self.labs[self._index[label]]

    def linking_labs(self) -> tuple[LabResult, ...]:
        return tuple(lab for lab in self.labs if lab.is_linking)

    @property
    def card_a(self) -> int:
        return len(self.only_a) + len(self.linking)

    @property
    def card_b(self) -> int:
        return len(self.only_b) + len(self.linking)

    @property
    def n_total(self) -> int:
        """Total number of reported measured values (linking labs count twice)."""
        return self.card_a + self.card_b


def validate_dataset(raw: Iterable, *columns: np.ndarray) -> ComparisonDataset:
    """``validate_dataset(labels, x, u, cov_ab)`` is ``ComparisonDataset(labels,
    x, u, cov_ab)``; ``validate_dataset(labs)`` builds the dataset from
    :class:`LabResult` objects and keeps them as its ``labs``."""
    if columns:
        return ComparisonDataset(raw, *columns)
    labs = tuple(raw)
    x_a, x_b, u_a, u_b, cov_ab = np.array(  # None reads as NaN
        [(lab.value_a, lab.value_b, lab.u_a, lab.u_b, lab.cov_ab) for lab in labs],
        dtype=float).reshape(-1, 5).T
    dataset = ComparisonDataset([lab.label for lab in labs], (x_a, x_b), (u_a, u_b), cov_ab)
    vars(dataset)["labs"] = labs  # the labs property's cache
    return dataset
