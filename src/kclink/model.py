"""Domain types for the joint analysis of two key comparisons.

A comparison dataset holds one entry per laboratory: a measurement of
travelling standard A, of travelling standard B, or of both.  Laboratories
that measured both standards link the two comparisons and may additionally
report the covariance between their two results.  All types are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from numbers import Real
from typing import Iterable


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


@dataclass(frozen=True)
class ComparisonDataset:
    """A validated, partitioned collection of laboratory results.

    Built from ``labs`` alone, which it validates: an empty input,
    duplicate labels or a standard that no laboratory measured raise
    :class:`ValidationError`.  Per-laboratory invariants (missing
    uncertainties, covariance bounds, ...) are enforced by
    :class:`LabResult` itself.

    ``only_a``, ``only_b`` and ``linking`` hold the laboratory labels of
    the three disjoint participation groups, in input order.  Every lab
    belongs to exactly one of them.  ``warnings`` records non-fatal
    findings: an empty linking group, linking labs that did not report a
    covariance (treated as zero), and the degenerate case in which every
    linking covariance is zero or absent, where the joint analysis reduces
    to two independent inverse-variance weighted means.
    """

    labs: tuple[LabResult, ...]
    only_a: tuple[str, ...] = field(init=False)
    only_b: tuple[str, ...] = field(init=False)
    linking: tuple[str, ...] = field(init=False)
    warnings: tuple[str, ...] = field(init=False)
    _by_label: dict[str, LabResult] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labs = tuple(self.labs)
        if not labs:
            raise ValidationError("dataset contains no laboratories")
        by_label: dict[str, LabResult] = {}
        only_a: list[str] = []
        only_b: list[str] = []
        linking: list[LabResult] = []
        for lab in labs:
            if lab.label in by_label:
                raise ValidationError(f"duplicate laboratory label: {lab.label}")
            by_label[lab.label] = lab
            if lab.is_linking:
                linking.append(lab)
            elif lab.in_group_a:
                only_a.append(lab.label)
            else:
                only_b.append(lab.label)
        if not only_a and not linking:
            raise ValidationError("no laboratory measured standard A")
        if not only_b and not linking:
            raise ValidationError("no laboratory measured standard B")

        warnings: list[str] = []
        if not linking:
            warnings.append(
                "no linking laboratories: the two comparisons are analysed "
                "as independent weighted means"
            )
        else:
            unreported = [lab.label for lab in linking if lab.cov_ab is None]
            if unreported:
                warnings.append(
                    "covariance not reported by linking laboratories "
                    f"({', '.join(unreported)}); treated as zero"
                )
            if all(lab.covariance == 0.0 for lab in linking):
                warnings.append(
                    "all linking covariances are zero or absent: the linking "
                    "degenerates to independent per-group weighted means"
                )

        for name, value in (
            ("labs", labs),
            ("only_a", tuple(only_a)),
            ("only_b", tuple(only_b)),
            ("linking", tuple(lab.label for lab in linking)),
            ("warnings", tuple(warnings)),
            ("_by_label", by_label),
        ):
            object.__setattr__(self, name, value)

    def lab(self, label: str) -> LabResult:
        return self._by_label[label]

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


def validate_dataset(raw: Iterable[LabResult]) -> ComparisonDataset:
    """Validate a collection of lab results and partition it into groups;
    the same as ``ComparisonDataset(tuple(raw))``."""
    return ComparisonDataset(tuple(raw))
