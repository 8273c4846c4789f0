"""Domain types for the joint analysis of two key comparisons.

A comparison dataset holds one entry per laboratory: a measurement of
travelling standard A, of travelling standard B, or of both.  Laboratories
that measured both standards link the two comparisons and may additionally
report the covariance between their two results.  All types are immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Numbers are real (not ``bool`` or ``str``) and stored as ``float``;
    uncertainties are positive and any covariance satisfies ``|cov_ab| <
    u_a * u_b``, i.e. the implied correlation lies strictly inside (-1, 1).
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
            object.__setattr__(self, name, float(value))
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
class CorrelationView:
    """Correlation coefficient between a linking laboratory's two results."""

    r_ab: float

    def __post_init__(self) -> None:
        if not isfinite(self.r_ab) or not -1.0 < self.r_ab < 1.0:
            raise ValidationError(
                "correlation coefficient must lie strictly inside (-1, 1)"
            )

    def to_covariance(self, u_a: float, u_b: float) -> float:
        """Covariance implied by this correlation and the two uncertainties.

        Grouped as ``r * (u_a * u_b)`` so that converting a covariance to a
        correlation and back reproduces it to one unit in the last place.
        """
        return self.r_ab * (u_a * u_b)


def to_correlation(result: LabResult) -> CorrelationView:
    """Express a linking laboratory's covariance as a correlation coefficient.

    An absent covariance counts as zero.
    """
    if not result.is_linking:
        raise ValidationError(
            f"{result.label}: correlation requires measurements of both standards"
        )
    return CorrelationView(result.covariance / (result.u_a * result.u_b))


@dataclass(frozen=True)
class ComparisonDataset:
    """A validated, partitioned collection of laboratory results.

    ``only_a``, ``only_b`` and ``linking`` hold the laboratory labels of
    the three disjoint participation groups, in input order.  Every lab
    belongs to exactly one of them.  ``warnings`` records non-fatal
    findings from validation (see :func:`validate_dataset`).
    """

    labs: tuple[LabResult, ...]
    only_a: tuple[str, ...]
    only_b: tuple[str, ...]
    linking: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    def lab(self, label: str) -> LabResult:
        for entry in self.labs:
            if entry.label == label:
                return entry
        raise KeyError(label)

    def group_a(self) -> tuple[LabResult, ...]:
        """Labs that measured standard A (exclusive and linking), input order."""
        return tuple(lab for lab in self.labs if lab.in_group_a)

    def group_b(self) -> tuple[LabResult, ...]:
        """Labs that measured standard B (exclusive and linking), input order."""
        return tuple(lab for lab in self.labs if lab.in_group_b)

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
    """Validate a collection of lab results and partition it into groups.

    Raises :class:`ValidationError` for duplicate labels, an empty input,
    or a standard that no laboratory measured.  Per-laboratory invariants
    (missing uncertainties, covariance bounds, ...) are enforced by
    :class:`LabResult` itself.

    Non-fatal findings are collected as warnings on the returned dataset:
    an empty linking group, linking labs that did not report a covariance
    (treated as zero), and the degenerate case in which every linking
    covariance is zero or absent, where the joint analysis reduces to two
    independent inverse-variance weighted means.
    """
    labs = tuple(raw)
    if not labs:
        raise ValidationError("dataset contains no laboratories")

    seen: set[str] = set()
    for lab in labs:
        if lab.label in seen:
            raise ValidationError(f"duplicate laboratory label: {lab.label}")
        seen.add(lab.label)

    only_a = tuple(l.label for l in labs if l.in_group_a and not l.in_group_b)
    only_b = tuple(l.label for l in labs if l.in_group_b and not l.in_group_a)
    linking = tuple(l.label for l in labs if l.is_linking)

    if not only_a and not linking:
        raise ValidationError("no laboratory measured standard A")
    if not only_b and not linking:
        raise ValidationError("no laboratory measured standard B")

    warnings: list[str] = []
    linking_results = [l for l in labs if l.is_linking]
    if not linking_results:
        warnings.append(
            "no linking laboratories: the two comparisons are analysed "
            "as independent weighted means"
        )
    else:
        unreported = [l.label for l in linking_results if l.cov_ab is None]
        if unreported:
            warnings.append(
                "covariance not reported by linking laboratories "
                f"({', '.join(unreported)}); treated as zero"
            )
        if all(l.covariance == 0.0 for l in linking_results):
            warnings.append(
                "all linking covariances are zero or absent: the linking "
                "degenerates to independent per-group weighted means"
            )

    return ComparisonDataset(
        labs=labs,
        only_a=only_a,
        only_b=only_b,
        linking=linking,
        warnings=tuple(warnings),
    )
