import math
import sys
import warnings
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import compress, islice

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kclink import inflation, linking
from kclink.golden import gauge_block_dataset, synthetic_dataset
from kclink.inflation import InflationError, _three_digit_grid, minimal_inflation
from kclink.linking import _statistics, compute_aux, compute_kcrv, link
from kclink.model import KclinkError, LabResult, ValidationError, validate_dataset

from . import oracles
from .strategies import datasets, full_range_datasets

DBL_MAX = sys.float_info.max


def failing_three_lab_dataset():
    # group B disagrees internally far beyond the claimed uncertainties
    return validate_dataset([
        LabResult("A1", value_a=0.0, u_a=1.0),
        LabResult("B1", value_b=0.0, u_b=1.0),
        LabResult("B2", value_b=6.0, u_b=1.0),
    ])


def doe_failing_dataset():
    # the B values disagree far beyond their uncertainties, and A2's u(x)^2
    # overflows: link raises on A2's DOE variance
    return validate_dataset([
        LabResult("A1", value_a=0.0, u_a=1.0),
        LabResult("A2", value_a=0.0, u_a=1e160),
        LabResult("B1", value_b=1.0, u_b=1.0),
        LabResult("B2", value_b=10.0, u_b=1.0),
    ])


def linking_target_dataset():
    # C1's B value disagrees with B1 and B2; inflating its u_B restores
    # conformity while its A value stays in the leave-one-out
    return validate_dataset([
        LabResult("A1", value_a=0.0, u_a=1.0),
        LabResult("C1", value_a=0.2, u_a=1.0, value_b=10.0, u_b=1.0,
                  cov_ab=0.5),
        LabResult("B1", value_b=0.0, u_b=1.0),
        LabResult("B2", value_b=1.0, u_b=4.0),
    ])


def searches(dataset):
    """Every (lab, standard) pair that a lab measured."""
    for lab in dataset.labs:
        for standard, seen in (("A", lab.in_group_a), ("B", lab.in_group_b)):
            if seen:
                yield lab, standard


def outcome(dataset, label, standard):
    """``minimal_inflation``'s result, or the message of its error."""
    try:
        return minimal_inflation(dataset, label, standard)
    except InflationError as exc:
        return str(exc)


def rest_of(dataset, index, row):
    """The dataset without lab ``index``'s value for the standard of row
    ``row``, validated afresh (an exclusive lab leaves, and a linking lab
    stays as an exclusive lab of the other standard), and the mask of the
    labs it keeps."""
    x, u, cov_ab = dataset.x.copy(), dataset.u.copy(), dataset.cov_ab.copy()
    x[row, index] = u[row, index] = cov_ab[index] = math.nan
    keep = (x == x).any(axis=0)
    return validate_dataset(compress(dataset.labels, keep.tolist()),
                            x[:, keep], u[:, keep], cov_ab[keep]), keep


def columns(dataset):
    """``dataset``'s labels, values, uncertainties and covariances."""
    return dataset.labels, dataset.x, dataset.u, dataset.cov_ab


def kernel(labels, x, u, cov, measured, bivariate):
    """The statistics pass on arrays, with ``v = u*u``, in the ``np.errstate``
    scope that its callers open."""
    with np.errstate(all="ignore"):
        return _statistics(labels, x, u * u, cov, measured, bivariate)


def error_of(call):
    """The class and message of the ``KclinkError`` that ``call()`` raises,
    else None."""
    try:
        call()
    except KclinkError as exc:
        return type(exc), str(exc)
    return None


@given(st.one_of(datasets(), full_range_datasets()))
@example(gauge_block_dataset())  # INMETRO1/B among its entries
@example(linking_target_dataset())  # C1: a linking target of either standard
@settings(max_examples=200, deadline=None)
def test_masked_statistics_are_the_rest_linked(dataset):
    """For every measured value whose standard keeps another value, the
    statistics pass with that value masked out gives the bits of the rest's
    ``link``: the sums, the KCRVs, the residuals of the values the rest keeps
    and q2, or the error of the sums or KCRVs."""
    for row, index in np.argwhere(dataset.measured).tolist():
        if (dataset.card_a, dataset.card_b)[row] == 1:
            continue
        rest, keep = rest_of(dataset, index, row)
        measured, bivariate = dataset.measured.copy(), dataset.bivariate.copy()
        measured[row, index] = bivariate[index] = False
        masked = lambda: kernel(*columns(dataset), measured, bivariate)
        failed = error_of(lambda: compute_kcrv(compute_aux(rest)))
        if failed:
            assert error_of(masked) == failed
            continue

        def bits(aux, kcrv, d, q2):
            # repr is the shortest round-trip text, so equal reprs are equal bits
            return repr((aux, kcrv, d[rest.measured].tolist(), q2))

        aux, kcrv, d, q2 = masked()
        statistics = bits(aux, kcrv, d[:, keep], q2)
        assert statistics == bits(*kernel(*columns(rest), rest.measured, rest.bivariate))
        if error_of(lambda: link(rest)) is None:
            result = link(rest)
            assert statistics == bits(result.aux, result.kcrv, result.d, result.conformity.q2)


def assert_kernel_is_link(labels, x, u, cov):
    """The statistics pass on arrays that no dataset holds gives the bits of
    ``link`` of the dataset they validate to: the sums, the KCRVs, the
    residuals of the measured values and q2, or ``link``'s error."""
    try:
        dataset = validate_dataset(labels, x, u, cov)
    except KclinkError:
        return  # no dataset: outside the pass's preconditions
    with np.errstate(all="ignore"):
        measured, bivariate = x == x, np.abs(cov) > 0.0
    statistics = lambda: kernel(labels, x, u, cov, measured, bivariate)
    failed, raised = error_of(lambda: link(dataset)), error_of(statistics)
    if raised:
        assert raised == failed
        return

    def bits(aux, kcrv, d, q2):
        # repr is the shortest round-trip text, so equal reprs are equal bits
        return repr((aux, kcrv, d[measured].tolist(), q2))

    aux, kcrv, d, q2 = statistics()
    if failed:  # link's own checks after the pass: the DOEs, then q2
        expected = compute_aux(dataset)
        assert repr((aux, kcrv)) == repr((expected, compute_kcrv(expected)))
        assert failed[1].endswith(": the DOE variance exceeds the float range") or (
            failed == (ValidationError, "the residual chi-square exceeds the float range")
            and not math.isfinite(q2))
        return
    result = link(dataset)
    assert bits(aux, kcrv, d, q2) == bits(result.aux, result.kcrv, result.d,
                                          result.conformity.q2)


@given(st.one_of(datasets(), full_range_datasets()),
       st.one_of(st.floats(0.25, 4.0), st.floats(min_value=0.0, exclude_min=True)))
@example(gauge_block_dataset(), 2.8)  # INMETRO1's u_B 4 becomes 11.2
@example(linking_target_dataset(), 3.0)  # C1 rescales its covariance
@settings(max_examples=200, deadline=None)
def test_statistics_on_arrays_are_link(dataset, factor):
    """The statistics pass on arrays equals ``link`` of their dataset: (a) with
    one lab's uncertainty times ``factor`` and its covariance rescaled as the
    inflation search rescales it, for every measured value, and (b) with every
    linking covariance ``r u_a u_b`` for r on a grid from -(1 - 2^-10) to
    1 - 2^-10 through 0."""
    labels, x = dataset.labels, dataset.x
    for row, index in np.argwhere(dataset.measured).tolist():
        u, cov = dataset.u.copy(), dataset.cov_ab.copy()
        trial = u[row, index].item() * factor
        cov[index] = cov[index].item() * (trial / u[row, index].item())
        u[row, index] = trial
        assert_kernel_is_link(labels, x, u, cov)
    if dataset.linking:
        linked = dataset.measured.all(axis=0)
        for r in (-(1 - 2**-10), -0.5, -2**-10, 0.0, 2**-10, 0.5, 1 - 2**-10):
            with np.errstate(all="ignore"):
                cov = np.where(linked, r * dataset.u[0] * dataset.u[1], math.nan)
            assert_kernel_is_link(labels, x, dataset.u, cov)


@given(st.one_of(datasets(), full_range_datasets()))
@example(doe_failing_dataset())
@example(linking_target_dataset())
@example(synthetic_dataset())  # every target passes
@settings(max_examples=200, deadline=None)
def test_search_starts_from_link(dataset):
    """For every measured target: data that ``link`` rejects make the search
    raise ``link``'s error, and data that pass are their own answer, with
    ``relinked`` bit-identical to ``link``'s result."""
    def bits(result):
        # repr is the shortest round-trip text, so equal reprs are equal bits
        return repr((result.aux, result.kcrv, result.conformity, result.d.tolist(),
                     result.u_d.tolist()))

    failed = error_of(lambda: link(dataset))
    if failed is None and not link(dataset).conformity.passed:
        return  # a failing search is checked by the tests below
    for lab, standard in searches(dataset):
        search = lambda: minimal_inflation(dataset, lab.label, standard)
        if failed:
            assert error_of(search) == failed
        else:
            relinked = search().relinked
            assert relinked.dataset is dataset and bits(relinked) == bits(link(dataset))


class TestGoldenInflation:
    def test_reported_minimal_uncertainty(self, gauge_block):
        found = minimal_inflation(gauge_block, "INMETRO1", "B")
        assert found.original_u == 4.0
        assert found.minimal_u == 11.2
        assert found.critical_u == pytest.approx(11.1426943354, rel=1e-9)
        assert found.relinked.conformity.passed

    def test_minimal_uncertainty_in_units_of_1e_26(self, gauge_block):
        # every value and uncertainty times 1e26: the answer stays on the
        # decimal grid, where float rounding gave 1.1200000000000001e27
        scaled = validate_dataset(gauge_block.labels, gauge_block.x * 1e26,
                                  gauge_block.u * 1e26, gauge_block.cov_ab * 1e52)
        assert minimal_inflation(scaled, "INMETRO1", "B").minimal_u == 1.12e27

    @pytest.mark.parametrize("make, label", [
        (gauge_block_dataset, "INMETRO1"),  # an exclusive target
        (linking_target_dataset, "C1"),  # a linking one keeps its A value
    ], ids=["INMETRO1", "C1"])
    def test_one_leave_one_out_and_three_links(self, make, label, monkeypatch):
        # the verdict comes from the data's link and the leave-one-out from
        # one statistics pass: the one more full analysis is the confirming
        # link, of the one dataset that the search validates, at full size
        links, validations, passes = [], [], []
        dataset = make()
        counted = lambda *args: passes.append(args) or _statistics(*args)
        monkeypatch.setattr(linking, "_statistics", counted)
        monkeypatch.setattr(inflation, "_statistics", counted)
        monkeypatch.setattr(inflation, "link",
                            lambda trial: links.append(trial) or link(trial))
        monkeypatch.setattr(inflation, "validate_dataset",
                            lambda *args: validations.append(args) or validate_dataset(*args))
        found = minimal_inflation(dataset, label, "B")
        assert len(passes) == 3
        assert len(validations) == 1
        assert len(links) == 2 and links[0] is dataset and links[1] is found.relinked.dataset
        assert links[1].labels == dataset.labels
        assert links[1].lab(label).u_b == found.minimal_u

    def test_matches_bisection_oracle(self, gauge_block):
        found = minimal_inflation(gauge_block, "INMETRO1", "B")
        ref = oracles.bisect_minimal_inflation(gauge_block, "INMETRO1", "B")
        assert ref.minimal_u == found.minimal_u
        assert found.critical_u == pytest.approx(ref.critical_u, rel=1e-8)

    def test_relinked_matches_reference(self, gauge_block):
        found = minimal_inflation(gauge_block, "INMETRO1", "B")
        kcrv = found.relinked.kcrv
        assert kcrv.y_hat_b == pytest.approx(-106.7, abs=0.05)
        assert kcrv.u_b == pytest.approx(6.8, abs=0.05)
        assert found.relinked.conformity.ratio == pytest.approx(1.00, abs=0.005)

    def test_a_side_bit_identical(self, gauge_block):
        base = link(gauge_block)
        found = minimal_inflation(gauge_block, "INMETRO1", "B")
        assert found.relinked.kcrv.y_hat_a == base.kcrv.y_hat_a
        assert found.relinked.kcrv.u_a == base.kcrv.u_a
        base_doe = {(e.label, e.standard): e for e in base.does}
        for entry in found.relinked.does:
            if entry.standard == "A":
                mate = base_doe[(entry.label, "A")]
                assert entry.d == mate.d
                assert entry.u_d == mate.u_d

    def test_smaller_reportable_uncertainties_fail(self, gauge_block):
        # every 3-significant-digit value below the reported one fails
        for u in (11.1, 11.0, 10.9, 8.0, 5.0):
            trial = validate_dataset([
                lab if lab.label != "INMETRO1"
                else LabResult("INMETRO1", value_b=-98.0, u_b=u)
                for lab in gauge_block.labs
            ])
            assert not link(trial).conformity.passed

    def test_values_below_the_boundary_fail(self, gauge_block):
        found = minimal_inflation(gauge_block, "INMETRO1", "B")

        def passes(u):
            trial = validate_dataset([
                lab if lab.label != "INMETRO1"
                else LabResult("INMETRO1", value_b=-98.0, u_b=u)
                for lab in gauge_block.labs
            ])
            return link(trial).conformity.passed

        assert not passes(found.critical_u * (1.0 - 1e-9))
        assert passes(found.critical_u * (1.0 + 1e-9))


class TestSearchBehaviour:
    def test_already_passing_returns_original(self, synthetic, monkeypatch):
        # the relinked result is the data's link, the one analysis of the search
        expected, passes, links, validations = link(synthetic), [], [], []
        counted = lambda *args: passes.append(args) or _statistics(*args)
        monkeypatch.setattr(linking, "_statistics", counted)
        monkeypatch.setattr(inflation, "_statistics", counted)
        monkeypatch.setattr(inflation, "link", lambda trial: links.append(trial) or link(trial))
        monkeypatch.setattr(inflation, "validate_dataset",
                            lambda *args: validations.append(args) or validate_dataset(*args))
        found = minimal_inflation(synthetic, "LAB-13", "B")
        assert len(passes) == 1 and len(links) == 1 and links[0] is synthetic
        assert not validations
        assert found.minimal_u == synthetic.lab("LAB-13").u_b
        assert found.critical_u == found.minimal_u
        relinked = found.relinked
        assert relinked.dataset is synthetic
        for name in ("aux", "kcrv", "conformity"):
            assert getattr(relinked, name) == getattr(expected, name)
        assert relinked.dataset.warnings == expected.dataset.warnings
        for name in ("d", "u_d"):
            assert repr(getattr(relinked, name).tolist()) == repr(getattr(expected, name).tolist())

    def test_passing_data_raise_as_link_does(self):
        # u(x)^2 = inf for A2 (the u_d-inf case of test_linking): the data pass,
        # and the passing branch's DOE step raises, with no RuntimeWarning
        dataset = validate_dataset([
            LabResult("A1", value_a=0.0, u_a=1.0),
            LabResult("A2", value_a=0.0, u_a=1e160),
            LabResult("B1", value_b=1.0, u_b=1.0),
            LabResult("B2", value_b=2.0, u_b=1.0),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (link, lambda data: minimal_inflation(data, "A1", "A")):
                with pytest.raises(ValidationError, match=r"^A2: the DOE variance "
                                                          r"exceeds the float range$"):
                    call(dataset)

    def test_failing_data_raise_as_link_does(self, monkeypatch):
        # the data fail (q2 = 40.5, dof 2) and u(x)^2 = inf for A2: the search
        # raises link's error from its one statistics pass, before the
        # leave-one-out, whose weight sums would be beyond the float range
        passes, validations = [], []
        counted = lambda *args: passes.append(args) or _statistics(*args)
        monkeypatch.setattr(linking, "_statistics", counted)
        monkeypatch.setattr(inflation, "_statistics", counted)
        monkeypatch.setattr(inflation, "validate_dataset",
                            lambda *args: validations.append(args) or validate_dataset(*args))
        with pytest.raises(ValidationError, match=r"^A2: the DOE variance "
                                                  r"exceeds the float range$"):
            minimal_inflation(doe_failing_dataset(), "A1", "A")
        assert len(passes) == 1 and not validations

    def test_agrees_with_fine_grid_scan(self):
        dataset = failing_three_lab_dataset()
        found = minimal_inflation(dataset, "B2", "B")
        step = 1e-3
        u = 1.0
        while u < 64.0:
            trial = validate_dataset([
                lab if lab.label != "B2"
                else LabResult("B2", value_b=6.0, u_b=u)
                for lab in dataset.labs
            ])
            if link(trial).conformity.passed:
                break
            u += step
        assert 0.0 <= u - found.critical_u <= step

    def test_raw_and_rounded_answers_are_consistent(self):
        dataset = failing_three_lab_dataset()
        found = minimal_inflation(dataset, "B2", "B")
        assert found.critical_u <= found.minimal_u
        assert found.minimal_u == next(_three_digit_grid(found.critical_u))
        assert found.relinked.conformity.passed

    def test_linking_lab_keeps_correlation_fixed(self):
        dataset = linking_target_dataset()
        assert not link(dataset).conformity.passed
        found = minimal_inflation(dataset, "C1", "B")
        new_lab = found.relinked.dataset.lab("C1")
        assert new_lab.u_b == found.minimal_u
        r_before = 0.5
        r_after = new_lab.cov_ab / (new_lab.u_a * new_lab.u_b)
        assert r_after == pytest.approx(r_before, rel=1e-12)

    def test_unknown_label(self, gauge_block):
        with pytest.raises(InflationError, match="unknown laboratory"):
            minimal_inflation(gauge_block, "NOBODY", "B")

    def test_unhashable_label_is_unknown(self, gauge_block):
        with pytest.raises(InflationError) as raised:
            minimal_inflation(gauge_block, ["INMETRO1"], "B")
        assert str(raised.value) == "unknown laboratory label: ['INMETRO1']"

    def test_lab_without_that_standard(self, gauge_block):
        with pytest.raises(InflationError, match="did not measure"):
            minimal_inflation(gauge_block, "METAS", "B")

    def test_unknown_standard(self, gauge_block):
        with pytest.raises(InflationError, match="unknown standard"):
            minimal_inflation(gauge_block, "METAS", "X")

    def test_misfit_not_attributable_to_lab(self):
        # the A side is inconsistent; no B-side inflation can fix it
        dataset = validate_dataset([
            LabResult("A1", value_a=0.0, u_a=0.01),
            LabResult("A2", value_a=100.0, u_a=0.01),
            LabResult("B1", value_b=0.0, u_b=1.0),
            LabResult("B2", value_b=0.1, u_b=1.0),
        ])
        with pytest.raises(InflationError, match="not attributable"):
            minimal_inflation(dataset, "B1", "B")


class TestConfirmationLoop:
    """The rounded answer is confirmed by full re-analyses, stepping up one
    unit in the third significant digit while the data still fail."""

    def test_steps_up_past_a_boundary_set_too_low(self, gauge_block, monkeypatch):
        # the true boundary is 11.1427: at 11.1 the data still fail
        links = []
        monkeypatch.setattr(inflation, "_critical_u", lambda *args: 11.1)
        monkeypatch.setattr(inflation, "link",
                            lambda dataset: links.append(dataset) or link(dataset))
        found = minimal_inflation(gauge_block, "INMETRO1", "B")
        assert found.critical_u == 11.1
        assert found.minimal_u == 11.2
        assert links[0] is gauge_block  # the data's link gives the verdict
        assert [dataset.lab("INMETRO1").u_b for dataset in links] == [4.0, 11.1, 11.2]
        assert found.relinked.conformity.passed

    def test_gives_up_after_100_steps(self, gauge_block, monkeypatch):
        # 4.0 stepped 100 times by 0.01 stays below the boundary
        monkeypatch.setattr(inflation, "_critical_u", lambda *args: 4.0)
        with pytest.raises(InflationError, match="could not settle"):
            minimal_inflation(gauge_block, "INMETRO1", "B")

    def test_boundary_beyond_the_float_range(self, gauge_block, monkeypatch):
        # a root that overflows once multiplied back by the unit, or one whose
        # rounded value, 1.8e308, is past the float range
        for boundary in (math.inf, math.nan, DBL_MAX):
            monkeypatch.setattr(inflation, "_critical_u", lambda *args: boundary)
            with pytest.raises(ValidationError, match="^the inflation boundary is beyond "
                                                      "the float range$"):
                minimal_inflation(gauge_block, "INMETRO1", "B")


def assert_intervals_match_sign(a, b, c):
    """``_nonnegative_intervals(a, b, c)`` holds exactly the sample points
    where ``a u^2 + b u + c >= 0``, evaluated exactly; the points lie on a
    fixed grid and at a relative 1e-6 on either side of each interval end."""
    intervals = inflation._nonnegative_intervals(a, b, c)
    ends = [end for interval in intervals for end in interval]
    assert ends == sorted(ends)
    finite = [end for end in ends if math.isfinite(end)]
    samples = [-1e9, -10.0, -1.0, -0.5, 0.0, 0.5, 1.0, 10.0, 1e9]
    for end in finite:
        step = 1e-6 * max(1.0, abs(end))
        samples += [end - step, end + step]
    for u in samples:
        if any(abs(u - end) < 1e-7 * max(1.0, abs(end)) for end in finite):
            continue  # too close to a rounded root to tell
        exact = Fraction(a) * Fraction(u) ** 2 + Fraction(b) * Fraction(u) + Fraction(c)
        inside = any(lo <= u <= hi for lo, hi in intervals)
        assert inside == (exact >= 0), (a, b, c, u)
    return intervals


class TestNonnegativeIntervals:
    @pytest.mark.parametrize("a, b, c, expected", [
        (0.0, 2.0, -4.0, [(2.0, math.inf)]),
        (0.0, -2.0, -4.0, [(-math.inf, -2.0)]),
        (0.0, 0.0, 0.0, [(-math.inf, math.inf)]),
        (0.0, 0.0, 3.0, [(-math.inf, math.inf)]),
        (0.0, 0.0, -3.0, []),
        (1.0, 0.0, 1.0, [(-math.inf, math.inf)]),  # negative discriminant
        (-1.0, 1.0, -1.0, []),
        (1.0, -4.0, 4.0, [(-math.inf, 2.0), (2.0, math.inf)]),  # double root
        (-1.0, 4.0, -4.0, [(2.0, 2.0)]),
        (1.0, -3.0, 2.0, [(-math.inf, 1.0), (2.0, math.inf)]),
        (-1.0, 3.0, -2.0, [(1.0, 2.0)]),
        (2.0, 0.0, -8.0, [(-math.inf, -2.0), (2.0, math.inf)]),
    ])
    def test_cases(self, a, b, c, expected):
        assert assert_intervals_match_sign(a, b, c) == expected

    @pytest.mark.parametrize("a, b, c", [
        (1.0, 1e200, 1.0),  # b^2 overflows
        (1e300, 0.0, -1e300),  # 4ac overflows
        (-math.inf, 1.0, 1.0),
        (1.0, math.nan, 1.0),
    ])
    def test_discriminant_beyond_the_float_range_raises(self, a, b, c):
        # its roots would be inf and 0.0, whatever the true roots are
        with pytest.raises(ValidationError, match="^the inflation boundary is beyond "
                                                  "the float range$"):
            inflation._nonnegative_intervals(a, b, c)

    def test_seeded_random_triples(self):
        rng = np.random.default_rng(20261018)
        for _ in range(3000):
            a, b, c = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-4, 4, 3)
            zeros = rng.random(3) < 0.1
            a, b, c = np.where(zeros, 0.0, (a, b, c)).tolist()
            assert_intervals_match_sign(a, b, c)


class TestClosedFormEdgeCases:
    def test_skipped_window(self):
        # the data pass only inside a bounded window of u_A; doubling from
        # u0 stepped from about 59.5 to 119 straight over it
        dataset = validate_dataset([
            LabResult("R01", value_a=-121.90712121017867,
                      u_a=17.268007619688778),
            LabResult("R02", value_a=-178.98029637502196,
                      u_a=1.8602972582700692,
                      value_b=-48.314776879533355, u_b=4.399585789516358,
                      cov_ab=-3.7229649136912033),
            LabResult("R03", value_b=-51.71346562763472,
                      u_b=4.153856715801936),
            LabResult("R04", value_b=-55.239520244680975,
                      u_b=0.875926431612875),
        ])
        found = minimal_inflation(dataset, "R02", "A")
        assert found.minimal_u == 69.3
        assert found.relinked.conformity.passed
        for u in (69.2, 120.0):
            trial = inflation._with_uncertainty(dataset, dataset.index("R02"), 0, u)
            assert not link(trial).conformity.passed

    @pytest.mark.parametrize("target", [
        LabResult("T", value_a=3.0, u_a=1.0),
        LabResult("T", value_a=3.0, u_a=1.0, value_b=0.2, u_b=1.0,
                  cov_ab=0.3),
    ])
    def test_sole_measurer_of_inflated_standard(self, target):
        # the target alone fixes KCRV A, so q2 does not depend on u_A
        dataset = validate_dataset([
            target,
            LabResult("B1", value_b=0.0, u_b=1.0),
            LabResult("B2", value_b=6.0, u_b=1.0),
        ])
        assert not link(dataset).conformity.passed
        with pytest.raises(InflationError, match="not attributable"):
            minimal_inflation(dataset, "T", "A")

    def test_linking_sole_measurer_of_other_standard(self):
        # C1 alone fixes KCRV A and its A value is fitted exactly, so on B
        # it acts as an exclusive lab: u*^2 = e^2 / (dof - q0) - v0 with
        # the rest's KCRV 0.25, variance 0.5 and residual 0.125
        dataset = validate_dataset([
            LabResult("C1", value_a=5.0, u_a=1.0, value_b=6.0, u_b=1.0,
                      cov_ab=0.5),
            LabResult("B1", value_b=0.0, u_b=1.0),
            LabResult("B2", value_b=0.5, u_b=1.0),
        ])
        found = minimal_inflation(dataset, "C1", "B")
        expected = math.sqrt(5.75**2 / (2 - 0.125) - 0.5)
        assert found.critical_u == pytest.approx(expected, rel=1e-12)
        ref = oracles.bisect_minimal_inflation(dataset, "C1", "B")
        assert found.minimal_u == ref.minimal_u
        assert found.relinked.conformity.passed

    def test_failing_by_rounding_at_the_boundary(self):
        # u_A of R01 sits on the exact boundary: the full analysis fails by
        # rounding while the closed form's root lands just below u0
        dataset = validate_dataset([
            LabResult("R01", value_a=-110.06521184974373,
                      u_a=44.98848444112468),
            LabResult("R02", value_a=-57.801008492983,
                      u_a=26.600436466485313),
            LabResult("R03", value_b=85.52966427543814,
                      u_b=0.5379662436654565),
        ])
        assert not link(dataset).conformity.passed
        found = minimal_inflation(dataset, "R01", "A")
        assert found.critical_u == found.original_u
        assert found.minimal_u == 45.0
        assert found.relinked.conformity.passed

    def test_rest_alone_fails(self):
        # without C1's B value the A side already has q0 = 50 > dof = 3
        dataset = validate_dataset([
            LabResult("A1", value_a=0.0, u_a=1.0),
            LabResult("A2", value_a=10.0, u_a=1.0),
            LabResult("C1", value_a=5.0, u_a=1.0, value_b=1.0, u_b=1.0,
                      cov_ab=0.2),
            LabResult("B1", value_b=0.0, u_b=1.0),
        ])
        with pytest.raises(InflationError, match="not attributable"):
            minimal_inflation(dataset, "C1", "B")
        ref = oracles.bisect_minimal_inflation(dataset, "C1", "B")
        assert ref.critical_u is None


def test_agrees_with_bisection_oracle_on_random_datasets():
    rng = np.random.default_rng(20261017)
    attributable = sole = sole_other = 0
    for _ in range(250):
        dataset = oracles.random_dataset(rng)
        if link(dataset).conformity.passed:
            continue
        lab = dataset.labs[int(rng.integers(len(dataset.labs)))]
        measured = [s for s, seen in (("A", lab.in_group_a),
                                      ("B", lab.in_group_b)) if seen]
        standard = measured[int(rng.integers(len(measured)))]
        other = "B" if standard == "A" else "A"
        card = {"A": dataset.card_a, "B": dataset.card_b}
        sole += card[standard] == 1
        sole_other += lab.is_linking and card[other] == 1 < card[standard]

        ref = oracles.bisect_minimal_inflation(dataset, lab.label, standard)
        # a quadratic boundary crosses at most twice
        assert len(ref.crossings) <= 2
        if ref.minimal_u is None:
            with pytest.raises(InflationError):
                minimal_inflation(dataset, lab.label, standard)
            continue
        found = minimal_inflation(dataset, lab.label, standard)
        attributable += 1
        assert found.minimal_u == ref.minimal_u
        assert found.critical_u == pytest.approx(ref.critical_u, rel=1e-8)
    assert attributable >= 10 and sole >= 3 and sole_other >= 3


def test_linking_target_without_covariance_inflates_like_a_split_lab():
    # without a covariance a linking lab is an A-only lab plus a B-only lab
    # in every sum, so the search must give the same bits for both layouts
    rng = np.random.default_rng(3)
    compared = attributable = 0
    for _ in range(1000):
        dataset = oracles.random_dataset(rng)
        if link(dataset).conformity.passed:
            continue
        for target in dataset.linking_labs():
            target = replace(target, cov_ab=None)
            parts = {"A": replace(target, label=f"{target.label}a",
                                  value_b=None, u_b=None),
                     "B": replace(target, label=f"{target.label}b",
                                  value_a=None, u_a=None)}
            labs = [target if lab.label == target.label else lab
                    for lab in dataset.labs]
            joined = validate_dataset(labs)
            split = validate_dataset(
                [lab for lab in labs if lab is not target] + list(parts.values()))
            for standard in "AB":
                found = outcome(joined, target.label, standard)
                mate = outcome(split, parts[standard].label, standard)
                compared += 1
                if isinstance(found, str):
                    assert mate == found.replace(target.label,
                                                 parts[standard].label)
                    continue
                attributable += 1
                assert mate.critical_u == found.critical_u
                assert mate.minimal_u == found.minimal_u
                assert mate.relinked.kcrv == found.relinked.kcrv
                assert mate.relinked.conformity == found.relinked.conformity
    assert compared >= 500 and attributable >= 50


def test_boundary_is_exact_to_1e_11():
    # q2 evaluated in exact rational arithmetic crosses N - 2 within a
    # relative 1e-11 of every critical_u that lies above the original u
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(1500):
        dataset = oracles.random_dataset(rng)
        if link(dataset).conformity.passed:
            continue
        dof = dataset.n_total - 2
        for lab, standard in searches(dataset):
            found = outcome(dataset, lab.label, standard)
            if isinstance(found, str) or found.critical_u == found.original_u:
                continue
            below, above = (found.critical_u * (1.0 + sign * 1e-11)
                            for sign in (-1.0, 1.0))
            assert oracles.exact_q2(dataset, lab.label, standard, below) > dof
            assert oracles.exact_q2(dataset, lab.label, standard, above) <= dof
            checked += 1
    assert checked >= 300


def test_boundary_scales_exactly_with_power_of_two_units():
    # x and u scaled by 2^k and cov by 4^k: every operation scales exactly
    rng = np.random.default_rng(13)
    scaled_searches = 0
    for _ in range(600):
        dataset = oracles.random_dataset(rng)
        if link(dataset).conformity.passed:
            continue
        k = int(rng.integers(-40, 41))
        unit = math.ldexp(1.0, k)
        scaled = validate_dataset([
            LabResult(
                lab.label,
                value_a=None if lab.value_a is None else lab.value_a * unit,
                u_a=None if lab.u_a is None else lab.u_a * unit,
                value_b=None if lab.value_b is None else lab.value_b * unit,
                u_b=None if lab.u_b is None else lab.u_b * unit,
                cov_ab=None if lab.cov_ab is None else lab.cov_ab * unit * unit,
            )
            for lab in dataset.labs
        ])
        for lab, standard in searches(dataset):
            found = outcome(dataset, lab.label, standard)
            mate = outcome(scaled, lab.label, standard)
            if isinstance(found, str):
                assert mate == found
                continue
            assert mate.critical_u == found.critical_u * unit
            scaled_searches += 1
    assert scaled_searches >= 150


def power_of_two_dataset(k):
    """A0 eight units of 2^k above A1, both of uncertainty 2^k, and B1: the
    data fail, and inflating u(A0) alone restores conformity."""
    unit = math.ldexp(1.0, k)
    return validate_dataset([
        LabResult("A0", value_a=8.0 * unit, u_a=unit),
        LabResult("A1", value_a=0.0, u_a=unit),
        LabResult("B1", value_b=0.0, u_b=1.0),
    ])


@pytest.mark.parametrize("k", [-500, 0, 400, 508, 509])
def test_boundary_scales_exactly_up_to_the_float_range(k):
    # from k = 509 on the residual's square overflows: the boundary is
    # solved in units of the target standard's scale, so it still scales
    found = minimal_inflation(power_of_two_dataset(k), "A0", "A")
    assert found.critical_u == math.ldexp(7.937253933193771, k)
    assert found.relinked.conformity.passed


def test_residual_chi_square_beyond_the_float_range():
    dataset = power_of_two_dataset(510)
    for call in (link, lambda data: minimal_inflation(data, "A0", "A")):
        with pytest.raises(ValidationError, match="^the residual chi-square exceeds "
                                                  "the float range$"):
            call(dataset)


def csv_dataset(text):
    """The dataset of ``label,x_a,u_a,x_b,u_b,cov_ab`` lines, an empty cell absent."""
    return validate_dataset([
        LabResult(label, *[float(cell) if cell else None for cell in cells])
        for label, *cells in (line.split(",") for line in text.splitlines())])


# a residual whose square overflows: the boundary is 8e153, where the data pass
HUGE_CSV = "A0,8e153,1,,,\nA1,0,1,,,\nB1,,,0,1,\n"
# the boundary for L0, about 9.5e237, has no float square: the confirming
# analysis names the DOE variance
NAN_BOUNDARY_CSV = (
    "L0,999999996.628057,8.400174410556336e-05,,,\n"
    "L1,1000000000.9429934,1.5041825987677364e+116,-1000000005.9886469,"
    "1.913332663606128e-117,-0.28780016982473833\n")


@st.composite
def large_residual_datasets(draw):
    """2 to 4 labs: u log-uniform over 1e-8 to 1e8, values up to 1e200 u and
    correlations up to 1 - 1e-12 in magnitude."""
    def measurement():
        u = 10.0 ** draw(st.floats(-8.0, 8.0))
        return draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.floats(0.0, 200.0)) * u, u

    kinds = draw(st.lists(st.sampled_from("abc"), min_size=2, max_size=4))
    labs = []
    for index, kind in enumerate(kinds):
        a = measurement() if kind != "b" else (None, None)
        b = measurement() if kind != "a" else (None, None)
        cov = None
        if kind == "c" and draw(st.booleans()):
            cov = draw(st.floats(-1.0 + 1e-12, 1.0 - 1e-12)) * a[1] * b[1]
        labs.append(LabResult(f"L{index}", *a, *b, cov))
    try:
        return validate_dataset(labs)
    except ValidationError:  # a standard that no laboratory measured
        assume(False)


@given(large_residual_datasets())
@example(csv_dataset(HUGE_CSV))
@example(csv_dataset(NAN_BOUNDARY_CSV))
@settings(max_examples=300, deadline=None)
def test_search_returns_a_passing_boundary_or_raises_kclink_error(dataset):
    for lab, standard in searches(dataset):
        try:
            found = minimal_inflation(dataset, lab.label, standard)
        except KclinkError:
            continue
        assert math.isfinite(found.critical_u) and found.critical_u >= found.original_u
        assert found.relinked.conformity.passed


def significant_digits(value):
    return len(Decimal(repr(value)).normalize().as_tuple().digits)


class TestRounding:
    """``_three_digit_grid`` rounds up, and steps, on an exact decimal grid."""

    @pytest.mark.parametrize("value, expected", [
        (11.1427, 11.2),
        (11.2, 11.2),
        (11.2000000001, 11.2),  # the backoff rounds down just above the grid
        (0.04231, 0.0424),
        (99.99, 100.0),
        (104327.0, 105000.0),
        (1.1142694335424243e27, 1.12e27),  # the float grid gave 1.1200000000000001e27
        (5.21e21, 5.21e21),
    ])
    def test_round_up_significant(self, value, expected):
        assert next(_three_digit_grid(value)) == expected

    def test_next_up_moves_strictly(self):
        for value, expected in [
            (11.2, [11.2, 11.3]),
            (9.99, [9.99, 10.0, 10.1]),
            (11.14, [11.2, 11.3]),  # an off-grid value first rounds up
            (999.0, [999.0, 1e3, 1.01e3]),
            (5.21e21, [5.21e21, 5.22e21]),  # the float step gave 5.219999999999999e21
        ]:
            assert list(islice(_three_digit_grid(value), len(expected))) == expected

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, DBL_MAX, 1.791e308])
    def test_beyond_the_float_range_raises(self, value):
        with pytest.raises(ValidationError, match="^the inflation boundary is beyond "
                                                  "the float range$"):
            next(_three_digit_grid(value))

    def test_the_last_float_value_has_no_step(self):
        grid = _three_digit_grid(1.7899e308)
        assert next(grid) == 1.79e308
        with pytest.raises(ValidationError, match="beyond the float range"):
            next(grid)

    @given(st.floats(-150.0, math.log10(DBL_MAX)))
    @example(-150.0)
    @example(math.log10(DBL_MAX))
    @settings(max_examples=2000, deadline=None)
    def test_values_and_steps_have_three_digits_over_the_float_range(self, exponent):
        # 10.0 ** exponent raises where it would round past DBL_MAX; a product saturates
        x = min(10.0 ** (exponent - 8.0) * 1e8, DBL_MAX)
        exact = Decimal(repr(x))
        unit = Decimal(1).scaleb(exact.adjusted() - 2)
        grid = _three_digit_grid(x)
        try:
            value = next(grid)
        except ValidationError:  # rounds up past the largest float
            assert exact > Decimal("1.79e308")
            return
        assert significant_digits(value) <= 3
        assert -unit.scaleb(-9) <= Decimal(repr(value)) - exact < unit
        try:
            stepped = next(grid)
        except ValidationError:
            assert value == 1.79e308
            return
        assert stepped > value and significant_digits(stepped) <= 3
