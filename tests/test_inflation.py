import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from kclink import inflation
from kclink.golden import gauge_block_dataset
from kclink.inflation import (
    InflationError,
    _next_up_significant,
    _round_up_significant,
    minimal_inflation,
)
from kclink.linking import link
from kclink.model import LabResult, validate_dataset

from . import oracles


def failing_three_lab_dataset():
    # group B disagrees internally far beyond the claimed uncertainties
    return validate_dataset([
        LabResult("A1", value_a=0.0, u_a=1.0),
        LabResult("B1", value_b=0.0, u_b=1.0),
        LabResult("B2", value_b=6.0, u_b=1.0),
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


class TestGoldenInflation:
    def test_reported_minimal_uncertainty(self, gauge_block):
        found = minimal_inflation(gauge_block, "INMETRO1", "B")
        assert found.original_u == 4.0
        assert found.minimal_u == 11.2
        assert found.critical_u == pytest.approx(11.1426943354, rel=1e-9)
        assert found.relinked.conformity.passed

    @pytest.mark.parametrize("make, label, dropped", [
        (gauge_block_dataset, "INMETRO1", 1),  # an exclusive target leaves
        (linking_target_dataset, "C1", 0),  # a linking one keeps its A value
    ], ids=["INMETRO1", "C1"])
    def test_one_leave_one_out_and_three_links(self, make, label, dropped,
                                               monkeypatch):
        calls = []

        def counting_link(dataset):
            calls.append(len(dataset.labs))
            return link(dataset)

        dataset = make()
        monkeypatch.setattr(inflation, "link", counting_link)
        minimal_inflation(dataset, label, "B")
        n = len(dataset.labs)
        assert calls == [n, n - dropped, n]

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
    def test_already_passing_returns_original(self, synthetic):
        found = minimal_inflation(synthetic, "LAB-13", "B")
        assert found.minimal_u == synthetic.lab("LAB-13").u_b
        assert found.critical_u == found.minimal_u
        assert found.relinked.kcrv == link(synthetic).kcrv

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
        assert found.minimal_u == _round_up_significant(found.critical_u, 3)
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
        assert [dataset.lab("INMETRO1").u_b for dataset in links] == [4.0, 11.1, 11.2]
        assert found.relinked.conformity.passed

    def test_gives_up_after_100_steps(self, gauge_block, monkeypatch):
        # 4.0 stepped 100 times by 0.01 stays below the boundary
        monkeypatch.setattr(inflation, "_critical_u", lambda *args: 4.0)
        with pytest.raises(InflationError, match="could not settle"):
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
            trial = inflation._with_uncertainty(dataset, "R02", "A", u)
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


class TestRounding:
    @pytest.mark.parametrize("value, expected", [
        (11.1427, 11.2),
        (11.2, 11.2),
        (11.2000000001, 11.2),  # the backoff rounds down just above the grid
        (0.04231, 0.0424),
        (99.99, 100.0),
        (104327.0, 105000.0),
    ])
    def test_round_up_significant(self, value, expected):
        assert _round_up_significant(value, 3) == pytest.approx(
            expected, rel=1e-12
        )

    def test_next_up_moves_strictly(self):
        assert _next_up_significant(11.2, 3) == pytest.approx(11.3, rel=1e-12)
        assert _next_up_significant(9.99, 3) == pytest.approx(10.0, rel=1e-12)
        assert _next_up_significant(11.14, 3) == pytest.approx(11.2, rel=1e-12)
