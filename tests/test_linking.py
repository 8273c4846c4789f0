import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import dblquad

from kclink import linking
from kclink.golden import gauge_block_dataset, synthetic_dataset
from kclink.inflation import minimal_inflation
from kclink.io import render_report
from kclink.linking import (
    AuxQuantities,
    ConformityReport,
    KcrvEstimate,
    compute_aux,
    compute_kcrv,
    link,
    posterior_density,
)
from kclink.model import (
    InternalInconsistencyError,
    KclinkError,
    LabResult,
    ValidationError,
    validate_dataset,
)

from . import oracles
from .strategies import datasets, moderate_datasets


def two_lab_dataset():
    return validate_dataset([
        LabResult("A1", value_a=5.0, u_a=2.0),
        LabResult("B1", value_b=7.0, u_b=3.0),
    ])


@st.composite
def two_value_datasets(draw):
    """One A-only and one B-only lab, or one linking lab with |r| < 1: u is
    log-uniform over 10^-60..10^60 and x is up to 10^12 u from zero."""
    u_a, u_b = (10.0 ** draw(st.floats(-60.0, 60.0)) for _ in "AB")
    x_a, x_b = (draw(st.floats(-1e12, 1e12)) * u for u in (u_a, u_b))
    if draw(st.booleans()):
        return validate_dataset([LabResult("A1", value_a=x_a, u_a=u_a),
                                 LabResult("B1", value_b=x_b, u_b=u_b)])
    r = draw(st.floats(-0.99, 0.99))
    return validate_dataset([LabResult("C1", value_a=x_a, u_a=u_a, value_b=x_b,
                                       u_b=u_b, cov_ab=r * u_a * u_b)])


class TestComputeAux:
    def test_single_term_sums(self):
        aux = compute_aux(two_lab_dataset())
        assert aux.a == 0.25
        assert aux.b == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert aux.c == 0.0
        assert aux.s1 == 1.25
        assert aux.s2 == pytest.approx(7.0 / 9.0, rel=1e-15)

    def test_zero_covariance_reduces_to_plain_weight_sums(self, gauge_block):
        aux = compute_aux(gauge_block)
        assert aux.c == 0.0
        assert aux.a == math.fsum(
            1.0 / lab.u_a**2 for lab in gauge_block.labs if lab.in_group_a
        )
        assert aux.b == math.fsum(
            1.0 / lab.u_b**2 for lab in gauge_block.labs if lab.in_group_b
        )
        assert aux.s1 == math.fsum(
            lab.value_a / lab.u_a**2 for lab in gauge_block.labs if lab.in_group_a
        )

    def test_against_reversed_naive_resummation(self, synthetic):
        aux = compute_aux(synthetic)
        a, b, c, s1, s2 = oracles.correlation_form_sums(synthetic)
        assert aux.a == pytest.approx(a, rel=1e-12)
        assert aux.b == pytest.approx(b, rel=1e-12)
        assert aux.c == pytest.approx(c, rel=1e-12)
        assert aux.s1 == pytest.approx(s1, rel=1e-12)
        assert aux.s2 == pytest.approx(s2, rel=1e-12)

    @given(datasets())
    @settings(max_examples=150, deadline=None)
    def test_form_equivalence_on_random_datasets(self, dataset):
        aux = compute_aux(dataset)
        sums, scales = oracles.correlation_form_sums(dataset, with_scales=True)
        for got, want, scale in zip(
            (aux.a, aux.b, aux.c, aux.s1, aux.s2), sums, scales
        ):
            # the 1e-300 floor keeps the comparison meaningful when
            # hypothesis drives the sums into the subnormal range
            assert abs(got - want) <= max(
                1e-12 * max(abs(got), abs(want), scale), 1e-300
            )

    def test_invariants_enforced(self):
        beyond = "the weight sums are beyond the float range "
        for sums, message in [
            ((1.0, 1.0, 0.0, math.inf, 0.0), "the weight sums exceed the float range"),
            ((1.0, math.nan, 0.0, 0.0, 0.0), "the weight sums exceed the float range"),
            ((0.0, 1.0, 0.0, 0.0, 0.0), beyond + "(a = 0.0, b = 1.0, a*b - c^2 = 0.0)"),
            ((1.0, 1.0, 1.0, 0.0, 0.0), beyond + "(a = 1.0, b = 1.0, a*b - c^2 = 0.0)"),
            ((1e200, 1e200, 1.0, 0.0, 0.0),
             beyond + "(a = 1e+200, b = 1e+200, a*b - c^2 = inf)"),
        ]:
            with pytest.raises(ValidationError) as raised:
                AuxQuantities(*sums)
            assert str(raised.value) == message
        # with c = 0, compute_kcrv never divides by a*b - c^2
        for a in (1e-200, 1e200):
            AuxQuantities(a=a, b=a, c=0.0, s1=0.0, s2=0.0)

    @pytest.mark.parametrize("fields, message", [
        ({"u_a": 0.0}, "KCRV uncertainties must be positive"),
        ({"u_b": -1.0}, "KCRV uncertainties must be positive"),
        ({"cov_ab": 2.0 + 1e-15}, "KCRV covariance violates the Cauchy-Schwarz"),
        ({"cov_ab": -2.5}, "KCRV covariance violates the Cauchy-Schwarz"),
    ])
    def test_kcrv_invariants_enforced(self, fields, message):
        estimate = {"y_hat_a": 0.0, "y_hat_b": 0.0, "u_a": 1.0, "u_b": 2.0,
                    "cov_ab": 0.5, "r_tilde": 0.25}
        KcrvEstimate(**estimate)
        with pytest.raises(InternalInconsistencyError, match=message):
            KcrvEstimate(**{**estimate, **fields})

    @pytest.mark.parametrize("u, cov", [
        # u_a^2 * u_b^2 = 1e-400 underflows to zero, below cov^2 = 2.5e-401
        (1e-100, 5e-201),
        # u_a^2 * u_b^2 = 1e308 * 1.6e309 overflows: an infinite denominator
        # would give the lab zero weight, and the result would ignore it
        (1e77, 1e154),
    ], ids=["underflow", "overflow"])
    def test_covariance_denominator_beyond_the_float_range(self, u, cov):
        dataset = validate_dataset([
            LabResult("A1", value_a=1.0, u_a=u),
            LabResult("C1", value_a=1.0, u_a=u, value_b=2.0, u_b=4.0 * u, cov_ab=cov),
            LabResult("B1", value_b=2.0, u_b=u),
        ])
        with pytest.raises(ValidationError, match=r"^C1: .*float range"):
            link(dataset)

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_weight_sums_beyond_the_float_range(self, gauge_block, scale):
        # weights of 1e-202 or less: a*b underflows to zero, but with no
        # linking covariance (c = 0) the determinant is never divided by
        dataset = validate_dataset([
            replace(lab, **{
                name: getattr(lab, name) * scale
                for name in ("value_a", "u_a", "value_b", "u_b")
                if getattr(lab, name) is not None
            })
            for lab in gauge_block.labs
        ])
        result, unscaled = link(dataset), link(gauge_block)
        assert result.aux.a * result.aux.b == 0.0
        for name in ("y_hat_a", "y_hat_b", "u_a", "u_b"):
            assert getattr(result.kcrv, name) == pytest.approx(
                getattr(unscaled.kcrv, name) * scale, rel=1e-12)
        np.testing.assert_allclose(result.d, unscaled.d * scale, rtol=1e-12)
        np.testing.assert_allclose(result.u_d, unscaled.u_d * scale, rtol=1e-12)
        assert result.conformity.q2 == pytest.approx(unscaled.conformity.q2, rel=1e-12)

    def test_weight_determinant_overflow(self):
        # a = 2e31 and b = 1.3e280: a*b overflows, and the KCRV variances
        # b / det and a / det would be zero (was a ZeroDivisionError)
        dataset = validate_dataset([
            LabResult("C1", value_a=0.0, u_a=2.220446049250313e-16, value_b=0.0,
                      u_b=8.722066217371082e-141, cov_ab=3.026074605259569e-158),
        ])
        with pytest.raises(ValidationError, match=r"weight sums are beyond the "
                           r"float range .*a\*b - c\^2 = inf\)"):
            link(dataset)


class TestComputeKcrv:
    def test_gauge_block_reference_values(self, gauge_block):
        kcrv = compute_kcrv(compute_aux(gauge_block))
        assert kcrv.y_hat_a == pytest.approx(-103.6, abs=0.05)
        assert kcrv.u_a == pytest.approx(4.9, abs=0.05)
        assert kcrv.y_hat_b == pytest.approx(-100.5, abs=0.05)
        assert kcrv.u_b == pytest.approx(3.6, abs=0.05)
        assert kcrv.cov_ab == 0.0

    def test_synthetic_reference_values(self, synthetic):
        kcrv = compute_kcrv(compute_aux(synthetic))
        assert kcrv.y_hat_a == pytest.approx(110.909, abs=5e-4)
        assert kcrv.u_a == pytest.approx(0.698, abs=5e-4)
        assert kcrv.y_hat_b == pytest.approx(123.879, abs=5e-4)
        assert kcrv.u_b == pytest.approx(1.966, abs=5e-4)
        assert kcrv.r_tilde > 0.0

    def test_zero_cross_weight_is_exact_weighted_means(self, gauge_block):
        aux = compute_aux(gauge_block)
        kcrv = compute_kcrv(aux)
        assert kcrv.y_hat_a == aux.s1 / aux.a
        assert kcrv.y_hat_b == aux.s2 / aux.b
        assert kcrv.u_a == 1.0 / math.sqrt(aux.a)
        assert kcrv.u_b == 1.0 / math.sqrt(aux.b)
        assert kcrv.cov_ab == 0.0 and kcrv.r_tilde == 0.0

    def test_covariance_consistent_with_r_tilde(self, synthetic):
        kcrv = compute_kcrv(compute_aux(synthetic))
        assert kcrv.cov_ab == pytest.approx(
            kcrv.r_tilde * kcrv.u_a * kcrv.u_b, rel=1e-12
        )

    def test_matches_grid_refined_minimizer(self, gauge_block):
        kcrv = compute_kcrv(compute_aux(gauge_block))
        y_a, y_b, cell = oracles.minimize_chi_square(gauge_block)
        assert abs(kcrv.y_hat_a - y_a) <= 4.0 * cell
        assert abs(kcrv.y_hat_b - y_b) <= 4.0 * cell


class TestComputeDoe:
    def test_published_a_side_entry(self, gauge_block):
        result = link(gauge_block)
        doe = {(e.label, e.standard): e for e in result.does}
        metas = doe[("METAS", "A")]
        assert metas.d == pytest.approx(7.6, abs=0.05)
        assert metas.u_d == pytest.approx(12.1, abs=0.05)

    def test_one_entry_per_membership(self, synthetic):
        result = link(synthetic)
        a_entries = [e for e in result.does if e.standard == "A"]
        b_entries = [e for e in result.does if e.standard == "B"]
        assert sorted(e.label for e in a_entries) == sorted(
            lab.label for lab in synthetic.labs if lab.in_group_a
        )
        assert sorted(e.label for e in b_entries) == sorted(
            lab.label for lab in synthetic.labs if lab.in_group_b
        )

    def test_lab_sitting_exactly_on_the_kcrv(self):
        # dyadic uncertainties make the weighted mean exact
        dataset = validate_dataset([
            LabResult("A1", value_a=5.0, u_a=2.0),
            LabResult("A2", value_a=5.0, u_a=4.0),
            LabResult("B1", value_b=7.0, u_b=3.0),
        ])
        kcrv = compute_kcrv(compute_aux(dataset))
        assert kcrv.y_hat_a == 5.0
        result = link(dataset)
        assert result.kcrv == kcrv
        d, u_d = result.d, result.u_d
        assert dataset.labs[0].label == "A1"  # column 0, row 0 is standard A
        assert d[0, 0] == 0.0
        assert u_d[0, 0] == math.sqrt(2.0**2 - kcrv.u_a**2)

    def test_radicand_violation_raises_instead_of_clamping(self):
        dataset = two_lab_dataset()
        bogus = KcrvEstimate(
            y_hat_a=5.0, y_hat_b=7.0, u_a=50.0, u_b=50.0, cov_ab=0.0,
            r_tilde=0.0,
        )
        with mock.patch.object(linking, "compute_kcrv", lambda aux: bogus):
            with pytest.raises(InternalInconsistencyError, match="exceeds"):
                link(dataset)

    @given(datasets())
    @settings(max_examples=100, deadline=None)
    def test_radicand_never_negative_for_own_dataset(self, dataset):
        result = link(dataset)
        for entry in result.does:
            assert entry.u_d >= 0.0


class TestComputeQ2:
    def test_gauge_block_fails_conformity(self, gauge_block):
        result = link(gauge_block)
        assert result.conformity.dof == 16
        assert result.conformity.ratio == pytest.approx(1.07, abs=0.005)
        assert result.conformity.passed is False

    def test_synthetic_passes_conformity(self, synthetic):
        result = link(synthetic)
        assert result.conformity.ratio == pytest.approx(0.89, abs=0.005)
        assert result.conformity.passed is True

    def test_no_degrees_of_freedom(self):
        result = link(two_lab_dataset())
        assert result.conformity.dof == 0
        assert result.conformity.ratio is None
        assert result.conformity.q2 == 0.0
        assert result.conformity.passed is True
        assert any("no degrees of freedom" in w for w in result.dataset.warnings)

    def test_exact_tie_passes(self):
        assert link(two_lab_dataset()).conformity.passed

    @given(two_value_datasets())
    @example(validate_dataset([LabResult("A1", value_a=1000000000000.7, u_a=0.001),
                               LabResult("B1", value_b=5.0, u_b=1.0)]))
    @example(validate_dataset([LabResult("C1", value_a=1000000000000.3, u_a=0.001,
                                         value_b=5.0, u_b=1.0, cov_ab=0.0005)]))
    @settings(max_examples=200, deadline=None)
    def test_two_values_fit_exactly_at_any_shift(self, dataset):
        # two values, two estimates: q2 is 0 in exact arithmetic, while the
        # residuals' rounding noise grows with x/u; repr tells 0.0 from -0.0
        assert repr(link(dataset).conformity) == repr(ConformityReport(0.0, 0, None, True))

    def test_two_values_with_an_overflowing_kcrv_raise(self):
        # s1 / a rounds x = DBL_MAX up to inf: the residual is not finite
        dataset = validate_dataset([
            LabResult("A1", value_a=1.7976931348623157e308, u_a=math.sqrt(3.0)),
            LabResult("B1", value_b=1.0, u_b=1.0),
        ])
        with pytest.raises(ValidationError, match="residual chi-square exceeds"):
            link(dataset)

    # (x, u) of two A labs, next to B labs (1, 1) and (2, 1)
    @pytest.mark.parametrize("a_labs, match", [
        # q2 terms of 2.25e308: inf
        (((1.5e154, 1.0), (-1.5e154, 1.0)), "residual chi-square exceeds"),
        # q2 terms of 1e308: finite, but their sum overflows in fsum
        (((1e154, 1.0), (-1e154, 1.0)), "residual chi-square exceeds"),
        # d = x - y_hat = inf
        (((1.7e308, 1e110), (-1.7e308, 1e100)), "residual chi-square exceeds"),
        # u(x)^2 = inf, so u(d) would be inf
        (((0.0, 1.0), (0.0, 1e160)), "A2: the DOE variance exceeds"),
        # weighted values x/u^2 of +-1e454: inf - inf in their sum
        (((1e154, 1e-150), (-1e154, 1e-150)), "weight sums exceed"),
        # weighted values of 1e308 each: their sum overflows in fsum
        (((1e150, 1e-79), (1e150, 1e-79)), "weight sums exceed"),
        # u^2 underflows to zero: an infinite weight
        (((1.0, 1e-170), (2.0, 1.0)), "weight sums exceed"),
    ], ids=["q2-inf", "fsum-overflow", "d-inf", "u_d-inf", "weights-inf-minus-inf",
            "weights-fsum-overflow", "weights-u2-underflow"])
    def test_results_beyond_the_float_range_raise(self, a_labs, match):
        dataset = validate_dataset([
            *(LabResult(f"A{i}", value_a=x, u_a=u)
              for i, (x, u) in enumerate(a_labs, start=1)),
            LabResult("B1", value_b=1.0, u_b=1.0),
            LabResult("B2", value_b=2.0, u_b=1.0),
        ])
        with pytest.raises(ValidationError, match=match):
            link(dataset)

    @given(moderate_datasets(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @example(
        validate_dataset([
            LabResult("H01", value_a=1124.0, u_a=0.1),
            LabResult("H02", value_b=0.0, u_b=1.0),
        ]),
        0.00390625,
        0.0,
    )
    @settings(max_examples=150, deadline=None)
    def test_chi_square_decomposition(self, dataset, t_a, t_b):
        self.check_decomposition(dataset, t_a, t_b)

    @pytest.mark.xfail(strict=True, reason=(
        "compute_kcrv's closed form cancels in y_hat_b = (c*s1 + a*s2)/det: "
        "y_hat_b is 8,176 ulps below the exact 1.0 (see CHANGES.md)"))
    def test_chi_square_decomposition_with_cancelling_estimates(self):
        # a value large beside its uncertainty and a high linking correlation
        self.check_decomposition(validate_dataset([
            LabResult("H01", value_a=2832.0, u_a=0.125, value_b=1.0, u_b=1.0,
                      cov_ab=0.1171875),
        ]), 0.0, 0.0625)

    @staticmethod
    def check_decomposition(dataset, t_a, t_b):
        # direct objective equals the recentred quadratic form plus q2
        result = link(dataset)
        kcrv = result.kcrv
        y_a = kcrv.y_hat_a + t_a * kcrv.u_a
        y_b = kcrv.y_hat_b + t_b * kcrv.u_b
        direct = oracles.chi_square(dataset, y_a, y_b)
        z_a = (y_a - kcrv.y_hat_a) / kcrv.u_a
        z_b = (y_b - kcrv.y_hat_b) / kcrv.u_b
        quad = (z_a**2 - 2.0 * kcrv.r_tilde * z_a * z_b + z_b**2) / (
            1.0 - kcrv.r_tilde**2
        )
        recomposed = quad + result.conformity.q2
        # the stored estimates are rounded: an error eps in y_hat shifts
        # the direct objective by the quad's gradient times eps/u, i.e.
        # 2 (R^-1 z) . (ulp(y_hat) / u) for one ulp in each estimate
        r = kcrv.r_tilde
        g_a = (z_a - r * z_b) / (1.0 - r * r)
        g_b = (z_b - r * z_a) / (1.0 - r * r)
        rounding = 2.0 * (
            abs(g_a) * math.ulp(kcrv.y_hat_a) / kcrv.u_a
            + abs(g_b) * math.ulp(kcrv.y_hat_b) / kcrv.u_b
        )
        assert abs(direct - recomposed) <= (
            1e-9 * max(direct, recomposed, 1e-6) + rounding
        )


class TestPosteriorDensity:
    def test_mode_value(self, synthetic):
        kcrv = compute_kcrv(compute_aux(synthetic))
        expected = 1.0 / (
            2.0 * math.pi * kcrv.u_a * kcrv.u_b
            * math.sqrt(1.0 - kcrv.r_tilde**2)
        )
        assert posterior_density(kcrv.y_hat_a, kcrv.y_hat_b, kcrv) == \
            pytest.approx(expected, rel=1e-12)

    def test_zero_correlation_factorizes(self, gauge_block):
        kcrv = compute_kcrv(compute_aux(gauge_block))
        assert kcrv.r_tilde == 0.0
        y_a = kcrv.y_hat_a + 1.3 * kcrv.u_a
        y_b = kcrv.y_hat_b - 0.4 * kcrv.u_b
        def normal(x, mu, sigma):
            return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (
                sigma * math.sqrt(2.0 * math.pi)
            )
        assert posterior_density(y_a, y_b, kcrv) == pytest.approx(
            normal(y_a, kcrv.y_hat_a, kcrv.u_a)
            * normal(y_b, kcrv.y_hat_b, kcrv.u_b),
            rel=1e-12,
        )

    def test_integrates_to_one(self, synthetic):
        kcrv = compute_kcrv(compute_aux(synthetic))
        mass, _ = dblquad(
            lambda y_b, y_a: posterior_density(y_a, y_b, kcrv),
            kcrv.y_hat_a - 8.0 * kcrv.u_a, kcrv.y_hat_a + 8.0 * kcrv.u_a,
            lambda _: kcrv.y_hat_b - 8.0 * kcrv.u_b,
            lambda _: kcrv.y_hat_b + 8.0 * kcrv.u_b,
            epsabs=1e-10,
        )
        assert mass == pytest.approx(1.0, abs=1e-6)


class TestLink:
    def test_permutation_invariance_is_bit_exact(self, synthetic):
        result = link(synthetic)
        rng = np.random.default_rng(7)
        for _ in range(3):
            order = rng.permutation(len(synthetic.labs))
            shuffled = validate_dataset([synthetic.labs[i] for i in order])
            other = link(shuffled)
            assert other.kcrv == result.kcrv
            assert other.aux == result.aux
            assert other.conformity.q2 == result.conformity.q2
            mine = {(e.label, e.standard): e for e in result.does}
            for entry in other.does:
                assert entry == mine[(entry.label, entry.standard)]

    def test_constant_data_reproduced_exactly(self):
        # dyadic uncertainties: the estimate interpolates constants exactly
        dataset = validate_dataset([
            LabResult("A1", value_a=3.5, u_a=2.0),
            LabResult("C1", value_a=3.5, u_a=4.0, value_b=-2.25, u_b=8.0,
                      cov_ab=0.0),
            LabResult("B1", value_b=-2.25, u_b=2.0),
        ])
        kcrv = compute_kcrv(compute_aux(dataset))
        assert kcrv.y_hat_a == 3.5
        assert kcrv.y_hat_b == -2.25

    @given(datasets(), st.floats(min_value=-100.0, max_value=100.0),
           st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=100, deadline=None)
    def test_constant_data_with_covariances(self, dataset, k_a, k_b):
        labs = []
        for lab in dataset.labs:
            labs.append(replace(
                lab,
                value_a=k_a if lab.in_group_a else None,
                value_b=k_b if lab.in_group_b else None,
            ))
        kcrv = compute_kcrv(compute_aux(validate_dataset(labs)))
        scale = max(abs(k_a), abs(k_b), 1.0)
        assert kcrv.y_hat_a == pytest.approx(k_a, abs=1e-9 * scale)
        assert kcrv.y_hat_b == pytest.approx(k_b, abs=1e-9 * scale)

    @staticmethod
    def _scaled(dataset, lam):
        return validate_dataset([
            LabResult(
                lab.label,
                value_a=None if lab.value_a is None else lab.value_a * lam,
                u_a=None if lab.u_a is None else lab.u_a * lam,
                value_b=None if lab.value_b is None else lab.value_b * lam,
                u_b=None if lab.u_b is None else lab.u_b * lam,
                cov_ab=None if lab.cov_ab is None else lab.cov_ab * lam * lam,
            )
            for lab in dataset.labs
        ])

    @given(datasets(), st.integers(min_value=-30, max_value=30))
    @example(  # glibc's pow misrounds 994.5421484110846 / 4 squared
        validate_dataset([
            LabResult("H01", value_a=0.0, u_a=1.0),
            LabResult("H02", value_a=0.0, u_a=1.0, value_b=0.0, u_b=6.0),
            LabResult("H03", value_a=0.0, u_a=994.5421484110846,
                      value_b=0.0, u_b=5.0, cov_ab=2486.3553710277115),
        ]),
        -2,
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_covariance_power_of_two_is_exact(self, dataset, k):
        # multiplying by a power of two commutes with every IEEE operation,
        # so the whole pipeline must scale bit-exactly
        lam = 2.0**k
        base = link(dataset)
        scaled = link(self._scaled(dataset, lam))
        assert scaled.kcrv.y_hat_a == lam * base.kcrv.y_hat_a
        assert scaled.kcrv.y_hat_b == lam * base.kcrv.y_hat_b
        assert scaled.kcrv.u_a == lam * base.kcrv.u_a
        assert scaled.kcrv.u_b == lam * base.kcrv.u_b
        assert scaled.kcrv.cov_ab == lam * lam * base.kcrv.cov_ab
        assert scaled.kcrv.r_tilde == base.kcrv.r_tilde
        assert scaled.conformity.q2 == base.conformity.q2
        base_doe = {(e.label, e.standard): e for e in base.does}
        for entry in scaled.does:
            mate = base_doe[(entry.label, entry.standard)]
            assert entry.d == lam * mate.d
            assert entry.u_d == lam * mate.u_d

    @given(datasets().map(lambda dataset: validate_dataset(
        [replace(lab, cov_ab=None) for lab in dataset.labs])),
        st.integers(min_value=-440, max_value=440))
    @example(gauge_block_dataset(), 400)
    @example(gauge_block_dataset(), 500)
    @settings(max_examples=100, deadline=None)
    def test_covariance_free_scale_over_the_float_range(self, dataset, k):
        # with no linking covariance (c = 0) the weight determinant a*b is
        # never used: the two weighted means scale bit-exactly far beyond
        # where a*b leaves the float range
        base = link(dataset)
        scaled = link(self._scaled(dataset, 2.0**k))
        assert scaled.aux.c == 0.0
        for name in ("y_hat_a", "y_hat_b", "u_a", "u_b"):
            assert getattr(scaled.kcrv, name) == math.ldexp(getattr(base.kcrv, name), k)
        for got, want in ((scaled.d, base.d), (scaled.u_d, base.u_d)):
            np.testing.assert_array_equal(got, np.ldexp(want, k))
        # q2's terms d * d / v scale exactly while each d * d stays a normal
        # float: a nonzero residual below 2^-511 (say 5e-32 scaled by 2^-440)
        # squares into the subnormal range and loses bits
        assume(not np.any((scaled.d != 0.0) & (np.abs(scaled.d) < 2.0**-511)))
        assert scaled.conformity == base.conformity

    @given(moderate_datasets(), st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_scale_covariance_general_factor(self, dataset, lam):
        base = link(dataset)
        scaled = link(self._scaled(dataset, lam))
        value_scale = max(
            [1.0]
            + [abs(v) for lab in dataset.labs
               for v in (lab.value_a, lab.value_b, lab.u_a, lab.u_b)
               if v is not None]
        )
        assert scaled.kcrv.y_hat_a == pytest.approx(
            lam * base.kcrv.y_hat_a, rel=1e-9, abs=1e-9 * lam * value_scale
        )
        assert scaled.kcrv.u_a == pytest.approx(lam * base.kcrv.u_a, rel=1e-9)
        assert scaled.kcrv.u_b == pytest.approx(lam * base.kcrv.u_b, rel=1e-9)
        assert scaled.kcrv.r_tilde == pytest.approx(
            base.kcrv.r_tilde, rel=1e-9, abs=1e-12
        )
        assert scaled.conformity.q2 == pytest.approx(
            base.conformity.q2, rel=1e-9, abs=1e-12
        )
        base_doe = {(e.label, e.standard): e for e in base.does}
        for entry in scaled.does:
            mate = base_doe[(entry.label, entry.standard)]
            assert entry.d == pytest.approx(
                lam * mate.d, rel=1e-9, abs=1e-9 * lam * value_scale
            )
            # near-zero u_d is sqrt of a cancellation-limited radicand,
            # accurate only to about u * sqrt(eps)
            lab = dataset.lab(entry.label)
            u_x = lab.u_a if entry.standard == "A" else lab.u_b
            assert entry.u_d == pytest.approx(
                lam * mate.u_d, rel=1e-9, abs=1e-7 * lam * u_x
            )

    @staticmethod
    def _search(dataset, label, standard):
        """``(minimal_u, critical_u)`` of a search, or the class of its error."""
        try:
            found = minimal_inflation(dataset, label, standard)
        except KclinkError as exc:
            return type(exc)
        return repr((found.minimal_u, found.critical_u))

    @given(datasets())
    @example(gauge_block_dataset())
    @example(synthetic_dataset())
    @example(  # q2 0.8, or 0.8000000000000003 exchanged with a left-to-right term
        validate_dataset([
            LabResult("H01", value_a=0.0, u_a=1.5, value_b=0.0, u_b=1.0, cov_ab=0.75),
            LabResult("H02", value_b=1.0, u_b=0.5),
        ]),
    )
    @settings(max_examples=150, deadline=None)
    def test_exchanging_the_standards_is_bit_exact(self, dataset):
        # the paper's "no priority" claim: exchanging A and B (the rows of x
        # and u, cov_ab kept) exchanges every result bit for bit
        exchanged = validate_dataset(dataset.labels, dataset.x[::-1], dataset.u[::-1],
                                     dataset.cov_ab)
        try:
            result = link(dataset)
        except KclinkError as exc:
            with pytest.raises(type(exc)):
                link(exchanged)
            return
        other = link(exchanged)
        aux, kcrv = result.aux, result.kcrv
        assert repr(other.aux) == repr(replace(aux, a=aux.b, b=aux.a, s1=aux.s2, s2=aux.s1))
        assert repr(other.kcrv) == repr(replace(kcrv, y_hat_a=kcrv.y_hat_b,
                                                y_hat_b=kcrv.y_hat_a, u_a=kcrv.u_b,
                                                u_b=kcrv.u_a))
        assert repr(other.conformity) == repr(result.conformity)
        for name in ("d", "u_d"):
            assert getattr(other, name).tobytes() == getattr(result, name)[::-1].tobytes()
        for row, index in np.argwhere(dataset.measured).tolist():
            label = dataset.labels[index]
            assert (self._search(exchanged, label, "BA"[row])
                    == self._search(dataset, label, "AB"[row]))

    @staticmethod
    def _echo_free_report(result):
        """The JSON report's text values, without what echoes the covariances:
        ``input.labs[*].cov_ab`` and the warnings."""
        report = json.loads(render_report(result, "json"), parse_float=str)
        for lab in report["input"]["labs"]:
            del lab["cov_ab"]
        del report["warnings"]
        return report

    @given(datasets(), st.lists(st.sampled_from([math.nan, 0.0, -0.0]), min_size=3,
                                max_size=3), st.integers(min_value=0, max_value=17))
    @example(
        validate_dataset([
            LabResult("H01", value_a=1.0, u_a=0.5),
            LabResult("H02", value_a=2.0, u_a=1.0, value_b=3.0, u_b=2.0, cov_ab=-0.0),
            LabResult("H03", value_b=4.0, u_b=0.25),
        ]),
        [-0.0, math.nan, math.nan], 1,
    )
    @settings(max_examples=150, deadline=None)
    def test_an_absent_zero_or_negative_zero_covariance_gives_the_same_bits(
            self, dataset, zeros, pick):
        # a linking lab's covariance enters only through its bivariate term,
        # and NaN (not reported), 0.0 and -0.0 all give two univariate terms
        linked = dataset.measured.all(axis=0)
        absent, variant = np.full((2, len(dataset.labels)), math.nan)
        variant[linked] = zeros[:np.count_nonzero(linked)]
        pair = [validate_dataset(dataset.labels, dataset.x, dataset.u, cov)
                for cov in (absent, variant)]
        row, index = np.argwhere(dataset.measured)[pick % dataset.n_total].tolist()
        label, standard = dataset.labels[index], "AB"[row]
        outcomes = []
        for each in pair:
            assert not each.bivariate.any()
            try:
                result = link(each)
            except KclinkError as exc:
                outcomes.append(repr(exc))
                continue
            try:
                search = repr(minimal_inflation(each, label, standard).critical_u)
            except KclinkError as exc:
                search = repr(exc)
            outcomes.append((repr(result.aux), repr(result.kcrv), repr(result.conformity.q2),
                             result.d.tobytes(), result.u_d.tobytes(), search,
                             self._echo_free_report(result)))
        assert outcomes[0] == outcomes[1]


class TestKnownDefects:
    """Valid input that ``link`` rejects as an internal inconsistency.

    In both the weight matrix is nearly singular, so ``a*b - c^2``
    cancels; a better-conditioned determinant is the planned fix, and
    these tests then pass.
    """

    @pytest.mark.xfail(raises=InternalInconsistencyError, strict=True,
                       reason="rounding puts the KCRV correlation at +/-1")
    def test_correlation_one_ulp_inside_the_bound(self):
        # C1's |r| is 1 - 2^-53, the largest correlation a float holds
        dataset = validate_dataset([
            LabResult("A1", value_a=0.0, u_a=1.0),
            LabResult("B1", value_b=0.0, u_b=0.5),
            LabResult("B2", value_b=0.3, u_b=0.5),
            LabResult("C1", value_a=0.1, u_a=0.5627221275874181,
                      value_b=2.3420216792363897, u_b=0.43000779970879066,
                      cov_ab=-0.24197490393131502),
        ])
        assert -1.0 < link(dataset).kcrv.r_tilde < 1.0

    @pytest.mark.xfail(raises=InternalInconsistencyError, strict=True,
                       reason="a*b - c^2 cancels for a lone linking lab")
    def test_lone_linking_lab_with_correlation_near_one(self):
        dataset = validate_dataset([
            LabResult("C1", value_a=0.0, u_a=1.0, value_b=0.0, u_b=1.0,
                      cov_ab=0.999999999),
        ])
        result = link(dataset)
        assert result.kcrv.u_a <= 1.0 and result.kcrv.u_b <= 1.0
