"""The columnar linking core against the per-lab reference, bit for bit.

``tests.oracles.reference_link`` is the estimator's earlier form: one
Python walk over the labs for the five sums and one for the degrees of
equivalence and q2.  The columnar ``link`` must give the same bits for
every quantity and the same bytes for every report.
"""

import re
import warnings
from math import inf

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kclink.io import emit_plot_data, render_report
from kclink.linking import LinkingResult, link
from kclink.model import (
    ComparisonDataset,
    InternalInconsistencyError,
    KclinkError,
    ValidationError,
    validate_dataset,
)
from kclink.synthetic import ScenarioLayout, SyntheticScenario, generate_scenario

from . import oracles
from .strategies import datasets


def assert_matches_reference(result: LinkingResult, directory, decimals=3, units=None):
    reference = oracles.reference_link(result.dataset)
    # repr is the shortest round-trip text, so equal reprs are equal bits
    for name in ("aux", "kcrv", "conformity", "warnings"):
        assert repr(getattr(result, name)) == repr(getattr(reference, name)), name
    assert repr(result.does) == repr(reference.does)
    assert render_report(result, "text", decimals=decimals, units=units) == (
        oracles.text_report(reference, decimals, units))
    assert render_report(result, "json", decimals=decimals, units=units) == (
        oracles.json_report(reference, decimals, units))
    plot = emit_plot_data(result, directory / "plot.csv")
    assert plot.read_bytes() == oracles.plot_data(reference).encode("utf-8")


@st.composite
def datasets_and_permutations(draw):
    dataset = draw(datasets())
    order = draw(st.permutations(range(len(dataset.labs))))
    return dataset, validate_dataset([dataset.labs[i] for i in order])


@given(datasets_and_permutations(), st.integers(0, 6), st.sampled_from([None, "nm"]))
@settings(max_examples=150, deadline=None)
def test_link_equals_the_per_lab_reference(tmp_path_factory, pair, decimals, units):
    directory = tmp_path_factory.mktemp("plot")
    for dataset in pair:
        assert_matches_reference(link(dataset), directory, decimals, units)
    # and the permutation changes no bit of the estimates
    original, permuted = (link(dataset) for dataset in pair)
    assert repr((original.aux, original.kcrv, original.conformity)) == repr(
        (permuted.aux, permuted.kcrv, permuted.conformity))


@st.composite
def full_range_datasets(draw):
    values = st.floats(min_value=-1e300, max_value=1e300)
    uncertainties = st.floats(min_value=1e-300, max_value=1e300)
    try:
        return draw(datasets(3, value_st=values, u_st=uncertainties))
    except ValidationError:  # a covariance r * u_a * u_b beyond the float range
        assume(False)


def _guard(exc: KclinkError):
    """What a guard reports, with the reference's internal-inconsistency
    wording for a float-range limit mapped to the columnar one."""
    text = str(exc)
    found = re.match(r"(.*): (singular covariance denominator|u_a\^2\*u_b\^2)", text)
    if found:
        return "denominator", found.group(1)
    if re.match(r"cross-weight exceeds|weight sums must be positive|"
                r"the weight sums are beyond", text):
        return "determinant", None
    return type(exc).__name__, text


@given(full_range_datasets())
@settings(max_examples=300, deadline=None)
def test_guards_agree_with_the_reference_over_the_float_range(dataset):
    """Both succeed with the same bits, or both fail on the same guard and
    lab; the float-range limits the reference blamed on the implementation
    are ValidationErrors now, and so is an infinite bivariate denominator."""
    try:
        reference = oracles.reference_link(dataset)
    except KclinkError as exc:
        reference = exc
    try:
        result = link(dataset)
    except KclinkError as exc:
        result = exc
    if isinstance(result, ValidationError) and _guard(result)[0] == "denominator":
        lab = dataset.lab(_guard(result)[1])
        if (lab.u_a * lab.u_a) * (lab.u_b * lab.u_b) - lab.cov_ab * lab.cov_ab == inf:
            return  # the reference gave this lab zero weight, whatever it did next
    if not isinstance(reference, KclinkError):
        assert not isinstance(result, KclinkError), result
        assert repr((result.aux, result.kcrv, result.conformity, result.does)) == repr(
            (reference.aux, reference.kcrv, reference.conformity, reference.does))
        return
    assert isinstance(result, KclinkError), "the reference failed: %s" % reference
    got, want = _guard(result), _guard(reference)
    if got[0] in ("denominator", "determinant"):
        assert isinstance(result, ValidationError) and "float range" in str(result)
    elif isinstance(result, InternalInconsistencyError):
        assert "KCRV uncertainty exceeds" in str(result)
    # the denominator is checked before the weight sums, which the
    # reference found overflowing first when an earlier lab's u^2 was zero
    assert got == want or (got[0] == "denominator" and str(reference) ==
                           "the weight sums exceed the float range")


def test_ten_thousand_synthetic_labs_equal_the_reference(tmp_path):
    scenario = SyntheticScenario(
        y_a_true=110.0, y_b_true=120.0, sigma_a=20.0, sigma_b=50.0, rho=0.5,
        n=5, layout=ScenarioLayout(only_a=4000, linking=2500, only_b=3500),
        seed=20261018,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 5 redraws a few degenerate samples
        dataset = generate_scenario(scenario)
    assert len(dataset.labs) == 10_000
    assert_matches_reference(link(dataset), tmp_path)


def test_golden_sets_equal_the_reference(gauge_block, synthetic, tmp_path):
    for dataset in (gauge_block, synthetic):
        assert_matches_reference(link(dataset), tmp_path, decimals=1, units="nm")


class TestColumns:
    def test_dataset_columns(self, synthetic):
        labs = synthetic.labs
        # None reads as NaN
        assert np.array_equal(synthetic.x, np.array(
            [[lab.value_a, lab.value_b] for lab in labs], dtype=float).T,
            equal_nan=True)
        assert np.array_equal(synthetic.u, np.array(
            [[lab.u_a, lab.u_b] for lab in labs], dtype=float).T, equal_nan=True)
        assert synthetic.cov.tolist() == [lab.covariance for lab in labs]
        assert synthetic.measured.tolist() == [
            [lab.in_group_a for lab in labs], [lab.in_group_b for lab in labs]]
        for column in (synthetic.x, synthetic.u, synthetic.cov):
            assert column.dtype == np.float64

    def test_columns_are_read_only(self, gauge_block):
        result = link(gauge_block)
        for column in (gauge_block.x, gauge_block.u, gauge_block.cov,
                       gauge_block.measured, result.d, result.u_d):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[..., 0] = 0
            if column.base is not None:
                assert not column.base.flags.writeable

    def test_columns_take_no_part_in_equality_or_repr(self, gauge_block):
        again = ComparisonDataset(*oracles.columns(gauge_block.labs))
        assert again == gauge_block and hash(again) == hash(gauge_block)
        assert "array" not in repr(gauge_block)
        assert link(again) == link(gauge_block)
        assert "array" not in repr(link(gauge_block))

    def test_does_are_built_on_first_access(self, synthetic):
        result = link(synthetic)
        assert "does" not in vars(result)
        does = result.does
        assert "does" in vars(result) and result.does is does
        assert [(e.label, e.standard) for e in does] == [
            (lab.label, "A") for lab in synthetic.labs if lab.in_group_a
        ] + [(lab.label, "B") for lab in synthetic.labs if lab.in_group_b]

    def test_doe_columns_mark_unmeasured_values_with_nan(self, synthetic):
        result = link(synthetic)
        assert result.d.shape == result.u_d.shape == synthetic.x.shape
        assert np.array_equal(np.isnan(result.d), ~synthetic.measured)
        assert np.array_equal(np.isnan(result.u_d), ~synthetic.measured)
