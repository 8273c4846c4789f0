import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from kclink.linking import link
from kclink.model import (
    ComparisonDataset,
    LabResult,
    ValidationError,
    validate_dataset,
)

from . import oracles
from .strategies import datasets


class TestLabResult:
    def test_a_only(self):
        lab = LabResult("L", value_a=5.0, u_a=2.0)
        assert lab.in_group_a and not lab.in_group_b and not lab.is_linking
        assert lab.covariance == 0.0

    def test_value_without_uncertainty(self):
        with pytest.raises(ValidationError, match="together"):
            LabResult("L", value_a=5.0)
        with pytest.raises(ValidationError, match="together"):
            LabResult("L", value_b=5.0, u_a=1.0, value_a=2.0)

    def test_no_measurements(self):
        with pytest.raises(ValidationError, match="no measurements"):
            LabResult("L")

    @pytest.mark.parametrize("u", [0.0, -1.0, math.nan, math.inf])
    def test_bad_uncertainty(self, u):
        with pytest.raises(ValidationError):
            LabResult("L", value_a=5.0, u_a=u)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value(self, value):
        with pytest.raises(ValidationError,
                           match="^L: non-finite value for standard A$"):
            LabResult("L", value_a=value, u_a=1.0)
        with pytest.raises(ValidationError,
                           match="^L: non-finite value for standard B$"):
            LabResult("L", value_a=1.0, u_a=1.0, value_b=value, u_b=1.0)

    def test_covariance_needs_both_values(self):
        with pytest.raises(ValidationError, match="covariance"):
            LabResult("L", value_a=5.0, u_a=2.0, cov_ab=1.0)

    def test_covariance_cauchy_schwarz_boundary(self):
        # u_a*u_b = 6, |r| = 1 is singular and must be rejected
        with pytest.raises(ValidationError, match="cov_ab"):
            LabResult("L", value_a=1.0, u_a=2.0, value_b=2.0, u_b=3.0, cov_ab=6.0)
        with pytest.raises(ValidationError, match="cov_ab"):
            LabResult("L", value_a=1.0, u_a=2.0, value_b=2.0, u_b=3.0, cov_ab=-6.0)
        LabResult("L", value_a=1.0, u_a=2.0, value_b=2.0, u_b=3.0, cov_ab=5.999)

    def test_empty_label(self):
        with pytest.raises(ValidationError, match="label"):
            LabResult("", value_a=1.0, u_a=1.0)

    @pytest.mark.parametrize("bad", ["1.0", True, np.bool_(True), [1.0]])
    def test_rejects_non_real_numbers(self, bad):
        with pytest.raises(ValidationError, match="real number"):
            LabResult("L", value_a=bad, u_a=1.0)
        with pytest.raises(ValidationError, match="cov_ab"):
            LabResult("L", value_a=1.0, u_a=2.0, value_b=2.0, u_b=3.0,
                      cov_ab=bad)

    def test_real_numbers_are_stored_as_float(self):
        lab = LabResult("L", value_a=np.float64(1.5), u_a=np.int64(2),
                        value_b=Fraction(1, 4), u_b=3, cov_ab=np.float32(0.5))
        assert [type(v) for v in (lab.value_a, lab.u_a, lab.value_b,
                                  lab.u_b, lab.cov_ab)] == [float] * 5
        assert (lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab) == (
            1.5, 2.0, 0.25, 3.0, 0.5)


    @pytest.mark.parametrize("name", ["value_a", "u_a", "cov_ab"])
    def test_integer_beyond_float_range(self, name):
        fields = dict(value_a=1.0, u_a=2.0, value_b=2.0, u_b=3.0)
        fields[name] = 10**400
        with pytest.raises(ValidationError, match=f"{name} is beyond"):
            LabResult("L", **fields)


class TestComparisonDataset:
    @pytest.mark.parametrize("labs, message", [
        ((), "no laboratories"),
        ((LabResult("L", value_a=1.0, u_a=1.0),
          LabResult("L", value_b=1.0, u_b=1.0)), "duplicate"),
        ((LabResult("L", value_a=5.0, u_a=2.0),), "standard B"),
        ((LabResult("L", value_b=5.0, u_b=2.0),), "standard A"),
    ])
    def test_constructor_validates(self, labs, message):
        with pytest.raises(ValidationError, match=message):
            ComparisonDataset(*oracles.columns(labs))

    def test_groups_are_derived_not_given(self):
        nan = math.nan
        columns = ("A1", "B1"), [[1.0, nan], [nan, 1.0]], [[1.0, nan], [nan, 1.0]], [nan, nan]
        assert ComparisonDataset(*columns).only_a == ("A1",)  # valid without the group
        for name in ("only_a", "only_b", "linking", "warnings"):
            with pytest.raises(TypeError, match=name):
                ComparisonDataset(*columns, **{name: ("A1",)})

    def test_hand_built_dataset_links(self):
        nan = math.nan
        dataset = ComparisonDataset(
            ("A1", "A2", "B1", "B2"),
            [[-1.0, 1.0, nan, nan], [nan, nan, -2.0, 2.0]],
            [[1.0, 1.0, nan, nan], [nan, nan, 1.0, 1.0]],
            [nan] * 4,
        )
        assert (dataset.only_a, dataset.only_b, dataset.linking) == (
            ("A1", "A2"), ("B1", "B2"), ())
        conformity = link(dataset).conformity
        assert (conformity.dof, conformity.ratio, conformity.passed) == (
            2, 5.0, False)

    def test_list_input_is_stored_as_tuple(self, gauge_block):
        dataset = validate_dataset(list(gauge_block.labs))
        assert dataset.labs == gauge_block.labs
        assert dataset == gauge_block
        assert dataset.lab("NRC") is gauge_block.lab("NRC")
        built = ComparisonDataset(list(gauge_block.labels), *oracles.columns(
            gauge_block.labs)[1:])
        assert built.labels == gauge_block.labels and built == gauge_block


class TestValidateDataset:
    def test_gauge_block_partition(self, gauge_block):
        assert gauge_block.card_a == 11
        assert gauge_block.card_b == 7
        assert gauge_block.n_total == 18
        assert gauge_block.linking == ("NIST", "CENAM", "NRC")
        assert any("zero or absent" in w for w in gauge_block.warnings)
        assert any("not reported" in w for w in gauge_block.warnings)

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="no laboratories"):
            validate_dataset([])

    def test_duplicate_label(self):
        labs = [
            LabResult("L", value_a=1.0, u_a=1.0),
            LabResult("L", value_b=1.0, u_b=1.0),
        ]
        with pytest.raises(ValidationError, match="duplicate"):
            validate_dataset(labs)

    def test_missing_group_b(self):
        with pytest.raises(ValidationError, match="standard B"):
            validate_dataset([LabResult("L", value_a=5.0, u_a=2.0)])

    def test_missing_group_a(self):
        with pytest.raises(ValidationError, match="standard A"):
            validate_dataset([LabResult("L", value_b=5.0, u_b=2.0)])

    def test_no_linking_warning(self):
        dataset = validate_dataset([
            LabResult("A1", value_a=1.0, u_a=1.0),
            LabResult("B1", value_b=2.0, u_b=1.0),
        ])
        assert any("no linking" in w for w in dataset.warnings)

    def test_nonzero_covariance_no_degeneracy_warning(self):
        dataset = validate_dataset([
            LabResult("C1", value_a=1.0, u_a=1.0, value_b=2.0, u_b=1.0,
                      cov_ab=0.5),
        ])
        assert not dataset.warnings

    def test_explicit_zero_covariances_warn_degenerate(self):
        dataset = validate_dataset([
            LabResult("C1", value_a=1.0, u_a=1.0, value_b=2.0, u_b=1.0,
                      cov_ab=0.0),
        ])
        assert any("zero or absent" in w for w in dataset.warnings)
        assert not any("not reported" in w for w in dataset.warnings)

    def test_lab_lookup(self, gauge_block):
        assert gauge_block.lab("NIST").u_a == 17.9
        with pytest.raises(KeyError):
            gauge_block.lab("NOBODY")

    @given(datasets())
    def test_partition_covers_and_is_disjoint(self, dataset):
        partition = set(dataset.only_a) | set(dataset.only_b) | set(dataset.linking)
        assert partition == {lab.label for lab in dataset.labs}
        assert len(dataset.only_a) + len(dataset.only_b) + len(dataset.linking) \
            == len(dataset.labs)

    @given(datasets())
    def test_n_total_counts_linking_twice(self, dataset):
        assert dataset.n_total == (
            len(dataset.only_a) + len(dataset.only_b) + 2 * len(dataset.linking)
        )

    def test_partition_order_follows_input(self, gauge_block):
        reversed_dataset = validate_dataset(tuple(reversed(gauge_block.labs)))
        assert set(reversed_dataset.only_a) == set(gauge_block.only_a)
        assert reversed_dataset.only_a == tuple(reversed(gauge_block.only_a))
