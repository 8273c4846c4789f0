import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import ndtri

from kclink import synthetic
from kclink.linking import link
from kclink.model import ValidationError
from kclink.synthetic import (
    ScenarioLayout,
    SyntheticScenario,
    generate_scenario,
    load_scenario,
    sample_lab,
    scenario_from_dict,
)

from . import oracles

REFERENCE_LAYOUT = ScenarioLayout(only_a=8, linking=4, only_b=5)


def reference_scenario(seed=20260101, **overrides):
    params = dict(
        y_a_true=110.0, y_b_true=120.0, sigma_a=20.0, sigma_b=50.0,
        rho=0.5, n=50, layout=REFERENCE_LAYOUT, seed=seed,
    )
    params.update(overrides)
    return SyntheticScenario(**params)


class TestScenarioValidation:
    @pytest.mark.parametrize("bad", [
        dict(sigma_a=0.0),
        dict(sigma_b=-1.0),
        dict(rho=1.0),
        dict(rho=-1.5),
        dict(n=1),
        dict(seed=-1),
    ])
    def test_rejects_invalid_parameters(self, bad):
        with pytest.raises(ValidationError):
            reference_scenario(**bad)

    @pytest.mark.parametrize("field", ["y_a_true", "y_b_true", "sigma_a", "sigma_b"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_truth_and_sigma(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            reference_scenario(**{field: value})

    def test_layout_needs_each_standard(self):
        with pytest.raises(ValidationError, match="at least one"):
            ScenarioLayout(only_a=2, linking=0, only_b=0)
        with pytest.raises(ValidationError, match="non-negative"):
            ScenarioLayout(only_a=-1, linking=1, only_b=1)

    @pytest.mark.parametrize("counts", [(2**32, 0, 1), (0, 2**32, 0), (1, 0, 2**32)])
    def test_layout_counts_fit_one_key_word(self, counts):
        # a lab index is one 32-bit word of its substream key
        with pytest.raises(ValidationError, match=r"below 2\*\*32"):
            ScenarioLayout(*counts)
        ScenarioLayout(*(min(count, 2**32 - 1) for count in counts))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        first = generate_scenario(reference_scenario())
        second = generate_scenario(reference_scenario())
        assert first.labs == second.labs

    def test_different_seed_differs(self):
        first = generate_scenario(reference_scenario(seed=1))
        second = generate_scenario(reference_scenario(seed=2))
        assert first.labs != second.labs

    def test_growing_a_group_keeps_other_draws(self):
        small = generate_scenario(reference_scenario())
        grown_layout = ScenarioLayout(only_a=9, linking=4, only_b=5)
        grown = generate_scenario(reference_scenario(layout=grown_layout))
        # per-kind substreams: positions within each kind keep their draws
        for i in range(8):
            assert grown.labs[i].value_a == small.labs[i].value_a
            assert grown.labs[i].u_a == small.labs[i].u_a
        for offset in range(4 + 5):
            mine = grown.labs[9 + offset]
            theirs = small.labs[8 + offset]
            assert mine.value_a == theirs.value_a
            assert mine.value_b == theirs.value_b
            assert mine.u_a == theirs.u_a
            assert mine.u_b == theirs.u_b
            assert mine.cov_ab == theirs.cov_ab

    def test_layout_and_labels(self):
        dataset = generate_scenario(reference_scenario())
        assert len(dataset.labs) == 17
        assert dataset.card_a == 12
        assert dataset.card_b == 9
        assert [lab.label for lab in dataset.labs] == [
            f"LAB-{i:02d}" for i in range(1, 18)
        ]
        assert len(dataset.linking) == 4
        for lab in dataset.linking_labs():
            assert lab.cov_ab is not None


class TestSampleLab:
    def test_reported_fields_by_kind(self):
        scenario = reference_scenario()
        a_only = sample_lab(scenario, "a_only", 0)
        assert a_only.in_group_a and not a_only.in_group_b
        linking = sample_lab(scenario, "linking", 0)
        assert linking.is_linking and linking.cov_ab is not None
        b_only = sample_lab(scenario, "b_only", 0)
        assert b_only.in_group_b and not b_only.in_group_a

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            sample_lab(reference_scenario(), "c_only", 0)

    @pytest.mark.parametrize("index", [-1, 2**32])
    def test_index_outside_one_key_word(self, index):
        with pytest.raises(ValidationError, match=r"not in \[0, 2\*\*32\)"):
            sample_lab(reference_scenario(), "a_only", index)
        with pytest.raises(TypeError):
            sample_lab(reference_scenario(), "a_only", 1.0)

    def test_vanishing_sigma_reports_truth_exactly(self):
        # perturbations underflow next to the true value: every draw is
        # degenerate and the sampler falls back to the exact mean
        scenario = reference_scenario(sigma_a=1e-30)
        with pytest.warns(RuntimeWarning, match="degenerate"):
            lab = sample_lab(scenario, "a_only", 0)
        assert lab.value_a == 110.0
        assert lab.u_a > 0.0

    def test_moments_with_large_n(self):
        scenario = reference_scenario(n=10_000, seed=11)
        lab = sample_lab(scenario, "linking", 0)
        n = scenario.n
        assert lab.value_a == pytest.approx(110.0, abs=5 * 20 / math.sqrt(n))
        assert lab.value_b == pytest.approx(120.0, abs=5 * 50 / math.sqrt(n))
        # u estimates sigma/sqrt(n); its own standard error is
        # sigma / sqrt(2 (n-1)) / sqrt(n)
        assert lab.u_a == pytest.approx(
            20 / math.sqrt(n), abs=5 * 20 / math.sqrt(2 * (n - 1)) / math.sqrt(n)
        )
        r = lab.cov_ab / (lab.u_a * lab.u_b)
        assert r == pytest.approx(0.5, abs=5 * (1 - 0.5**2) / math.sqrt(n))

    def test_zero_rho_mean_correlation(self):
        scenario = reference_scenario(
            rho=0.0, layout=ScenarioLayout(1, 1000, 1), seed=42
        )
        rs = np.array([
            lab.cov_ab / (lab.u_a * lab.u_b)
            for lab in (sample_lab(scenario, "linking", i) for i in range(1000))
        ])
        standard_error = rs.std(ddof=1) / math.sqrt(rs.size)
        assert abs(rs.mean()) <= 5 * standard_error

    def test_u_scales_as_sigma_over_sqrt_n(self):
        layout = ScenarioLayout(200, 0, 1)
        base = reference_scenario(n=50, layout=layout, seed=7)
        doubled = reference_scenario(n=100, layout=layout, seed=7)
        u_base = np.mean([sample_lab(base, "a_only", i).u_a for i in range(200)])
        u_doubled = np.mean(
            [sample_lab(doubled, "a_only", i).u_a for i in range(200)]
        )
        assert u_base / u_doubled == pytest.approx(math.sqrt(2.0), abs=0.09)


@pytest.fixture(scope="module")
def replications():
    results = []
    for rep in range(300):
        dataset = generate_scenario(reference_scenario(seed=50_000 + rep))
        results.append(link(dataset))
    return results


class TestScenarioStatistics:
    """Monte Carlo behaviour of the full generate-and-link pipeline."""

    def test_conformity_pass_rate(self, replications):
        # with uncertainties estimated from n = 50 samples the residual
        # chi-square is inflated by roughly (n-1)/(n-3), putting the pass
        # rate near one half rather than clearly above it
        rate = np.mean([r.conformity.passed for r in replications])
        assert rate > 0.40

    def test_mean_ratio_near_one(self, replications):
        ratios = np.array([r.conformity.ratio for r in replications])
        assert abs(ratios.mean() - 1.0) < 0.15

    def test_estimated_correlations_scatter_around_rho(self, replications):
        rhats = np.array([
            lab.cov_ab / (lab.u_a * lab.u_b)
            for r in replications for lab in r.dataset.linking_labs()
        ])
        standard_error = rhats.std(ddof=1) / math.sqrt(rhats.size)
        assert abs(rhats.mean() - 0.5) <= 5 * standard_error
        # small samples scatter widely: values as large as 0.7+ do occur
        assert np.mean(rhats >= 0.7) > 0.005


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        payload = {
            "y_a_true": 110, "y_b_true": 120, "sigma_a": 20, "sigma_b": 50,
            "rho": 0.5, "n": 50,
            "layout": {"only_a": 8, "linking": 4, "only_b": 5},
            "seed": 99,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_scenario(path) == reference_scenario(seed=99)

    def test_missing_field(self):
        with pytest.raises(ValidationError, match="missing"):
            scenario_from_dict({"y_a_true": 1.0})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_scenario(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValidationError, match="JSON object"):
            load_scenario(path)


seeds = st.integers(min_value=0, max_value=2**64 - 1)
kinds = st.sampled_from(["a_only", "linking", "b_only"])


def recorded(call):
    """``call()``'s result and the (category, message) of every warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


def reference_uniforms(seed, kind, index, width):
    seq = np.random.SeedSequence(seed, spawn_key=(synthetic._KIND_KEYS[kind], index, 0))
    draws = np.random.Generator(np.random.Philox(seq)).integers(0, 2**53, size=width)
    return (draws + 0.5) / 2**53


@st.composite
def layouts(draw, most=5):
    only_a, linking, only_b = (draw(st.integers(0, most)) for _ in range(3))
    assume(only_a + linking >= 1 and only_b + linking >= 1)
    return ScenarioLayout(only_a, linking, only_b)


class TestBatchedGeneration:
    """The batched generator against numpy's SeedSequence and Generator and
    against the per-lab reference in ``oracles``."""

    @given(seeds, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1)),
                           min_size=1, max_size=6), st.integers(0, 7))
    @example(0, [(0, 0), (1, 0), (2, 0)], 0)
    @example(2**32 - 1, [(1, 2**32 - 1)], 7)
    @example(2**32, [(0, 1), (2, 2**31)], 3)
    @example(2**64 - 1, [(2, 2**32 - 1), (0, 0)], 7)
    @settings(max_examples=200, deadline=None)
    def test_keys_are_seed_sequence_states(self, seed, labs, attempt):
        kind_keys, indices = np.array(labs, dtype=np.uint32).T
        got = synthetic._keys(synthetic._seed_pool(seed), kind_keys, indices, attempt)
        want = [
            np.random.SeedSequence(seed, spawn_key=(kind, index, attempt))
            .generate_state(2, np.uint64).tolist()
            for kind, index in labs
        ]
        assert got == want

    @given(seeds, layouts(), st.integers(2, 40))
    @example(2**64 - 1, ScenarioLayout(1, 1, 1), 2)
    @settings(max_examples=60, deadline=None)
    def test_draws_are_generator_integers(self, seed, layout, n):
        # the uniforms handed to the inverse CDF, all labs in layout order
        scenario = reference_scenario(seed=seed, n=n, layout=layout)
        seen = []

        def inverse_cdf(u):
            seen.append(u.copy())
            return ndtri(u)

        with mock.patch.object(synthetic, "ndtri", inverse_cdf):
            recorded(lambda: generate_scenario(scenario))
        want = [
            reference_uniforms(seed, kind, index, 2 * n if kind == "linking" else n)
            for kind, count in (("a_only", layout.only_a), ("linking", layout.linking),
                                ("b_only", layout.only_b))
            for index in range(count)
        ]
        assert np.array_equal(seen[0], np.concatenate(want))

    @given(seeds, layouts(), st.integers(2, 300),
           st.sampled_from([20.0, 1e-30]), st.floats(-0.99, 0.99), st.integers(1, 6))
    @example(7, ScenarioLayout(0, 3, 0), 2, 20.0, 0.5, 256)  # every attempt degenerate
    @example(11, ScenarioLayout(4, 2, 3), 5, 1e-30, 0.0, 2)  # retries across blocks
    @settings(max_examples=60, deadline=None)
    def test_datasets_equal_the_reference(self, seed, layout, n, sigma_a, rho, block):
        scenario = reference_scenario(
            seed=seed, layout=layout, n=n, sigma_a=sigma_a, rho=rho
        )
        with mock.patch.object(synthetic, "_BLOCK_LABS", block):
            got, got_warnings = recorded(lambda: generate_scenario(scenario).labs)
        want, want_warnings = recorded(lambda: oracles.reference_scenario_labs(scenario))
        assert list(map(repr, got)) == list(map(repr, want))
        assert got_warnings == want_warnings

    @given(seeds, kinds, st.integers(0, 2**32 - 1), st.integers(2, 300),
           st.sampled_from([20.0, 1e-30]))
    @example(3, "linking", 0, 2, 20.0)
    @example(2**64 - 1, "a_only", 2**32 - 1, 2, 1e-30)
    @settings(max_examples=60, deadline=None)
    def test_sample_lab_equals_the_reference(self, seed, kind, index, n, sigma_a):
        scenario = reference_scenario(seed=seed, n=n, sigma_a=sigma_a)
        got = recorded(lambda: sample_lab(scenario, kind, index))
        want = recorded(lambda: oracles.reference_sample_lab(scenario, kind, index))
        assert repr(got) == repr(want)
