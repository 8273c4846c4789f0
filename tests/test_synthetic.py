import copy
import dataclasses
import json
import math
import pickle
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import ndtri

from kclink import synthetic
from kclink.linking import link
from kclink.model import LabResult, ValidationError
from kclink.synthetic import (
    ScenarioLayout,
    SyntheticScenario,
    generate_scenario,
    load_scenario,
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

    @pytest.mark.parametrize("field", ["only_a", "linking", "only_b", "n", "seed"])
    @pytest.mark.parametrize("value, integral", [
        (2.5, False), (np.float32(2.5), False), (math.inf, False), (math.nan, False),
        ("2", False), (True, False), (None, False),
        (2, True), (2.0, True), (np.int64(2), True), (np.uint64(2), True),
        (np.float32(2.0), True),
    ])
    def test_counts_n_and_seed_must_be_integral(self, field, value, integral):
        # checked as scenario files are, and never truncated; n = 2 is the least n
        def build():
            if field in ("n", "seed"):
                return reference_scenario(**{field: value})
            counts = {"only_a": 8, "linking": 4, "only_b": 5, field: value}
            return reference_scenario(layout=ScenarioLayout(**counts))

        if not integral:
            with pytest.raises(ValidationError, match=f"^{field}: expected int, got "):
                build()
            return
        scenario = build()
        stored = getattr(scenario if field in ("n", "seed") else scenario.layout, field)
        assert type(stored) is int and stored == 2

    @pytest.mark.parametrize("field, value", [
        *(pytest.param(field, value, id=f"{field}-{kind}")
          for field in ("y_a_true", "y_b_true", "sigma_a", "sigma_b", "rho")
          for kind, value in (("str", "1"), ("none", None), ("bool", True),
                              ("int-beyond-float", 10**400))),
        pytest.param("layout", (2, 1, 2), id="layout-tuple"),
    ])
    def test_truth_sigma_rho_and_layout_are_checked(self, field, value):
        # as scenario files are: a string, None or a bool is not a number, and an
        # integer beyond the float range is not a float
        with pytest.raises(ValidationError, match=f"^{field}: expected "):
            reference_scenario(**{field: value})

    def test_truth_sigma_and_rho_are_stored_as_float(self):
        scenario = reference_scenario(y_a_true=110, sigma_b=np.float32(50.0), rho=np.int64(0))
        stored = [getattr(scenario, field) for field in ("y_a_true", "sigma_b", "rho")]
        assert [type(value) for value in stored] == [float] * 3
        assert scenario == reference_scenario(rho=0.0)


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
    """One lab's sample statistics, generated in a layout: a lab reads the
    substreams of its kind and index whatever the rest of the layout."""

    def test_reported_fields_by_kind(self):
        layout = ScenarioLayout(only_a=1, linking=1, only_b=1)
        a_only, linking, b_only = generate_scenario(reference_scenario(layout=layout)).labs
        assert a_only.in_group_a and not a_only.in_group_b
        assert linking.is_linking and linking.cov_ab is not None
        assert b_only.in_group_b and not b_only.in_group_a

    def test_vanishing_sigma_reports_truth_exactly(self):
        # perturbations underflow next to the true value: the sample is
        # degenerate, and the exact mean is reported with the floored u
        scenario = reference_scenario(sigma_a=1e-30, layout=ScenarioLayout(1, 0, 1))
        dataset, caught = recorded(lambda: generate_scenario(scenario))
        assert [(category, message.split(",")[0]) for category, message in caught] == [
            (RuntimeWarning, "LAB-01: degenerate sample")]
        lab = dataset.labs[0]
        assert lab.value_a == 110.0
        assert lab.u_a == 110.0 * 1e-15

    def test_two_draws_always_link(self):
        # at n = 2 a linking lab's two draws correlate exactly +-1, however the
        # rounding falls: each such lab warns once and reports no covariance,
        # so no seed gives a dataset that link rejects
        layout = ScenarioLayout(2, 3, 2)
        for seed in range(200):
            scenario = reference_scenario(seed=seed, n=2, layout=layout)
            dataset, caught = recorded(lambda: generate_scenario(scenario))
            assert [(category, message.split(",")[0]) for category, message in caught] == [
                (RuntimeWarning, f"{label}: degenerate sample") for label in dataset.linking]
            assert dataset.cov_ab[dataset.measured.all(axis=0)].tolist() == [0.0] * 3
            link(dataset)

    @pytest.mark.parametrize("y, sigma", [(0.0, 1e300), (1e308, 1e307), (0.0, 1e200)])
    def test_overflowing_draws_raise_without_numpy_warnings(self, y, sigma):
        # the sums of squares (and, at 1e308, the sums of values) overflow: the
        # dataset is rejected for the first lab, and no warning is raised, neither
        # a floating-point one from the draws nor a "degenerate sample" redraw
        scenario = SyntheticScenario(y, 0.0, sigma, 1.0, 0.5, 5, ScenarioLayout(2, 2, 2), 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match="^LAB-01: "):
                generate_scenario(scenario)
        assert not caught, [str(w.message) for w in caught]

    def test_moments_with_large_n(self):
        scenario = reference_scenario(n=10_000, seed=11, layout=ScenarioLayout(0, 1, 0))
        [lab] = generate_scenario(scenario).labs
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
            for lab in generate_scenario(scenario).labs[1:1001]
        ])
        standard_error = rs.std(ddof=1) / math.sqrt(rs.size)
        assert abs(rs.mean()) <= 5 * standard_error

    def test_u_scales_as_sigma_over_sqrt_n(self):
        layout = ScenarioLayout(200, 0, 1)
        base = reference_scenario(n=50, layout=layout, seed=7)
        doubled = reference_scenario(n=100, layout=layout, seed=7)
        u_base = np.mean([lab.u_a for lab in generate_scenario(base).labs[:200]])
        u_doubled = np.mean(
            [lab.u_a for lab in generate_scenario(doubled).labs[:200]]
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

    def test_byte_order_mark(self, tmp_path):
        # as Notepad saves UTF-8: the mark at the start is skipped, and
        # anywhere else it is text
        text = ('{"y_a_true": 1, "y_b_true": 2, "sigma_a": 1, "sigma_b": 3, "rho": 0.5,'
                ' "n": 5, "layout": {"only_a": 1, "linking": 1, "only_b": 1}, "seed": 7}')
        plain, marked, inside = (tmp_path / f"{name}.json" for name in ("plain", "bom", "in"))
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        inside.write_text(" \ufeff" + text, encoding="utf-8")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert load_scenario(marked) == load_scenario(plain)
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_scenario(inside)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "B\xe9"}'.encode("latin-1"))
        with pytest.raises(ValidationError, match=r"latin1\.json: not UTF-8 text "
                                                  r"\(invalid continuation byte\)$"):
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
    seq = np.random.SeedSequence(seed, spawn_key=(oracles._KIND_KEYS[kind], index, 0))
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

    @given(seeds)
    @example(0)
    @example(2**32 - 1)
    @example(2**32)
    @example(2**63)
    @example(2**64 - 1)
    def test_seed_pool_is_the_reference_pool(self, seed):
        pool = synthetic._seed_pool(seed)
        assert pool.dtype == np.uint32 and pool.shape == (4, 1)
        assert pool[:, 0].tolist() == oracles.reference_seed_pool(seed)

    @given(seeds, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1)),
                           min_size=1, max_size=6))
    @example(0, [(0, 0), (1, 0), (2, 0)])
    @example(2**32 - 1, [(1, 2**32 - 1)])
    @example(2**32, [(0, 1), (2, 2**31)])
    @example(2**64 - 1, [(2, 2**32 - 1), (0, 0)])
    @settings(max_examples=200, deadline=None)
    def test_keys_are_seed_sequence_states(self, seed, labs):
        words = synthetic._lab_words(*np.array(labs, dtype=np.uint32).T)
        got = synthetic._keys(synthetic._seed_pool(seed), words)
        want = [
            np.random.SeedSequence(seed, spawn_key=(kind, index, 0))
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

        with mock.patch.object(synthetic, "_ndtri", lambda: inverse_cdf):
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
    @example(7, ScenarioLayout(0, 3, 0), 2, 20.0, 0.5, 256)  # every lab degenerate
    @example(11, ScenarioLayout(4, 2, 3), 5, 1e-30, 0.0, 2)  # degenerate labs across blocks
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
        # each naming its lab: one warning per degenerate lab
        assert len(set(got_warnings)) == len(got_warnings)

    @given(seeds, kinds, st.integers(0, 2**32 - 1), st.integers(2, 300),
           st.sampled_from([20.0, 1e-30]))
    @example(3, "linking", 0, 2, 20.0)
    @example(2**64 - 1, "a_only", 2**32 - 1, 2, 1e-30)
    @settings(max_examples=60, deadline=None)
    def test_sample_lab_equals_the_reference(self, seed, kind, index, n, sigma_a):
        # one lab of a kind at any index, sampled on its own
        scenario = reference_scenario(seed=seed, n=n, sigma_a=sigma_a)
        label = f"{kind}-{index + 1:02d}"
        kinds, indices = np.array([[oracles._KIND_KEYS[kind]], [index]], dtype=np.uint32)
        words = synthetic._lab_words(kinds, indices)
        rows, got_warnings = recorded(
            lambda: synthetic._sample(scenario, kinds, words, [label]))
        numbers = rows[[0, 2, 1, 3, 4], 0].tolist()  # x_a, u_a, x_b, u_b, cov_ab
        got = LabResult(label, *[None if v != v else v for v in numbers])
        want = recorded(lambda: oracles.reference_sample_lab(scenario, kind, index))
        assert repr((got, got_warnings)) == repr(want)
        assert len(got_warnings) <= 1


REFERENCE = reference_scenario()
# two draws of a linking lab always correlate fully, so every lab is degenerate
DEGENERATE = reference_scenario(seed=7, layout=ScenarioLayout(0, 3, 0), n=2)


class ThreadRecorder(threading.local):
    """A stand-in for the ``warnings`` module that keeps each thread's
    warnings apart."""

    def warn(self, message, category, stacklevel):
        self.seen.append((category, message))


def drawn(scenario, recorder):
    """``repr`` of the dataset and of the warnings of ``generate_scenario``,
    with ``recorder`` in place of the ``warnings`` module."""
    recorder.seen = []
    dataset = generate_scenario(scenario)
    return repr((dataset, dataset.labs, recorder.seen))


class TestKeptSetUp:
    """Set-up that does not depend on the seed is made once: the layout's
    labs and their key words per layout object, the Philox generator per
    thread."""

    def test_second_draw_constructs_no_generator(self):
        made = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            made.append(args)
            return philox(*args, **kwargs)

        with mock.patch.object(np.random, "Philox", counting):
            generate_scenario(reference_scenario(seed=1))
            made.clear()
            generate_scenario(reference_scenario(seed=2))
            recorded(lambda: generate_scenario(DEGENERATE))
        assert made == []

    def test_datasets_of_one_layout_share_its_labels(self):
        layout = ScenarioLayout(8, 4, 5)
        first = generate_scenario(reference_scenario(seed=1, layout=layout))
        second = generate_scenario(reference_scenario(seed=2, layout=layout))
        assert first.labels is second.labels
        kinds, words, labels = layout._labs
        assert labels is first.labels
        assert not kinds.flags.writeable and not words.flags.writeable
        assert layout._labs[1] is words  # built once, read by every draw
        with pytest.raises(ValueError, match="read-only"):
            words[..., 0] = 0

    @pytest.mark.parametrize("scenario", [REFERENCE, DEGENERATE],
                             ids=["clean", "degenerate"])
    def test_kept_words_draw_as_a_fresh_layout(self, scenario):
        # one layout object and its words across seeds, with and without
        # degenerate labs, against a fresh layout at each seed
        for seed in (0, 1, 2**32, 2**64 - 1):
            kept = dataclasses.replace(scenario, seed=seed)
            fresh = dataclasses.replace(
                kept, layout=ScenarioLayout(*dataclasses.astuple(scenario.layout)))
            (got, got_warnings), (want, want_warnings) = (
                recorded(lambda: generate_scenario(one)) for one in (kept, fresh))
            assert kept.layout._labs[1] is scenario.layout._labs[1]
            for column in ("x", "u", "cov_ab"):
                assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
            assert got_warnings == want_warnings

    def test_nothing_leaks_through_the_reused_generator(self):
        # A, then B on another layout with degenerate labs, then A again
        a = reference_scenario(seed=5)
        first = generate_scenario(a)
        recorded(lambda: generate_scenario(DEGENERATE))
        again = generate_scenario(a)
        for column in ("x", "u", "cov_ab"):
            assert getattr(first, column).tobytes() == getattr(again, column).tobytes()
        assert list(map(repr, first.labs)) == list(
            map(repr, oracles.reference_scenario_labs(a)))

    def test_layout_value_ignores_the_kept_set_up(self):
        layout = ScenarioLayout(8, 4, 5)
        generate_scenario(reference_scenario(layout=layout))
        assert "_labs" in vars(layout)
        fresh = ScenarioLayout(8, 4, 5)
        assert layout == fresh and hash(layout) == hash(fresh)
        assert repr(layout) == repr(fresh)
        assert pickle.dumps(layout) == pickle.dumps(fresh)
        for clone in (pickle.loads(pickle.dumps(layout)), copy.deepcopy(layout)):
            assert clone == layout and vars(clone) == vars(fresh)
        # the kept words are those a fresh layout builds
        words, fresh_words = layout._labs[1], fresh._labs[1]
        assert words is not fresh_words and words.dtype == fresh_words.dtype == np.uint32
        assert words.shape == fresh_words.shape == (2, 4, 17)
        assert words.tobytes() == fresh_words.tobytes()


class TestThreads:
    def test_threads_draw_as_one_thread(self):
        # four threads take interleaved seeds of two shared scenarios, one of
        # them degenerate in every lab; switching threads as often as possible
        seeds = range(48)
        jobs = [dataclasses.replace(scenario, seed=seed)
                for seed in seeds for scenario in (REFERENCE, DEGENERATE)]
        recorder = ThreadRecorder()
        got = [None] * len(jobs)
        start = threading.Barrier(4, timeout=60)

        def work(first):
            start.wait()
            for k in range(first, len(jobs), 4):
                got[k] = drawn(jobs[k], recorder)

        threads = [threading.Thread(target=work, args=(first,)) for first in range(4)]
        interval = sys.getswitchinterval()
        with mock.patch.object(synthetic, "_warnings", recorder):
            want = [drawn(job, recorder) for job in jobs]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want
        assert [text.count("degenerate sample") for text in want] == [0, 3] * len(seeds)
