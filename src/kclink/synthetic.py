"""Reproducible synthetic comparison datasets.

Each laboratory is simulated by drawing ``n`` observations of its
travelling standard(s) from a Gaussian population and reporting the sample
mean, the standard deviation of the mean, and (for linking laboratories)
the covariance of the two means.

Substream layout: lab ``index`` of a kind (0 for A-only, 1 for linking, 2
for B-only) reads numpy's Philox4x64-10 generator with key
``SeedSequence(seed, spawn_key=(kind, index, 0)).generate_state(2,
np.uint64)`` from counter 0.  Each raw 64-bit output gives one uniform
``((raw >> 11) + 0.5) / 2**53`` in (0, 1) (``raw >> 11`` is
``Generator.integers(0, 2**53)``) and one standard normal by the inverse
CDF.  A single-standard lab takes ``n`` outputs.  A linking lab takes
``2n``: ``n`` normals for standard A, then ``n`` independent ones mixed
with A's to give correlation ``rho`` for standard B.  So changing one
group's size never perturbs the draws of other labs.  A lab reads only its
one substream: a degenerate sample is reported with floored uncertainties
(see :func:`generate_scenario`).

A scenario's labs are keyed, drawn and reduced together, in blocks of
``_BLOCK_LABS`` labs, straight into the dataset's columns: see :func:`_keys`
and :func:`_draw`.  Only the seed's work is redone per replicate.  A layout
object builds its labs' kinds, labels and the seed-independent words of their
keys (:func:`_lab_words`) once, so :func:`_keys` runs only the mixes that read
the seed's pool; each thread keeps one Philox generator, given its full state
before every lab's draw.  The substreams and bits are those of fresh objects.
"""

from __future__ import annotations

import json
import threading
import warnings as _warnings
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import compress
from math import isfinite
from numbers import Real
from pathlib import Path

import numpy as np

from .model import ComparisonDataset, ValidationError, validate_dataset

# relative floor for the reported uncertainties of a degenerate sample, e.g.
# of zero spread when sigma underflows next to the true value; keeps the lab valid
_DEGENERATE_U_FLOOR = 1e-15

# labs drawn and reduced together, so memory does not grow with their number
_BLOCK_LABS = 256

_M32 = 0xFFFFFFFF

# each thread's Philox generator, made on its first draw
_THREAD = threading.local()


def _number(value, name: str, kind: type):
    """``value`` as ``kind``: from a number only (not a bool or a string),
    an int only from an integral value and a float only within its range."""
    if isinstance(value, bool) or not isinstance(value, Real) or (kind is int and value % 1):
        raise ValidationError(f"{name}: expected {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # e.g. float(10**400)
        raise ValidationError(f"{name}: expected {kind.__name__}, "
                              f"got a number beyond its range") from None


def _convert(obj, kind: type, *names: str) -> None:
    for name in names:  # stored as kind, through the frozen dataclass
        object.__setattr__(obj, name, _number(getattr(obj, name), name, kind))


@dataclass(frozen=True)
class ScenarioLayout:
    """How many laboratories of each participation kind to simulate; the
    labs' kinds, key words and labels are kept on the object from its first
    draw, unseen by equality, hashing, ``repr`` and pickling."""

    only_a: int
    linking: int
    only_b: int

    def __post_init__(self) -> None:
        _convert(self, int, "only_a", "linking", "only_b")
        counts = (self.only_a, self.linking, self.only_b)
        if min(counts) < 0:
            raise ValidationError("layout counts must be non-negative")
        if max(counts) >= 2**32:  # a lab index is one 32-bit word of its key
            raise ValidationError("layout counts must be below 2**32")
        if self.only_a + self.linking < 1 or self.only_b + self.linking < 1:
            raise ValidationError("each standard needs at least one laboratory")

    def __reduce__(self):  # copies and pickles are rebuilt from the counts
        return ScenarioLayout, (self.only_a, self.linking, self.only_b)

    @cached_property
    def _labs(self) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Each lab's kind, the seed-independent words of its substream keys
        (:func:`_lab_words` of its kind and index within its kind; both
        read-only uint32 arrays) and its label, in layout order."""
        counts = (self.only_a, self.linking, self.only_b)
        kinds = np.repeat(np.arange(3, dtype=np.uint32), counts)
        words = _lab_words(kinds, np.concatenate(
            [np.arange(count, dtype=np.uint32) for count in counts]))
        kinds.flags.writeable = words.flags.writeable = False
        return kinds, words, tuple(f"LAB-{i:02d}" for i in range(1, len(kinds) + 1))


@dataclass(frozen=True)
class SyntheticScenario:
    """Ground truth and sampling plan for a synthetic comparison."""

    y_a_true: float
    y_b_true: float
    sigma_a: float
    sigma_b: float
    rho: float
    n: int
    layout: ScenarioLayout
    seed: int

    def __post_init__(self) -> None:
        _convert(self, int, "n", "seed")
        _convert(self, float, "y_a_true", "y_b_true", "sigma_a", "sigma_b", "rho")
        if not isinstance(self.layout, ScenarioLayout):
            raise ValidationError(f"layout: expected ScenarioLayout, got {self.layout!r}")
        for name in ("y_a_true", "y_b_true", "sigma_a", "sigma_b"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not self.sigma_a > 0.0 or not self.sigma_b > 0.0:
            raise ValidationError("population standard deviations must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValidationError("population correlation must lie inside (-1, 1)")
        if self.n < 2:
            raise ValidationError("sample size per laboratory must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 bits")


def _hashmix(value, xor, mult):
    """seed_seq's hashmix (O'Neill), on uint32 arrays, which wrap."""
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _column(words) -> np.ndarray:
    return np.array(words, dtype=np.uint32)[:, None]


# seed_seq's mix(x, y) is (MIX_MULT_L * x - MIX_MULT_R * y) ^ its >> 16
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# each hashmix step xors with one constant of a chain and multiplies by the
# next: INIT_A * MULT_A**i while entropy is mixed into the 4-word pool
# (steps 0-3 take the seed words, 4-15 cross-mix the pool, then each spawn
# word takes one step per pool slot), INIT_B * MULT_B**i for the output
_A = [0x43B0D7E5 * pow(0x931E8875, i, 2**32) & _M32 for i in range(29)]
_B = [0x8B51F9DD * pow(0x58F38DED, i, 2**32) & _M32 for i in range(5)]
# MIX_MULT_R times the hash of every kind word, and of the third spawn word
# (0), into the 4 pool slots: the right-hand words of their mixes
_KIND_WORDS = _MIX_R * _hashmix(np.arange(3, dtype=np.uint32), _column(_A[16:20]),
                                _column(_A[17:21]))
_INDEX_XOR, _INDEX_MULT = _column(_A[20:24]), _column(_A[21:25])
_ZERO_WORDS = _MIX_R * _hashmix(np.uint32(0), _column(_A[24:28]), _column(_A[25:29]))
_STATE_XOR, _STATE_MULT = _column(_B[:4]), _column(_B[1:])


def _seed_pool(seed: int) -> np.ndarray:
    """The entropy pool once the seed, padded to 4 words, is mixed in."""
    return np.random.SeedSequence(seed).pool[:, None]


def _lab_words(kinds: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The right-hand words of the kind and index mixes of :func:`_keys`,
    shaped (2, 4, labs): they depend on the labs, not on the seed."""
    return np.stack((_KIND_WORDS[:, kinds],
                     _MIX_R * _hashmix(indices, _INDEX_XOR, _INDEX_MULT)))


def _keys(pool: np.ndarray, words: np.ndarray):
    """``SeedSequence(seed, spawn_key=(kind, index, 0))
    .generate_state(2, np.uint64)`` per lab, from the seed's ``pool`` and the
    labs' :func:`_lab_words`: the pool-dependent mixes, in place on one
    (4, labs) array."""
    keys = _MIX_L * pool - words[0]
    for right in (words[1], _ZERO_WORDS):
        keys ^= keys >> 16
        keys *= _MIX_L
        keys -= right
    keys ^= keys >> 16
    keys ^= _STATE_XOR  # the output hashmix
    keys *= _STATE_MULT
    keys ^= keys >> 16
    # word pairs read as little-endian uint64, as numpy does
    return keys.T.astype("<u4", order="C").view("<u8").tolist()


def _moments(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row means, standard deviations of the mean and deviations."""
    n = obs.shape[1]
    mean = np.add.reduce(obs, axis=1) / n
    dev = obs - mean[:, None]
    return mean, np.sqrt(np.add.reduce(dev**2, axis=1) / (n - 1) / n), dev


@cache
def _ndtri():
    """SciPy's inverse normal CDF, imported on the first draw: nothing but
    synthetic generation needs SciPy, so linking processes never load it."""
    from scipy.special import ndtri

    return ndtri


def _draw(sc: SyntheticScenario, pool, philox, kinds, words, out):
    """Write the labs, in layout order, into their columns of ``out``, rows
    x_a, x_b, u_a, u_b, cov_ab, and return where a finite sample is
    degenerate; the rows of a standard not measured are left alone.
    ``philox`` is re-keyed per lab, and one inverse CDF and one reduction
    serve all labs."""
    n = sc.n
    widths = (n, 2 * n, n)  # raw outputs per lab of each kind
    key = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": key, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    raw = []
    for kind, lab_key in zip(kinds.tolist(), _keys(pool, words)):
        key["key"] = lab_key
        philox.state = state
        raw.append(philox.random_raw(widths[kind]))
    raw = np.concatenate(raw)
    raw >>= 11
    uniforms = raw + 0.5
    uniforms *= 2**-53  # a power of two: exactly the division
    z = _ndtri()(uniforms).reshape(-1, n)
    # one series per lab and standard, A's then B's: standard A's labs are
    # [0, a), B's [b, len(kinds)) and linking [b, a); lab j's A series is j,
    # its B series a + j - b
    b, links = np.bincount(kinds, minlength=2)[:2].tolist()
    a = b + links
    z_a, z_i = z[b:a + links:2], z[b + 1:a + links:2]  # a linking lab's two halves
    mean, u, dev = _moments(np.concatenate((
        sc.y_a_true + sc.sigma_a * np.concatenate((z[:b], z_a)),
        sc.y_b_true + sc.sigma_b * np.concatenate(
            (sc.rho * z_a + np.sqrt(1.0 - sc.rho**2) * z_i, z[a + links:])))))
    cov = np.add.reduce(dev[b:a] * dev[a:a + links], axis=1) / (n - 1) / n
    out[0, :a], out[1, b:], out[2, :a], out[3, b:], out[4, b:a] = (
        mean[:a], mean[a:], u[:a], u[a:], cov)
    # zero spread, or |cov| >= u_a * u_b (which a zero u_a or u_b implies), as
    # comparisons that a NaN from an overflow fails: it is no degenerate sample.
    # Two draws correlate exactly +-1, so at n = 2 every linking sample that
    # did not overflow is, whatever the rounding gives
    bad = u <= 0.0
    bad[a:a + links] = np.abs(cov) - u[b:a] * u[a:a + links] >= (-np.inf if n == 2 else 0.0)
    return np.concatenate((bad[:b], bad[a:]))  # each lab's last series


def _sample(sc: SyntheticScenario, kinds, words, labels: Sequence[str]) -> np.ndarray:
    """The x_a, x_b, u_a, u_b, cov_ab rows (NaN where not measured) of the
    labelled labs of the given kinds and :func:`_lab_words`, in layout order."""
    pool = _seed_pool(sc.seed)
    philox = getattr(_THREAD, "philox", None)  # this thread's, re-keyed for every lab
    if philox is None:
        philox = _THREAD.philox = np.random.Philox(0)
    rows = np.full((5, len(labels)), np.nan)
    # an overflow shows as a value the dataset's checks reject, not a NumPy
    # warning; scoped here, not in a helper, to keep the warnings' stacklevel
    with np.errstate(all="ignore"):
        for first in range(0, len(labels), _BLOCK_LABS):
            block = slice(first, first + _BLOCK_LABS)
            bad = _draw(sc, pool, philox, kinds[block], words[..., block], rows[:, block])
            for lab in compress(range(first, len(labels)), bad.tolist()):  # degenerate
                _warnings.warn(f"{labels[lab]}: degenerate sample, reported with floored "
                               f"uncertainties and any covariance as 0.0",
                               RuntimeWarning, stacklevel=3)
                x, u, cov = rows[:2, lab], rows[2:4, lab], rows[4, lab]
                rows[2:4, lab] = np.maximum(u, np.maximum(np.abs(x), 1.0) * _DEGENERATE_U_FLOOR)
                rows[4, lab] = cov if cov != cov else 0.0  # a linking lab's is zero
    return rows


def generate_scenario(scenario: SyntheticScenario) -> ComparisonDataset:
    """Simulate the full comparison: labelled labs in layout order.

    Deterministic for a given scenario; labels run LAB-01, LAB-02, ... over
    the A-only, linking and B-only groups in that order.  A degenerate
    sample, one with zero spread or, for a linking lab, a singular sample
    correlation (always so at ``n = 2``), gives one ``RuntimeWarning``; its
    means are reported with each uncertainty raised to at least
    ``max(|x|, 1) * 1e-15`` and a linking lab's covariance as 0.0.  A sample
    that overflowed is no degenerate one: the dataset's checks reject its value.
    """
    kinds, words, labels = scenario.layout._labs
    rows = _sample(scenario, kinds, words, labels)
    return validate_dataset(labels, rows[:2], rows[2:4], rows[4])


def _field(data: dict, key: str, kind: type):
    """``data[key]`` as ``kind``, by the rule of :func:`_number`."""
    return _number(data[key], f"malformed scenario: {key}", kind)


def scenario_from_dict(data: dict) -> SyntheticScenario:
    try:
        layout = data["layout"]
        truth = [_field(data, key, float) for key in ("y_a_true", "y_b_true",
                                                      "sigma_a", "sigma_b", "rho")]
        counts = [_field(layout, key, int) for key in ("only_a", "linking", "only_b")]
        return SyntheticScenario(*truth, n=_field(data, "n", int),
                                 layout=ScenarioLayout(*counts),
                                 seed=_field(data, "seed", int))
    except KeyError as missing:
        raise ValidationError(f"scenario is missing field {missing}") from None
    except TypeError as exc:  # a layout that is not an object
        raise ValidationError(f"malformed scenario: {exc}") from None


def load_scenario(path: str | Path) -> SyntheticScenario:
    """Read a scenario specification from a JSON file."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            data = json.load(handle)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (ValueError, RecursionError) as exc:  # malformed, too many digits, too deep
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    try:
        if not isinstance(data, dict):
            raise ValidationError("scenario must be a JSON object")
        return scenario_from_dict(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
