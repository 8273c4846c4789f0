"""Reproducible synthetic comparison datasets.

Each laboratory is simulated by drawing ``n`` observations of its
travelling standard(s) from a Gaussian population and reporting the sample
mean, the standard deviation of the mean, and (for linking laboratories)
the covariance of the two means.

Substream layout: attempt ``attempt`` at lab ``index`` of a kind (0 for
A-only, 1 for linking, 2 for B-only) reads numpy's Philox4x64-10 generator
with key ``SeedSequence(seed, spawn_key=(kind, index,
attempt)).generate_state(2, np.uint64)`` from counter 0.  Each raw 64-bit
output gives one uniform ``((raw >> 11) + 0.5) / 2**53`` in (0, 1) (``raw
>> 11`` is ``Generator.integers(0, 2**53)``) and one standard normal by the
inverse CDF.  A single-standard lab takes ``n`` outputs.  A linking lab
takes ``2n``: ``n`` normals for standard A, then ``n`` independent ones
mixed with A's to give correlation ``rho`` for standard B.  So changing
one group's size never perturbs the draws of other labs.

A scenario's labs are keyed, drawn and reduced together, in blocks of
``_BLOCK_LABS`` labs, straight into the dataset's columns: see :func:`_keys`
and :func:`_draw`.
"""

from __future__ import annotations

import json
import operator
import warnings as _warnings
from dataclasses import dataclass
from itertools import compress
from math import isfinite
from numbers import Real
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .model import ComparisonDataset, LabResult, ValidationError, validate_dataset

LabKind = str  # "a_only" | "linking" | "b_only"

_KIND_KEYS = {"a_only": 0, "linking": 1, "b_only": 2}

# retries with fresh substreams before giving up on a non-degenerate sample
_MAX_ATTEMPTS = 8

# relative floor for the reported uncertainty when every retry produced a
# degenerate (zero spread) sample, e.g. when sigma underflows next to the
# true value; keeps the lab valid
_DEGENERATE_U_FLOOR = 1e-15

# labs drawn and reduced together, so memory does not grow with their number
_BLOCK_LABS = 256

_M32 = 0xFFFFFFFF


@dataclass(frozen=True)
class ScenarioLayout:
    """How many laboratories of each participation kind to simulate."""

    only_a: int
    linking: int
    only_b: int

    def __post_init__(self) -> None:
        counts = (self.only_a, self.linking, self.only_b)
        if min(counts) < 0:
            raise ValidationError("layout counts must be non-negative")
        if max(counts) >= 2**32:  # a lab index is one 32-bit word of its key
            raise ValidationError("layout counts must be below 2**32")
        if self.only_a + self.linking < 1 or self.only_b + self.linking < 1:
            raise ValidationError("each standard needs at least one laboratory")


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
    """seed_seq's hashmix (O'Neill), on Python ints or on uint32 arrays."""
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32  # MIX_MULT_L, MIX_MULT_R
    return value ^ value >> 16


def _column(words) -> np.ndarray:
    return np.array(words, dtype=np.uint32)[:, None]


# each hashmix step xors with one constant of a chain and multiplies by the
# next: INIT_A * MULT_A**i while entropy is mixed into the 4-word pool
# (steps 0-3 take the seed words, 4-15 cross-mix the pool, then each spawn
# word takes one step per pool slot), INIT_B * MULT_B**i for the output
_A = [0x43B0D7E5 * pow(0x931E8875, i, 2**32) & _M32 for i in range(29)]
_B = [0x8B51F9DD * pow(0x58F38DED, i, 2**32) & _M32 for i in range(5)]
# hashes of every kind and attempt word into the 4 pool slots
_KIND_HASH = _hashmix(np.arange(3, dtype=np.uint32), _column(_A[16:20]),
                      _column(_A[17:21]))
_INDEX_XOR, _INDEX_MULT = _column(_A[20:24]), _column(_A[21:25])
_ATTEMPT_HASH = _hashmix(np.arange(_MAX_ATTEMPTS, dtype=np.uint32), _column(_A[24:28]),
                         _column(_A[25:29]))
_STATE_XOR, _STATE_MULT = _column(_B[:4]), _column(_B[1:])


def _seed_pool(seed: int) -> np.ndarray:
    """The entropy pool once the seed, padded to 4 words, is mixed in."""
    words = (seed & _M32, seed >> 32 & _M32, 0, 0)
    pool = [_hashmix(word, _A[i], _A[i + 1]) for i, word in enumerate(words)]
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    for step, (src, dst) in enumerate(pairs, start=4):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _A[step], _A[step + 1]))
    return _column(pool)


def _keys(pool: np.ndarray, kinds: np.ndarray, indices: np.ndarray, attempt: int):
    """``SeedSequence(seed, spawn_key=(kind, index, attempt))
    .generate_state(2, np.uint64)`` per lab, from the seed's ``pool``."""
    words = _mix(pool, _KIND_HASH[:, kinds])
    words = _mix(words, _hashmix(indices, _INDEX_XOR, _INDEX_MULT))
    words = _mix(words, _ATTEMPT_HASH[:, attempt, None])
    words = _hashmix(words, _STATE_XOR, _STATE_MULT)
    # word pairs read as little-endian uint64, as numpy does
    return words.T.astype("<u4", order="C").view("<u8").tolist()


def _moments(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row means, standard deviations of the mean and deviations."""
    n = obs.shape[1]
    mean = np.add.reduce(obs, axis=1) / n
    dev = obs - mean[:, None]
    return mean, np.sqrt(np.add.reduce(dev**2, axis=1) / (n - 1) / n), dev


def _reduce(sc: SyntheticScenario, kind: int, z: np.ndarray, out: np.ndarray):
    """Write the labs of one kind from their normals into their columns of
    ``out``, rows x_a, x_b, u_a, u_b, cov_ab, and return where a sample is
    not degenerate; the rows of a standard not measured are left alone."""
    n = sc.n
    if kind == _KIND_KEYS["linking"]:
        z_a, z_i = z[:, :n], z[:, n:]
        z_b = sc.rho * z_a + np.sqrt(1.0 - sc.rho**2) * z_i
        x_a, u_a, d_a = _moments(sc.y_a_true + sc.sigma_a * z_a)
        x_b, u_b, d_b = _moments(sc.y_b_true + sc.sigma_b * z_b)
        cov = np.add.reduce(d_a * d_b, axis=1) / (n - 1) / n
        out[0], out[1], out[2], out[3], out[4] = x_a, x_b, u_a, u_b, cov
        return (u_a > 0.0) & (u_b > 0.0) & (np.abs(cov) < u_a * u_b)
    row = 0 if kind == _KIND_KEYS["a_only"] else 1
    y, sigma = (sc.y_a_true, sc.sigma_a) if row == 0 else (sc.y_b_true, sc.sigma_b)
    out[row], out[row + 2], _ = _moments(y + sigma * z)
    return out[row + 2] > 0.0


def _draw(sc: SyntheticScenario, pool, philox, kinds, indices, attempt: int, out):
    """:func:`_reduce` for labs in layout order at ``attempt``, into ``out``:
    ``philox`` re-keyed per lab, one inverse CDF for all."""
    widths = (sc.n, 2 * sc.n, sc.n)  # raw outputs per lab of each kind
    key = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": key, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    raw = []
    for kind, lab_key in zip(kinds.tolist(), _keys(pool, kinds, indices, attempt)):
        key["key"] = lab_key
        philox.state = state
        raw.append(philox.random_raw(widths[kind]))
    z = ndtri(((np.concatenate(raw) >> 11) + 0.5) / 2**53)
    ok, lab, end = [], 0, 0
    for kind, count in enumerate(np.bincount(kinds, minlength=3).tolist()):
        if count:
            start, end = end, end + count * widths[kind]
            ok.append(_reduce(sc, kind, z[start:end].reshape(count, -1),
                              out[:, lab:lab + count]))
            lab += count
    return np.concatenate(ok)


def _sample(sc: SyntheticScenario, kinds, indices, labels: list[str]) -> np.ndarray:
    """The x_a, x_b, u_a, u_b, cov_ab rows (NaN where not measured) of the
    labelled labs of the given kinds and indices, in layout order."""
    pool = _seed_pool(sc.seed)
    philox = np.random.Philox(0)  # this call's own, re-keyed for every lab
    rows = np.full((5, len(labels)), np.nan)
    for first in range(0, len(labels), _BLOCK_LABS):
        block = slice(first, first + _BLOCK_LABS)
        ok = _draw(sc, pool, philox, kinds[block], indices[block], 0, rows[:, block])
        for lab in compress(range(first, len(labels)), (~ok).tolist()):  # degenerate
            one = slice(lab, lab + 1)  # the lab alone, at its next substreams
            for attempt in range(1, _MAX_ATTEMPTS + 1):
                _warnings.warn(f"{labels[lab]}: degenerate sample (attempt {attempt}), "
                               f"redrawing from the next substream",
                               RuntimeWarning, stacklevel=3)
                if attempt == _MAX_ATTEMPTS:  # keep the means, floor the uncertainties
                    x, u, cov = rows[:2, lab], rows[2:4, lab], rows[4, lab]
                    rows[2:4, lab] = np.maximum(
                        u, np.maximum(np.abs(x), 1.0) * _DEGENERATE_U_FLOOR)
                    rows[4, lab] = cov if cov != cov else 0.0
                elif _draw(sc, pool, philox, kinds[one], indices[one], attempt, rows[:, one])[0]:
                    break
    return rows


def sample_lab(scenario: SyntheticScenario, kind: LabKind, index: int) -> LabResult:
    """Simulate one laboratory's reported result, labelled ``{kind}-{index + 1:02d}``.

    ``index``, in [0, 2**32), selects the lab's substream within its kind;
    degenerate samples are redrawn as by :func:`generate_scenario`.
    """
    if kind not in _KIND_KEYS:
        raise ValidationError(f"unknown laboratory kind: {kind!r}")
    if not 0 <= operator.index(index) < 2**32:
        raise ValidationError(f"laboratory index {index} is not in [0, 2**32)")
    kinds, indices = np.array([[_KIND_KEYS[kind]], [index]], dtype=np.uint32)
    labels = [f"{kind}-{index + 1:02d}"]
    numbers = _sample(scenario, kinds, indices, labels)[[0, 2, 1, 3, 4], 0].tolist()
    return LabResult(labels[0], *[None if v != v else v for v in numbers])


def generate_scenario(scenario: SyntheticScenario) -> ComparisonDataset:
    """Simulate the full comparison: labelled labs in layout order.

    Deterministic for a given scenario; labels run LAB-01, LAB-02, ... over
    the A-only, linking and B-only groups in that order.  A sample with zero
    spread (or, for a linking lab, a singular sample correlation) is redrawn
    from the lab's next substream with a warning; after 8 degenerate attempts
    the last one's means are reported with floored uncertainties.
    """
    layout = scenario.layout
    counts = (layout.only_a, layout.linking, layout.only_b)
    kinds = np.repeat(np.arange(3, dtype=np.uint32), counts)
    indices = np.concatenate([np.arange(count, dtype=np.uint32) for count in counts])
    labels = [f"LAB-{i:02d}" for i in range(1, len(kinds) + 1)]
    rows = _sample(scenario, kinds, indices, labels)
    return validate_dataset(labels, rows[:2], rows[2:4], rows[4])


def _field(data: dict, key: str, kind: type):
    """``data[key]`` as ``kind``: from a number only (not a bool or a string),
    and an int not from a fraction."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, Real) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"malformed scenario: {key}: expected "
                              f"{kind.__name__}, got {value!r}")
    return kind(value)


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
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ValidationError(f"malformed scenario: {exc}") from None


def load_scenario(path: str | Path) -> SyntheticScenario:
    """Read a scenario specification from a JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
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
