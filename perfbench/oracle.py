"""Independent oracle for the benchmark's correctness checks.

Nothing here imports kclink.  A dataset is a ``Columns`` record of numpy
arrays with NaN marking an absent measurement.  The joint estimate is the
generalised-least-squares solution of the two-measurand model, computed
densely: each linking laboratory's 2x2 covariance block is inverted with
``np.linalg.inv``, the 2x2 normal equations are solved with
``np.linalg.solve``, and the KCRV covariance is the inverse of the normal
matrix.  This shares no formula with kclink's closed-form weighted sums.

``reference_sample`` re-derives the synthetic generator's documented
substream layout (Philox seeded with ``SeedSequence(seed, spawn_key=(kind,
index, attempt))``, inverse-CDF normals) so a generated dataset can be
checked value by value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_CEILING, Decimal

import numpy as np


@dataclass(frozen=True)
class Columns:
    """One dataset as columns; NaN means "not measured"."""

    labels: tuple[str, ...]
    x_a: np.ndarray
    u_a: np.ndarray
    x_b: np.ndarray
    u_b: np.ndarray
    cov: np.ndarray  # 0.0 where absent

    @property
    def has_a(self) -> np.ndarray:
        return ~np.isnan(self.x_a)

    @property
    def has_b(self) -> np.ndarray:
        return ~np.isnan(self.x_b)


@dataclass(frozen=True)
class Solution:
    y_a: float
    y_b: float
    u_a: float
    u_b: float
    cov_ab: float
    q2: float
    dof: int
    passed: bool
    d_a: np.ndarray  # DOEs of the labs that measured A, input order
    u_d_a: np.ndarray
    d_b: np.ndarray
    u_d_b: np.ndarray


def solve(data: Columns) -> Solution:
    """GLS estimate of both KCRVs, their covariance, the DOEs and q2."""
    has_a, has_b = data.has_a, data.has_b
    link = has_a & has_b
    only_a = has_a & ~has_b
    only_b = has_b & ~has_a

    blocks = np.empty((int(link.sum()), 2, 2))
    blocks[:, 0, 0] = data.u_a[link] ** 2
    blocks[:, 1, 1] = data.u_b[link] ** 2
    blocks[:, 0, 1] = blocks[:, 1, 0] = data.cov[link]
    weights = np.linalg.inv(blocks)
    x_link = np.stack([data.x_a[link], data.x_b[link]], axis=1)

    w_a = 1.0 / data.u_a[only_a] ** 2
    w_b = 1.0 / data.u_b[only_b] ** 2
    normal = weights.sum(axis=0)
    normal[0, 0] += w_a.sum()
    normal[1, 1] += w_b.sum()
    rhs = np.einsum("nij,nj->i", weights, x_link)
    rhs[0] += (w_a * data.x_a[only_a]).sum()
    rhs[1] += (w_b * data.x_b[only_b]).sum()

    y = np.linalg.solve(normal, rhs)
    kcrv_cov = np.linalg.inv(normal)

    r_link = x_link - y
    q2 = float(
        np.einsum("ni,nij,nj->", r_link, weights, r_link)
        + (w_a * (data.x_a[only_a] - y[0]) ** 2).sum()
        + (w_b * (data.x_b[only_b] - y[1]) ** 2).sum()
    )
    dof = int(has_a.sum() + has_b.sum()) - 2
    u_a, u_b = float(np.sqrt(kcrv_cov[0, 0])), float(np.sqrt(kcrv_cov[1, 1]))
    return Solution(
        y_a=float(y[0]), y_b=float(y[1]), u_a=u_a, u_b=u_b,
        cov_ab=float(kcrv_cov[0, 1]), q2=q2, dof=dof,
        passed=q2 <= dof if dof > 0 else q2 <= 1e-9,
        d_a=data.x_a[has_a] - y[0],
        u_d_a=np.sqrt(np.maximum(data.u_a[has_a] ** 2 - u_a**2, 0.0)),
        d_b=data.x_b[has_b] - y[1],
        u_d_b=np.sqrt(np.maximum(data.u_b[has_b] ** 2 - u_b**2, 0.0)),
    )


def with_u_b(data: Columns, index: int, u: float) -> Columns:
    """The dataset with lab ``index``'s u_B set to ``u``, its correlation
    coefficient held fixed (the covariance scales with u)."""
    u_b = data.u_b.copy()
    cov = data.cov.copy()
    cov[index] = cov[index] * (u / u_b[index])
    u_b[index] = u
    return replace(data, u_b=u_b, cov=cov)


def passes_at(data: Columns, index: int, u: float) -> bool:
    return solve(with_u_b(data, index, u)).passed


def step_below(value: float, digits: int = 3) -> float:
    """The next smaller number with ``digits`` significant digits."""
    exact = Decimal(repr(value))
    quantum = Decimal(1).scaleb(exact.adjusted() - digits + 1)
    below = exact - quantum
    if below.adjusted() < exact.adjusted():  # crossed a power of ten
        below = exact - quantum / 10
    return float(below)


def round_up(value: float, digits: int = 3) -> float:
    """The smallest number with ``digits`` significant digits >= value."""
    exact = Decimal(repr(value))
    quantum = Decimal(1).scaleb(exact.adjusted() - digits + 1)
    return float(exact.quantize(quantum, rounding=ROUND_CEILING))


def minimal_u_b(data: Columns, index: int, digits: int = 3) -> float:
    """Smallest ``digits``-significant-digit u_B of lab ``index`` at which
    the dataset passes, found by bisecting the oracle's own q2."""
    lo = hi = float(data.u_b[index])
    if passes_at(data, index, lo):
        raise ValueError("the dataset already passes")
    for _ in range(40):
        hi *= 2.0
        if passes_at(data, index, hi):
            break
    else:
        raise ValueError("no inflation makes the dataset pass")
    while (hi - lo) > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if passes_at(data, index, mid):
            hi = mid
        else:
            lo = mid
    found = round_up(hi, digits)
    while not passes_at(data, index, found):
        found = round_up(found * (1 + 10.0 ** -(digits + 1)), digits)
    return found


_KIND_KEYS = {"a_only": 0, "linking": 1, "b_only": 2}


def _normals(rng: np.random.Generator, size: int) -> np.ndarray:
    from scipy.special import ndtri

    return ndtri((rng.integers(0, 2**53, size=size) + 0.5) / 2**53)


def _mean_and_u(obs: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(obs))
    var = float(np.sum((obs - mean) ** 2)) / (obs.size - 1)
    return mean, float(np.sqrt(var / obs.size))


def reference_sample(scenario: dict, kind: str, index: int) -> tuple:
    """One synthetic lab's ``(x_a, u_a, x_b, u_b, cov)`` (None when absent)
    from the documented substream layout; first attempt only, so callers
    must not rely on it for degenerate samples."""
    seq = np.random.SeedSequence(
        entropy=scenario["seed"], spawn_key=(_KIND_KEYS[kind], index, 0)
    )
    rng = np.random.Generator(np.random.Philox(seq))
    n = scenario["n"]
    if kind == "linking":
        rho = scenario["rho"]
        z_a = _normals(rng, n)
        z_b = rho * z_a + np.sqrt(1.0 - rho**2) * _normals(rng, n)
        obs_a = scenario["y_a_true"] + scenario["sigma_a"] * z_a
        obs_b = scenario["y_b_true"] + scenario["sigma_b"] * z_b
        x_a, u_a = _mean_and_u(obs_a)
        x_b, u_b = _mean_and_u(obs_b)
        cov = float(np.sum((obs_a - x_a) * (obs_b - x_b))) / (n - 1) / n
        return x_a, u_a, x_b, u_b, cov
    side = "a" if kind == "a_only" else "b"
    x, u = _mean_and_u(
        scenario[f"y_{side}_true"] + scenario[f"sigma_{side}"] * _normals(rng, n)
    )
    return (x, u, None, None, None) if side == "a" else (None, None, x, u, None)


def reference_scenario(scenario: dict) -> list[tuple]:
    """Every lab of a scenario in layout order, as ``reference_sample``."""
    return [
        reference_sample(scenario, kind, index)
        for kind, key in (("a_only", "only_a"), ("linking", "linking"), ("b_only", "only_b"))
        for index in range(scenario["layout"][key])
    ]


def columns_from_rows(labels, rows) -> Columns:
    """Build ``Columns`` from ``(x_a, u_a, x_b, u_b, cov)`` tuples."""
    table = np.array(
        [[np.nan if v is None else v for v in row] for row in rows], dtype=float
    )
    return Columns(
        labels=tuple(labels), x_a=table[:, 0], u_a=table[:, 1],
        x_b=table[:, 2], u_b=table[:, 3], cov=np.nan_to_num(table[:, 4]),
    )
