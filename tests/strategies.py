"""Hypothesis strategies for random comparison datasets."""

from __future__ import annotations

from math import inf, nan

from hypothesis import assume, strategies as st

from kclink.model import LabResult, ValidationError, validate_dataset


def _flush_tiny(value: float) -> float:
    # magnitudes far below any measurement scale flush to an exact zero so
    # scaling laws are not probed inside the subnormal range
    return 0.0 if abs(value) < 1e-30 else value


values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(
    _flush_tiny
)
uncertainties = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
correlations = st.floats(min_value=-0.95, max_value=0.95, allow_nan=False).map(
    _flush_tiny
)

# ranges for conditioning-sensitive properties: |value| / u stays below 1e5
# so identities limited by the rounding of the stored estimates still hold
# at tight tolerances
moderate_values = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
moderate_uncertainties = st.floats(min_value=0.1, max_value=100.0,
                                   allow_nan=False)


@st.composite
def lab_results(draw, label: str, kind: str, value_st, u_st) -> LabResult:
    if kind == "a":
        return LabResult(label, value_a=draw(value_st), u_a=draw(u_st))
    if kind == "b":
        return LabResult(label, value_b=draw(value_st), u_b=draw(u_st))
    u_a = draw(u_st)
    u_b = draw(u_st)
    return LabResult(
        label,
        value_a=draw(value_st), u_a=u_a,
        value_b=draw(value_st), u_b=u_b,
        cov_ab=draw(correlations) * u_a * u_b,
    )


@st.composite
def datasets(draw, max_per_group: int = 3, value_st=values, u_st=uncertainties):
    counts = st.integers(min_value=0, max_value=max_per_group)
    n_a = draw(counts)
    n_link = draw(counts)
    n_b = draw(counts)
    if n_a + n_link == 0:
        n_a = 1
    if n_b + n_link == 0:
        n_b = 1
    labs = []
    index = 0
    for kind, count in (("a", n_a), ("link", n_link), ("b", n_b)):
        for _ in range(count):
            index += 1
            labs.append(draw(lab_results(f"H{index:02d}", kind, value_st, u_st)))
    return validate_dataset(labs)


def moderate_datasets(max_per_group: int = 3):
    return datasets(max_per_group, value_st=moderate_values,
                    u_st=moderate_uncertainties)


@st.composite
def full_range_datasets(draw):
    values = st.floats(min_value=-1e300, max_value=1e300)
    uncertainties = st.floats(min_value=1e-300, max_value=1e300)
    try:
        return draw(datasets(3, value_st=values, u_st=uncertainties))
    except ValidationError:  # a covariance r * u_a * u_b beyond the float range
        assume(False)


def _fields(lab: LabResult) -> list:
    return [lab.label, lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab]


_FLAWS = ("non-finite", "half", "u <= 0", "|cov| >= u_a*u_b", "cov without both",
          "empty label", "repeated label", "no values", "no B at all", "zero cov")


@st.composite
def lab_rows(draw, text: bool = False) -> list[tuple]:
    """``(label, x_a, u_a, x_b, u_b, cov_ab)`` rows of a dataset from
    :func:`datasets`, ``None`` for an absent value, with up to three flaws:
    a NaN or infinite cell, a value without its uncertainty or the reverse,
    u <= 0, |cov_ab| >= u_a*u_b, a covariance without both values, an empty
    or repeated label, a lab with no values, a standard nobody measured, or
    a zero covariance.  With ``text``, cells may also be written as text: a
    decimal comma, a typographic minus, blanks, or text that is no number."""
    rows = [_fields(lab) for lab in draw(datasets()).labs]
    flaws = _FLAWS + (("text",) if text else ())
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        flaw = draw(st.sampled_from(flaws))
        present = [k for k in range(1, 6) if row[k] is not None]
        if flaw == "non-finite" and present:
            row[draw(st.sampled_from(present))] = draw(st.sampled_from([nan, inf, -inf]))
        elif flaw == "half" and present:
            row[draw(st.sampled_from(present))] = None
        elif flaw == "u <= 0":
            for k in (2, 4):
                if isinstance(row[k], float):  # not one an earlier flaw removed or wrote as text
                    row[k] = draw(st.sampled_from([0.0, -0.0, -row[k]]))
        elif flaw == "|cov| >= u_a*u_b" and all(isinstance(row[k], float) for k in (1, 2, 3, 4)):
            row[5] = draw(st.sampled_from([1.0, -1.0, 1.5])) * row[2] * row[4]
        elif flaw == "cov without both" and (row[1] is None or row[3] is None):
            row[5] = draw(values)
        elif flaw == "empty label":
            row[0] = ""
        elif flaw == "repeated label":
            row[0] = draw(st.sampled_from(rows))[0]
        elif flaw == "no values":
            row[1:] = [None] * 5
        elif flaw == "no B at all":
            for each in rows:
                each[3:] = [None] * 3
        elif flaw == "zero cov" and row[1] is not None and row[3] is not None:
            row[5] = draw(st.sampled_from([0.0, -0.0, None]))
        elif flaw == "text" and present:
            k = draw(st.sampled_from(present))
            if isinstance(row[k], float):
                row[k] = draw(st.sampled_from([
                    repr(row[k]).replace(".", ","), repr(row[k]).replace("-", "−"),
                    f" {row[k]!r} ", "oops", "1,2,3", "1,5.0", " "]))
    return [tuple(row) for row in rows]
