"""Tests of the benchmark's own parts: oracle, input generator, tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import oracle
import run
import tracing
import worker
import workloads
from kclink import cli, golden, io, linking, synthetic
from kclink.io import parse_dataset

ROOT = Path(__file__).resolve().parents[2]


def gauge_block() -> oracle.Columns:
    labs = golden.gauge_block_dataset().labs
    return oracle.columns_from_rows(
        [lab.label for lab in labs],
        [(lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab) for lab in labs],
    )


def test_oracle_reproduces_gauge_block_golden_values():
    found = oracle.solve(gauge_block())
    # published values, one decimal in nm
    assert round(found.y_a, 1) == -103.6
    assert round(found.u_a, 1) == 4.9
    assert round(found.y_b, 1) == -100.5
    assert round(found.u_b, 1) == 3.6
    assert round(found.q2 / found.dof, 2) == 1.07
    assert not found.passed


def test_oracle_inflates_inmetro1_to_11_2_nm():
    data = gauge_block()
    index = data.labels.index("INMETRO1")
    assert oracle.minimal_u_b(data, index) == 11.2
    assert oracle.passes_at(data, index, 11.2)
    assert not oracle.passes_at(data, index, oracle.step_below(11.2))


@pytest.mark.parametrize("value, below", [
    (11.2, 11.1), (10.0, 9.99), (0.0123, 0.0122), (100.0, 99.9),
])
def test_step_below_is_one_third_significant_digit_down(value, below):
    assert oracle.step_below(value) == below


@pytest.mark.parametrize("value, up", [(11.14269, 11.2), (11.2, 11.2), (9.991, 10.0)])
def test_round_up_to_three_significant_digits(value, up):
    assert oracle.round_up(value) == up


def test_oracle_agrees_with_kclink_on_a_generated_dataset(tmp_path):
    data = inputs.draw_dataset(np.random.default_rng(5), 300)
    inputs.write_csv(data, tmp_path / "d.csv")
    result = linking.link(parse_dataset(tmp_path / "d.csv"))
    want = oracle.solve(data)
    assert result.kcrv.y_hat_a == pytest.approx(want.y_a, rel=1e-12)
    assert result.kcrv.u_b == pytest.approx(want.u_b, rel=1e-12)
    assert result.conformity.q2 == pytest.approx(want.q2, rel=1e-12)
    assert [e.d for e in result.does] == pytest.approx([*want.d_a, *want.d_b], rel=1e-9)


def test_generator_is_deterministic_per_seed_and_round_trips(tmp_path):
    paths = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        path = tmp_path / f"{name}.csv"
        inputs.write_csv(inputs.draw_dataset(np.random.default_rng(seed), 200), path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] != paths[2]
    assert b"np.float64" not in paths[0]

    data = inputs.draw_dataset(np.random.default_rng(3), 200)
    parsed = parse_dataset(tmp_path / "a.csv")
    assert [lab.value_b for lab in parsed.labs if lab.in_group_b] == \
        data.x_b[data.has_b].tolist()
    linking_labs = parsed.linking_labs()
    assert len(linking_labs) == 40 and all(lab.cov_ab is not None for lab in linking_labs)


def test_inflation_dataset_fails_until_the_outlier_is_inflated():
    data, outlier = inputs.draw_inflation_dataset(np.random.default_rng(8), 200)
    assert data.has_a[outlier] and data.has_b[outlier] and data.cov[outlier] != 0.0
    assert not oracle.passes_at(data, outlier, float(data.u_b[outlier]))
    assert oracle.passes_at(data, outlier, oracle.minimal_u_b(data, outlier))


def test_reference_sampler_matches_the_synthetic_generator():
    scenario = {**workloads.MC_SCENARIO, "seed": 12345}
    labs = synthetic.generate_scenario(synthetic.scenario_from_dict(scenario)).labs
    got = [(lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab) for lab in labs]
    assert got == oracle.reference_scenario(scenario)


def inflate_job(tmp_path):
    job = workloads.prepare("cli-inflate-1k", 1, tmp_path)
    job["pool"] = job["pool"][:1]
    return job


def test_checks_accept_kclink_output_and_reject_a_wrong_minimal_u(tmp_path):
    job = inflate_job(tmp_path)
    check = workloads.make_check(job)
    code, text = workloads.make_op(job)(0)
    assert check(0, (code, text))[0] is None

    minimal = workloads._MINIMAL.search(text).group(1)
    higher = str(oracle.round_up(float(minimal) * 1.01))
    problem, _ = check(0, (code, text.replace(f"uncertainty {minimal}", f"uncertainty {higher}")))
    assert "below the reported" in problem


def test_tracing_records_layers_and_restores_every_wrapper(tmp_path):
    job = inflate_job(tmp_path)
    op = workloads.make_op(job)
    before = {(m, a): vars(tracing.importlib.import_module(m))[a]
              for m, a, _ in tracing.WRAP_POINTS if "." not in a}
    primary = io.ReportDocument.primary
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError), tracing.installed(tracer):
        tracer.op = 7
        op(0)
        raise RuntimeError("leave the block abnormally")
    after = {(m, a): vars(tracing.importlib.import_module(m))[a] for m, a in before}
    assert after == before and io.ReportDocument.primary is primary

    ops = tracing.per_op(tracer.spans)
    calls = ops[7]["calls"]
    assert calls["cli.main"] == 1 and calls["inflation.search"] == 1
    assert calls[("linking.link", "inflation.search")] == calls["linking.link"] > 10
    self_sum = sum(ops[7]["self"].values())
    assert self_sum == pytest.approx(ops[7]["total"]["cli.main"], rel=1e-9)


def test_a_missing_wrap_point_records_zero_calls():
    tracer = tracing.Tracer()
    points = [("kclink.cli", "no_such_function", "x"), ("kclink.io", "Nope.primary", "y")]
    with tracing.installed(tracer, points):
        cli.main(["selftest"])
    assert tracer.spans == []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(100)]) == (90.0, 89.0)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0)


def test_metric_names_agree_across_benchmark_files():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == layers["units"]
    assert sorted(n for layer in layers["layers"].values() for n in layer["metrics"]) \
        == sorted(per_layer)
    traced = {"latencies": [1.0], "references": [1.0], "infos": [], "redraws": 0, "next": 1}
    assert set(worker.layer_metrics(tracing.Tracer(), traced, traced)) == set(per_layer)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
