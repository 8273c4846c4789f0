import re
from pathlib import Path

import kclink

PUBLIC_NAMES = {
    "LabResult", "validate_dataset", "ComparisonDataset",
    "link", "LinkingResult", "posterior_density",
    "minimal_inflation", "InflationResult",
    "parse_dataset", "write_dataset", "render_report", "emit_plot_data",
    "SyntheticScenario", "ScenarioLayout", "generate_scenario", "load_scenario",
    "KclinkError", "ValidationError", "InternalInconsistencyError",
    "ParseError", "InflationError",
    "__version__",
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_api_is_the_user_facing_names():
    assert len(kclink.__all__) == len(PUBLIC_NAMES) == 22
    assert set(kclink.__all__) == PUBLIC_NAMES
    for name in kclink.__all__:
        assert getattr(kclink, name) is not None


def test_readme_library_example_runs(tmp_path, monkeypatch):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "copy.csv").is_file()
