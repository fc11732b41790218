"""Tests for the reference, dotted-name and README knob checks of ``tools/check_docs.py``."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

from repro.core.config import CastanConfig

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("check_docs", REPO / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def _readme(rows: list[str], env_rows: list[str] | None = None) -> str:
    if env_rows is None:
        env_rows = [f"| `{var}` | x | y |" for var in sorted(check_docs.source_env_vars())]
    return "\n".join(
        [
            "### Environment variables",
            "",
            "| Variable | Values | Effect |",
            "| --- | --- | --- |",
            *env_rows,
            "",
            "### `CastanConfig` fields",
            "",
            "| Field | Default | Effect |",
            "| --- | --- | --- |",
            *rows,
            "",
            "## Benchmarks",
            "",
            "| `not_a_knob` | lives in another table |",
        ]
    )


def test_the_readme_table_matches_the_dataclass():
    assert check_docs.check_knobs((REPO / "README.md").read_text()) == []


def test_a_stale_table_row_is_one_problem_naming_it():
    rows = [f"| `{field.name}` | x | y |" for field in dataclasses.fields(CastanConfig)]
    assert check_docs.check_knobs(_readme(rows)) == []
    rows.insert(5, "| `strike_shards` | `None` | a deleted knob |")
    problems = check_docs.check_knobs(_readme(rows))
    assert len(problems) == 1
    assert "'strike_shards'" in problems[0]


def test_a_stale_environment_row_is_one_problem_naming_it():
    rows = [f"| `{field.name}` | x | y |" for field in dataclasses.fields(CastanConfig)]
    env_rows = [f"| `{var}` | x | y |" for var in sorted(check_docs.source_env_vars())]
    env_rows.insert(1, "| `REPRO_SEARCH_MODE` | `beam` | a variable nothing reads |")
    problems = check_docs.check_knobs(_readme(rows, env_rows))
    assert len(problems) == 1
    assert "'REPRO_SEARCH_MODE'" in problems[0]


def test_a_missing_bench_script_or_root_baseline_is_a_broken_reference():
    doc = REPO / "README.md"
    assert check_docs.check_links(doc, "Run `bench/run.py`; see `BENCHMARK.json`.") == []
    for ref in ("bench/x.py", "BENCH_x.json"):
        problems = check_docs.check_links(doc, f"Run `{ref}`.")
        assert len(problems) == 1
        assert repr(ref) in problems[0]


def test_every_dotted_reference_in_the_guides_resolves():
    for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        assert check_docs.check_dotted_refs(doc, doc.read_text()) == []


def test_a_package_level_dotted_reference_is_one_problem():
    doc = REPO / "README.md"
    text = "See `repro.symbex.engine.SymbolicEngine`, `~repro.core.castan` and `repro.nf`."
    assert check_docs.check_dotted_refs(doc, text) == []
    problems = check_docs.check_dotted_refs(doc, "Build a `repro.symbex.SymbolicEngine`.")
    assert len(problems) == 1
    assert "'repro.symbex.SymbolicEngine'" in problems[0]
