#!/usr/bin/env python3
"""Documentation consistency check (the ``docs-check`` CI step).

Five classes of rot are caught:

1. **Broken links/references** — every relative markdown link target,
   every backtick reference to a repo path (``src/...``, ``docs/...``,
   ``bench/...``, ``benchmarks/...``, ``tests/...``, ``tools/...``,
   ``examples/...``) and every backticked repo-root file name
   (``BENCHMARK.json``, ``PAPER.md``) in ``README.md``, ``docs/*.md`` and
   ``ROADMAP.md`` must exist.
2. **Stale NF counts** — any "<N> evaluation NFs" / "<N>-NF" phrase must
   match ``len(EVALUATION_NF_NAMES)`` (this is exactly the staleness the
   docs satellite of PR 4 had to clean up).
3. **Gallery completeness** — every registered NF name must appear in the
   README's gallery table.
4. **Knob staleness** — every ``CastanConfig`` field and every
   ``REPRO_*`` environment variable read anywhere under ``src/`` must
   appear (backticked) in the README's knob tables, so adding a knob
   without documenting it fails CI; and every row of the README's
   ``CastanConfig`` field table and environment-variable table must name
   a live field or variable, so deleting one without its row fails too.
5. **Dangling dotted names** — every backticked ``repro.…`` reference
   (a leading ``~`` is stripped) in ``README.md`` and ``docs/*.md`` must
   resolve: the longest importable module prefix is imported and the rest
   looked up as attributes.  ``ROADMAP.md`` is exempt: it names planned
   modules.

Run it from the repo root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Backtick references with one of these top-level prefixes must exist.
PATH_PREFIXES = ("src/", "docs/", "bench/", "benchmarks/", "tests/", "tools/", "examples/")
#: Backticked bare file names of this shape name files at the repo root.
ROOT_FILE = re.compile(r"[A-Z][A-Za-z0-9_]*\.(?:json|md)")

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)[^)]*\)")
BACKTICK_PATH = re.compile(r"`([A-Za-z0-9_./-]+)`")
NF_COUNT_CLAIM = re.compile(r"(\d+)(?:-NF\b|\s+evaluation\s+NFs)")


def doc_files() -> list[Path]:
    files = [REPO / "README.md", REPO / "ROADMAP.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def check_links(path: Path, text: str) -> list[str]:
    problems = []
    for target in MARKDOWN_LINK.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue  # external URLs are not checked (offline CI)
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(f"{path.name}: broken link target {target!r}")
    for ref in BACKTICK_PATH.findall(text):
        if (ref.startswith(PATH_PREFIXES) and not ref.endswith("/")) or ROOT_FILE.fullmatch(ref):
            if not (REPO / ref).exists():
                problems.append(f"{path.name}: referenced path {ref!r} does not exist")
    return problems


#: A backtick span holding nothing but a dotted ``repro`` name.
DOTTED_REF = re.compile(r"`~?(repro(?:\.[A-Za-z_]\w*)+)`")


def resolves(ref: str) -> bool:
    """Whether ``ref`` names a module, or an attribute chain under one."""
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def check_dotted_refs(path: Path, text: str) -> list[str]:
    return [
        f"{path.name}: dotted reference {ref!r} does not resolve"
        for ref in sorted(set(DOTTED_REF.findall(text)))
        if not resolves(ref)
    ]


#: Phrases that legitimise an 11-NF claim: either it describes the paper's
#: own Table 4 suite, or it is an explicitly historicised PR note.  Kept to
#: rare multi-word phrases so common words cannot accidentally exempt a
#: genuinely stale claim.
HISTORICAL_MARKERS = ("paper", "at the time", "since pr")


def check_nf_counts(path: Path, text: str, expected: int) -> list[str]:
    problems = []
    for match in NF_COUNT_CLAIM.finditer(text):
        claimed = int(match.group(1))
        if claimed not in (expected, 11):  # 11 = the paper's own Table 4 rows
            problems.append(
                f"{path.name}: claims {claimed} NFs but the registry has {expected} "
                f"(context: {match.group(0)!r})"
            )
        window = text[max(0, match.start() - 120) : match.end() + 120].lower()
        if claimed == 11 and not any(marker in window for marker in HISTORICAL_MARKERS):
            problems.append(
                f"{path.name}: bare '11 NFs' claim without paper/historical context "
                f"looks stale (registry has {expected})"
            )
    return problems


def check_gallery(readme: str, names: tuple[str, ...]) -> list[str]:
    return [
        f"README.md: NF {name!r} missing from the gallery table"
        for name in names
        if f"`{name}`" not in readme
    ]


#: ``REPRO_*`` environment variables referenced anywhere in the source.
REPRO_ENV_VAR = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")


def source_env_vars() -> set[str]:
    """Every REPRO_* environment variable named under ``src/``."""
    found: set[str] = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        found.update(REPRO_ENV_VAR.findall(path.read_text()))
    return found


#: The README sections holding the ``CastanConfig`` field table and the
#: environment-variable table, each up to the next heading, and the
#: backticked first-column name of each table row.
CONFIG_TABLE_SECTION = re.compile(r"^### `?CastanConfig`? fields$(.*?)(?=^#|\Z)", re.M | re.S)
ENV_TABLE_SECTION = re.compile(r"^### Environment variables$(.*?)(?=^#|\Z)", re.M | re.S)
TABLE_ROW_NAME = re.compile(r"^\| `([^`]+)` \|", re.M)


def _stale_rows(readme: str, section_re, heading: str, live, what: str) -> list[str]:
    """Rows of the ``heading`` table whose name is not in ``live``."""
    section = section_re.search(readme)
    if section is None:
        return [f"README.md: no '### {heading}' table"]
    return [
        f"README.md: knob table lists {name!r}, which is not {what}"
        for name in TABLE_ROW_NAME.findall(section.group(1))
        if name not in live
    ]


def check_knobs(readme: str) -> list[str]:
    """Every config field and REPRO_* env var must be documented (backticked),
    and every row of either knob table must name a live field or variable."""
    import dataclasses

    from repro.core.config import CastanConfig

    problems = []
    fields = [field.name for field in dataclasses.fields(CastanConfig)]
    for name in fields:
        if f"`{name}`" not in readme:
            problems.append(f"README.md: CastanConfig field {name!r} missing from the knob table")
    problems += _stale_rows(
        readme, CONFIG_TABLE_SECTION, "`CastanConfig` fields", fields, "a CastanConfig field"
    )
    env_vars = source_env_vars()
    for var in sorted(env_vars):
        if f"`{var}`" not in readme:
            problems.append(
                f"README.md: environment variable {var!r} (read under src/) "
                "missing from the knob table"
            )
    problems += _stale_rows(
        readme, ENV_TABLE_SECTION, "Environment variables", env_vars,
        "an environment variable read under src/",
    )
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.nf.registry import EVALUATION_NF_NAMES, NF_NAMES

    problems: list[str] = []
    for path in doc_files():
        text = path.read_text()
        problems += check_links(path, text)
        problems += check_nf_counts(path, text, len(EVALUATION_NF_NAMES))
        if path.name != "ROADMAP.md":
            problems += check_dotted_refs(path, text)
    readme = (REPO / "README.md").read_text()
    problems += check_gallery(readme, NF_NAMES)
    problems += check_knobs(readme)

    if problems:
        print("docs-check found problems:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(
        f"docs-check ok: {len(doc_files())} files, {len(NF_NAMES)} NFs in gallery, "
        f"{len(source_env_vars())} env knobs documented"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
