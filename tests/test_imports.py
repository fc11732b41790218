"""Import hygiene: an import loads the module it names, and only a process
that scores pays for numpy.

Subpackage ``__init__`` files hold only their docstring, so importing one
module loads that module and what it imports, nothing more; only the
top-level ``repro`` facade re-exports, lazily.  The symbolic pipeline, the
flow rainbow table (once on disk) and the job server start without numpy;
the scorer imports it eagerly.  With numpy blocked, the analysis hashes
with its scalar reference and identical output, while scoring refuses
loudly: importing the scorer raises an ``ImportError`` naming the [vector]
extra and ``POST /score`` answers 400.
Each check runs in a fresh interpreter (the suite's own process has long
imported everything), sharing the session's ``XDG_CACHE_HOME`` so the
persisted rainbow table is the suite's.
"""

import ast
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.hashing.functions import flow_hash16
from repro.hashing.rainbow import RainbowTable, build_flow_rainbow_table, udp_flow_key_sampler
from repro.nf.registry import get_nf
from repro.service.store import canonical_result_digest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Prints, as JSON, whether numpy or any ``repro.scoring`` module is loaded.
REPORT = (
    "import json, sys\n"
    "print(json.dumps({'numpy': 'numpy' in sys.modules,"
    " 'scoring': sorted(m for m in sys.modules if m.startswith('repro.scoring'))}))\n"
)

ANALYZE = (
    "from repro.core.castan import Castan\n"
    "from repro.core.config import CastanConfig\n"
    "from repro.nf.registry import get_nf\n"
    "result = Castan(CastanConfig(max_states=60, deadline_seconds=None))"
    ".analyze(get_nf('lb-hash-table'))\n"
)

#: Defines ``post_score()``: ``[status, message, jobs tabled, live child
#: processes]`` of one ``POST /score`` to a freshly booted server.
POST_SCORE = (
    "import asyncio, multiprocessing, tempfile\n"
    "from repro.service.client import ServiceClient, ServiceError\n"
    "from repro.service.http import serve\n"
    "from repro.service.server import SynthesisService\n"
    "from repro.service.store import ResultStore\n"
    "async def post_score():\n"
    "    service = SynthesisService(ResultStore(tempfile.mkdtemp()))\n"
    "    web = await serve(service, port=0)\n"
    "    client = ServiceClient(port=web.sockets[0].getsockname()[1], timeout=30)\n"
    "    try:\n"
    "        await asyncio.to_thread(client.score, 'nat-hash-table', {'synthetic': 10})\n"
    "        answer = [200, '']\n"
    "    except ServiceError as exc:\n"
    "        answer = [exc.status, exc.message]\n"
    "    answer += [len(service.jobs), len(multiprocessing.active_children())]\n"
    "    web.close()\n"
    "    await web.wait_closed()\n"
    "    await service.shutdown()\n"
    "    return answer\n"
)


def _run(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line, as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


NO_SCORER = {"numpy": False, "scoring": []}

#: Prints, as JSON, the sorted ``repro`` modules loaded so far.
LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))\n"
)


@pytest.mark.parametrize(
    "init", sorted((SRC / "repro").glob("*/__init__.py")), ids=lambda path: path.parent.name
)
def test_subpackage_init_is_a_lone_docstring(init):
    body = ast.parse(init.read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_a_module_import_loads_only_what_the_module_imports():
    loaded = _run("import repro.net.packet\n" + LOADED)
    assert loaded == ["repro", "repro.net", "repro.net.checksum", "repro.net.packet"]


def test_the_facade_loads_nothing_until_a_name_is_used():
    script = (
        "import json, sys\n"
        "import repro\n"
        "before = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "from repro import Castan, CastanConfig, CastanResult, available_nfs, get_nf\n"
        "print(json.dumps([before, Castan.__module__, CastanConfig.__module__,"
        " CastanResult.__module__, available_nfs.__module__, get_nf.__module__]))\n"
    )
    assert _run(script) == [
        [],
        "repro.core.castan",
        "repro.core.config",
        "repro.core.castan",
        "repro.nf.registry",
        "repro.nf.registry",
    ]


def test_the_package_version_matches_pyproject():
    import repro

    with open(REPO / "pyproject.toml", "rb") as stream:
        assert repro.__version__ == tomllib.load(stream)["project"]["version"]


def test_pipeline_import_and_nf_build_load_no_numpy():
    script = (
        "import repro.core.castan, repro.nf.registry\n"
        "repro.nf.registry.get_nf('lb-hash-table')\n"
        "repro.nf.registry.get_nf('lb-red-black-tree')\n"
    )
    assert _run(script + REPORT) == NO_SCORER


def test_hash_nf_analysis_with_the_table_on_disk_loads_no_numpy():
    _run(ANALYZE + REPORT)  # the first run on a cold cache builds the table
    assert _run(ANALYZE + REPORT) == NO_SCORER


def test_server_boot_loads_no_numpy():
    assert _run("import repro.service.__main__\n" + REPORT) == NO_SCORER


def test_the_scorer_imports_numpy_eagerly():
    # A score job pays the import in set-up, not inside the timed pass.
    report = _run("import repro.scoring.jobs\n" + REPORT)
    assert report["numpy"] and "repro.scoring.jobs" in report["scoring"]


@pytest.mark.parametrize("numpy_state", ["missing", "broken"])
def test_unimportable_numpy_degrades_to_identical_output(numpy_state, tmp_path):
    """The analysis: scalar hashing, the same inversions, the same result
    digest.  Scoring: an ``ImportError`` naming [vector], and a 400 for
    ``POST /score`` that tables no job and starts no worker.

    ``missing``: ``import numpy`` finds ``None`` in ``sys.modules``.
    ``broken``: numpy is found, but its package raises on import.
    """
    if numpy_state == "missing":
        block = "sys.modules['numpy'] = None\n"
    else:
        (tmp_path / "numpy").mkdir()
        (tmp_path / "numpy" / "__init__.py").write_text("raise ImportError('wrong interpreter')\n")
        block = f"sys.path.insert(0, {str(tmp_path)!r})\n"
    config = CastanConfig(max_states=60, deadline_seconds=None)
    expected_digest = canonical_result_digest(Castan(config).analyze(get_nf("lb-hash-table")))
    table = build_flow_rainbow_table()  # on disk from here on
    targets = list(range(0, 1 << 16, 997))
    small = RainbowTable(udp_flow_key_sampler, chain_length=6, num_chains=300)
    script = (
        "import json, sys\n"
        + block
        + POST_SCORE
        + "from repro.hashing import functions, rainbow\n"
        "from repro.service.store import canonical_result_digest\n"
        "from repro.symbex import expr\n"
        + ANALYZE
        + "table = rainbow.build_flow_rainbow_table()\n"
        "small = rainbow.RainbowTable(rainbow.udp_flow_key_sampler,"
        " chain_length=6, num_chains=300)\n"
        "column_hash = functions.flow_hash16_column\n"
        "report = {\n"
        "    'column_hash': column_hash and list(column_hash([1, 2, 3])),\n"
        "    'table_source': table.stats.source,\n"
        f"    'inversions': [table.invert(t) for t in {targets!r}],\n"
        "    'small_index': [list(column) for column in small._sorted_preimages()],\n"
        "    'digest': canonical_result_digest(result),\n"
        "    'have_numpy': expr.HAVE_NUMPY,\n"
        "}\n"
        "for name, load in [('column_evaluator', lambda: expr.column_evaluator(expr.Sym('x', 16))),"
        " ('scoring', lambda: __import__('repro.scoring.jobs'))]:\n"
        "    try:\n"
        "        load()\n"
        "        report[name] = 'imported'\n"
        "    except ImportError as exc:\n"
        "        report[name] = str(exc)\n"
        "report['post_score'] = asyncio.run(post_score())\n"
        "print(json.dumps(report))\n"
    )
    report = _run(script)
    refusal = report.pop("scoring")
    assert "[vector]" in refusal and "numpy" in refusal
    assert report.pop("column_evaluator") == refusal
    status, message, jobs, children = report.pop("post_score")
    assert (status, message, jobs, children) == (400, refusal, 0, 0)
    assert report == {
        # Only a numpy that is found gets the columnar hash, which then
        # computes the column with the scalar hash.
        "column_hash": None if numpy_state == "missing" else [flow_hash16(k) for k in (1, 2, 3)],
        "table_source": "loaded",
        "inversions": [table.invert(target) for target in targets],
        "small_index": [list(column) for column in small._sorted_preimages()],
        "digest": expected_digest,
        "have_numpy": False,
    }
