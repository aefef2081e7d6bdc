"""The CLI's bytes, pinned: every run in tests/cli_golden.json replays to the
same stdout, stderr and exit code.  ``scripts/make_cli_golden.py`` writes the
corpus; a deliberate output change regenerates it in the change that makes it.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location(
        "make_cli_golden", ROOT / "scripts" / "make_cli_golden.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_cli_output_matches_the_golden_corpus(tmp_path):
    script = _script()
    corpus = json.loads(script.CORPUS.read_text(encoding="utf-8"))
    runs = script.cases()
    assert [record["argv"] for record in corpus] == runs
    for want, got in zip(corpus, script.replay(runs, tmp_path)):
        if sys.version_info[:2] != script.PYTHON and "usage: " in want["stdout"] + want["stderr"]:
            continue  # argparse words its usage and help differently in other versions
        assert got == want, want["argv"]
