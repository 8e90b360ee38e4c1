"""Smoke test of the benchmark's tracer, perfbench/tracer.py.  It looks up
each traced function of alphax by name, so renaming one in src/ would
make every traced benchmark run fail; this catches that in the test
suite."""

import json
import os
import subprocess
import sys

import pytest

from alphax import cli

SRC = os.path.dirname(os.path.dirname(cli.__file__))
TRACER = os.path.join(os.path.dirname(SRC), "perfbench", "tracer.py")


@pytest.mark.parametrize("argv, stream_calls", [
    (["verify-theorem", "--family", "fs(1)", "--n-from", "4", "--n-to", "5", "--alpha", "0.5"], 0),
    (["verify-lemmas", "--max-n", "4", "--grid-n", "6", "--trials", "10"], 0),
    # the main process reads the file once, before it splits it
    (["verify-theorem", "--family", "fs(1)", "--n-from", "5", "--n-to", "5", "--alpha", "0.5",
      "--graphs", "five.g6", "--shards", "2"], 1),
], ids=["verify-theorem", "verify-lemmas", "verify-theorem-file"])
def test_tracer_runs_the_cli(tmp_path, argv, stream_calls):
    (tmp_path / "five.g6").write_text("D?{\nDhC\nD~{\n")
    stats = tmp_path / "stats.json"
    env = dict(os.environ, ALPHAX_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, TRACER, str(stats), *argv], cwd=tmp_path, env=env,
                   capture_output=True, check=True, timeout=300)
    spans = json.loads(stats.read_text())["spans"]
    assert spans["enumeration.merge_reports"]["calls"] > 0
    assert spans["minors.has_minor"]["calls"] > 0
    # every minor search passes through is_minor_free
    assert spans["minors.has_minor"]["calls"] == spans["enumeration.is_minor_free"]["calls"]
    stream = spans.get("enumeration.stream_from_graph6_file", {"calls": 0})
    assert stream["calls"] == stream_calls
