"""One benchmark round in-process, so a change to the calls perfbench makes
into the package fails here rather than as a failed op in a benchmark run."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.mark.parametrize("aggregator", ["average", "max"])
def test_one_round_runs_clean(tmp_path, aggregator):
    session = bench.Session(bench.Workload(30, 40, aggregator), 0, tmp_path)
    session.run(plan=["setup", "train", "evaluate", "predict"])
    assert session.failures == []


def test_predicts_read_the_snapshot_not_the_tsv_files(tmp_path):
    # the session trains through the library, so its first evaluate request
    # parses the files and saves the snapshot that the predicts then read
    tracer = tracing.Tracer()
    tracer.install()
    try:
        session = bench.Session(bench.Workload(30, 40, "average"), 0, tmp_path, tracer=tracer)
        session.run(plan=["setup", "train", "evaluate", "predict", "predict"])
    finally:
        tracer.uninstall()
    assert session.failures == []
    loads = [op for name, op, *_ in tracer.spans if name == "data.load_interactions"]
    assert loads == ["evaluate"]
    assert len(session.samples["predict"]) == 2
