"""One benchmark round in-process, so a change to the calls perfbench makes
into the package fails here rather than as a failed op in a benchmark run."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench  # noqa: E402


@pytest.mark.parametrize("aggregator", ["average", "max"])
def test_one_round_runs_clean(tmp_path, aggregator):
    session = bench.Session(bench.Workload(30, 40, aggregator), 0, tmp_path)
    session.run(plan=["setup", "train", "evaluate", "predict"])
    assert session.failures == []
