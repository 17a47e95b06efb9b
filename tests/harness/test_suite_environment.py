"""The benchmark suite reads the engine through a few public names.

``benchmarks/suite/run.py`` records where a run was made from
``DatabaseConfig().executor_lane``, ``DatabaseConfig().parallel_workers``
and ``executor.effective_cpu_count``.  The suite may not change inside a
change that claims a gain, so this keeps a cleanup of any of them from
breaking the benchmark unseen.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.rdbms.database import DatabaseConfig

SUITE = Path(__file__).resolve().parents[2] / "benchmarks" / "suite"


def test_suite_environment_runs_against_the_engine(monkeypatch):
    monkeypatch.syspath_prepend(str(SUITE))
    spec = importlib.util.spec_from_file_location("suite_run", SUITE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    env = run.environment()
    assert env["effective_cpu_count"] >= 1
    assert env["executor_lane"] == "serial"
    assert env["parallel_workers"] == 1


def test_executor_lane_is_derived_from_the_worker_count():
    """Every query runs on the calling thread: one worker, the serial lane,
    and neither can be set."""
    config = DatabaseConfig()
    assert (config.parallel_workers, config.executor_lane) == (1, "serial")
    with pytest.raises(AttributeError):
        config.executor_lane = "thread"
    with pytest.raises(AttributeError):
        config.parallel_workers = 4
