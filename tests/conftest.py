"""Shared fixtures."""
import contextlib
import io
import time
from types import SimpleNamespace

import pytest

from liftdom import cli


@pytest.fixture(scope="session")
def default_suite_run():
    """``liftdom check all`` on the default model, run once per session
    through ``cli.main``: its exit code, the reports it printed, in order,
    and how long it took.  Two tests assert on this one run."""
    reports = []
    run_law = cli.run_law

    def recording(*args, **kwargs):
        reports.append(run_law(*args, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "run_law", recording)
        t0 = time.perf_counter()
        exit_code = cli.main(["check", "all"])
        elapsed = time.perf_counter() - t0
    return SimpleNamespace(exit_code=exit_code, reports=reports, elapsed=elapsed)
