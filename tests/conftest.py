"""Shared fixtures."""
import contextlib
import io
import time
from types import SimpleNamespace

import pytest

from liftdom import cli, laws


@pytest.fixture(scope="session")
def default_suite_run():
    """``liftdom check all`` on the default model, run once per session
    through ``cli.main``: its exit code, the reports it printed, in order,
    how long it took, and per report the ``(summary, case count)`` of each
    family its runner exhausted.  Three tests assert on this one run."""
    reports, families = [], []
    run_law, exhaust = cli.run_law, laws._exhaust

    def recording(*args, **kwargs):
        families.append([])
        reports.append(run_law(*args, **kwargs))
        return reports[-1]

    def counting(results, summary):
        # a generator like _exhaust, so the count is taken once the family is done
        counts, count = families[-1], 0

        def each():
            nonlocal count
            for case in results:
                count += 1
                yield case

        yield from exhaust(each(), summary)
        counts.append((summary, count))

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "run_law", recording)
        mp.setattr(laws, "_exhaust", counting)
        t0 = time.perf_counter()
        exit_code = cli.main(["check", "all"])
        elapsed = time.perf_counter() - t0
    return SimpleNamespace(exit_code=exit_code, reports=reports, elapsed=elapsed, families=families)
