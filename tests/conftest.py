import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


def pytest_terminal_summary(terminalreporter):
    """Print how many tests were skipped because the reference checkout
    or one of its corpora is absent, so a run without it says so."""
    n = sum(1 for r in terminalreporter.stats.get("skipped", [])
            if isinstance(r.longrepr, tuple)
            and "reference" in r.longrepr[2] and "not present" in r.longrepr[2])
    terminalreporter.write_line(
        f"{n} skipped: reference checkout or corpus not present")
