import contextlib
import os
import signal
import subprocess
import sys
import textwrap

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver requirement)."""
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


@contextlib.contextmanager
def small_blocks(ds, parts: int = 8):
    """Datasets made inside plan blocks of a ``parts``-th of ``ds``'s
    leaf bytes (``DataContext.target_max_block_size``), so
    ``shuffle_width`` of an input like ``ds`` is at least ``parts`` (8,
    wider than the suite's 4 CPUs, by default), and a graph stage over
    it takes its rounds plan.  They also run with that block size."""
    from ray.data import DataContext

    from solaris_ray.stages._buckets import plan_bytes

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = max(1, plan_bytes(ds) // parts)
    try:
        yield
    finally:
        ctx.target_max_block_size = old


SF_DIR = "/root/testdata/sf0.001"


def gate_rows_on_one_cpu(query: str, sf_dir: str = SF_DIR, timeout: float = 180,
                         num_cpus: int = 1) -> int:
    """Row count of ``queries.<query>(sf_dir)`` run in a fresh Ray
    session of ``num_cpus`` CPUs (1 by default; the suite's own session
    has 4).

    Fails the calling test when the gate does not finish within
    ``timeout`` seconds, as one whose actor pool the session cannot
    start, or whose execution stalls, never does.
    """
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {repo!r})
        import ray
        ray.init(address="local", num_cpus={num_cpus}, include_dashboard=False, logging_level="ERROR",
                 runtime_env={{"env_vars": {{"PYTHONPATH": {repo!r}}}}})
        from solaris_ray.pipelines import queries
        print("ROWS", queries.{query}({sf_dir!r}).count())
        ray.shutdown()
    """)
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{query} did not finish in {timeout:.0f} s at num_cpus={num_cpus}")
    assert proc.returncode == 0, err[-4000:]
    return int(out.split("ROWS", 1)[1].split()[0])
