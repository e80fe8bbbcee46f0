"""The benchmark's hook points: every layer entry point its tracer wraps and
every per-sample call a workload probes must resolve on the package, and its
self-test must pass.  No workload is run; a rename in the package that would
crash ``bench/run.py`` fails here instead.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def test_layer_tracer_resolves_and_restores_every_point(workloads):
    tracer = workloads.layer_tracer()      # looks every point up: a KeyError or
    originals = [(owner, attr, original)   # AttributeError on a missing one
                 for owner, attr, original, _ in tracer._points]
    tracer.install()
    tracer.uninstall()
    for owner, attr, original in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original


@pytest.mark.parametrize("name", ["track_known", "estimate_open", "track_unknown"])
def test_workload_online_points_resolve(workloads, name):
    workload = workloads.WORKLOADS[name]
    probe = workloads.OnlineProbe(workload, workloads.Tally())
    probe.install()
    probe.uninstall()
    assert len(probe.points) >= 1
    for owner, attr in probe.points:
        assert callable(owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))


def test_bench_selftest_passes():
    run = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
