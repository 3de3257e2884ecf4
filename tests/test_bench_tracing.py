"""The benchmark's tracer changes no report: one pass of each workload of
``bench/run.py`` (seed 1), untraced and then with every layer of
``bench/layers.py`` rebound by a `Tracer`, must exit 0 with the same bytes,
the sha256 recorded in ``bench/expected_digests.json``.  The tracer rebinds
the layers by identity in every ``saito_forge`` namespace, so a layer that is
renamed, or whose signature or return type changes, shows here first.
Nothing under ``bench/`` is changed; its files are only imported."""

import contextlib
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from saito_forge import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    """A module of ``bench/`` by path, under a name that no test shadows."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers, bench_run = load("layers"), load("run")


@pytest.mark.parametrize("workload", ["verify-q", "verify-fp", "sweep-q"])
def test_traced_pass_gives_the_recorded_bytes(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("SAITO_FORGE_THREADS", "1")  # the sweep runs in this process
    expected = json.loads((BENCH / "expected_digests.json").read_text())[workload]
    digests = []
    for traced in (False, True):
        outdir = tmp_path / ("traced" if traced else "untraced")
        outdir.mkdir()
        calls = bench_run.calls_for(workload, 1, outdir)
        tracer = layers.Tracer()
        with tracer.installed() if traced else contextlib.nullcontext():
            codes = [cli.main(call["argv"]) for call in calls]
        assert codes == [0] * len(calls)
        assert bool(tracer.spans) == traced
        digests.append({call["key"]: hashlib.sha256(Path(call["out"]).read_bytes()).hexdigest()
                        for call in calls})
    assert digests[0] == digests[1] == expected
