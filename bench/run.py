#!/usr/bin/env python3
"""saito-forge benchmark: three certification workloads driven through the CLI.

Run from the repository root:

    python3 bench/run.py --workload verify-q --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of ``saito_forge.cli.main`` calls, run in this
process, in passes, until ``--seconds`` is spent.  Every report is checked
(exit code, ``"pass": true``, routes, the Hilbert function against the
closed-form series, determinism across passes and, on the default seed, the
sha256 recorded at the seed commit).  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` traced and untraced passes
alternate and it carries the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 7
REF_RUNS = 15

VERIFY_FP = "fp:32003"
WORKLOADS = {
    # (d, alpha, beta, field) per verify call; sweep-q is a single sweep call
    "verify-q": [(12, 0, 0, "q"), (13, 0, 1, "q")],
    "verify-fp": [(30, 0, 0, VERIFY_FP), (31, 1, 1, VERIFY_FP),
                  (32, 1, 0, VERIFY_FP), (33, 2, 0, VERIFY_FP)],
    "sweep-q": [("5..13", "q")],
}


def calls_for(workload: str, seed: int, outdir: Path) -> list[dict]:
    """The CLI calls of one pass, each with the key its digest is recorded under."""
    calls = []
    for k, spec in enumerate(WORKLOADS[workload]):
        out = str(outdir / f"{workload}-{k}.json")
        if workload == "sweep-q":
            drange, fld = spec
            lo, hi = (int(x) for x in drange.split(".."))
            calls.append({"key": f"sweep d={drange} trials=1 field={fld}", "kind": "sweep",
                          "degrees": list(range(lo, hi + 1)), "out": out,
                          "argv": ["sweep", "--d", drange, "--trials", "1", "--field", fld,
                                   "--seed", str(seed), "--out", out]})
        else:
            d, a, b, fld = spec
            calls.append({"key": f"verify d={d} alpha={a} beta={b} field={fld}", "kind": "verify",
                          "d": d, "alpha": a, "beta": b, "out": out,
                          "argv": ["verify", "--d", str(d), "--alpha", str(a), "--beta", str(b),
                                   "--field", fld, "--seed", str(seed), "--out", out]})
    return calls


# ----- independent output checks ------------------------------------------


def expected_route(d: int, beta: int) -> str:
    if d % 2 == 0:
        return "oracle"
    return "explicit_odd" if beta >= 1 else "explicit_beta0"


def _binom2(n: int) -> int:
    return (n + 1) * (n + 2) // 2 if n >= 0 else 0


def quotient_hilbert(d: int, t: int) -> int:
    """Hilbert function of S/J(F) from the family's resolution shape."""
    v = d // 2
    if d % 2:
        return _binom2(t) - 3 * _binom2(t - 2 * v) + 2 * _binom2(t - 3 * v)
    return (_binom2(t) - 3 * _binom2(t - (2 * v - 1))
            + _binom2(t - (3 * v - 2)) + _binom2(t - (3 * v - 1)))


def legal_pair_count(d: int) -> int:
    bound = (d + 1) // 2 - 3
    return (bound + 1) * (bound + 2) // 2 if bound >= 0 else 0


def call_instances(call: dict) -> int:
    """Instances one call certifies: a verify call is one, a sweep one per entry."""
    if call["kind"] == "verify":
        return 1
    return sum(legal_pair_count(d) for d in call["degrees"])


def verify_problems(call: dict, rep: dict) -> list[str]:
    d, beta = call["d"], call["beta"]
    v = d // 2
    res, ps, sm = rep.get("resolution", {}), rep.get("point_support", {}), rep.get("saito", {})
    problems = []
    if rep.get("pass") is not True:
        problems.append("report pass is not true")
    if rep.get("irreducible") is not True:
        problems.append("not irreducible")
    if sm.get("route") != expected_route(d, beta) or sm.get("residuals", {}).get("det") != "0":
        problems.append("saito route or det residual")
    hf = [quotient_hilbert(d, t) for t in range(3 * v + 4)]
    if res.get("computed") != hf or res.get("multiplicity") != hf[-1]:
        problems.append("Hilbert function differs from the resolution series")
    if ps.get("certified") is not True or not (d - 1 <= (ps.get("n") or -1) <= 3 * v + 2):
        problems.append("point support not certified")
    return problems


def sweep_failures(call: dict, rep: dict) -> int:
    entries = rep.get("instances", [])
    expected = call_instances(call)
    bad = sum(1 for e in entries
              if not (e.get("pass") is True and e.get("irreducible") is True
                      and e.get("route") == expected_route(e.get("d", 0), e.get("beta", 0))
                      and e.get("unit_c") not in (None, "0")))
    summary = rep.get("summary", {})
    if len(entries) != expected or summary.get("pass") != expected:
        return expected
    return bad


class Checker:
    """Checks every report and counts instances attempted and failed."""

    def __init__(self, seed: int):
        self.expected = {}
        if seed == DEFAULT_SEED:
            self.expected = json.loads((BENCH / "expected_digests.json").read_text())
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, workload: str, call: dict, rc) -> None:
        out = Path(call["out"])
        data = out.read_bytes() if out.is_file() else b""
        digest = hashlib.sha256(data).hexdigest()
        try:
            rep = json.loads(data)
        except ValueError:
            rep = {}
        n = call_instances(call)
        if call["kind"] == "verify":
            problems = verify_problems(call, rep)
            bad = 1 if problems else 0
        else:
            bad = sweep_failures(call, rep)
            problems = [f"{bad} sweep entries failed"] if bad else []
        # failures of the call as a whole fail every instance it covers
        whole = []
        if rc != 0:
            whole.append(f"ended with {rc!r}")
        if digest != self.digests.setdefault(call["key"], digest):
            whole.append("report bytes differ between passes")
        if self.expected and digest != self.expected.get(workload, {}).get(call["key"]):
            whole.append("sha256 differs from the seed-commit digest")
        if whole:
            bad = n
        self.problems.extend(f"{call['key']}: {p}" for p in problems + whole)
        self.attempted += n
        self.failed += bad


# ----- measurement ----------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import the CLI, build the calls."""
    sys.path.insert(0, str(SRC))
    import saito_forge.cli  # noqa: F401

    calls_for(workload, seed, OUT)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to ready, SETUP_PROBES times."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if line != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        times.append(elapsed)
    return times


def reference_kernel() -> None:
    """A fixed piece of exact big-integer work (a harmonic sum in Fractions),
    the same kind of arithmetic the rational eliminations do."""
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i)


class UnitClock:
    """Times units of work (a verify call, a sweep entry) and times the
    reference kernel between consecutive units.

    On a shared host the same work runs up to ~1.6x slower for tens of
    seconds at a time.  A unit's time divided by the mean of the reference
    times just before and after it is its cost in reference units, from
    which that drift cancels.  Single kernel runs jitter by tens of percent,
    so after a unit of ``dt`` seconds the kernel runs ``1 + dt / 0.1 s``
    times (at most REF_RUNS) and the median counts.
    """

    def __init__(self):
        self.units: list[tuple[float, float]] = []   # (seconds, reference seconds)
        self.ref_spent = 0.0
        self._last_ref = None

    def _reference(self, runs: int) -> float:
        t0 = time.perf_counter()
        times = []
        for _ in range(runs):
            t = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t)
        self.ref_spent += time.perf_counter() - t0
        return statistics.median(times)

    def time(self, fn, *args):
        before = self._last_ref if self._last_ref is not None else self._reference(REF_RUNS)
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t
            self._last_ref = self._reference(min(REF_RUNS, 1 + int(dt / 0.1)))
            self.units.append((dt, (before + self._last_ref) / 2))

    def in_reference_units(self, wall: float) -> float:
        """A pass of ``wall`` seconds (reference time excluded) in reference
        units; time outside any unit is scaled by the median reference time."""
        in_units = sum(dt for dt, _ in self.units)
        outside = (wall - in_units) / statistics.median(ref for _, ref in self.units)
        return sum(dt / ref for dt, ref in self.units) + outside


def run_pass(main, calls: list[dict]) -> tuple[float, list]:
    """One pass over the calls: (seconds, exit codes).  A call that raises
    gets the exception text as its exit code."""
    for call in calls:
        Path(call["out"]).unlink(missing_ok=True)
    rcs = []
    t0 = time.perf_counter()
    for call in calls:
        try:
            rcs.append(main(call["argv"]))
        except Exception as exc:  # reported as a failed instance, not a crash
            rcs.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, rcs


def src_metadata() -> dict:
    files = sorted(SRC.rglob("*.py"))
    lines = sum(len(p.read_text().splitlines()) for p in files)
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                commit = next((ln.split()[0] for ln in packed.read_text().splitlines()
                               if ln.endswith(" " + name)), None)
    return {"src_lines": lines, "src_sha256": digest.hexdigest(), "git_commit": commit}


def quartiles(xs: list[float]) -> list[float]:
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy
    from saito_forge import cli

    from layers import Tracer, pass_metrics, rebound

    os.environ["SAITO_FORGE_THREADS"] = "1"
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    calls = calls_for(workload, seed, workdir)
    checker = Checker(seed)
    setup = [] if trace else measure_setup(workload, seed)
    per_pass = sum(call_instances(call) for call in calls)

    pools = []
    real_pool = cli.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(1)
        return real_pool(*args, **kwargs)

    real_task = cli._sweep_task
    tracer = Tracer()
    traced_main = tracer.wrap(cli.main, lambda args, result: ("cli", 0))
    walls = {False: [], True: []}     # seconds per pass, untraced / traced
    ref_walls = {False: [], True: []}  # the same in reference units
    units: list[list[tuple[float, float]]] = []   # per untraced pass
    layer_runs: list[dict] = []
    traced_ranges: list[tuple[int, int]] = []

    start = time.perf_counter()
    traced_pass = False
    with rebound([(real_pool, counting_pool)]):
        while True:
            first = len(tracer.spans)
            clock = UnitClock()
            if traced_pass:
                with tracer.installed():
                    wall, rcs = run_pass(lambda argv: clock.time(traced_main, argv), calls)
            elif workload == "sweep-q":
                with rebound([(real_task, lambda task: clock.time(real_task, task))]):
                    wall, rcs = run_pass(cli.main, calls)
            else:
                wall, rcs = run_pass(lambda argv: clock.time(cli.main, argv), calls)
            wall -= clock.ref_spent
            walls[traced_pass].append(wall)
            ref_walls[traced_pass].append(clock.in_reference_units(wall))
            if traced_pass:
                traced_ranges.append((first, len(tracer.spans)))
                layer_runs.append(pass_metrics(tracer.spans, first, len(tracer.spans),
                                               wall, per_pass))
            else:
                units.append(clock.units)
            for call, rc in zip(calls, rcs):
                checker.check(workload, call, rc)
            if trace:
                traced_pass = not traced_pass
            elapsed = time.perf_counter() - start
            if walls[trace] and elapsed + max(walls[False] + walls[True]) * 1.1 > seconds:
                break

    if pools:
        checker.problems.append(f"{len(pools)} worker pool(s) spawned")
    details = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "meta": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "nproc": os.cpu_count(), **src_metadata()},
        "passes": {"untraced_wall_s": walls[False], "untraced_wall_ref": ref_walls[False],
                   "traced_wall_s": walls[True], "traced_wall_ref": ref_walls[True]},
        "digests": checker.digests,
        "problems": checker.problems,
    }
    if trace:
        metrics = {name: statistics.median(r[name] for r in layer_runs) for name in layer_runs[0]}
        metrics["trace.overhead_ratio"] = (statistics.median(ref_walls[True])
                                           / statistics.median(ref_walls[False]) - 1)
        accounted = [r["trace.accounted_ratio"] for r in layer_runs]
        if not all(0.98 <= a <= 1.0 + 1e-9 for a in accounted):
            checker.problems.append(f"layer self times do not add up to wall: {accounted}")
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.dump(spans_path, traced_ranges)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["samples"] = {"traced_passes": len(walls[True]),
                              "untraced_passes": len(walls[False])}
    else:
        # each instance's median over passes, then the median instance
        per_instance = [statistics.median(p[i][0] / p[i][1] for p in units)
                        for i in range(len(units[0]))]
        samples = {"setup_s": setup, "wall_ref": ref_walls[False], "instance_ref.p50": per_instance}
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(ref_walls[False]),
            "instance_ref.p50": statistics.median(per_instance),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (checker.attempted - checker.failed) / checker.attempted,
        }
        details["seconds"] = {
            "wall_s": statistics.median(walls[False]),
            "instance_s.p50": statistics.median(statistics.median(p[i][0] for p in units)
                                                for i in range(len(units[0]))),
            "reference_s": statistics.median(ref for p in units for _, ref in p)}
        details["samples"] = {k: len(v) for k, v in samples.items()}
        details["samples"]["instance_ref.p50"] *= len(units)
        details["quartiles"] = {k: quartiles(v) for k, v in samples.items()}
        details["units"] = units
    correct = checker.failed == 0 and not checker.problems
    return {"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
            "metrics": metrics, "details": details}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "saito_forge" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no saito_forge package under {SRC}; run from a full checkout\n")
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if set(result["metrics"]) != {m["name"] for m in declared}:
        sys.stderr.write("bench: measured metrics differ from BENCHMARK.json\n")
        return 2
    details = result.pop("details")
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "details": details}, indent=1) + "\n")
    for problem in details["problems"]:
        print(f"FAIL {problem}")
    for m in declared:
        print(f"{m['name']:40s} {result['metrics'][m['name']]:>14.6g} {m['unit']}")
    print(json.dumps(details))
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
