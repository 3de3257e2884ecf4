"""Command-line front end: construct, verify, sweep, inspect, export.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 invalid
input.  Reports are JSON with a fixed field order and are byte-identical
across runs with the same configuration (timings are opt-in for that
reason); sweeps parallelize over instances and merge results in instance
order, capped by the SAITO_FORGE_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache
from itertools import count

from .column_system import RouteFailure
from .family import (DivisorInstance, ExhaustedRetries, InconsistentInstance,
                     InvalidParams, FamilyParams, build_divisor, instance_from_json,
                     instance_to_json, is_irreducible, legal_pairs,
                     random_instance, random_non_squarefree_instance)
from .field import InputError, field_from_spec
from .oracle import (JacobianLadder, expected_multiplicity, point_support_bound,
                     point_support_check, predicted_quotient_hilbert, resolution_bound,
                     resolution_check, syzygy_kernel)
from .poly import Poly, PolyError, parse, render
from .saito import build_saito_matrix, freeness_probe


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _parse_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        return list(range(int(lo), int(hi) + 1)) if dots else [int(text)]
    except ValueError:
        raise CliError(f"--d must be a degree or a range lo..hi, got {text!r}") from None


def _write(text: str, path: str | None):
    """Write text to path, or to stdout without one; an unwritable path is bad input."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(data, out_path: str | None):
    _write(json.dumps(data, indent=2) + "\n", out_path)


_INSTANCE_FIELDS = (("d", int), ("alpha", int), ("beta", int),
                    ("field", str), ("F1", str), ("F2", str))


def _read_instance_file(path: str) -> dict:
    """The JSON object of an instance file, checked for the keys and value
    types an instance needs."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read instance file {path}: {exc}")
    if not isinstance(data, dict):
        raise CliError(f"instance file {path} does not hold a JSON object")
    missing = [k for k, _ in _INSTANCE_FIELDS if k not in data]
    if missing:
        raise CliError(f"instance file {path} lacks {', '.join(missing)}")
    bad = [k for k, kind in _INSTANCE_FIELDS + (("F", str),)
           if k in data and type(data[k]) is not kind]
    if bad:
        raise CliError(f"instance file {path} has values of the wrong type for {', '.join(bad)}")
    return data


def _degree(name: str, value: int | None, d: int, low: int = 0) -> int:
    """A --degree or --degree-bound in low..3d, `resolution_bound` if not given: S/J(F)
    of a reduced curve has a constant Hilbert function from 3(d-2)+1 on, and 3d >= 3v+3."""
    if value is None:
        return resolution_bound(d)
    if not low <= value <= 3 * d:
        raise CliError(f"{name} must lie in {low}..{3 * d} (the ceiling 3d for d={d}), got {value}")
    return value


def _instance_from_args(args) -> DivisorInstance:
    if getattr(args, "infile", None):
        return instance_from_json(_read_instance_file(args.infile))
    if args.d is None:
        raise CliError("need --d (with --f1/--f2 or --seed) or --in FILE")
    fld = field_from_spec(args.field)
    if args.f1 is not None or args.f2 is not None:
        if args.f1 is None or args.f2 is None:
            raise CliError("--f1 and --f2 must be given together")
        try:
            f1 = parse(args.f1, fld, nvars=2)
            f2 = parse(args.f2, fld, nvars=2)
        except PolyError as exc:
            raise CliError(f"polynomial syntax: {exc}")
        params = FamilyParams(args.d, args.alpha, args.beta, f1, f2)
    else:
        params = random_instance(args.d, args.alpha, args.beta, args.seed, fld)
    try:
        return build_divisor(params)
    except InvalidParams as exc:
        raise CliError(json.dumps(exc.report.to_json(), indent=2) if exc.report else str(exc))


def _load(args) -> tuple[DivisorInstance, dict | None]:
    """The instance of the arguments or of --in FILE, with None; or, when the
    file's stored F disagrees with its parameters, the instance of those
    parameters with the file's data."""
    if not getattr(args, "infile", None):
        return _instance_from_args(args), None
    data = _read_instance_file(args.infile)
    try:
        return instance_from_json(data), None
    except InconsistentInstance:
        return instance_from_json({k: v for k, v in data.items() if k != "F"}), data


def cmd_construct(args) -> int:
    inst = _instance_from_args(args)
    _emit(instance_to_json(inst), args.out)
    return 0


def _verify_bound(args, d: int) -> int:
    """The verify degree bound.  Below the first t where the predicted Hilbert
    function of S/J(F) reaches the multiplicity, the multiplicity check would
    fail on a truncated series, so such a bound is invalid input."""
    stable = next(t for t in count() if predicted_quotient_hilbert(d, t) >= expected_multiplicity(d))
    return _degree("--degree-bound", args.degree_bound, d, stable)


def _verify(args, f: Poly, report: dict, inst: DivisorInstance | None) -> int:
    """One verify pipeline on F: irreducibility, the Saito stage, resolution
    and point support.  The Saito stage builds the matrix of an assembled
    instance; a stored raw F (inst is None) gets the freeness probe instead
    and fails by definition, its report naming every check that failed."""
    d = f.degree()
    bound = _verify_bound(args, d)
    timings: dict = {}

    # one climb of J(F): the Saito stage tracks it, resolution goes on, point support reads it
    ladder = JacobianLadder(f)
    t0 = time.perf_counter()
    irreducible = is_irreducible(f) if all(m[2] <= 1 for m in f.num) else None
    timings["irreducible"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if inst is None:
        probe = freeness_probe(f, bound, ladder)
        stage = ("freeness_probe", probe.to_json(), probe.success)
    else:
        try:
            sm = build_saito_matrix(inst, route=args.route, ladder=ladder)
            stage = ("saito", sm.to_json(), sm.verify.passed)
        except RouteFailure as exc:
            stage = ("saito", {"pass": False, "error": str(exc)}, False)
    timings["saito"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    res = resolution_check(f, bound, ladder)
    timings["resolution"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    support_bound = point_support_bound(d)
    ps = point_support_check(f, min(bound, support_bound), ladder)
    timings["point_support"] = time.perf_counter() - t0
    if not ps.certified and bound < support_bound:
        raise CliError(f"inconclusive: x^N and y^N lie in J(F) for no N <= --degree-bound {bound} "
                       f"(the point-support bound for d={d} is {support_bound})")

    checks = [("irreducible", irreducible, irreducible is not False), stage,
              ("resolution", res.to_json(), res.passed),
              ("point_support", ps.to_json(), ps.certified)]
    report.update((key, section) for key, section, _ in checks)
    failures = [key for key, _, ok in checks if not ok]
    if inst is None:
        report["failures"] = ["stored F disagrees with the assembled divisor"] + failures
    report["pass"] = inst is not None and not failures
    if args.timings:
        report["timings"] = {k: round(t, 6) for k, t in timings.items()}
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def cmd_verify(args) -> int:
    inst, data = _load(args)
    if data is None:
        return _verify(args, inst.f, {"instance": instance_to_json(inst)}, inst)
    f = parse(data["F"], inst.f.field)
    if f.is_zero() or not f.is_homogeneous():
        raise CliError(f"stored F in {args.infile} is not a nonzero form")
    if f.degree() != data["d"]:
        raise CliError(f"stored F in {args.infile} has degree {f.degree()}, not d = {data['d']}")
    return _verify(args, f, {"instance": data, "raw_f_mode": True}, None)


def cmd_syzygies(args) -> int:
    inst = _instance_from_args(args)
    basis = syzygy_kernel(inst.f, _degree("--degree", args.degree, inst.params.d))
    _emit({
        "instance": instance_to_json(inst),
        "degree": args.degree,
        "dimension": len(basis.vectors),
        "basis": [[render(p) for p in vec.as_polys()] for vec in basis.vectors],
    }, args.out)
    return 0


def cmd_hilbert(args) -> int:
    inst = _instance_from_args(args)
    bound = _degree("--degree-bound", args.degree_bound, inst.params.d)
    values = resolution_check(inst.f, bound).computed
    if args.csv:
        _write("t,hilbert_function\n" + "".join(f"{t},{h}\n" for t, h in enumerate(values)), args.csv)
    _emit({
        "instance": instance_to_json(inst),
        "t_max": bound,
        "hilbert_function": values,
    }, args.out)
    return 0


def _failed(entry: dict, exc: Exception) -> dict:
    entry["route"] = "failed"
    entry["error"] = str(exc)
    entry["pass"] = False
    return entry


def _sweep_task(task) -> dict:
    d, alpha, beta, seed, field_spec, drop_squarefree = task
    fld = field_from_spec(field_spec)
    entry = {"d": d, "alpha": alpha, "beta": beta, "seed": seed, "field": field_spec}
    forced = drop_squarefree and alpha >= 2  # F1 carries a repeated factor
    try:
        draw = random_non_squarefree_instance if forced else random_instance
        params = draw(d, alpha, beta, seed, fld)
    except ExhaustedRetries as exc:
        return _failed(entry, exc)
    inst = build_divisor(params, drop_squarefree=forced)
    entry["F"] = render(inst.f)
    if drop_squarefree:
        entry["square_free_F1"] = not forced
        probe = freeness_probe(inst.f, resolution_bound(d))
        entry["probe"] = probe.to_json()
        entry["pass"] = probe.success
        return entry
    try:
        sm = build_saito_matrix(inst)
        entry["route"] = sm.route
        entry["unit_c"] = str(sm.unit)
        entry["pass"] = sm.verify.passed
    except RouteFailure as exc:
        _failed(entry, exc)
    entry["irreducible"] = is_irreducible(inst.f)
    return entry


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported with multiprocessing on first use and then bound here."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _worker_count(ntasks: int) -> int:
    """Sweep worker processes: SAITO_FORGE_THREADS (default 8), clamped to
    the CPU count and to the number of tasks."""
    env = os.environ.get("SAITO_FORGE_THREADS", "").strip()
    wanted = 8
    if env:
        try:
            wanted = int(env)
        except ValueError:
            raise CliError(f"SAITO_FORGE_THREADS must be an integer, got {env!r}") from None
    return max(1, min(wanted, os.cpu_count() or 1, ntasks))


def cmd_sweep(args) -> int:
    ds = _parse_range(args.d)
    if any(d < 5 for d in ds):
        raise CliError("sweep degrees must be >= 5")
    field_from_spec(args.field)  # validate early
    tasks = []
    for d in ds:
        for alpha, beta in legal_pairs(d):
            if args.alpha is not None and alpha != args.alpha:
                continue
            if args.beta is not None and beta != args.beta:
                continue
            for trial in range(args.trials):
                tasks.append((d, alpha, beta, args.seed + trial, args.field,
                              args.drop_squarefree))
    if not tasks:  # an empty summary would read as a pass
        raise CliError(f"sweep selects no instance from --d {args.d} --trials {args.trials} "
                       "and the --alpha/--beta filters")
    workers = _worker_count(len(tasks))
    if workers > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:  # `__getattr__`
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]
    n_pass = sum(1 for r in results if r["pass"])
    summary = {
        "command": "sweep",
        "d_range": ds,
        "trials": args.trials,
        "seed": args.seed,
        "field": args.field,
        "drop_squarefree": args.drop_squarefree,
        "total": len(results),
        "pass": n_pass,
        "fail": len(results) - n_pass,
    }
    _emit({"summary": summary, "instances": results}, args.out)
    if args.drop_squarefree:
        return 0
    return 0 if n_pass == len(results) else 1


def _m2_script(inst: DivisorInstance, sm, f_text: str | None = None) -> str:
    fld = inst.f.field
    ring = "QQ" if fld.char == 0 else f"ZZ/{fld.char}"
    rows = ",\n    ".join("{" + ", ".join(render(e) for e in row) + "}" for row in sm.matrix)
    return f"""-- generated by saito-forge: external cross-check script
kk = {ring};
R = kk[x, y, z];
F = {f_text or render(inst.f)};
A = matrix {{
    {rows}
}};
J = ideal(diff(x, F), diff(y, F), diff(z, F), F);
assert(codim J == 2);
assert(pdim module J == 1);  -- perfect of codimension 2 (Hilbert-Burch)
gradF = matrix {{{{diff(x, F), diff(y, F), diff(z, F)}}}};
assert(det A - ({fld.render(sm.unit)}) * F == 0);
assert((gradF * A) % (ideal F) == 0);
print "saito-forge export: all assertions passed";
"""


def _cocoa_script(inst: DivisorInstance, sm, f_text: str | None = None) -> str:
    fld = inst.f.field
    d = inst.params.d
    ring = "QQ" if fld.char == 0 else f"ZZ/({fld.char})"
    rows = ",\n    ".join("[" + ", ".join(render(e) for e in row) + "]" for row in sm.matrix)
    hvals = [predicted_quotient_hilbert(d, t) for t in range(resolution_bound(d) + 1)]
    checks = ";\n".join(
        f"If HilbertFn(R/J, {t}) <> {h} Then Error(\"hilbert check failed at {t}\"); EndIf"
        for t, h in enumerate(hvals)
    )
    return f"""-- generated by saito-forge: external cross-check script
Use R ::= {ring}[x, y, z];
F := {f_text or render(inst.f)};
A := matrix([
    {rows}
]);
J := ideal(deriv(F, x), deriv(F, y), deriv(F, z), F);
If dim(R/J) <> 1 Then Error("codimension check failed"); EndIf;
If det(A) <> ({fld.render(sm.unit)}) * F Then Error("determinant check failed"); EndIf;
G := [deriv(F, x), deriv(F, y), deriv(F, z)];
For k := 1 To 3 Do
  If NR(G[1]*A[1,k] + G[2]*A[2,k] + G[3]*A[3,k], [F]) <> 0 Then
    Error("syzygy check failed");
  EndIf;
EndFor;
-- resolution-shape certificate via the quotient Hilbert function
{checks};
PrintLn "saito-forge export: all assertions passed";
"""


def cmd_export(args) -> int:
    inst, data = _load(args)
    f_text = None if data is None else data["F"]
    if data is not None:
        # tampered F: still export, asserting against the stored F so the
        # external run fails loudly (a deliberate control path)
        sys.stderr.write("warning: stored F disagrees with the assembly; "
                         "exporting assertions against the stored F\n")
    try:
        sm = build_saito_matrix(inst, route=args.route)
    except RouteFailure as exc:
        sys.stderr.write(f"export: route {args.route!r} cannot build a Saito matrix: {exc}\n")
        return 1
    if args.cas == "macaulay2":
        script = _m2_script(inst, sm, f_text)
    else:
        script = _cocoa_script(inst, sm, f_text)
    _write(script, args.out)
    return 0


def _add_instance_args(p, with_route=False):
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--beta", type=int, default=0)
    p.add_argument("--f1", default=None, help="bivariate form of degree alpha")
    p.add_argument("--f2", default=None, help="bivariate form of degree d - floor(d/2) - alpha - 1")
    p.add_argument("--field", default="q", help="q (rationals) or fp:P (prime field)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", default=None, help="instance JSON file")
    p.add_argument("--out", default=None)
    if with_route:
        p.add_argument("--route", default="auto", choices=["auto", "oracle"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="saito-forge",
                                 description="Construct and verify irreducible free divisors in three variables.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="assemble a family member")
    _add_instance_args(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="full verification pipeline")
    _add_instance_args(p, with_route=True)
    p.add_argument("--degree-bound", type=int, default=None)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("syzygies", help="syzygy kernel basis at one degree")
    _add_instance_args(p)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_syzygies)

    p = sub.add_parser("hilbert", help="Hilbert function of the Jacobian quotient")
    _add_instance_args(p)
    p.add_argument("--degree-bound", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("sweep", help="batch verification over parameter ranges")
    p.add_argument("--d", required=True, help="degree or range, e.g. 5..9")
    p.add_argument("--alpha", type=int, default=None, help="restrict alpha")
    p.add_argument("--beta", type=int, default=None, help="restrict beta")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="q")
    p.add_argument("--drop-squarefree", action="store_true",
                   help="exploratory mode: probe instances without the square-free condition")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="emit a CAS cross-check script")
    _add_instance_args(p, with_route=True)
    p.add_argument("--cas", default="macaulay2", choices=["macaulay2", "cocoa"])
    p.set_defaults(func=cmd_export)

    return ap


_parser = cache(build_parser)  # built by the first `main` call, not at import


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"{exc}\n")
        return exc.code
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
