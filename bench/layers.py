"""Span tracing of the saito_forge layers, installed from outside the package.

Every traced function is rebound wherever its name is looked up: a function
imported by name into another module (``oracle`` binds ``pivot_columns``,
``saito`` binds ``syzygy_kernel``, ``cli`` binds the checks) is a separate
binding, so patching only the defining module would miss those calls.

A span is ``[name, start_ns, end_ns, parent, entries]``.  Spans nest on one
stack because the benchmark runs everything in one thread, so a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

LINALG_BACKENDS = ("linalg.rank_bareiss", "linalg.kernel_fraction",
                   "linalg.rank_modp", "linalg.kernel_modp")
ELIMINATIONS = LINALG_BACKENDS + ("linalg.solve_affine",)
ROUTES = ("explicit_odd", "explicit_beta0", "oracle")


def _namespaces():
    """Every saito_forge module plus the Poly class, whose ``__mul__`` is traced."""
    from saito_forge.poly import Poly

    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "saito_forge" or name.startswith("saito_forge."))]
    return mods + [Poly]


@contextmanager
def rebound(pairs):
    """Replace each original function by its stand-in in every namespace that
    binds it; restore all bindings on exit."""
    swaps = []
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            for orig, new in pairs:
                if value is orig:
                    swaps.append((ns, attr, orig))
                    setattr(ns, attr, new)
    try:
        yield
    finally:
        for ns, attr, orig in reversed(swaps):
            setattr(ns, attr, orig)


def _shape(rows, ncols=None) -> int:
    if not rows:
        return 0
    return len(rows) * (len(rows[0]) if ncols is None else ncols)


def _backend(field, kind: str) -> str:
    from saito_forge.field import Rationals

    if kind == "rank":
        return "linalg.rank_bareiss" if isinstance(field, Rationals) else "linalg.rank_modp"
    return "linalg.kernel_fraction" if isinstance(field, Rationals) else "linalg.kernel_modp"


def _targets():
    """(function, namer) pairs; a namer maps (args, result) to (name, entries).
    ``result`` is None when the call raised."""
    from saito_forge import column_system, family, linalg, oracle, poly, saito

    def fixed(name):
        return lambda args, result: (name, 0)

    def rank(args, result):                        # pivot_columns(rows, field)
        return _backend(args[1], "rank"), _shape(args[0])

    def kernel(args, result):                      # kernel_basis(rows, ncols, field)
        return _backend(args[2], "kernel"), _shape(args[0], args[1])

    def macaulay(args, result):
        n = len(result.rows) * len(result.columns) if result is not None else 0
        return "oracle.macaulay", n

    def route(args, result):
        return ("saito." + result.route if result is not None else "saito.failed"), 0

    return [
        (linalg.pivot_columns, rank),
        (linalg.kernel_basis, kernel),
        (linalg.solve_affine, fixed("linalg.solve_affine")),
        (oracle.macaulay_matrix, macaulay),
        (oracle.monomial_membership, fixed("oracle.membership")),
        (oracle._syzygy_kernel_raw, fixed("oracle.syzygy_kernel")),
        (oracle.resolution_check, fixed("oracle.resolution")),
        (oracle.point_support_check, fixed("oracle.point_support")),
        (saito.build_saito_matrix, route),
        (saito.verify_saito, fixed("saito.verify")),
        (saito.det3, fixed("saito.det3")),
        (column_system.solve_column_system, fixed("column_system.solve")),
        (poly.Poly.__mul__, fixed("poly.mul")),
        (poly.divides, fixed("poly.divides")),
        (family.build_divisor, fixed("family.build")),
        (family.is_irreducible, fixed("family.irreducible")),
    ]


class Tracer:
    """Keeps every span in memory; ``installed()`` traces the layers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, namer):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [None, 0, 0, stack[-1] if stack else None, 0]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
                rec[0], rec[4] = namer(args, result)

        return traced

    @contextmanager
    def installed(self):
        with rebound([(fn, self.wrap(fn, namer)) for fn, namer in _targets()]):
            yield

    def dump(self, path, passes):
        """Write the spans as JSON lines; ``passes`` lists each traced pass's
        (first, end) span index range."""
        with open(path, "w") as fh:
            for k, (first, end) in enumerate(passes):
                for i in range(first, end):
                    name, start, stop, parent, entries = self.spans[i]
                    fh.write(json.dumps({"id": i, "pass": k, "name": name, "start_ns": start,
                                         "end_ns": stop, "parent": parent,
                                         "entries": entries}) + "\n")


def pass_metrics(spans, first: int, end: int, wall_s: float, instances: int) -> dict:
    """Per-layer metrics of one traced pass over the spans ``first..end-1``."""
    child_ns = [0] * (end - first)
    for name, start, stop, parent, _ in spans[first:end]:
        if parent is not None:
            child_ns[parent - first] += stop - start
    calls: dict = {}
    self_ns: dict = {}
    incl_ns: dict = {}
    entries: dict = {}
    det3_in_search = 0
    for k, (name, start, stop, parent, n) in enumerate(spans[first:end]):
        dur = stop - start
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[k]
        incl_ns[name] = incl_ns.get(name, 0) + dur
        entries[name] = entries.get(name, 0) + n
        if name == "saito.det3" and parent is not None and spans[parent][0] == "saito.oracle":
            det3_in_search += 1

    def sec(table, name):
        return table.get(name, 0) / 1e9

    m = {}
    for lay in LINALG_BACKENDS + ("oracle.macaulay",):
        m[lay + ".calls"] = calls.get(lay, 0)
        m[lay + ".self_s"] = sec(self_ns, lay)
        m[lay + ".entries"] = entries.get(lay, 0)
    for lay in ("linalg.solve_affine", "oracle.syzygy_kernel", "saito.det3",
                "column_system.solve", "poly.mul", "poly.divides"):
        m[lay + ".calls"] = calls.get(lay, 0)
        m[lay + ".self_s"] = sec(self_ns, lay)
    for lay in ("oracle.resolution", "oracle.point_support", "family.build",
                "family.irreducible") + tuple("saito." + r for r in ROUTES):
        m[lay + ".s"] = sec(incl_ns, lay)
    m["oracle.membership.calls"] = calls.get("oracle.membership", 0)
    m["oracle.eliminations_per_instance"] = sum(calls.get(n, 0) for n in ELIMINATIONS) / instances
    m["saito.verify.self_s"] = sec(self_ns, "saito.verify")
    m["saito.oracle.det3_per_build"] = det3_in_search / max(1, calls.get("saito.oracle", 0))
    m["cli.self_s"] = sec(self_ns, "cli")
    m["trace.wall_s"] = wall_s
    m["trace.accounted_ratio"] = sum(self_ns.values()) / 1e9 / wall_s
    return m
