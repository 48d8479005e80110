"""Span tracing of affinelab's layers, installed from outside the program.

``install()`` wraps the public functions and methods of every layer in a
recorder.  Each call becomes a span (name, start, end, parent) appended to
flat arrays kept in memory; ``Tracer.metrics()`` folds them into the
per-layer metrics after the run and ``Tracer.dump()`` writes them out.

The modules import each other's functions by name (``conjugacy`` holds its
own ``lattice_member``, ``cli`` its own ``run_verification``), so a wrapped
function is replaced under every module attribute that refers to it.
Methods are replaced on their class, which every caller shares.

A span's self time is its duration minus the time its child spans cover.
Inclusive times (``.ms``) and call counts take the outermost span of a name
only, so ``distance`` calling ``reduce_complex`` (one name) counts once.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

MODULES = ("exactfield", "arithmetic", "surfaces", "flow", "conjugacy", "lift", "cli")

# (module, function) -> span name, for module-level functions
FUNCTIONS = {
    "exactfield": {n: "exactfield." + n for n in (
        "p_trim", "p_add", "p_neg", "p_sub", "p_scale", "p_mul", "p_divmod",
        "p_gcd", "p_conj", "p_eval")},
    "arithmetic": {
        "parse_complex": "arithmetic.parse_complex",
        "lattice_member": "arithmetic.lattice_member",
        "enumerate_norm_shell": "arithmetic.enumerate_norm_shell",
        "reduce_basis": "arithmetic.reduce_basis",
        "covolume": "arithmetic.covolume",
        "is_near_integer": "arithmetic.is_near_integer",
        "principal_log": "arithmetic.principal_log",
    },
    "surfaces": {
        "parse_surface": "surfaces.parse_surface",
        "points_equal": "surfaces.points_equal",
    },
    "flow": {n: "flow." + n for n in (
        "classify", "maximal_interval", "flow", "flow_complex", "boundary_flow",
        "boundary_flow_inverse", "trajectory", "closed_geodesic_witness",
        "has_closed_geodesics")},
    "conjugacy": {n: "conjugacy." + n for n in (
        "decide", "decide_cylinder", "decide_torus_holomorphic",
        "decide_torus_topological", "make_marked_torus", "search_torus_real_linear",
        "torus_scalar_witnesses", "orbit_order")},
    "lift": {n: "lift." + n for n in (
        "build_base", "base_invariant_deviation", "lift", "verify_flow_conjugacy",
        "verify_boundary_relations", "branch_independence", "run_verification",
        "verification_passed")},
    "cli": {"main": "cli.main"},
}

# (module, class) -> {method: span name}; None means every function in the
# class body under "<prefix>.<method>"
METHODS = {
    ("exactfield", "FieldElement"): None,
    ("arithmetic", "ComplexValue"): None,
    ("surfaces", "DiscreteGroup"): {
        "reduce": "surfaces.reduce",
        "distance": "surfaces.distance",
        "reduce_complex": "surfaces.distance",
        "contains": "surfaces.contains",
        "coefficients_of": "surfaces.coefficients_of",
    },
}
CLASS_PREFIX = {"FieldElement": "exactfield.fe", "ComplexValue": "arithmetic.complexvalue"}

# ComplexValue constructions: __init__ plus the classmethods that bypass it
CV_CONSTRUCTORS = ("arithmetic.complexvalue.__init__", "arithmetic.complexvalue.approx",
                   "arithmetic.complexvalue.from_field")


class Tracer:
    def __init__(self):
        self.names: "list[str]" = []
        self.ids: "dict[str, int]" = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.outermost = array("b")
        self.depth: "list[int]" = []
        self.stack: "list[int]" = []
        self.counters: "dict[str, float]" = {}

    def intern(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return nid

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, after=None, rename=None):
        """A wrapper recording one span per call of fn.

        ``after(result)`` runs outside the span; ``rename(args)`` picks the
        span name per call (FieldElement construction by degree).
        """
        nid = self.intern(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        outer, depth, stack = self.outermost, self.depth, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = rename(args) if rename is not None else nid
            i = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            outer.append(depth[sid] == 0)
            depth[sid] += 1
            stack.append(i)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                depth[sid] -= 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ---- folding spans into metrics ----

    def totals(self):
        """Per name: [outermost calls, outermost ms, self ms]."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [0.0] * n
        for i in range(n - 1, -1, -1):
            d = self.span_end[i] - self.span_start[i]
            dur[i] = d
            p = self.span_parent[i]
            if p >= 0:
                child[p] += d
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            if self.outermost[i]:
                row[0] += 1
                row[1] += dur[i] * 1e3
            row[2] += (dur[i] - child[i]) * 1e3
        return out

    def metrics(self, stdout_bytes: int) -> "dict[str, float]":
        t = self.totals()
        zero = [0, 0.0, 0.0]

        def calls(name):
            return t.get(name, zero)[0]

        def ms(name):
            return t.get(name, zero)[1]

        def self_ms(prefix):
            return sum(row[2] for name, row in t.items() if name.startswith(prefix))

        def ratio(hits, total):
            return hits / total if total else 0.0

        c = self.counters
        m = {
            "exactfield.init_deg0.calls": calls("exactfield.fe.__init__.deg0"),
            "exactfield.init_deg1plus.calls": calls("exactfield.fe.__init__.deg1plus"),
            "exactfield.self_ms": self_ms("exactfield."),
            "arithmetic.parse_complex.calls": calls("arithmetic.parse_complex"),
            "arithmetic.parse_complex.ms": ms("arithmetic.parse_complex"),
            "arithmetic.enumerate_norm_shell.calls": calls("arithmetic.enumerate_norm_shell"),
            "arithmetic.enumerate_norm_shell.points": c.get("shell_points", 0),
            "arithmetic.enumerate_norm_shell.ms": ms("arithmetic.enumerate_norm_shell"),
            "arithmetic.lattice_member.calls": calls("arithmetic.lattice_member"),
            "arithmetic.lattice_member.hit_ratio": ratio(
                c.get("lattice_member_hits", 0), calls("arithmetic.lattice_member")),
            "arithmetic.lattice_member.ms": ms("arithmetic.lattice_member"),
            "arithmetic.complexvalue.calls": sum(calls(n) for n in CV_CONSTRUCTORS),
            "arithmetic.complexvalue.self_ms": self_ms("arithmetic.complexvalue."),
            "surfaces.parse_surface.ms": ms("surfaces.parse_surface"),
            "surfaces.reduce.calls": calls("surfaces.reduce"),
            "surfaces.reduce.ms": ms("surfaces.reduce"),
            "surfaces.distance.calls": calls("surfaces.distance"),
            "surfaces.distance.ms": ms("surfaces.distance"),
            "flow.classify.calls": calls("flow.classify"),
            "flow.classify.ms": ms("flow.classify"),
            "flow.flow.calls": calls("flow.flow"),
            "flow.flow.self_ms": t.get("flow.flow", zero)[2],
            "flow.trajectory.ms": ms("flow.trajectory"),
            "flow.flow_complex.calls": calls("flow.flow_complex"),
            "flow.flow_complex.ms": ms("flow.flow_complex"),
            "flow.boundary_flow.calls": calls("flow.boundary_flow"),
            "flow.boundary_flow.ms": ms("flow.boundary_flow"),
            "conjugacy.decide.ms": ms("conjugacy.decide"),
            "conjugacy.decide_cylinder.ms": ms("conjugacy.decide_cylinder"),
            "conjugacy.decide_torus_holomorphic.ms": ms("conjugacy.decide_torus_holomorphic"),
            "conjugacy.decide_torus_topological.ms": ms("conjugacy.decide_torus_topological"),
            "conjugacy.make_marked_torus.calls": calls("conjugacy.make_marked_torus"),
            "conjugacy.make_marked_torus.ms": ms("conjugacy.make_marked_torus"),
            "conjugacy.search_torus_real_linear.calls": calls("conjugacy.search_torus_real_linear"),
            "conjugacy.search_torus_real_linear.hit_ratio": ratio(
                c.get("search_hits", 0), calls("conjugacy.search_torus_real_linear")),
            "conjugacy.search_torus_real_linear.ms": ms("conjugacy.search_torus_real_linear"),
            "lift.build_base.ms": ms("lift.build_base"),
            "lift.base_invariant_deviation.ms": ms("lift.base_invariant_deviation"),
            "lift.verify_flow_conjugacy.ms": ms("lift.verify_flow_conjugacy"),
            "lift.verify_boundary_relations.ms": ms("lift.verify_boundary_relations"),
            "lift.run_verification.self_ms": t.get("lift.run_verification", zero)[2],
            "cli.main.self_ms": t.get("cli.main", zero)[2],
            "cli.stdout_bytes": stdout_bytes,
        }
        return m

    def dump(self, path) -> None:
        """Write the span names as a JSON header, then one line per span.

        A span line is: name index, start, end (perf_counter seconds) and
        the index of the parent span, -1 for none.
        """
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write("%d %.9f %.9f %d\n" % (self.span_name[i], self.span_start[i],
                                                self.span_end[i], self.span_parent[i]))


# ---- installation ----


def _replace_everywhere(modules, original, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _fe_init_namer(tracer: Tracer, pkg):
    deg0 = tracer.intern("exactfield.fe.__init__.deg0")
    deg1 = tracer.intern("exactfield.fe.__init__.deg1plus")
    one = pkg.exactfield.P_ONE

    def trimmed_len(cs):
        n = len(cs)
        while n and cs[n - 1].is_zero():
            n -= 1
        return n

    def rename(args):
        num = args[1]
        den = args[2] if len(args) > 2 else one
        return deg0 if trimmed_len(num) <= 1 and trimmed_len(den) <= 1 else deg1

    return rename


def install(tracer: Tracer) -> None:
    """Wrap every layer of the already imported affinelab package."""
    pkg = importlib.import_module("affinelab")
    mods = {m: importlib.import_module(f"affinelab.{m}") for m in MODULES}
    everywhere = [pkg] + [m for name, m in sys.modules.items()
                          if name.startswith("affinelab.")]

    after = {
        "arithmetic.lattice_member":
            lambda r: r is not None and tracer.count("lattice_member_hits"),
        "arithmetic.enumerate_norm_shell":
            lambda r: tracer.count("shell_points", len(r)),
        "conjugacy.search_torus_real_linear":
            lambda r: r.status == "conjugate" and tracer.count("search_hits"),
    }
    for modname, table in FUNCTIONS.items():
        mod = mods[modname]
        for attr, span in table.items():
            original = getattr(mod, attr)
            wrapper = tracer.wrap(span, original, after.get(span))
            _replace_everywhere(everywhere, original, wrapper)

    for (modname, clsname), table in METHODS.items():
        cls = getattr(mods[modname], clsname)
        if table is None:
            prefix = CLASS_PREFIX[clsname]
            table = {attr: f"{prefix}.{attr}" for attr, v in vars(cls).items()
                     if isinstance(v, (staticmethod, classmethod))
                     or (callable(v) and attr not in ("__setattr__", "__repr__"))}
        for attr, span in table.items():
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(tracer.wrap(span, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__)))
            elif clsname == "FieldElement" and attr == "__init__":
                setattr(cls, attr, tracer.wrap(span, raw,
                                               rename=_fe_init_namer(tracer, pkg)))
            else:
                setattr(cls, attr, tracer.wrap(span, raw))
