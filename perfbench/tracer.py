"""Span tracing of fusionkit from outside the package.

The tracer wraps the public functions of each fusionkit module in place:
a module function is rebound in every ``fusionkit`` namespace that
imported it by name, and a method is replaced on its class.  Nothing in
``src/`` is edited, so the same tracer measures any commit.

A *timed* wrapper opens a span (name, start, end, parent span, op id).
Self time is a span's duration minus the time its child spans cover.  A
*counted* wrapper only increments a counter: it is used for the hottest
calls (``CycNum.is_zero``, 20M calls on the p = 7 tower, and group
multiplication), where timing every call would swamp the run.  Spans of
the functions in ``AGGREGATED`` are timed but summed per name instead of
being stored one by one, for the same reason.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("cyclo", "matgroup", "fingroup", "extraspecial", "fusion", "diagram", "cases", "cli")

# (metric name, module, attribute path, mode).  The layer is the first
# component of the name.  TIMED opens a span and yields NAME.calls and
# NAME.s; COUNTED only counts calls into NAME; SIZED adds len(result) to
# NAME and opens a span that is kept for self time but not reported.
TIMED = "timed"
COUNTED = "counted"
SIZED = "sized"

FINGROUP_TIMED = (
    "is_normal", "normalizer", "centralizer", "center", "conjugacy_classes",
    "sesverify", "isomorphism", "hom_by_generators", "all_subgroups",
    "recognize", "quotient", "group_from_json_dict",
)
MULT_CLASSES = (
    ("TableGroup", "fusionkit.fingroup"),
    ("PermGroup", "fusionkit.fingroup"),
    ("SemidirectGroup", "fusionkit.fingroup"),
    ("Mat2Group", "fusionkit.fingroup"),
    ("HeisenbergGroup", "fusionkit.extraspecial"),
)
CASES_STAGES = (
    "run_suite", "verify_gamma", "verify_tau", "verify_rho", "build_normalizers",
    "verify_az", "verify_encoded_poset", "emit_decomposition",
)

SPEC = (
    [
        ("cyclo.mul", "fusionkit.cyclo", "CycNum.__mul__", TIMED),
        ("cyclo.add", "fusionkit.cyclo", "CycNum.__add__", TIMED),
        ("cyclo.is_zero.calls", "fusionkit.cyclo", "CycNum.is_zero", COUNTED),
        ("cyclo.inverse", "fusionkit.cyclo", "CycNum.inverse", TIMED),
        ("matgroup.closure", "fusionkit.matgroup", "closure", TIMED),
        ("matgroup.matmul", "fusionkit.matgroup", "CycMatrix.__mul__", TIMED),
        ("matgroup.group_op.calls", "fusionkit.matgroup", "MatrixGroup.mult", COUNTED),
        ("matgroup.group_op.calls", "fusionkit.matgroup", "MatrixGroup.inv", COUNTED),
        ("matgroup.group_op.calls", "fusionkit.matgroup", "MatrixGroup.element_order", COUNTED),
    ]
    + [("fingroup." + f, "fusionkit.fingroup", f, TIMED) for f in FINGROUP_TIMED]
    + [("fingroup.mult.calls." + c, mod, c + ".mult", COUNTED) for c, mod in MULT_CLASSES]
    + [
        ("extraspecial." + f, "fusionkit.extraspecial", f, TIMED)
        for f in ("commuting_pair_scan", "section_perms", "aut_certificate", "heisenberg_semidirect")
    ]
    + [
        ("fusion.sylow_members", "fusionkit.fusion", "sylow_members", TIMED),
        ("fusion.is_centric", "fusionkit.fusion", "FusionData.is_centric", TIMED),
        ("fusion.is_radical", "fusionkit.fusion", "FusionData.is_radical", TIMED),
        ("fusion.chain_key", "fusionkit.fusion", "FusionData.chain_key", TIMED),
        ("fusion.chain_aut", "fusionkit.fusion", "FusionData.chain_aut", TIMED),
        ("fusion.sd_poset", "fusionkit.fusion", "FusionData.sd_poset", TIMED),
        ("fusion.subgroups_of_S", "fusionkit.fusion", "FusionData.sylow_subgroups", SIZED),
        ("fusion.cr_subgroups", "fusionkit.fusion", "FusionData.cr_subgroups", SIZED),
        ("fusion.chains", "fusionkit.fusion", "FusionData.chains", SIZED),
    ]
    + [("cases." + f, "fusionkit.cases", f, TIMED) for f in CASES_STAGES]
    + [
        ("diagram.contract_iso_edges", "fusionkit.diagram", "contract_iso_edges", TIMED),
        ("diagram.emit", "fusionkit.diagram", "Diagram.to_json_dict", TIMED),
        ("diagram.emit", "fusionkit.diagram", "Diagram.to_dot", TIMED),
        ("cli.main", "fusionkit.cli", "main", TIMED),
    ]
)

# Timed per call but too frequent to keep every span record.
AGGREGATED = {"cyclo.mul", "cyclo.add", "cyclo.inverse", "matgroup.matmul"}

# Calls whose arguments are fingerprinted to find repeated work.
REPEAT_KEYED = {"extraspecial.commuting_pair_scan", "extraspecial.section_perms", "fusion.chain_aut"}

# Work counts read off a timed call's result.
RESULT_COUNTS = {
    "matgroup.closure": ("matgroup.closure.elements", lambda r: r.order),
    "fingroup.sesverify": ("fingroup.sesverify.tuples", lambda r: r.tuples_checked),
    "fingroup.all_subgroups": ("fingroup.all_subgroups.found", len),
}


class Tracer:
    """Install wrappers, collect spans and counters, restore on uninstall."""

    def __init__(self):
        self.op = None  # id of the op in progress, stamped on every span
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.agg: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.repeat: dict[str, list] = {}  # name -> [calls, repeats, seen keys]
        self._stack: list[list] = []  # open spans: [child_s, id]
        self._next_id = 0
        self._undo: list[tuple] = []
        self.missing: list[str] = []  # targets absent from this commit

    # -- wrappers ------------------------------------------------------------

    def _register(self, name, mode):
        """Create the counters of one SPEC entry, so that every metric is
        reported even when its target is missing or never called."""
        if mode == COUNTED:
            self.counts.setdefault(name, 0)
            return
        self.agg.setdefault(name, [0, 0.0, 0.0])
        if mode == SIZED:
            self.counts.setdefault(name, 0)
        elif name in RESULT_COUNTS:
            self.counts.setdefault(RESULT_COUNTS[name][0], 0)
        if name in REPEAT_KEYED:
            self.repeat.setdefault(name, [0, 0, set()])

    def _timed(self, name, fn, sized=False):
        stack, spans, clock, counts = self._stack, self.spans, time.perf_counter, self.counts
        agg = self.agg[name]
        keep = name not in AGGREGATED
        result_count = (name, len) if sized else RESULT_COUNTS.get(name)
        repeat = self.repeat.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if repeat is not None:
                key = (tracer.op, _fingerprint(args))
                repeat[0] += 1
                if key in repeat[2]:
                    repeat[1] += 1
                else:
                    repeat[2].add(key)
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[0]
                if parent is not None:
                    parent[0] += d
                if keep:
                    spans.append((frame[1], name, t0, t1, parent[1] if parent else None, tracer.op))
            if result_count is not None:
                counts[result_count[0]] += result_count[1](result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in SPEC.  A target that this commit of the
        package lacks is listed in ``missing`` and reports zero calls."""
        for name, module, path, mode in SPEC:
            self._register(name, mode)
            try:
                mod = importlib.import_module(module)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(mod, cls_name)
                    orig = owner.__dict__[attr]
                else:
                    orig = getattr(mod, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.append("%s:%s" % (module, path))
                continue
            if "." in path:
                wrapped = self._wrap(name, mode, _descriptor_func(orig))
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, _rewrap_descriptor(orig, wrapped, owner, attr))
            else:
                wrapped = self._wrap(name, mode, orig)
                for mname, m in list(sys.modules.items()):
                    if mname.split(".")[0] == "fusionkit" and getattr(m, path, None) is orig:
                        self._undo.append((m, path, orig))
                        setattr(m, path, wrapped)

    def _wrap(self, name, mode, fn):
        if mode == COUNTED:
            return self._counted(name, fn)
        return self._timed(name, fn, sized=(mode == SIZED))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls and seconds, counts, ratios, self time."""
        sized = {name for name, _m, _p, mode in SPEC if mode == SIZED}
        out: dict[str, float] = dict(self.counts)
        for name, (calls, total, _self) in self.agg.items():
            if name not in sized:
                out[name + ".calls"] = calls
                out[name + ".s"] = total
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                a[2] for name, a in self.agg.items() if name.split(".")[0] == layer
            )

        def ratio(num, den):
            return num / den if den else 0.0

        es = [self.repeat[n] for n in sorted(self.repeat) if n.startswith("extraspecial.")]
        out["extraspecial.repeat_ratio"] = ratio(sum(r[1] for r in es), sum(r[0] for r in es))
        ca = self.repeat["fusion.chain_aut"]
        out["fusion.chain_aut.repeat_ratio"] = ratio(ca[1], ca[0])
        out["fusion.cr_ratio"] = ratio(out["fusion.cr_subgroups"], out["fusion.subgroups_of_S"])
        return out


def _descriptor_func(obj):
    """The plain function behind a method, property or cached_property."""
    if isinstance(obj, property):
        return obj.fget
    if isinstance(obj, functools.cached_property):
        return obj.func
    return obj


def _rewrap_descriptor(orig, wrapped, cls, attr):
    if isinstance(orig, property):
        return property(wrapped, orig.fset, orig.fdel, orig.__doc__)
    if isinstance(orig, functools.cached_property):
        cp = functools.cached_property(wrapped)
        cp.__set_name__(cls, attr)
        return cp
    return wrapped


def _fingerprint(args) -> tuple:
    """A content key for call arguments.  A group is keyed by its class,
    order and defining parameters, a plain value by itself, and any other
    object by identity, which the op id in the key keeps from matching
    across ops."""
    out = []
    for a in args:
        if hasattr(a, "order") and hasattr(a, "mult"):
            out.append((type(a).__name__, a.order, getattr(a, "p", None), getattr(a, "kind", None)))
        elif isinstance(a, (int, str, tuple, frozenset)):
            out.append(a)
        else:
            out.append(id(a))
    return tuple(out)
