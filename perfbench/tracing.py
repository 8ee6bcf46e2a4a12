"""Outside-in span tracing of lamanmv's public functions.

The tracer replaces selected module attributes with timing wrappers,
records one span per call in memory and restores the originals on exit.
Nothing inside the library changes: a span covers exactly the call the
library makes through the patched attribute. A name imported into
several modules (``newton_polytopes`` lives in ``polysys`` and
``mixedvol``) is patched in every lamanmv namespace that holds it.
"""

import contextlib
import functools
import gzip
import json
import statistics
import sys
import time

# Span record fields, kept as a list for low overhead.
NAME, START, END, PARENT, INSTANCE, NOTE = range(6)


def _len_result(args, kwargs, out):
    return {"n": len(out)}


def _from_points_note(args, kwargs, out):
    return {"candidates": len(args[0]), "kept": len(out.vertices)}


def _yes_note(args, kwargs, out):
    return {"yes": bool(out)}


def _blocks_note(args, kwargs, out):
    return {"n": len(out), "dim_max": max(len(b.coordinates) for b in out)}


def _highs_note(args, kwargs, out):
    return {"infeasible": out.status == 2}


def _lp_note(args, kwargs, out):
    return {"infeasible": out.status == "Infeasible"}


# (module, attribute, span name, note); module "polytopes.RationalPolytope"
# names a class whose attribute is patched.
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("reporting", "parse_graph_file", "reporting.parse_graph_file", None),
    ("reporting", "to_json", "reporting.to_json", None),
    ("graphs", "check_laman", "graphs.check_laman", None),
    ("graphs", "classify", "graphs.classify", None),
    ("graphs", "henneberg_decompose", "graphs.henneberg_decompose", None),
    ("polysys", "newton_polytopes", "polysys.newton_polytopes", None),
    ("mixedvol", "mixed_volume", "mixedvol.mixed_volume", None),
    ("mixedvol", "separation_split", "mixedvol.separation_split", _blocks_note),
    ("mixedvol", "enumerate_mixed_cells", "mixedvol.enumerate_mixed_cells", _len_result),
    ("mixedvol", "is_mixed_cell", "mixedvol.is_mixed_cell", None),
    ("mixedvol", "_scipy_linprog", "mixedvol.highs", _highs_note),
    ("mixedvol", "mv_inclusion_exclusion", "mixedvol.mv_inclusion_exclusion", None),
    ("mixedvol", "certify_general_bound", "mixedvol.certify_general_bound", None),
    ("embeddings", "enumerate_h1", "embeddings.enumerate_h1", None),
    ("polytopes.RationalPolytope", "from_points", "polytopes.from_points", _from_points_note),
    ("polytopes.RationalPolytope", "edges", "polytopes.edges", None),
    ("polytopes", "is_edge", "polytopes.is_edge", _yes_note),
    ("polytopes", "minkowski_sum", "polytopes.minkowski_sum", None),
    ("polytopes", "volume_exact", "polytopes.volume_exact", None),
    ("linprog", "feasible", "linprog.feasible", _lp_note),
    ("linprog", "solve", "linprog.solve", None),
)

# linprog.feasible is split by the module that calls it: the mixed-cell
# pruning LP (mixedvol) against vertex reduction (polytopes).
CALLER_SPLIT = {"linprog.feasible"}


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.instance = None
        self._saved = []

    # -- patching ---------------------------------------------------------

    def _module(self, dotted):
        obj = self.package
        for part in dotted.split("."):
            obj = getattr(obj, part)
        return obj

    def __enter__(self):
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package.__name__
                                  or name.startswith(self.package.__name__ + "."))
        ]
        try:
            for owner_name, attr, span_name, note in TARGETS:
                owner = self._module(owner_name)
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self.wrap(span_name, raw.__func__, note))
                    else:
                        wrapped = self.wrap(span_name, raw, note)
                    self._patch(owner, attr, raw, wrapped)
                    continue
                original = getattr(owner, attr)
                if original is None:
                    continue
                wrapped = self.wrap(span_name, original, note)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, original, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner, key, original, wrapped):
        self._saved.append((owner, key, original))
        setattr(owner, key, wrapped)

    def restore(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __exit__(self, *exc):
        self.restore()
        return False

    def wrap(self, name, fn, note=None):
        split = name in CALLER_SPLIT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if split:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                span_name = f"{name}.{caller.rsplit('.', 1)[-1]}"
            rec = self._open(span_name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[NOTE] = {"error": type(exc).__name__}
                raise
            finally:
                self._close(rec)
            if note is not None:
                rec[NOTE] = note(args, kwargs, out)
            return out

        return wrapper

    def _open(self, name):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.instance, None]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, name):
        """A harness-level span around the calls made inside the block."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "parent": rec[PARENT], "instance": rec[INSTANCE], "note": rec[NOTE],
                }) + "\n")


# -- analysis ---------------------------------------------------------------


def self_times(spans):
    """Per span: its duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] is not None:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0.0
        reach = lo
        for s, e in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append(hi - lo - covered)
    return out


def _outermost(spans):
    """True for spans with no ancestor of the same name (no double count)."""
    flags = []
    for rec in spans:
        p = rec[PARENT]
        while p is not None and spans[p][NAME] != rec[NAME]:
            p = spans[p][PARENT]
        flags.append(p is None)
    return flags


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer numbers of one traced pass, keyed by metric name."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    calls, secs, self_s, notes = {}, {}, {}, {}
    for rec, st, top in zip(spans, selfs, outer):
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        if top:
            secs[name] = secs.get(name, 0.0) + rec[END] - rec[START]
        self_s[name] = self_s.get(name, 0.0) + st
        if rec[NOTE]:
            acc = notes.setdefault(name, {})
            for key, value in rec[NOTE].items():
                if key == "dim_max":
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def note(name, key):
        return notes.get(name, {}).get(key, 0)

    feas_mv = "linprog.feasible.mixedvol"
    feas_pt = "linprog.feasible.polytopes"
    return {
        "mixedvol.enumerate_mixed_cells.calls": c("mixedvol.enumerate_mixed_cells"),
        "mixedvol.enumerate_mixed_cells.s": s("mixedvol.enumerate_mixed_cells"),
        "mixedvol.enumerate_mixed_cells.self_s": self_s.get("mixedvol.enumerate_mixed_cells", 0.0),
        "mixedvol.highs.calls": c("mixedvol.highs"),
        "mixedvol.highs.s": s("mixedvol.highs"),
        "mixedvol.highs.infeasible_ratio": _ratio(note("mixedvol.highs", "infeasible"), c("mixedvol.highs")),
        "linprog.feasible.calls.mixedvol": c(feas_mv),
        "linprog.feasible.s.mixedvol": s(feas_mv),
        "linprog.feasible.infeasible_ratio.mixedvol": _ratio(note(feas_mv, "infeasible"), c(feas_mv)),
        "mixedvol.is_mixed_cell.calls": c("mixedvol.is_mixed_cell"),
        "mixedvol.is_mixed_cell.s": s("mixedvol.is_mixed_cell"),
        "mixedvol.cells": note("mixedvol.enumerate_mixed_cells", "n"),
        "mixedvol.reseeds": sum(
            1 for rec in spans
            if rec[NAME] == "mixedvol.enumerate_mixed_cells" and rec[NOTE]
            and rec[NOTE].get("error") == "NonGenericLiftingError"
        ),
        "polytopes.from_points.calls": c("polytopes.from_points"),
        "polytopes.from_points.s": s("polytopes.from_points"),
        "polytopes.from_points.candidates": note("polytopes.from_points", "candidates"),
        "polytopes.from_points.kept_ratio": _ratio(
            note("polytopes.from_points", "kept"), note("polytopes.from_points", "candidates")
        ),
        "linprog.feasible.calls.polytopes": c(feas_pt),
        "linprog.feasible.s.polytopes": s(feas_pt),
        "linprog.solve.calls": c("linprog.solve"),
        "linprog.solve.s": s("linprog.solve"),
        "polytopes.volume_exact.calls": c("polytopes.volume_exact"),
        "polytopes.volume_exact.s": s("polytopes.volume_exact"),
        "polytopes.minkowski_sum.calls": c("polytopes.minkowski_sum"),
        "mixedvol.mv_inclusion_exclusion.s": s("mixedvol.mv_inclusion_exclusion"),
        "polytopes.edges.calls": c("polytopes.edges"),
        "polytopes.edges.s": s("polytopes.edges"),
        "polytopes.is_edge.calls": c("polytopes.is_edge"),
        "polytopes.is_edge.s": s("polytopes.is_edge"),
        "polytopes.is_edge.yes_ratio": _ratio(note("polytopes.is_edge", "yes"), c("polytopes.is_edge")),
        "graphs.check_laman.s": s("graphs.check_laman"),
        "graphs.classify.s": s("graphs.classify"),
        "graphs.henneberg_decompose.s": s("graphs.henneberg_decompose"),
        "polysys.newton_polytopes.self_s": self_s.get("polysys.newton_polytopes", 0.0),
        "mixedvol.separation_split.s": s("mixedvol.separation_split"),
        "mixedvol.blocks": note("mixedvol.separation_split", "n"),
        "mixedvol.block_dim_max": note("mixedvol.separation_split", "dim_max"),
        "mixedvol.certify_general_bound.s": s("mixedvol.certify_general_bound"),
        "mixedvol.mixed_volume.s": s("mixedvol.mixed_volume"),
        "embeddings.enumerate_h1.s": s("embeddings.enumerate_h1"),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "reporting.parse_graph_file.s": s("reporting.parse_graph_file"),
        "reporting.to_json.s": s("reporting.to_json"),
        "trace.spans": len(spans),
        "trace.coverage": _coverage(spans),
    }


def _coverage(spans):
    """Share of the harness's instance spans covered by their children."""
    total = covered = 0.0
    for rec in spans:
        dur = rec[END] - rec[START]
        if rec[NAME] == "instance":
            total += dur
        elif rec[PARENT] is not None and spans[rec[PARENT]][NAME] == "instance":
            covered += dur
    return covered / total if total else 0.0


def unit(name):
    """Unit of a per-layer metric, from its name."""
    parts = name.split(".")
    field = parts[-2] if parts[-1] in ("mixedvol", "polytopes") else parts[-1]
    if field in ("s", "self_s", "wall_s"):
        return "s"
    if field.endswith("ratio") or field == "coverage":
        return "ratio"
    return "count"


def median_metrics(per_pass):
    """Median of each metric over the traced passes of a run."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
