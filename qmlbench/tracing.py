"""Spans and counts around the program's public functions.

``Tracer.install()`` replaces each traced function by a wrapper in every
``quivermoduli`` module that holds a reference to it (for example
``chambers`` holds ``strict_interior_point`` from ``lp``, and ``curves``
holds ``cover_check`` from ``chambers``), and each traced method on its
class.  A wrapper records one span (name, parent span, start, end) and, for
a few functions, a count read off the result.  Spans stay in memory;
``phase_summary()`` folds the spans of one phase (a round, or set-up) into
per-name calls, total time and self time (span time minus the time of its
child spans) and clears them.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; methods as Class.method
TRACED = (
    ("projline", "Moebius.apply"),
    ("projline", "Moebius.compose"),
    ("projline", "Moebius.inverse"),
    ("projline", "moebius_from_triple"),
    ("projline", "moebius_two_point"),
    ("projline", "cross_ratio"),
    ("projline", "cross_ratio_invariant"),
    ("curves", "moduli_coordinates"),
    ("curves", "verify_functor_conditions"),
    ("curves", "reconstruct_tree"),
    ("curves", "tree_isomorphic"),
    ("configs", "check_limit_equations"),
    ("configs", "glue_fiber"),
    ("configs", "moebius_equivalent"),
    ("configs", "is_semistable"),
    ("configs", "brute_force_semistable"),
    ("configs", "theta_polytope"),
    ("lp", "strict_interior_point"),
    ("lp", "simplex_maximize"),
    ("chambers", "enumerate_chambers"),
    ("chambers", "chamber_adjacency"),
    ("chambers", "cover_check"),
    ("serialize", "chamber_complex_json"),
)
PACKAGE = "quivermoduli"

# integer counts that must repeat exactly from run to run
COUNT_KEYS = (
    "projline.ProjPoint.made",
    "curves.charts_made",
    "lp.strict_interior_point.infeasible",
    "lp.witness_den_bits_max",
    "lp.lp_in_enumerate_chambers",
    "chambers.enumerate_chambers.chambers",
    "chambers.chamber_adjacency.edges",
)


def _generate_functions():
    mod = sys.modules[f"{PACKAGE}.generate"]
    return [
        ("generate", name)
        for name, obj in sorted(vars(mod).items())
        if callable(obj) and getattr(obj, "__module__", None) == mod.__name__
        and isinstance(obj, type(_generate_functions))
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self, with_generate: bool = False) -> None:
        targets = list(TRACED) + (_generate_functions() if with_generate else [])
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for modname, attr in targets:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            span = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(span, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(span, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, orig, wrapper)
        point_cls = sys.modules[f"{PACKAGE}.projline"].ProjPoint
        orig_post = point_cls.__dict__["__post_init__"]
        counts = self.counts

        def post_init(obj):
            counts["projline.ProjPoint.made"] += 1
            orig_post(obj)

        self._set(point_cls, "__post_init__", orig_post, post_init)

    def _set(self, owner, key, orig, new) -> None:
        setattr(owner, key, new)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _wrap(self, span: str, fn):
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        post = self._post(span)

        def wrapper(*args, **kwargs):
            rec = [name_id, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _post(self, span: str):
        counts = self.counts
        if span == "curves.moduli_coordinates":
            def post(fam):
                counts["curves.charts_made"] += len(fam.charts)
        elif span == "lp.strict_interior_point":
            def post(x):
                if x is None:
                    counts["lp.strict_interior_point.infeasible"] += 1
                else:
                    bits = max((v.denominator.bit_length() for v in x), default=0)
                    if bits > counts["lp.witness_den_bits_max"]:
                        counts["lp.witness_den_bits_max"] = bits
        elif span == "chambers.enumerate_chambers":
            def post(chs):
                counts["chambers.enumerate_chambers.chambers"] += len(chs)
        elif span == "chambers.chamber_adjacency":
            def post(edges):
                counts["chambers.chamber_adjacency.edges"] += len(edges)
        else:
            post = None
        return post

    # -- summaries ---------------------------------------------------------

    def phase_summary(self) -> dict:
        """Fold and clear the spans and counts recorded since the last call.

        Returns {"spans": {name: [calls, total_s, self_s]}, "counts": {...}}
        with raw (uncalibrated) seconds.
        """
        if self.stack:
            raise RuntimeError("phase ended inside a traced call")
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        in_enum = [False] * len(spans)
        enum_id = names.index("chambers.enumerate_chambers")
        lp_id = names.index("lp.strict_interior_point")
        agg: dict[str, list] = {}
        lp_in_enum = 0
        for k, (nid, parent, t0, t1) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                in_enum[k] = in_enum[parent] or spans[parent][0] == enum_id
            if nid == lp_id and in_enum[k]:
                lp_in_enum += 1
        for k, (nid, _, t0, t1) in enumerate(spans):
            entry = agg.setdefault(names[nid], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child[k]
        counts = {key: int(self.counts.get(key, 0)) for key in COUNT_KEYS}
        counts["lp.lp_in_enumerate_chambers"] = lp_in_enum
        self.spans.clear()
        self.counts.clear()
        return {"spans": agg, "counts": counts}

    def raw_spans(self) -> dict:
        """The spans recorded so far, for the span file."""
        return {"names": list(self.names), "spans": [list(s) for s in self.spans]}


def add_summaries(total: dict, part: dict, scale: float) -> None:
    """Accumulate a phase summary into ``total``, rescaling times."""
    spans = total.setdefault("spans", {})
    for name, (calls, tot, own) in part["spans"].items():
        entry = spans.setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += tot * scale
        entry[2] += own * scale
    counts = total.setdefault("counts", {})
    for key, v in part["counts"].items():
        if key == "lp.witness_den_bits_max":
            counts[key] = max(counts.get(key, 0), v)
        else:
            counts[key] = counts.get(key, 0) + v


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values (counts and calibrated seconds) of one round."""
    spans, counts = summary.get("spans", {}), summary.get("counts", {})

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def layer_self(prefix):
        return sum(v[2] for k, v in spans.items() if k.startswith(prefix))

    sip_calls = calls("lp.strict_interior_point")
    infeasible = counts.get("lp.strict_interior_point.infeasible", 0)
    chambers_found = counts.get("chambers.enumerate_chambers.chambers", 0)
    return {
        "projline.ProjPoint.made": counts.get("projline.ProjPoint.made", 0),
        "projline.Moebius.apply.calls": calls("projline.Moebius.apply"),
        "projline.cross_ratio.calls": calls("projline.cross_ratio"),
        "projline.self_s": layer_self("projline."),
        "curves.moduli_coordinates.calls": calls("curves.moduli_coordinates"),
        "curves.moduli_coordinates.self_s": own("curves.moduli_coordinates"),
        "curves.charts_made": counts.get("curves.charts_made", 0),
        "curves.verify_functor_conditions.self_s": own("curves.verify_functor_conditions"),
        "curves.reconstruct_tree.self_s": own("curves.reconstruct_tree"),
        "curves.tree_isomorphic.self_s": own("curves.tree_isomorphic"),
        "configs.check_limit_equations.calls": calls("configs.check_limit_equations"),
        "configs.check_limit_equations.self_s": own("configs.check_limit_equations"),
        "configs.glue_fiber.calls": calls("configs.glue_fiber"),
        "configs.glue_fiber.self_s": own("configs.glue_fiber"),
        "configs.is_semistable.calls": calls("configs.is_semistable"),
        "configs.is_semistable.self_s": own("configs.is_semistable"),
        "configs.brute_force_semistable.calls": calls("configs.brute_force_semistable"),
        "configs.brute_force_semistable.self_s": own("configs.brute_force_semistable"),
        "configs.theta_polytope.self_s": own("configs.theta_polytope"),
        "lp.strict_interior_point.calls": sip_calls,
        "lp.strict_interior_point.infeasible": infeasible,
        "lp.strict_interior_point.self_s": own("lp.strict_interior_point"),
        "lp.simplex_maximize.calls": calls("lp.simplex_maximize"),
        "lp.simplex_maximize.self_s": own("lp.simplex_maximize"),
        "lp.feasible_share": (sip_calls - infeasible) / sip_calls if sip_calls else 0.0,
        "lp.witness_den_bits_max": counts.get("lp.witness_den_bits_max", 0),
        "chambers.enumerate_chambers.self_s": own("chambers.enumerate_chambers"),
        "chambers.enumerate_chambers.chambers": chambers_found,
        "chambers.chamber_adjacency.self_s": own("chambers.chamber_adjacency"),
        "chambers.chamber_adjacency.edges": counts.get("chambers.chamber_adjacency.edges", 0),
        "chambers.cover_check.calls": calls("chambers.cover_check"),
        "chambers.cover_check.self_s": own("chambers.cover_check"),
        "chambers.lp_per_chamber": (
            counts.get("lp.lp_in_enumerate_chambers", 0) / chambers_found if chambers_found else 0.0
        ),
        "serialize.chamber_complex_json.self_s": own("serialize.chamber_complex_json"),
    }


def count_signature(summary: dict) -> dict:
    """Every integer count of one round: span calls and result counts."""
    sig = {f"calls:{k}": v[0] for k, v in summary.get("spans", {}).items()}
    sig.update(summary.get("counts", {}))
    return dict(sorted(sig.items()))
