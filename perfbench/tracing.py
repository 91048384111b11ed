"""Spans at the package's cross-module boundaries, and the per-layer metrics
derived from them.

A boundary is an attribute that one ``selfieboost`` module looks up in its
own namespace when it calls into another layer, for example ``sgd_inner`` as
the boosting loop sees it in ``selfieboost.boost``.  :class:`Tracer` replaces
each such attribute with a wrapper that records a span (name, start, end,
parent, run id) and puts the original back on :meth:`Tracer.restore`.  No
file of the package is changed.  A boundary whose attribute does not exist in
the code under test is reported as absent, and so are the metrics built on it.

Spans stay in memory and are written out with the rest of the record when the
traced pipeline ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import statistics
import time

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _batch_info(args, kwargs, result):
    net, x = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "x")
    dims = net.architecture.dims
    rows = len(x)
    macs = sum(dims[i] * dims[i + 1] for i in range(len(dims) - 1))
    return {"rows": rows, "flops": 2 * rows * macs}


def _file_info(index, name):
    def info(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}
    return info


def _sgd_info(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 4, "sgd_params").steps}


def _edge_info(args, kwargs, result):
    return {"accepted": bool(result.accepted), "violations": int(result.violation_count)}


def _alias_info(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "probs"))}


def _accepted_info(args, kwargs, result):
    return {"accepted": int(result.accepted_count)}


def _rounds_info(args, kwargs, result):
    return {"rounds": len(result.rounds)}


def _weak_info(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 2, "steps"))}


def _predict_info(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 1, "features"))}


# (module, attribute, span name, extra-info function, sample ru_maxrss)
#
# One span name may come from several modules: ``nnet.forward_batch`` is
# whatever the boosting loop, the data generator or the baselines score
# through ``forward_batch``.  Spans that no metric names (``boost.err``,
# ``nnet.save_model``, ...) still matter: they are the library calls the CLI
# makes, and so take their time out of ``cli.self_s``.
BOUNDARIES = (
    # gen-data and CSV I/O, as the CLI and the generator call them
    ("selfieboost.data", "gen_realizable", "data.gen_realizable", None, False),
    ("selfieboost.data", "realize", "data.realize", None, False),
    ("selfieboost.data", "forward", "nnet.forward", None, False),
    ("selfieboost.data", "forward_batch", "nnet.forward_batch", _batch_info, True),
    ("selfieboost.data", "save_csv", "data.save_csv", _file_info(1, "path"), False),
    ("selfieboost.data", "load_csv", "data.load_csv", _file_info(0, "path"), True),
    # model files, as the CLI calls them
    ("selfieboost.cli", "save_model", "nnet.save_model", None, False),
    ("selfieboost.cli", "net_from_dict", "nnet.net_from_dict", None, False),
    # the boosting loop and its callees
    ("selfieboost.boost", "run_selfieboost", "boost.run_selfieboost", _accepted_info, False),
    ("selfieboost.boost", "err", "boost.err", None, False),
    ("selfieboost.boost", "margins", "boost.margins", None, False),
    ("selfieboost.boost", "sgd_inner", "boost.sgd_inner", _sgd_info, False),
    ("selfieboost.boost", "edge", "boost.edge", _edge_info, False),
    ("selfieboost.boost", "cache_from_scores", "boost.cache_from_scores", None, False),
    ("selfieboost.boost", "forward_batch", "nnet.forward_batch", _batch_info, True),
    ("selfieboost.boost", "_forward_cached", "nnet.forward_cached", None, False),
    ("selfieboost.boost", "_backprop_core", "nnet.backprop_core", None, False),
    ("selfieboost.boost", "sgd_step", "nnet.sgd_step", None, False),
    ("selfieboost.boost", "build_alias", "sampling.build_alias", _alias_info, False),
    ("selfieboost.boost", "sample_indices", "sampling.sample_indices", None, False),
    ("selfieboost.boost", "weights_from_margins", "sampling.weights_from_margins", None, False),
    # the AdaBoost baseline and its callees
    ("selfieboost.baselines", "run_adaboost", "baselines.run_adaboost", _rounds_info, False),
    ("selfieboost.baselines", "_hinge_sgd", "baselines.weak_train", _weak_info, False),
    ("selfieboost.baselines", "ensemble_err", "baselines.ensemble_err", None, False),
    ("selfieboost.baselines", "ensemble_predict_batch", "baselines.ensemble_predict", _predict_info, False),
    ("selfieboost.baselines", "save_ensemble", "baselines.save_ensemble", None, False),
    ("selfieboost.baselines", "load_ensemble", "baselines.load_ensemble", None, False),
    ("selfieboost.baselines", "forward_batch", "nnet.forward_batch", _batch_info, True),
    ("selfieboost.baselines", "backprop_batch", "nnet.backprop_batch", None, False),
    ("selfieboost.baselines", "sgd_step", "nnet.sgd_step", None, False),
    ("selfieboost.baselines", "build_alias", "sampling.build_alias", _alias_info, False),
    ("selfieboost.baselines", "sample_indices", "sampling.sample_indices", None, False),
)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans; one instance per traced pipeline."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, info)
        self.installed: set[str] = set()  # span names with at least one live boundary
        self.absent: list[str] = []  # "module.attribute" missing from the code
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple] = []  # (module, attribute, original, wrapper)

    def wrap(self, fn, name, extra=None, rss=False):
        """``fn`` wrapped so that every call records one span called ``name``."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            rss_before = _maxrss_kib() if rss else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, {"error": type(exc).__name__}))
                raise
            end = clock()
            stack.pop()
            info = None
            if extra is not None:
                try:
                    info = extra(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    info = {"info_error": True}
            if rss:
                info = dict(info or {}, maxrss_growth_kib=_maxrss_kib() - rss_before)
            spans.append((sid, parent, name, start, end, info))
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own (used for the CLI stages)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def install(self, boundaries=BOUNDARIES) -> None:
        for module_name, attr, name, extra, rss in boundaries:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, name, extra, rss)
            setattr(module, attr, wrapper)
            self._saved.append((module, attr, original, wrapper))
            self.installed.add(name)

    def restore(self) -> bool:
        """Put every original attribute back; True when none was replaced
        by anyone else in the meantime."""
        clean = True
        for module, attr, original, wrapper in reversed(self._saved):
            clean &= getattr(module, attr) is wrapper
            setattr(module, attr, original)
        self._saved.clear()
        return clean

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "installed": sorted(self.installed),
            "absent": self.absent,
            "spans": [list(span) for span in self.spans],
        }


# ---------------------------------------------------------------------------
# span algebra


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _name, start, end, _info in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _info in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def nesting_errors(spans) -> list[str]:
    """Spans that do not lie inside their parent's interval."""
    by_id = {span[0]: span for span in spans}
    bad = []
    for sid, parent, name, start, end, _info in spans:
        if end < start:
            bad.append(f"{name}#{sid} ends before it starts")
        if parent and parent in by_id:
            p = by_id[parent]
            if start < p[3] or end > p[4]:
                bad.append(f"{name}#{sid} leaves parent {p[2]}#{parent}")
    return bad


# ---------------------------------------------------------------------------
# per-layer metrics

MIB = 1024 * 1024

# name -> (unit, better, span names it is computed from).  The traced run
# reports exactly these; a metric whose spans have no live boundary in the
# code under test is reported as absent.
_FB = ("nnet.forward_batch",)
_LOOP = ("boost.run_selfieboost",)
_SGD = ("boost.sgd_inner",)
_EDGE = ("boost.sgd_inner", "boost.edge")
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", ()),
    "data.realize.s": ("s", "lower", ("data.realize",)),
    "data.realize.attempts": ("count", "lower", ()),
    "data.realize.accept_ratio": ("ratio", "higher", ()),
    "data.save_csv.s": ("s", "lower", ("data.save_csv",)),
    "data.save_csv.mb": ("MiB", "lower", ("data.save_csv",)),
    "data.load_csv.s": ("s", "lower", ("data.load_csv",)),
    "data.load_csv.mb_per_s": ("MiB/s", "higher", ("data.load_csv",)),
    "data.load_csv.maxrss_growth_mb": ("MiB", "lower", ("data.load_csv",)),
    "nnet.forward.calls": ("count", "lower", ("nnet.forward",)),
    "nnet.forward.s": ("s", "lower", ("nnet.forward",)),
    "nnet.forward_batch.calls": ("count", "lower", _FB),
    "nnet.forward_batch.rows": ("count", "lower", _FB),
    "nnet.forward_batch.s": ("s", "lower", _FB),
    "nnet.forward_batch.rows_per_s": ("rows/s", "higher", _FB),
    "nnet.forward_batch.gflops_per_s": ("GFLOP/s", "higher", _FB),
    "nnet.forward_batch.maxrss_growth_mb": ("MiB", "lower", _FB),
    "nnet.forward_cached.calls": ("count", "lower", ("nnet.forward_cached",)),
    "nnet.forward_cached.s": ("s", "lower", ("nnet.forward_cached",)),
    "nnet.backprop_core.s": ("s", "lower", ("nnet.backprop_core",)),
    "nnet.sgd_step.s": ("s", "lower", ("nnet.sgd_step",)),
    "nnet.backprop_batch.s": ("s", "lower", ("nnet.backprop_batch",)),
    "sampling.weights_from_margins.s": ("s", "lower", ("sampling.weights_from_margins",)),
    "sampling.build_alias.calls": ("count", "lower", ("sampling.build_alias",)),
    "sampling.build_alias.s": ("s", "lower", ("sampling.build_alias",)),
    "sampling.build_alias.us_per_row": ("us", "lower", ("sampling.build_alias",)),
    "sampling.sample_indices.s": ("s", "lower", ("sampling.sample_indices",)),
    "boost.sgd_inner.s": ("s", "lower", _SGD),
    "boost.sgd_inner.self_s": ("s", "lower", _SGD),
    "boost.sgd_step_us": ("us", "lower", _SGD),
    "boost.sweep.s": ("s", "lower", _FB + _LOOP),
    "boost.edge.s": ("s", "lower", ("boost.edge",)),
    "boost.cache_from_scores.s": ("s", "lower", ("boost.cache_from_scores",)),
    "boost.loop.self_s": ("s", "lower", _LOOP),
    "boost.iterations": ("count", "higher", _LOOP),
    "boost.attempts": ("count", "lower", _SGD),
    "boost.accept_ratio": ("ratio", "higher", _LOOP + _SGD),
    "boost.sgd_steps": ("count", "lower", _SGD),
    "boost.reject_shallow": ("count", "lower", _EDGE),
    "boost.reject_clip": ("count", "lower", _EDGE),
    "boost.reject_numeric": ("count", "lower", _EDGE),
    "baselines.rounds": ("count", "higher", ("baselines.run_adaboost",)),
    "baselines.weak_train.s": ("s", "lower", ("baselines.weak_train",)),
    "baselines.weak_step_us": ("us", "lower", ("baselines.weak_train",)),
    "baselines.ensemble_predict.s": ("s", "lower", ("baselines.ensemble_predict",)),
    "baselines.ensemble_predict.rows_per_s": ("rows/s", "higher", ("baselines.ensemble_predict",)),
    "trace.overhead_s": ("s", "lower", ()),
}


def _ratio(num, den, scale=1.0):
    """``num / den * scale``; 0.0 when the layer did no work in this workload."""
    return num / den * scale if den else 0.0


class _Spans:
    def __init__(self, spans):
        self.self_ns = self_times(spans)
        self.name_of = {span[0]: span[2] for span in spans}
        self.by_name: dict[str, list[tuple]] = {}
        for span in spans:
            self.by_name.setdefault(span[2], []).append(span)

    def of(self, name, parent=None):
        spans = self.by_name.get(name, [])
        if parent is None:
            return spans
        return [s for s in spans if self.name_of.get(s[1]) == parent]

    def seconds(self, name, parent=None):
        return sum(s[4] - s[3] for s in self.of(name, parent)) / 1e9

    def self_seconds(self, name):
        return sum(self.self_ns[s[0]] for s in self.of(name)) / 1e9

    def count(self, name):
        return len(self.of(name))

    def info_sum(self, name, key):
        return sum((s[5] or {}).get(key, 0) for s in self.of(name))

    def info_count(self, name, predicate):
        return sum(1 for s in self.of(name) if s[5] and predicate(s[5]))


def layer_metrics(trace: dict, stage_names, realize_rows: int, realize_rejected: int) -> dict:
    """Per-layer metrics of one traced pipeline.

    ``trace`` is :meth:`Tracer.dump` output; ``stage_names`` are the span
    names of the CLI stages.  The realize counts come from what ``gen-data``
    prints, so they survive any refactor of the generator.  A metric whose
    boundary is absent from the code under test is ``None``.
    """
    sp = _Spans([tuple(s) for s in trace["spans"]])
    s = sp.seconds
    sgd_steps = sp.info_sum("boost.sgd_inner", "steps")
    attempts = sp.count("boost.sgd_inner")
    iterations = sp.info_sum("boost.run_selfieboost", "accepted")
    fb_s = s("nnet.forward_batch")
    fb_rows = sp.info_sum("nnet.forward_batch", "rows")
    realize_attempts = realize_rows + realize_rejected
    weak_steps = sp.info_sum("baselines.weak_train", "steps")
    values = {
        "cli.self_s": sum(sp.self_seconds(name) for name in stage_names),
        "data.realize.s": s("data.realize"),
        "data.realize.attempts": realize_attempts,
        "data.realize.accept_ratio": _ratio(realize_rows, realize_attempts),
        "data.save_csv.s": s("data.save_csv"),
        "data.save_csv.mb": sp.info_sum("data.save_csv", "bytes") / MIB,
        "data.load_csv.s": s("data.load_csv"),
        "data.load_csv.mb_per_s": _ratio(sp.info_sum("data.load_csv", "bytes") / MIB, s("data.load_csv")),
        "data.load_csv.maxrss_growth_mb": sp.info_sum("data.load_csv", "maxrss_growth_kib") / 1024,
        "nnet.forward.calls": sp.count("nnet.forward"),
        "nnet.forward.s": s("nnet.forward"),
        "nnet.forward_batch.calls": sp.count("nnet.forward_batch"),
        "nnet.forward_batch.rows": fb_rows,
        "nnet.forward_batch.s": fb_s,
        "nnet.forward_batch.rows_per_s": _ratio(fb_rows, fb_s),
        "nnet.forward_batch.gflops_per_s": _ratio(sp.info_sum("nnet.forward_batch", "flops"), fb_s, 1e-9),
        "nnet.forward_batch.maxrss_growth_mb": sp.info_sum("nnet.forward_batch", "maxrss_growth_kib") / 1024,
        "nnet.forward_cached.calls": sp.count("nnet.forward_cached"),
        "nnet.forward_cached.s": s("nnet.forward_cached"),
        "nnet.backprop_core.s": s("nnet.backprop_core"),
        "nnet.sgd_step.s": s("nnet.sgd_step"),
        "nnet.backprop_batch.s": s("nnet.backprop_batch"),
        "sampling.weights_from_margins.s": s("sampling.weights_from_margins"),
        "sampling.build_alias.calls": sp.count("sampling.build_alias"),
        "sampling.build_alias.s": s("sampling.build_alias"),
        "sampling.build_alias.us_per_row": _ratio(
            s("sampling.build_alias"), sp.info_sum("sampling.build_alias", "rows"), 1e6
        ),
        "sampling.sample_indices.s": s("sampling.sample_indices"),
        "boost.sgd_inner.s": s("boost.sgd_inner"),
        "boost.sgd_inner.self_s": sp.self_seconds("boost.sgd_inner"),
        "boost.sgd_step_us": _ratio(s("boost.sgd_inner"), sgd_steps, 1e6),
        "boost.sweep.s": s("nnet.forward_batch", parent="boost.run_selfieboost"),
        "boost.edge.s": s("boost.edge"),
        "boost.cache_from_scores.s": s("boost.cache_from_scores"),
        "boost.loop.self_s": sp.self_seconds("boost.run_selfieboost"),
        "boost.iterations": iterations,
        "boost.attempts": attempts,
        "boost.accept_ratio": _ratio(iterations, attempts),
        "boost.sgd_steps": sgd_steps,
        # every attempt ends accepted, rejected by the edge test (clip when
        # some margin moved by more than 1, the loop's lr-shrink rule, else
        # shallow), or in a NumericError before the edge test could run
        "boost.reject_shallow": sp.info_count(
            "boost.edge", lambda i: not i.get("accepted") and i.get("violations") == 0
        ),
        "boost.reject_clip": sp.info_count(
            "boost.edge", lambda i: not i.get("accepted") and i.get("violations", 0) > 0
        ),
        "boost.reject_numeric": attempts - sp.count("boost.edge"),
        "baselines.rounds": sp.info_sum("baselines.run_adaboost", "rounds"),
        "baselines.weak_train.s": s("baselines.weak_train"),
        "baselines.weak_step_us": _ratio(s("baselines.weak_train"), weak_steps, 1e6),
        "baselines.ensemble_predict.s": s("baselines.ensemble_predict"),
        "baselines.ensemble_predict.rows_per_s": _ratio(
            sp.info_sum("baselines.ensemble_predict", "rows"), s("baselines.ensemble_predict")
        ),
    }
    installed = set(trace["installed"])
    for name, (_unit, _better, spans_needed) in LAYER_METRICS.items():
        if not installed.issuperset(spans_needed):
            values[name] = None
    return values


def median_metrics(per_pipeline: list[dict]) -> dict:
    """Median of each metric over traced pipelines; ``None`` stays ``None``."""
    out = {}
    for name in per_pipeline[0]:
        vals = [p[name] for p in per_pipeline]
        out[name] = None if any(v is None for v in vals) else statistics.median(vals)
    return out
