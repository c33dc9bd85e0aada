"""Span tracing of qcldpc's public functions, from outside the library.

Library modules import each other's functions by name (``from .gldpc
import expand_binary``), so wrapping a function means replacing every
binding of that function object in every ``qcldpc`` module namespace, not
only the attribute of the module that defines it. ``Tracer.install`` does
that and ``Tracer.uninstall`` puts the originals back.

Each wrapped call records one span: (pass id, layer, start, end, parent
span). A wrapped call made inside another wrapped call gets that call as
its parent, so self time is a span's duration minus its direct children.
Spans stay in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np


def _bcjr_rows(args, kwargs, out):
    return {"rows": 1 if np.ndim(args[1]) == 1 else len(args[1])}


def _decode_counts(args, kwargs, out):
    _, converged, iterations = out
    return {"iterations": iterations, "converged": 1 if converged else 0}


def _rows_out(args, kwargs, out):
    return {"rows_out": out.nrows}


def _rows_in(args, kwargs, out):
    return {"rows": args[0].nrows}


def _evaluations(args, kwargs, out):
    iterations = args[1] if len(args) > 1 else kwargs.get("iterations", 100_000)
    # Every generator row is rated once even when the budget is smaller.
    return {"evaluations": max(iterations, args[0].nrows)}


def _messages(args, kwargs, out):
    return {"messages": (1 << args[0].nrows) - 1}


# Wrapped functions as "<module>.<function>" under qcldpc, each with the
# function that reads its counts at the call boundary and their names.
LAYERS = {
    "channel.monte_carlo": (None, ()),
    "channel.gldpc_decode": (_decode_counts, ("iterations", "converged")),
    "channel.bcjr_component": (_bcjr_rows, ("rows",)),
    "channel.encode": (None, ()),
    "channel.awgn_llrs": (None, ()),
    "gldpc.expand_binary": (None, ()),
    "gldpc.construct_generator": (None, ()),
    "construct.generator_general": (None, ()),
    "construct.generator_case1": (None, ()),
    "rank.rank_qc": (None, ()),
    "polymat.circulant_expand": (_rows_out, ("rows_out",)),
    "polymat.all_minors_gcd": (None, ()),
    "polymat.minor_det": (None, ()),
    "polymat.matmul_mod": (None, ()),
    "gf2poly.gcd": (None, ()),
    "gf2poly.inverse_mod": (None, ()),
    "binmat.rank": (_rows_in, ("rows",)),
    "analysis.girth": (None, ()),
    "analysis.low_weight_search": (_evaluations, ("evaluations",)),
    "analysis.min_distance_exact": (_messages, ("messages",)),
}


class Tracer:
    """Records spans and counts of the LAYERS functions while installed."""

    def __init__(self):
        self.names = list(LAYERS)
        self.spans = []  # (pass id, layer index, start, end, parent span index)
        self.span_counts = {}  # span index -> {quantity: amount}
        self.pass_id = -1
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, index, fn):
        name = self.names[index]
        counter = LAYERS[name][0]
        spans, stack, span_counts = self.spans, self._stack, self.span_counts

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[me] = (self.pass_id, index, start, end, parent)
            if counter is not None:
                span_counts[me] = counter(args, kwargs, out)
            return out

        return traced

    def install(self):
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "qcldpc" or key.startswith("qcldpc."))
        ]
        for index, name in enumerate(self.names):
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"qcldpc.{module_name}"], func_name)
            traced = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self, include=lambda pass_id: True):
        """Per layer: calls, busy_s (inclusive), self_s and its counts.

        Only spans whose pass id satisfies ``include`` are summed.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, **dict.fromkeys(quantities, 0)}
            for name, (_, quantities) in LAYERS.items()
        }
        for k, (pass_id, index, start, end, _) in enumerate(self.spans):
            if not include(pass_id):
                continue
            row = out[self.names[index]]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[k]
            for quantity, amount in self.span_counts.get(k, {}).items():
                row[quantity] += amount
        return out

    def write_spans(self, path):
        """One CSV line per span: pass,layer,start_s,end_s,parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,layer,start_s,end_s,parent\n")
            for pass_id, index, start, end, parent in self.spans:
                fh.write(f"{pass_id},{self.names[index]},{start:.9f},{end:.9f},{parent}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(summary, traced_s, passes):
    """Flat ``<module>.<function>.<quantity>`` values from a Tracer summary.

    Calls, times and counts are per traced pass; ratios are taken over the
    whole traced window. ``traced_s`` is the traced wall time of the
    passes, the base of ``self_frac``.
    """
    values = {}
    for name, row in summary.items():
        for quantity, amount in row.items():
            values[f"{name}.{quantity}"] = amount / passes

    def get(name, quantity):
        return summary[name][quantity]

    bcjr = "channel.bcjr_component"
    decode = "channel.gldpc_decode"
    search = "analysis.low_weight_search"
    exact = "analysis.min_distance_exact"
    ratios = {
        f"{bcjr}.us_per_row": 1e6 * _ratio(get(bcjr, "busy_s"), get(bcjr, "rows")),
        f"{bcjr}.self_frac": _ratio(get(bcjr, "self_s"), traced_s),
        f"{decode}.iterations_per_call": _ratio(get(decode, "iterations"), get(decode, "calls")),
        f"{decode}.converged_frac": _ratio(get(decode, "converged"), get(decode, "calls")),
        "gldpc.expand_binary.calls_per_frame": _ratio(
            get("gldpc.expand_binary", "calls"), get(decode, "calls")
        ),
        f"{search}.evals_per_s": _ratio(get(search, "evaluations"), get(search, "busy_s")),
        f"{exact}.messages_per_s": _ratio(get(exact, "messages"), get(exact, "busy_s")),
    }
    values.update(ratios)
    return values


def setup_values(summary):
    """``<module>.<function>.setup_<quantity>`` values of one traced set-up."""
    return {
        f"{name}.setup_{quantity}": amount
        for name, row in summary.items()
        for quantity, amount in row.items()
    }
