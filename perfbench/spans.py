"""Span tracing for the charvol benchmark, installed from outside the package.

`Tracer.install()` wraps the public functions of each layer and rebinds every
name a charvol module imported (for example `charvol.cli.solve_filling` and
`charvol.eigenvar.resultant`), so calls through any consumer are recorded.
Nothing inside `src/charvol` changes.

Spans are kept in memory as tuples and written once, after the measured
commands.  A span records its layer, start, end, the index of the span that
caused it and the command it belongs to.  The two hottest boundaries,
compiled polynomial evaluation and `numpy.linalg.lstsq`, record only a call
count and summed time; their time still counts as child time of the
enclosing span, so self times stay exact.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter

# (layer name, module, attribute).  A dotted attribute names a method.
SPANNED = [
    ("repvar.gauged_system", "charvol.repvar", "GaugedSystem.__init__"),
    ("repvar.find_complete", "charvol.repvar", "find_complete"),
    ("repvar.make_character_point", "charvol.repvar", "make_character_point"),
    ("continuation.correct", "charvol.continuation", "DeformationProblem.correct"),
    ("continuation.predict", "charvol.continuation", "DeformationProblem.predict"),
    ("continuation.track", "charvol.continuation", "track"),
    ("continuation.solve_filling", "charvol.continuation", "solve_filling"),
    ("continuation.sample_dense_set", "charvol.continuation", "sample_dense_set"),
    ("continuation.newton_correct", "charvol.continuation", "newton_correct"),
    ("continuation.fiber_over", "charvol.continuation", "fiber_over"),
    ("continuation.track_closed_loop", "charvol.continuation", "track_closed_loop"),
    ("cli.loops", "charvol.cli", "run_exactness_loops"),
    ("poly.resultant", "charvol.poly", "resultant"),
    ("poly.poly_gcd", "charvol.poly", "poly_gcd"),
    ("poly.squarefree_part", "charvol.poly", "squarefree_part"),
    ("poly.pseudo_rem", "charvol.poly", "pseudo_rem"),
    ("poly.exact_div", "charvol.poly", "exact_div"),
    ("eigenvar.build_extended", "charvol.eigenvar", "build_extended"),
    ("eigenvar.eliminate", "charvol.eigenvar", "eliminate"),
    ("eigenvar.sample_point", "charvol.eigenvar", "sample_point"),
    ("volume.integrate_eta", "charvol.volume", "integrate_eta"),
    ("volume.loop_integral", "charvol.volume", "loop_integral"),
    ("volume.anchored_volume", "charvol.volume", "anchored_volume"),
]

# Boundaries hit ~10^5 times per command: count and summed time only.
HOT = [
    ("poly.compiled", "charvol.poly", "CompiledSystem.values"),
    ("poly.compiled", "charvol.poly", "CompiledSystem.jacobian"),
    ("poly.compiled", "charvol.poly", "CompiledSystem.values_and_jacobian"),
    ("numpy.lstsq", "numpy.linalg", "lstsq"),
]

# Layers whose failures are counted: a raised exception, or a result the
# function itself reports as not converged.
FAIL_COUNTED = {"continuation.correct", "continuation.track",
                "continuation.solve_filling", "continuation.newton_correct",
                "continuation.track_closed_loop"}


def _result_counts(layer, result, counts):
    """Counters read off a layer's return value.  Returns True when the
    result itself reports a failure."""
    if layer == "continuation.correct":
        return not result[2]
    if layer == "continuation.track":
        counts["continuation.track.samples"] += len(result)
        counts["continuation.track.rejected"] += result.steps_rejected
    elif layer == "poly.resultant":
        counts["poly.resultant.out_terms"] += result.total_terms()
    elif layer == "cli.loops":
        counts["cli.loops.kept"] += len(result[0])
    return False


class Tracer:
    """Records spans and counters for the charvol layers while installed."""

    def __init__(self, command: int = 0):
        self.spans = []     # (layer, start, end, parent index, command, self_s, outermost)
        self.hot = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self.command = command
        self._stack = []    # open frames: [span index, child seconds]
        self._depth = defaultdict(int)
        self._patched = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------
    def _span(self, layer, fn):
        stack, depth, counts, spans = self._stack, self._depth, self.counts, self.spans
        count_fail = layer in FAIL_COUNTED

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            depth[layer] += 1
            failed = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = _result_counts(layer, result, counts)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][1] += t1 - t0
                if failed and count_fail:
                    counts[layer + ".fail"] += 1
                spans[frame[0]] = (layer, t0, t1, parent, self.command,
                                   t1 - t0 - frame[1], depth[layer] == 0)
        wrapper.__wrapped__ = fn
        return wrapper

    def _hot(self, layer, fn):
        stack, slot = self._stack, self.hot[layer]

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                slot[0] += 1
                slot[1] += dt
                if stack:
                    stack[-1][1] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for table, make in ((SPANNED, self._span), (HOT, self._hot)):
            for layer, modname, attr in table:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    self._patch(owner, attr, make(layer, getattr(owner, attr)))
                    continue
                original = getattr(owner, attr)
                wrapped = make(layer, original)
                # rebind the name in every charvol module that imported it
                for name, mod in list(sys.modules.items()):
                    if (name == modname or name.startswith("charvol")) and \
                            getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer calls, busy seconds (`.s`, nested calls of the same
        layer counted once), self seconds and counters."""
        out = {}
        for layer, *_ in SPANNED:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for layer, t0, t1, _, _, self_s, outermost in self.spans:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
            if outermost:
                out[f"{layer}.s"] += t1 - t0
        for layer, (calls, secs) in self.hot.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.s"] = secs
        for name in ("continuation.track.samples", "continuation.track.rejected",
                     "poly.resultant.out_terms", "cli.loops.kept",
                     *(f"{layer}.fail" for layer in FAIL_COUNTED)):
            out[name] = self.counts[name]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("layer\tstart\tend\tparent\tcommand\tself_s\n")
            for layer, t0, t1, parent, cmd, self_s, _ in self.spans:
                fh.write(f"{layer}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{cmd}\t{self_s:.9f}\n")
            for layer, (calls, secs) in sorted(self.hot.items()):
                fh.write(f"# hot {json.dumps({'layer': layer, 'calls': calls, 's': secs})}\n")

