"""Span tracing installed from outside the library.

The tracer swaps each public function of a tmode module for a wrapper
that records one span per call: its name, start and end (ns), the index
of its parent span and the id of the benchmark op that caused it. The
names other modules import (tdist.log_gamma, ballprob.reg_inc_beta, ...)
and the SplitMix64 methods are swapped too, so nested calls become child
spans. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from collections import defaultdict

from tmode import ballprob, mcoracle, monotone, specfun, tdist

LAYERS = {
    "specfun": specfun,
    "tdist": tdist,
    "ballprob": ballprob,
    "monotone": monotone,
    "mcoracle": mcoracle,
}
SPLITMIX_METHODS = ("next_uint64", "next_uniform", "next_normal", "next_gamma")
# both estimators report as one span name
RENAME = {
    "mcoracle.estimate_ball_prob": "mcoracle.estimate",
    "mcoracle.estimate_ball_prob_prefixes": "mcoracle.estimate",
}


def _array_size(result) -> tuple[int, int]:
    arr = getattr(result, "draws", result)
    return (int(arr.size), int(arr.nbytes)) if hasattr(arr, "nbytes") else (0, 0)


class Tracer:
    """Collects spans while installed; install() and uninstall() bracket a run."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index, op id, items, nbytes)
        self.spans: list = []
        self._stack = [-1]
        self.op_id = -1
        self._undo: list = []

    def _wrap(self, name: str, fn, sized: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                items, nbytes = _array_size(result) if sized else (0, 0)
                spans[index] = (name, start, end, parent, self.op_id, items, nbytes)

        traced.__wrapped__ = fn
        return traced

    def op(self, fn):
        """fn as a root span named "op"; each call starts a new op id."""
        root = self._wrap("op", fn, False)

        def run(*args):
            self.op_id += 1
            return root(*args)

        return run

    def install(self) -> None:
        replacements = {}
        for layer, module in LAYERS.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    name = RENAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    replacements[fn] = self._wrap(name, fn, layer == "mcoracle")
        # a module's globals may hold functions imported from another layer
        for site in LAYERS.values():
            for attr, value in list(vars(site).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._undo.append((site, attr, value))
                    setattr(site, attr, replacements[value])
        for attr in SPLITMIX_METHODS:
            method = getattr(mcoracle.SplitMix64, attr)
            self._undo.append((mcoracle.SplitMix64, attr, method))
            setattr(mcoracle.SplitMix64, attr, self._wrap(f"mcoracle.{attr}", method, True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per-name call counts and self times, plus the Monte Carlo counters."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        items = defaultdict(int)
        nbytes = 0
        proposed = 0
        for i, (name, start, end, parent, _, n, b) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            items[name] += n
            nbytes += b
            if name == "mcoracle.next_normal" and parent >= 0 and spans[parent][0] == "mcoracle.next_gamma":
                proposed += n
        return {
            "calls": dict(calls),
            "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
            "words": items["mcoracle.next_uint64"],
            "gamma_accepted": items["mcoracle.next_gamma"],
            "gamma_proposed": proposed,
            "bytes_computed": nbytes,
        }

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
