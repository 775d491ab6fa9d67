"""In-memory spans and the self-time arithmetic over them.

A span is ``[layer_id, parent_index, start, end]``: the layer it times, the
index of the span that was open when it started (``-1`` for none), and two
``perf_counter`` readings.  Spans stay in memory while the workload runs and
are written out once, when it ends (:meth:`Tracer.to_dict`).

A layer's self time is the sum, over its spans, of each span's duration
minus the part of it that the span's direct children cover.  Self times of
all layers therefore partition the traced interval: nothing is counted twice,
however deeply layers nest.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Dict, List, Sequence


class Tracer:
    """Records spans and named counts for one process.

    Counts are keyed by metric name.  ``open`` also counts ``<layer>.calls``,
    but only for outermost spans of a layer, so a layer that calls itself
    (an engine's ``run_until`` calling its ``run``) counts one call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: List[str] = []
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._layer_ids: Dict[str, int] = {}
        self._stack: List[int] = []
        self._depth: Counter = Counter()

    def open(self, layer: str) -> bool:
        """Start a span of ``layer``; True when no open span has the same layer."""
        layer_id = self._layer_ids.get(layer)
        if layer_id is None:
            layer_id = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self._depth[layer] += 1
        outermost = self._depth[layer] == 1
        if outermost:
            self.counts[layer + ".calls"] += 1
        self.spans.append([layer_id, parent, self.clock(), None])
        return outermost

    def close(self, layer: str) -> None:
        """End the innermost open span, which must be of ``layer``."""
        end = self.clock()
        span = self.spans[self._stack.pop()]
        span[3] = end
        self._depth[layer] -= 1

    def to_dict(self) -> Dict:
        """The spans and counts as plain JSON types."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        return {"layers": list(self.layers), "spans": self.spans, "counts": dict(self.counts)}


def self_times(layers: Sequence[str], spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time in seconds per layer name (see the module docstring)."""
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for (layer_id, _, start, end), children in zip(spans, covered):
        totals[layers[layer_id]] += (end - start) - children
    return dict(totals)
