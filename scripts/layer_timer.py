"""Own time and call counts per layer, for the ``bench_*.py`` scripts.

A script wraps each layer's function with :meth:`LayerTimer.wrap`; a
layer's own time excludes the time of the wrapped layers it calls.
"""

import time
from collections import Counter


class LayerTimer:
    """Own time and calls per layer; a layer's time excludes the layers it calls."""

    def __init__(self):
        self.own, self.calls, self._child = Counter(), Counter(), [0.0]

    def wrap(self, layer, fn):
        def timed(*args, **kwargs):
            self._child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.own[layer] += took - self._child.pop()
                self.calls[layer] += 1
                self._child[-1] += took
        return timed
