"""Call-span recording around gammachain's public functions, from outside.

A ``Tracer`` replaces module or class attributes with timing wrappers and
restores them on exit. Each wrapped call adds to three totals for its span
name: calls, wall seconds, and wall seconds covered by wrapped calls made
inside it (its children), so self time is total minus child time. Totals
are kept in memory; nothing is written until the caller asks.

An attribute that no longer exists (a later refactor removed or renamed it)
is skipped, so its span reports zero calls instead of failing.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self._open_child_s: list[float] = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._open_child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attribute, span name)`` target while open."""
        saved = []
        try:
            for owner, attr, name in targets:
                raw = vars(owner).get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(owner, attr, new)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name) -> float:
        calls, total, child = self.stats.get(name, [0, 0.0, 0.0])
        return total - child

    def per_call_ms(self, name) -> float:
        calls = self.calls(name)
        return 1e3 * self.total_s(name) / calls if calls else 0.0

    def merge(self, stats: dict) -> None:
        for name, (calls, total, child) in stats.items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0])
            mine[0] += calls
            mine[1] += total
            mine[2] += child


def simulator_targets():
    """Spans of the simulation loop, installed in ``gammachain.network``.

    ``simulate_gamma_series`` finds its helpers through that module's
    namespace, so wrapping them there puts every loop call inside a span.
    """
    from gammachain import network

    return [
        (network, "simulate_gamma_series", "network.simulate_gamma_series"),
        (network, "init_network", "network.init_network"),
        (network, "evolve_network", "network.evolve_network"),
        (network, "perturb_weights", "_kernels.perturb_weights"),
        (network, "gamma_of", "network.gamma_of"),
        (network, "shortest_latencies", "network.shortest_latencies"),
        (network, "dijkstra_dense", "_kernels.dijkstra_dense"),
    ]


def cli_targets():
    """Simulator spans plus the I/O and binning calls the CLI commands make."""
    from gammachain import cli, network

    return simulator_targets() + [
        (cli, "simulate_gamma_series", "network.simulate_gamma_series"),
        (cli, "count_transitions", "inference.count_transitions"),
        (network.GammaSeries, "from_csv", "network.GammaSeries.from_csv"),
        (network.GammaSeries, "to_csv", "network.GammaSeries.to_csv"),
    ]
