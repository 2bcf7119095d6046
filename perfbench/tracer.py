"""Per-layer timers and counters, patched into cudlab from outside.

Each public function of a layer is replaced, in every module that binds it,
by a wrapper that records a span: its calls, its inclusive time and its self
time (the inclusive time less the time its child spans cover).  Spans nest
through one stack, so a layer's self time is the time spent in its own code.
Generators are timed across each ``next`` call, so the work of a lazy
enumeration lands in the layer that does it, not in the consumer.

Nothing under ``src/cudlab`` is edited; the patch lives only in the traced
benchmark process.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from math import factorial

perf_counter = time.perf_counter


class Tracer:
    """Span aggregates by span name, and plain counters."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # one [child time] cell per open span
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _close(self, name: str, cell: list[float], t0: float) -> None:
        dt = perf_counter() - t0
        self.stack.pop()
        self.inclusive[name] += dt
        self.self_time[name] += dt - cell[0]
        if self.stack:
            self.stack[-1][0] += dt

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            cell = [0.0]
            self.stack.append(cell)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, cell, t0)

        return traced

    def wrap_generator(self, name: str, fn, yield_counter=None):
        """Time a generator function across every ``next``.  When
        ``yield_counter(*args)`` names a counter, each item yielded adds one
        to it."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            key = yield_counter(*args, **kwargs) if yield_counter else None
            gen = fn(*args, **kwargs)
            while True:
                cell = [0.0]
                self.stack.append(cell)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(name, cell, t0)
                if key:
                    self.counts[key] += 1
                yield item

        return traced



class _CountingItertools:
    """Stands in for ``itertools`` inside the oracle, counting every walk of
    S_n (one call of ``permutations`` on n values) and the n! words it
    visits."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(itertools, name)

    def permutations(self, iterable, r=None):
        values = tuple(iterable)
        self._tracer.counts["oracle.walks"] += 1
        self._tracer.counts["oracle.words_visited"] += factorial(len(values))
        return itertools.permutations(values, r)


# the public functions wrapped in each layer, by module attribute
BIJECTION_FUNCS = (
    "g_even", "g_even_inverse", "f_odd", "f_odd_inverse", "phi", "phi_inverse",
    "jbij", "jbij_inverse", "foata_word", "rotate_ud", "h_map", "ell_map",
    "ell_inverse",
)
MATCHING_FUNCS = (
    "to_matching_pair", "from_matching_pair", "matching_pair_text",
    "arc_diagram_svg", "render_arc_diagram",
)
ORACLE_FUNCS = ("verify_all", "count_family", "distribution", "distribution_csv")
ORACLE_GENERATORS = ("enumerate_family", "iter_ud_by_filter", "iter_cud_direct")
SERIES_OPS = ("__mul__", "reciprocal", "exp", "log")


def install(tracer: Tracer) -> None:
    """Patch the wrappers into the imported cudlab modules."""
    from cudlab import (
        bijections, catalog, cli, matchings, oracle, perms, series, statistics,
    )

    def patch(name: str, attr: str, modules) -> None:
        wrapped = tracer.wrap(name, getattr(modules[0], attr))
        for module in modules:
            setattr(module, attr, wrapped)

    patch("cli.main", "main", (cli,))

    oracle.itertools = _CountingItertools(tracer)
    for attr in ORACLE_FUNCS:
        patch(f"oracle.{attr}", attr, (oracle,))

    # permutations yielded by the S_n filter walks; word families come from
    # the backtracker and iter_cud_direct builds CUD directly, so neither
    # visits S_n
    yield_counters = {
        "enumerate_family": lambda family, *args, **kwargs: (
            None if family in oracle.WORD_FAMILIES else "oracle.filter_yields"
        ),
        "iter_ud_by_filter": lambda *args, **kwargs: "oracle.filter_yields",
        "iter_cud_direct": None,
    }
    for attr in ORACLE_GENERATORS:
        wrapped = tracer.wrap_generator(
            f"oracle.{attr}", getattr(oracle, attr), yield_counters[attr]
        )
        setattr(oracle, attr, wrapped)

    patch("perms.to_cycles", "to_cycles", (perms, statistics, cli))
    patch("perms.from_cycles", "from_cycles", (perms, oracle, cli))
    patch("perms.is_member", "is_member", (perms, oracle, matchings))
    for cls in (perms.Permutation, perms.CycleDecomposition):
        cls.__post_init__ = tracer.wrap("perms.validate", cls.__post_init__)

    patch("statistics.stats", "stats", (statistics, oracle, cli))
    patch("statistics.m_s", "m_s", (statistics, oracle))

    for attr in BIJECTION_FUNCS:
        patch(f"bijections.{attr}", attr, (bijections,))
    for attr in MATCHING_FUNCS:
        patch(f"matchings.{attr}", attr, (matchings,))

    mul = tracer.wrap("series.mpoly_mul", series.MPoly.__mul__)
    series.MPoly.__mul__ = series.MPoly.__rmul__ = mul
    for attr in SERIES_OPS:
        setattr(series.Series, attr, tracer.wrap(f"series.{attr}", getattr(series.Series, attr)))

    patch("catalog.catalog_series", "catalog_series", (catalog, oracle, cli))
    patch("catalog.expected_ud_cycles", "expected_ud_cycles", (catalog, oracle, cli))


def _sum(table, names) -> float:
    return sum(table[name] for name in names)


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric by name, as (value, unit).  A layer the
    workload never calls reads 0."""
    t = tracer
    visited = t.counts["oracle.words_visited"]
    series_ops = [f"series.{attr}" for attr in SERIES_OPS]
    bijection_spans = [f"bijections.{attr}" for attr in BIJECTION_FUNCS]
    oracle_spans = [f"oracle.{attr}" for attr in ORACLE_FUNCS + ORACLE_GENERATORS]
    return {
        "oracle.walks": (t.counts["oracle.walks"], "count"),
        "oracle.words_visited": (visited, "count"),
        "oracle.member_ratio": (
            t.counts["oracle.filter_yields"] / visited if visited else 0.0,
            "ratio",
        ),
        "oracle.self_s": (_sum(t.self_time, oracle_spans), "s"),
        "perms.to_cycles.calls": (t.calls["perms.to_cycles"], "count"),
        "perms.to_cycles.self_s": (t.self_time["perms.to_cycles"], "s"),
        "perms.is_member.calls": (t.calls["perms.is_member"], "count"),
        "perms.is_member.self_s": (t.self_time["perms.is_member"], "s"),
        "perms.validations": (t.calls["perms.validate"], "count"),
        "perms.validate_s": (t.self_time["perms.validate"], "s"),
        "statistics.stats.calls": (t.calls["statistics.stats"], "count"),
        "statistics.stats.self_s": (t.self_time["statistics.stats"], "s"),
        "statistics.m_s.calls": (t.calls["statistics.m_s"], "count"),
        "bijections.calls": (_sum(t.calls, bijection_spans), "count"),
        "bijections.self_s": (_sum(t.self_time, bijection_spans), "s"),
        "series.mpoly_mul.calls": (t.calls["series.mpoly_mul"], "count"),
        "series.mpoly_mul.self_s": (t.self_time["series.mpoly_mul"], "s"),
        "series.series_op.calls": (_sum(t.calls, series_ops), "count"),
        "series.self_s": (_sum(t.self_time, series_ops), "s"),
        "catalog.catalog_series.calls": (t.calls["catalog.catalog_series"], "count"),
        "catalog.catalog_series.s": (t.inclusive["catalog.catalog_series"], "s"),
        "catalog.expected_ud_cycles.s": (t.inclusive["catalog.expected_ud_cycles"], "s"),
        "matchings.self_s": (
            _sum(t.self_time, [f"matchings.{attr}" for attr in MATCHING_FUNCS]),
            "s",
        ),
        "cli.self_s": (t.self_time["cli.main"], "s"),
    }


def span_table(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds of every span name."""
    return {
        name: {
            "calls": tracer.calls[name],
            "inclusive_s": tracer.inclusive[name],
            "self_s": tracer.self_time[name],
        }
        for name in sorted(tracer.calls)
    }
