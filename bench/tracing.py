"""Spans and counters recorded from outside matchmerge.

``Tracer.install`` wraps every public function of every matchmerge module
wherever callers look it up: the defining module, the package namespace and
each module that imported the name (``cli`` imports most of them).  Each
wrapped call becomes a span (name, start, end, parent) kept in memory; the
few functions called millions of times per run are only counted and timed.
The record adapter's match, merge and key callables are wrapped the same way
on the objects ``record_groupoid`` and ``path_groupoid`` return.

Self time of a call is its duration minus the time of the wrapped calls made
inside it, so a module's busy time is the sum of its functions' self times.
``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "adapters", "cli", "documents", "domaingraph", "groupoid",
    "order", "properties", "quotient", "resolution",
)

# Called per word, per pair or per record: counted and timed, no span each.
HOT = {
    "groupoid.interval_products",
    "groupoid.product_of_subsets",
    "groupoid.word_product",
    "quotient.mutually_absorbing",
    "adapters.match",
    "adapters.merge",
    "adapters.key",
}

PAIR_PROPS = {"S", "I", "C", "SC"}
TRIPLE_SCANS = {"Rl": 1, "Rr": 1, "R": 2, "A": 1, "CA": 1, "SA": 1}


class _CountingTable(dict):
    """A composition table that counts lookups through ``get``."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return dict.get(self, key, default)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [child seconds, span index]
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        hot = name in HOT
        stack, stats, spans, clock = self._stack, self.stats, self.spans, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if hot:
                frame = [0.0, parent]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent])
            state = before(args, kwargs) if before else None
            result = None  # stays None when the call raises
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                entry = stats[name]
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[0]
                if not hot:
                    spans[frame[1]][1:3] = (start, end)
                if after:
                    after(args, kwargs, result, state, took)

        return wrapper

    def install(self):
        hooks = {
            "adapters.record_groupoid": (None, self._after_blackbox),
            "adapters.path_groupoid": (None, self._after_blackbox),
            "groupoid.generated_subgroupoid": (self._before_closure, self._after_closure),
            "properties.check_property": (None, self._after_check),
            "resolution.r_swoosh": (self._before_rswoosh, self._after_rswoosh),
        }
        modules = [m for m in (sys.modules.get(f"matchmerge.{n}") for n in MODULES) if m]
        originals = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    before, after = hooks.get(f"{short}.{attr}", (None, None))
                    originals[fn] = self._wrap(f"{short}.{attr}", fn, before, after)
        namespaces = modules + [sys.modules["matchmerge"]]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, originals[value])

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- hooks ---------------------------------------------------------------

    def _after_blackbox(self, args, kwargs, bb, state, took):
        if bb is None:
            return

        def match(x, y):
            hit = inner_match(x, y)
            if hit:
                self.counts["adapters.matches"] += 1
            return hit

        inner_match = bb.match
        object.__setattr__(bb, "match", self._wrap("adapters.match", match))
        object.__setattr__(bb, "merge", self._wrap("adapters.merge", bb.merge))
        object.__setattr__(bb, "key", self._wrap("adapters.key", bb.key))

    def _before_closure(self, args, kwargs):
        from matchmerge.groupoid import FiniteGroupoid

        g = args[0] if args else kwargs.get("groupoid")
        state = {"matches": self.stats["adapters.match"][0], "table": None}
        if isinstance(g, FiniteGroupoid):
            counting = _CountingTable(g.table)
            state["table"] = (g, g.table, counting)
            object.__setattr__(g, "table", counting)
        seeds = args[1] if len(args) > 1 else kwargs.get("seeds", ())
        state["seeds"] = len(seeds) if hasattr(seeds, "__len__") else 0
        return state

    def _after_closure(self, args, kwargs, result, state, took):
        compose = self.stats["adapters.match"][0] - state["matches"]
        if state["table"] is not None:
            g, table, counting = state["table"]
            object.__setattr__(g, "table", table)
            compose += counting.gets
        if result is None:
            return
        self.counts["groupoid.compose_calls"] += compose
        self.counts["groupoid.closure_rounds"] += result.iterations
        self.counts["groupoid.closure_elements"] += len(result.carrier)
        self.counts["groupoid.closure_fresh"] += max(0, len(result.carrier) - state["seeds"])

    def _after_check(self, args, kwargs, verdict, state, took):
        if verdict is None:
            return
        g = args[0] if args else kwargs["g"]
        prop = str(args[1] if len(args) > 1 else kwargs["prop"])
        n = len(g)
        if prop in PAIR_PROPS:
            self.counts["properties.pair_s"] += took
        elif prop in TRIPLE_SCANS:
            self.counts["properties.triple_s"] += took
            self.counts["properties.triples"] += TRIPLE_SCANS[prop] * n**3
        else:
            bound = args[2] if len(args) > 2 else kwargs.get("nr_word_bound", 3)
            self.counts["properties.nr_s"] += took
            self.counts["properties.nr_words"] += sum(n**k for k in range(1, bound + 1))

    def _before_rswoosh(self, args, kwargs):
        return (self.stats["adapters.match"][0], self.stats["adapters.merge"][0])

    def _after_rswoosh(self, args, kwargs, result, state, took):
        if result is None:
            return
        instance = args[1] if len(args) > 1 else kwargs["instance"]
        self.counts["resolution.rswoosh_records"] += (
            len(instance) if hasattr(instance, "__len__") else 0
        )
        self.counts["resolution.rswoosh_matches"] += self.stats["adapters.match"][0] - state[0]
        self.counts["resolution.merges"] += self.stats["adapters.merge"][0] - state[1]

    # -- results -------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass of the job list."""
        st, c = self.stats, self.counts

        def calls(name):
            return st[name][0] / passes

        def total(name):
            return st[name][1] / passes

        def summed(prefix, field):  # field 0: calls, 1: total s, 2: self s
            return sum(v[field] for k, v in st.items() if k.startswith(prefix)) / passes

        def count(name):
            return c[name] / passes

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "cli.self_s": (st["cli.run"][2] / passes, "s"),
            "documents.load_s": (summed("documents.load_", 1), "s"),
            "documents.load_calls": (summed("documents.load_", 0), "count"),
            "adapters.match_calls": (calls("adapters.match"), "count"),
            "adapters.merge_calls": (calls("adapters.merge"), "count"),
            "adapters.key_calls": (calls("adapters.key"), "count"),
            "adapters.busy_s": (summed("adapters.", 2), "s"),
            "adapters.match_hit_ratio": (
                ratio(c["adapters.matches"], st["adapters.match"][0]), "ratio"),
            "groupoid.closure_s": (total("groupoid.generated_subgroupoid"), "s"),
            "groupoid.closure_rounds": (count("groupoid.closure_rounds"), "count"),
            "groupoid.closure_elements": (count("groupoid.closure_elements"), "count"),
            "groupoid.closure_fresh_ratio": (
                ratio(c["groupoid.closure_fresh"], c["groupoid.compose_calls"]), "ratio"),
            "groupoid.interval_products_calls": (calls("groupoid.interval_products"), "count"),
            "groupoid.interval_products_s": (total("groupoid.interval_products"), "s"),
            "properties.report_calls": (calls("properties.property_report"), "count"),
            "properties.check_calls": (calls("properties.check_property"), "count"),
            "properties.pair_s": (count("properties.pair_s"), "s"),
            "properties.triple_s": (count("properties.triple_s"), "s"),
            "properties.nr_s": (count("properties.nr_s"), "s"),
            "properties.triple_ns_per_triple": (
                1e9 * ratio(c["properties.triple_s"], c["properties.triples"]), "ns"),
            "properties.nr_us_per_word": (
                1e6 * ratio(c["properties.nr_s"], c["properties.nr_words"]), "us"),
            "order.busy_s": (summed("order.", 2), "s"),
            "order.natural_order_calls": (calls("order.natural_order"), "count"),
            "domaingraph.busy_s": (summed("domaingraph.", 2), "s"),
            "quotient.busy_s": (summed("quotient.", 2), "s"),
            "quotient.quotient_calls": (calls("quotient.quotient"), "count"),
            "quotient.class_check_s": (total("quotient.class_semigroup_check"), "s"),
            "resolution.rswoosh_s": (total("resolution.r_swoosh"), "s"),
            "resolution.rswoosh_match_per_record": (
                ratio(c["resolution.rswoosh_matches"], c["resolution.rswoosh_records"]),
                "count"),
            "resolution.merges": (count("resolution.merges"), "count"),
            "resolution.er_s": (
                sum(total(f"resolution.er_{m}") for m in ("full", "maximal", "bruteforce")),
                "s"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(start - self.origin, 9),
                            "end": round(end - self.origin, 9),
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
