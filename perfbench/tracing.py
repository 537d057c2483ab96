"""Spans around each layer's public functions, installed where they are looked up.

A span's name starts with its layer (`sdp.`, `search.`, `bounds.`,
`instance.`, `rounding.`, `cli.`).  Spans are aggregated in memory per name
as calls, total time and self time, where self time is the duration minus
the time covered by spans opened inside it.  A layer's self time is the sum
over its spans; nothing is written until the run ends.

The wrappers replace module globals and class attributes, so they see every
call the solver makes through those names (for example `sdpsat.search.solve`
is the relaxation solve as the search layer looks it up).  `Tracer.install`
keeps the originals and `Tracer.uninstall` puts them back.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("sdp", "search", "bounds", "instance", "rounding")


def _targets():
    import sdpsat.bounds
    import sdpsat.rounding
    import sdpsat.sdp
    import sdpsat.search

    search, sdp = sdpsat.search, sdpsat.sdp
    searcher, ledger, zcache = (search.Searcher, sdpsat.bounds.ShiftLedger,
                                sdp.ZCache)
    return [
        (search, "solve", "sdp.solve"),
        (sdp, "mixing_sweep", "sdp.mixing_sweep"),
        (sdp, "objective", "sdp.objective"),
        (sdp, "dual_from_primal", "sdp.dual_from_primal"),
        (sdp, "_repair_multipliers", "sdp.repair_multipliers"),
        (zcache, "rebuild", "sdp.zcache_rebuild"),
        (zcache, "assign_update", "sdp.zcache_assign_update"),
        (zcache, "revert", "sdp.zcache_revert"),
        (searcher, "process_root", "search.process_root"),
        (searcher, "expand_root", "search.expand_root"),
        (searcher, "clipped_loss", "search.clipped_loss"),
        (searcher, "move_to", "search.move_to"),
        (searcher, "update_best", "search.update_best"),
        (searcher, "reorder", "search.reorder"),
        (searcher, "round_root", "search.round_root"),
        (ledger, "apply", "bounds.ledger_apply"),
        (ledger, "revert", "bounds.ledger_revert"),
        (search, "decide", "bounds.decide"),
        (search, "assign", "instance.assign"),
        (search, "unassign_to", "instance.unassign_to"),
        (search, "evaluate", "instance.evaluate"),
        (search, "best_rounding", "rounding.best_rounding"),
        (sdpsat.rounding, "round_once", "rounding.round_once"),
        (sdpsat.rounding, "node_unsat", "rounding.node_unsat"),
    ]


class Tracer:
    """Aggregated spans plus the counts taken at the same boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._open: list[list[float]] = []
        self._saved: list = []

    def span(self, name: str, fn, after=None):
        """Wrap fn; `after(args, result)` may add counts when it returns."""
        opened = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            inner = [0.0]
            opened.append(inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                opened.pop()
                if opened:
                    opened[-1][0] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - inner[0]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from sdpsat.bounds import Decision

        def count_children(args, children):
            self.counts["children_emitted"] += len(children)

        def count_decision(args, verdict):
            self.counts["children_decided"] += 1
            self.counts["dual_prunes"] += verdict == Decision.PRUNE

        counters = {"search.expand_root": count_children,
                    "bounds.decide": count_decision}
        for owner, attr, name in _targets():
            if name == "search.round_root":
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._round_root(original))
            else:
                self.wrap(owner, attr, name, counters.get(name))

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr (a module global or class attribute) by a span."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, after))

    def _round_root(self, original):
        """round_root plus the count of roots whose rounding improved."""
        inner = self.span("search.round_root", original)

        def round_root(searcher):
            before = searcher.best_unsat
            inner(searcher)
            self.counts["roots_rounded"] += 1
            self.counts["roots_improved"] += searcher.best_unsat < before

        return round_root

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn under a root span opened by the benchmark itself."""
        return self.span(name, fn)(*args, **kwargs)

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_time.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts)}

    @classmethod
    def load(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer.calls.update(data["calls"])
        tracer.total.update(data["total"])
        tracer.self_time.update(data["self"])
        tracer.counts.update(data["counts"])
        return tracer
