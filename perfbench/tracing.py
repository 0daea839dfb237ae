"""Spans and counters recorded around the library's public functions.

The tracer wraps each function where its caller looks it up (for example
`tokfst.promote.compose`, which is the name `promote_bpe` calls), so the
library itself is unchanged. Spans stay in memory until the run ends; self
time is the span's duration minus the time its direct children cover.
Wrappers cost one attribute check when the tracer is inactive, and are
removed again by `uninstall`.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import tokfst.cli
import tokfst.fst
import tokfst.guided
import tokfst.pattern
import tokfst.promote
from tokfst.fst import Dfa, Fst, canonical_form, minimize
from tokfst.symbols import SymbolTable
from tokfst.tokenizers import BpeTokenizer

from .oracles import shape


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "pass_index")

    def __init__(self, name, start, parent, request, pass_index):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.pass_index = pass_index


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.stack: list[int] = []
        self.active = False
        self.request: int | None = None
        self.pass_index = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.pass_index][name] += amount

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.request, self.pass_index))
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> float:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        return span.end - span.start

    def call(self, name, fn, args, kwargs, after=None):
        if not self.active:
            return fn(*args, **kwargs)
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(index)
        if after is not None:
            after(result, *args)
        return result

    def current(self, name: str) -> int | None:
        """Index of the innermost open span called `name`."""
        for index in reversed(self.stack):
            if self.spans[index].name == name:
                return index
        return None

    # -- aggregation --------------------------------------------------------

    def times(self, pass_index: int) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed self time and summed duration, in one pass."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.pass_index == pass_index and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        self_time: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span.pass_index == pass_index:
                duration = span.end - span.start
                self_time[span.name] += duration - child_time[index]
                total[span.name] += duration
        return self_time, total

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, after=None, wrap=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        if wrap is None:
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, args, kwargs, after)
        else:
            wrapper = wrap(original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            return
        P, G, C, F, PAT = tokfst.promote, tokfst.guided, tokfst.cli, tokfst.fst, tokfst.pattern
        count = self.count

        def built(_, machine):
            count("fst.machines_built")
            count("fst.arcs_validated", len(machine.transitions))

        # Dfa.__post_init__ re-checks every arc after Fst.__post_init__ did
        self._patch(Fst, "__post_init__", "fst.validate", after=built)
        self._patch(Dfa, "__post_init__", "fst.validate",
                    after=lambda _, m: count("fst.arcs_validated", len(m.transitions)))
        self._patch(SymbolTable, "token_ids", None,
                    wrap=self._counter("symbols.token_ids_calls"))

        for mod in (P, PAT):
            self._patch(mod, "determinize", "fst.determinize",
                        after=lambda d, _: count("fst.determinize_states_out", d.num_states))
            self._patch(mod, "epsilon_remove", "fst.epsilon_remove")
            self._patch(mod, "minimize", "fst.minimize",
                        after=lambda _, d: count("fst.minimize_states_in", d.num_states))
        for mod in (P, G, F):
            self._patch(mod, "trim", "fst.trim")
        self._patch(P, "project_output", "fst.project")
        self._patch(P, "compose", "fst.compose")

        def gadget(g, *_):
            count("lexicon.gadget_calls")
            count("lexicon.gadget_arcs", len(g.fst.transitions))

        self._patch(P, "build_merge_gadget", "lexicon.gadget", after=gadget)
        self._patch(P, "build_lexicon_transducer", "lexicon.lexicon_build")
        self._patch(P, "build_failure_trie", "lexicon.maxmatch_build")
        self._patch(P, "build_maxmatch_transducer", "lexicon.maxmatch_build")

        for mod in (P, C):
            for mode in ("agnostic", "maxmatch", "bpe"):
                self._patch(mod, f"promote_{mode}", None, wrap=self._promoter(mode))
        for mod in (PAT, C):
            self._patch(mod, "compile_pattern", "pattern.compile")

        def begun(*_):
            count("guided.begin_calls")
            if self.current("guided.decode") is not None:
                count("guided.decode_begins")

        def allowed(mask, *_):
            count("guided.allowed_calls")
            count("guided.mask_size_total", len(mask))

        for mod in (G, C):
            self._patch(mod, "constraint_begin", "guided.begin", after=begun)
            self._patch(mod, "allowed_tokens", "guided.allowed", after=allowed)
            self._patch(mod, "constraint_advance", "guided.advance",
                        after=lambda *_: count("guided.advance_calls"))
        self._patch(G, "constrained_decode", "guided.decode",
                    after=lambda *_: count("guided.decodes"))

        for owner, attr in ((BpeTokenizer, "tokenize"), (C, "maxmatch_tokenize")):
            self._patch(owner, attr, "tokenizers.tokenize",
                        after=lambda *_: count("tokenizers.tokenize_calls"))

        def dotted(text, machine, path=None):
            if path is not None:
                count("formats.bytes_written", len(text.encode("utf-8")))

        self._patch(C, "save_automaton", "formats.save",
                    after=lambda _, m, path: count("formats.bytes_written", os.path.getsize(path)))
        for loader in ("load_automaton", "load_vocab", "load_merges"):
            self._patch(C, loader, "formats.load")
        self._patch(C, "export_dot", "formats.dot", after=dotted)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers that need more than a span --------------------------------

    def _counter(self, name: str):
        tracer = self

        def wrap(original):
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.count(name)
                return original(*args, **kwargs)
            return counted
        return wrap

    def _promoter(self, mode: str):
        """Promotion spans; bpe calls get a stage hook that counts the stages
        whose canonical form changed. The hook pauses tracing and runs in its
        own span, so its cost (and that of the caller's hook it wraps) can be
        taken out of the figures."""
        tracer = self

        def wrap(original):
            def promote_traced(a, second, **kwargs):
                if not tracer.active:
                    return original(a, second, **kwargs)
                if mode == "bpe":
                    kwargs["stage_hook"] = tracer._live_stage_hook(a, kwargs.get("stage_hook"))
                result = tracer.call(f"promote.{mode}", original, (a, second), kwargs)
                tracer.count("promote.stages", len(result.stats))
                tracer.count("promote.stages_determinized",
                             sum(not s.deterministic_before_minimize for s in result.stats))
                tracer.count("promote.stage_seconds", sum(s.seconds for s in result.stats))
                return result
            return promote_traced
        return wrap

    def _live_stage_hook(self, pattern, inner=None):
        """Counts live stages; calls the caller's own hook, if any, in a span
        of its own so that its time stays apart from the tracing cost."""
        tracer = self
        previous = []

        def live(label, d):
            if not previous:
                previous.append(shape(canonical_form(minimize(pattern))))
            now = shape(canonical_form(d))
            if now != previous[-1]:
                tracer.count("promote.live_stages")
            previous[-1] = now

        def hook(label, d):
            for name, fn in (("bench.caller_hook", inner), ("bench.stage_hook", live)):
                if fn is None:
                    continue
                index = tracer.open(name)
                tracer.active = False
                try:
                    fn(label, d)
                finally:
                    tracer.active = True
                    tracer.close(index)
        return hook
