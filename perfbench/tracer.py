"""Passive per-layer tracer for the benchmark's traced run.

The tracer wraps the public functions and methods at each cross-module
boundary of `groupauth` from the outside: it rebinds module globals and
class attributes, and `uninstall` puts every original back. Nothing in
`src/` knows about it. A wrapper only records; it passes arguments and
results through untouched, which the benchmark checks by comparing the
traced run's output bytes with an untraced replay of the same seeds.

A span is `(name, start_ns, end_ns, parent_index, scenario)`. Spans are
kept in memory and written out once at the end. Counters are kept per
scenario, so that a fixed prefix of scenarios gives exact counts.
"""

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# Counters whose value is a maximum over the scenario, not a sum.
_MAXIMA = ("channel.pending.max",)


class _CountingSympy:
    """Stands in for the `sympy` module inside `groupauth.algebra` and
    counts the primality tests that module asks for."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def isprime(self, n):
        self._tracer.counts[self._tracer.scenario]["algebra.primality_tests"] += 1
        return self._real.isprime(n)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans and counters at the layer boundaries of `groupauth`."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.scenario = 0
        # every metric name an installed wrapper can record
        self.known = {"adversary.observation.useful_ratio"}
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        self.known.update(name + kind for kind in (".s", ".self_s", ".calls"))

        def make(original):
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(index)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (name, start, end, parent, self.scenario)
            return traced
        return make

    def _count(self, name):
        self.known.add(name)

        def make(original):
            def counted(*args, **kwargs):
                self.counts[self.scenario][name] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def _scan(self, name, walked):
        """Count the records a Transcript view walks, then run it."""
        self.known.add(name)

        def make(original):
            def scanned(transcript, *args, **kwargs):
                result = original(transcript, *args, **kwargs)
                self.counts[self.scenario][name] += walked(transcript)
                return result
            return scanned
        return make

    def _observe(self, original):
        """Adversary stage-one recovery: attempts, recoveries and the
        length of the envelope list each attempt walks."""
        self.known.add("adversary.observation.envelopes_scanned")

        def observed(envelopes, *args, **kwargs):
            counts = self.counts[self.scenario]
            counts["adversary.observation.attempts"] += 1
            counts["adversary.observation.envelopes_scanned"] += len(envelopes)
            result = original(envelopes, *args, **kwargs)
            counts["adversary.observation.recoveries"] += 1
            return result
        return observed

    def _push(self, original):
        span = self._span("channel.push_fanout")(original)
        self.known.add("channel.pending.max")

        def pushed(schedule, *args, **kwargs):
            span(schedule, *args, **kwargs)
            counts = self.counts[self.scenario]
            counts["channel.pending.max"] = max(
                counts["channel.pending.max"], len(schedule)
            )
        return pushed

    # -- installation --------------------------------------------------------

    def _patch_function(self, module, attr, make):
        """Rebind a module-level function in every groupauth module that
        imported it, so calls through any of those names are traced."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "groupauth"
                                   or name.startswith("groupauth.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def install(self):
        from groupauth import (adversary, algebra, channel, cli, harn2013,
                               parties, xia2019)
        span, count, scan = self._span, self._count, self._scan
        function, method = self._patch_function, self._patch_method

        # algebra: setup, interpolation, element construction
        function(algebra, "random_safe_prime", span("algebra.random_safe_prime"))
        function(algebra, "random_prime", span("algebra.random_prime"))
        function(algebra, "lagrange_coefficient",
                 span("algebra.lagrange_coefficient"))
        function(algebra, "group_exp", count("algebra.group_exp.calls"))
        method(algebra.GroupElement, "__post_init__",
               count("algebra.group_element.count"))
        method(algebra.FieldElement, "__post_init__",
               count("algebra.field_element.count"))
        self.known.add("algebra.primality_tests")
        self._undo.append((algebra, "sympy", algebra.sympy))
        algebra.sympy = _CountingSympy(algebra.sympy, self)

        # schemes
        function(harn2013, "harn_gm_init", span("harn2013.gm_init"))
        function(harn2013, "harn_compute_token", span("harn2013.compute_token"))
        function(harn2013, "harn_verify", span("harn2013.verify"))
        function(xia2019, "xia_gm_init", span("xia2019.gm_init"))
        function(xia2019, "xia_commit", span("xia2019.commit"))
        function(xia2019, "xia_compute_token", span("xia2019.compute_token"))
        function(xia2019, "xia_verify", span("xia2019.verify"))

        # channel: delivery loop, queue, transcript views and file I/O
        method(channel.ChannelSimulator, "run_until_quiescent",
               span("channel.run_until_quiescent"))
        method(channel.DeliverySchedule, "pop", count("channel.deliveries"))
        method(channel.DeliverySchedule, "push_fanout", self._push)
        records = "channel.transcript.records_scanned"
        method(channel.Transcript, "envelopes",
               scan(records, lambda t: len(t.records)))
        method(channel.Transcript, "decisions",
               scan(records, lambda t: len(t.records)))
        # forged() walks the envelope list that its own envelopes() call
        # returns; that inner call is counted by the envelopes() wrapper.
        method(channel.Transcript, "forged",
               scan(records, lambda t: sum(
                   1 for r in t.records if r["type"] == "envelope")))
        method(channel.Transcript, "write_jsonl", span("channel.transcript_io"))
        reader = channel.Transcript.__dict__["read_jsonl"].__func__
        self._undo.append((channel.Transcript, "read_jsonl",
                           channel.Transcript.__dict__["read_jsonl"]))
        channel.Transcript.read_jsonl = classmethod(
            span("channel.transcript_io")(reader)
        )

        # parties
        method(parties.HarnParty, "on_envelope", span("parties.on_envelope"))
        method(parties.XiaParty, "on_envelope", span("parties.on_envelope"))
        method(channel.PartyAPI, "decide", count("parties.decisions"))

        # adversary scripts (the tamper script lives in cli but is the
        # same kind of tap handler) and stage-one observation
        for cls in (adversary.HarnImpersonationScript,
                    adversary.XiaChannelAttack, cli.TamperScript):
            method(cls, "on_tap", span("adversary.on_tap"))
        function(adversary, "attack_harn_learn_secret", self._observe)
        function(adversary, "attack_xia_stage1", self._observe)
        method(channel.AdversaryAPI, "inject", count("adversary.injections"))
        function(adversary, "evaluate_attack", span("adversary.evaluate_attack"))

        # cli: scenario building, reports, audit replay
        function(cli, "derive_material", span("cli.derive_material"))
        function(cli, "run_scenario", span("cli.run_scenario"))
        function(cli, "audit_transcript", span("cli.audit_transcript"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, names, scenarios):
        """Per-layer values over scenarios 0 .. scenarios-1.

        A name ending in `.s` is the summed duration of its spans, `.self_s`
        the summed duration minus the time covered by direct child spans,
        and `.calls` the number of spans; any other name is a counter.
        A name that no installed wrapper records raises KeyError.
        """
        unknown = sorted(set(names) - self.known)
        if unknown:
            raise KeyError("no tracer wrapper records %s" % ", ".join(unknown))
        total = Counter()
        own = Counter()
        calls = Counter()
        for name, start, end, parent, scenario in self.spans:
            if scenario >= scenarios:
                continue
            duration = end - start
            total[name] += duration
            own[name] += duration
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= duration
        counters = Counter()
        for scenario in range(scenarios):
            for name, value in self.counts[scenario].items():
                if name in _MAXIMA:
                    counters[name] = max(counters[name], value)
                else:
                    counters[name] += value
        attempts = counters["adversary.observation.attempts"]
        counters["adversary.observation.useful_ratio"] = (
            counters["adversary.observation.recoveries"] / attempts
            if attempts else 0.0
        )
        out = {}
        for name in names:
            base, _, kind = name.rpartition(".")
            if name in counters or kind not in ("s", "self_s", "calls"):
                out[name] = counters[name]
            elif kind == "calls":
                out[name] = calls[base]
            else:
                out[name] = (total if kind == "s" else own)[base] / 1e9
        return out

    def write(self, path, header, scenarios):
        """Header line, then one JSON line per span of the first
        `scenarios` scenarios, then their counters; gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                if span[4] < scenarios:
                    handle.write(json.dumps(span) + "\n")
            for scenario in range(scenarios):
                handle.write(json.dumps(
                    {"scenario": scenario,
                     "counts": dict(self.counts[scenario])},
                    sort_keys=True) + "\n")
