"""Spans and counts at the boundaries of the plansynth modules.

The tracer replaces a module's public function at the name where its
callers look it up (``engine.minimize``, ``compiler.minimize``, ...) with a
wrapper that records a span (name, start, end, parent) and optional counts
taken from the arguments and result.  Spans stay in memory and are written
out when the run ends.  A layer's self time is the time of its spans minus
the part their child spans cover.

Only calls made while ``active`` is set are recorded, so the benchmark's
own checks, which reuse the compiler, do not show up in the trace.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("logic", "compiler", "dfa", "games", "parity", "domain", "engine", "formats", "cli")

# (metric, span whose total duration it reports)
SPAN_METRICS = (
    ("logic.parse_s", "logic.parse"),
    ("logic.nnf_s", "logic.nnf"),
    ("logic.truth_table_s", "logic.truth_table"),
    ("compiler.determinize_s", "compiler.determinize"),
    ("dfa.combine_s", "dfa.combine"),
    ("dfa.minimize_s", "dfa.minimize"),
    ("games.agent_s", "games.agent"),
    ("games.env_s", "games.env"),
    ("parity.combine_s", "parity.combine"),
    ("parity.solve_s", "parity.solve"),
    ("domain.validate_s", "domain.validate"),
    ("domain.behavior_s", "domain.behavior"),
    ("engine.solve_s", "engine.solve"),
    ("engine.verify_s", "engine.verify"),
    ("formats.parse_s", "formats.parse"),
    ("formats.format_s", "formats.format"),
)
COUNT_METRICS = (
    "compiler.calls",
    "compiler.subset_states",
    "dfa.combine_states",
    "dfa.minimize_calls",
    "dfa.minimize_states_in",
    "dfa.minimize_states_out",
    "games.agent_sweeps",
    "games.env_sweeps",
    "parity.combine_states",
    "parity.arena_nodes",
    "domain.validate_calls",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(m, "s") for m, _ in SPAN_METRICS]
    names += [(m, "count") for m in COUNT_METRICS]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.active = False

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the body of a ``with`` statement."""
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self.stack.pop()

    def wrap(self, module, attr: str, name: str | None, count=None) -> None:
        """Replace ``module.attr``; ``count(counts, result, args)`` tallies.

        With ``name`` None the wrapper only counts.
        """
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, args)
            return result

        setattr(module, attr, wrapper)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass totals of every per-layer metric."""
        duration = defaultdict(float)
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name.split(".", 1)[0]] += end - start - covered[index]
        out = {m: duration[span] / passes for m, span in SPAN_METRICS}
        out.update({m: self.counts[m] / passes for m in COUNT_METRICS})
        out.update({f"{layer}.self_s": self_time[layer] / passes for layer in LAYERS})
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")


def _tally(metric, measure):
    """Count ``measure(result, args)`` into ``metric``."""

    def count(counts, result, args):
        counts[metric] += measure(result, args)

    return count


def _calls(metric):
    return _tally(metric, lambda result, args: 1)


def _states(metric):
    return _tally(metric, lambda result, args: result.n_states)


def _sweeps(metric):
    return _tally(metric, lambda result, args: result[1])


def _minimize_count(counts, result, args):
    counts["dfa.minimize_calls"] += 1
    counts["dfa.minimize_states_in"] += args[0].n_states
    counts["dfa.minimize_states_out"] += result.n_states


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the package where its callers look it up."""
    from plansynth import cli, compiler, domain, engine, formats, games, parity

    tracer.wrap(formats, "parse_formula", "logic.parse")
    tracer.wrap(compiler, "to_nnf", "logic.nnf")
    tracer.wrap(domain, "truth_table_mask", "logic.truth_table")
    tracer.wrap(engine, "compile_formula", "compiler.compile", _calls("compiler.calls"))
    tracer.wrap(compiler, "determinize", "compiler.determinize", _states("compiler.subset_states"))
    tracer.wrap(engine, "combine", "dfa.combine", _states("dfa.combine_states"))
    for module in (engine, compiler):
        tracer.wrap(module, "minimize", "dfa.minimize", _minimize_count)
    tracer.wrap(engine, "agent_realizable", "games.agent")
    tracer.wrap(games, "agent_ranks", None, _sweeps("games.agent_sweeps"))
    tracer.wrap(engine, "env_realizable", "games.env")
    tracer.wrap(games, "env_safe", None, _sweeps("games.env_sweeps"))  # from env_realizable
    tracer.wrap(engine, "env_safe", "games.env", _sweeps("games.env_sweeps"))  # from verify
    tracer.wrap(engine, "dpw_combine", "parity.combine", _states("parity.combine_states"))
    tracer.wrap(engine, "dpw_agent_realizable", "parity.solve")
    tracer.wrap(engine, "dpw_env_realizable", "parity.solve")
    tracer.wrap(parity, "solve_game", None,
                _tally("parity.arena_nodes", lambda result, args: len(args[0])))
    tracer.wrap(domain, "validate", "domain.validate", _calls("domain.validate_calls"))
    tracer.wrap(engine, "env_behavior_dfa", "domain.behavior")
    tracer.wrap(engine, "env_behavior_dpw", "domain.behavior")
    tracer.wrap(cli, "synthesize", "engine.solve")
    tracer.wrap(cli, "plan", "engine.solve")
    tracer.wrap(cli, "verify_strategy", "engine.verify")
    tracer.wrap(cli, "load_problem", "formats.parse")
    tracer.wrap(cli, "load_strategy", "formats.parse")
    tracer.wrap(cli, "format_strategy", "formats.format")
