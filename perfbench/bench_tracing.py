"""Outside-in tracing of oraclebench: spans at the boundaries between its modules.

The program is not changed. For the length of a traced run, ``Tracer.installed``

* hands ``run_game`` proxies of the learner and the adversary, and the
  learner a proxy of the engine's round channel, so every protocol call
  (``next_point``, ``respond``, ``submit``, ``oracle``, ``annotate_update``)
  opens a span;
* replaces each public function that one oraclebench module imported from
  another (``oraclebench.game.is_consistent``, ``oraclebench.verification.ldim``,
  ...) with a wrapper that opens a span, and restores it afterwards.

Calls inside one module are not traced, so a span's self time is the time
spent in the code of the layer its name starts with. Layers are the
package's modules: adversary, hypotheses, game, learner, littlestone and
verification; ``bench`` is the benchmark's own glue around each step.

Spans (name, start, end, parent, request) are kept in memory and written
out when the run ends. A request is one workload step.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Callable, Iterator

# The span each traced public function opens, by the name it is imported as.
SPANS = {
    "run_game": "game.run_game",
    "save_transcript": "game.save",
    "load_transcript": "game.load",
    "validate_transcript": "game.validate",
    "is_consistent": "hypotheses.is_consistent",
    "table_oracle": "hypotheses.table_oracle",
    "random_table_oracle": "hypotheses.table_oracle",
    "minimal_extension_oracle": "hypotheses.minimal_extension",
    "ternary_function": "adversary.ternary_function",
    "informative_predict": "adversary.informative",
    "informative_update": "adversary.informative",
    "check_advanced": "learner.check_advanced",
    "ldim": "littlestone.ldim",
    "ldim_at_least": "littlestone.at_least",
    "find_shattered_tree": "littlestone.certificate",
    "is_shattered": "littlestone.certificate",
    "minimax_adversary_value": "littlestone.minimax",
    "verify_upper": "verification.upper",
    "verify_lower": "verification.lower",
    "verify_advanced": "verification.advanced",
    "verify_props": "verification.props",
}

# Extra outer spans for one importer: the game module calls ldim only for
# its dimension check (validation="full", and validate_transcript's
# size-guarded bound), so those calls are also the engine's full check.
OUTER_SPANS = {("game", "ldim"): "game.full_check"}

PATCHED_MODULES = ("adversary", "game", "learner", "littlestone", "verification")

# Layers whose self time is reported as <layer>.self_s. The learner's is
# learner.self_s (its run alone) plus learner.check_advanced_s.
SELF_TIME_LAYERS = ("adversary", "hypotheses", "game", "littlestone", "verification")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("adversary.respond_s", "s"),
    ("adversary.respond_calls", "count"),
    ("adversary.next_point_s", "s"),
    ("adversary.revealed_cells", "count"),
    ("adversary.informative_s", "s"),
    ("adversary.self_s", "s"),
    ("hypotheses.table_oracle_s", "s"),
    ("hypotheses.table_oracle_calls", "count"),
    ("hypotheses.is_consistent_s", "s"),
    ("hypotheses.is_consistent_calls", "count"),
    ("hypotheses.self_s", "s"),
    ("game.submit_self_s", "s"),
    ("game.oracle_s", "s"),
    ("game.oracle_calls", "count"),
    ("game.rounds", "count"),
    ("game.round_p50_us", "us"),
    ("game.round_p99_us", "us"),
    ("game.save_s", "s"),
    ("game.load_s", "s"),
    ("game.validate_s", "s"),
    ("game.transcript_bytes", "bytes"),
    ("game.full_check_ldim_s", "s"),
    ("game.full_check_calls", "count"),
    ("game.self_s", "s"),
    ("learner.self_s", "s"),
    ("learner.appended", "count"),
    ("learner.deleted", "count"),
    ("learner.active_max", "count"),
    ("learner.check_advanced_s", "s"),
    ("learner.subsets_checked", "count"),
    ("littlestone.ldim_s", "s"),
    ("littlestone.ldim_calls", "count"),
    ("littlestone.at_least_s", "s"),
    ("littlestone.certificate_s", "s"),
    ("littlestone.minimax_s", "s"),
    ("littlestone.soa_s", "s"),
    ("littlestone.self_s", "s"),
    ("verification.self_s", "s"),
    ("trace.wall_untraced_s", "s"),
    ("trace.wall_traced_s", "s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries. Single-threaded: spans nest on one stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: Counter[str] = Counter()
        self.request = 0
        self._stack: list[int] = []
        self.active = 0  # learner list length in the current game

    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- wrappers with side counters ----------------------------------

    def _traced(self, name: str, fn: Callable) -> Callable:
        if name == "run_game":
            def run_game(learner, adversary, config):
                self.active = 0
                return self.call(
                    "game.run_game", fn, LearnerProxy(self, learner), AdversaryProxy(self, adversary), config
                )

            return run_game
        if name == "check_advanced":
            def check_advanced(*args, **kwargs):
                result = self.call("learner.check_advanced", fn, *args, **kwargs)
                self.counts["learner.subsets_checked"] += result.subsets_checked
                return result

            return check_advanced
        return self.wrap(SPANS[name], fn)

    def library(self, plain: SimpleNamespace) -> SimpleNamespace:
        """Traced versions of the workloads' library functions."""
        return SimpleNamespace(**{name: self._traced(name, fn) for name, fn in vars(plain).items()})

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every traced public function where another oraclebench
        module imported it; restore the originals on exit."""
        saved = []
        for short in PATCHED_MODULES:
            module = importlib.import_module(f"oraclebench.{short}")
            for name in SPANS:
                fn = getattr(module, name, None)
                if fn is None or getattr(fn, "__module__", module.__name__) == module.__name__:
                    continue  # not there, or defined here: an internal call
                traced = self._traced(name, fn)
                if (short, name) in OUTER_SPANS:
                    traced = self.wrap(OUTER_SPANS[short, name], traced)
                saved.append((module, name, fn))
                setattr(module, name, traced)
        try:
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def step(self, name: str, run: Callable):
        """One workload step: a request with its own root span."""
        self.request += 1
        return self.call(f"bench.{name}", run)

    # -- results -------------------------------------------------------

    def self_times(self) -> list[int]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def round_durations_ns(self) -> list[int]:
        """One entry per round played: from the learner asking for its point
        to the learner asking for the next one (or its game ending)."""
        games: dict[int, list[int]] = {}
        submits: Counter[int] = Counter()
        for i, name in enumerate(self.names):
            if name == "game.next_point":
                games.setdefault(self.parents[i], []).append(self.starts[i])
            elif name == "game.submit":
                submits[self.parents[i]] += 1
        out = []
        for game, starts in games.items():
            bounds = starts + [self.ends[game]]
            out += [bounds[r + 1] - bounds[r] for r in range(submits[game])]
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this run can measure alone (the trace.*
        ratios need the untraced run as well)."""
        total: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        own_by_name: Counter[str] = Counter()
        for name, start, end, own in zip(self.names, self.starts, self.ends, self.self_times()):
            total[name] += end - start
            calls[name] += 1
            own_by_name[name] += own
        own_by_layer: Counter[str] = Counter()
        for name, own in own_by_name.items():
            own_by_layer[name.partition(".")[0]] += own
        rounds = sorted(self.round_durations_ns())
        s = 1e-9
        out = {
            "adversary.respond_s": total["adversary.respond"] * s,
            "adversary.respond_calls": calls["adversary.respond"],
            "adversary.next_point_s": total["adversary.next_point"] * s,
            "adversary.revealed_cells": self.counts["adversary.revealed_cells"],
            "adversary.informative_s": total["adversary.informative"] * s,
            "hypotheses.table_oracle_s": total["hypotheses.table_oracle"] * s,
            "hypotheses.table_oracle_calls": calls["hypotheses.table_oracle"],
            "hypotheses.is_consistent_s": total["hypotheses.is_consistent"] * s,
            "hypotheses.is_consistent_calls": calls["hypotheses.is_consistent"],
            "game.submit_self_s": own_by_name["game.submit"] * s,
            "game.oracle_s": total["game.oracle"] * s,
            "game.oracle_calls": calls["game.oracle"],
            "game.rounds": calls["game.submit"],
            "game.round_p50_us": percentile(rounds, 50) * 1e-3,
            "game.round_p99_us": percentile(rounds, 99) * 1e-3,
            "game.save_s": total["game.save"] * s,
            "game.load_s": total["game.load"] * s,
            "game.validate_s": total["game.validate"] * s,
            "game.full_check_ldim_s": total["game.full_check"] * s,
            "game.full_check_calls": calls["game.full_check"],
            "learner.self_s": own_by_name["learner.run"] * s,
            "learner.appended": self.counts["learner.appended"],
            "learner.deleted": self.counts["learner.deleted"],
            "learner.active_max": self.counts["learner.active_max"],
            "learner.check_advanced_s": total["learner.check_advanced"] * s,
            "learner.subsets_checked": self.counts["learner.subsets_checked"],
            "littlestone.ldim_s": total["littlestone.ldim"] * s,
            "littlestone.ldim_calls": calls["littlestone.ldim"],
            "littlestone.at_least_s": total["littlestone.at_least"] * s,
            "littlestone.certificate_s": total["littlestone.certificate"] * s,
            "littlestone.minimax_s": total["littlestone.minimax"] * s,
            "littlestone.soa_s": own_by_name["littlestone.soa"] * s,
        }
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = own_by_layer[layer] * s
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            rows = zip(self.requests, self.parents, self.names, self.starts, self.ends)
            for i, (request, parent, name, start, end) in enumerate(rows):
                fh.write(f"{request}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")


def percentile(sorted_values: list[int], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not sorted_values:
        return 0
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


class _Proxy:
    def __init__(self, tracer: Tracer, target) -> None:
        self._tracer = tracer
        self._target = target

    def __getattr__(self, name: str):
        return getattr(self._target, name)


class AdversaryProxy(_Proxy):
    def next_point(self):
        return self._tracer.call("adversary.next_point", self._target.next_point)

    def respond(self, x, y_hat):
        y, f = self._tracer.call("adversary.respond", self._target.respond, x, y_hat)
        self._tracer.counts["adversary.revealed_cells"] += len(f.domain)
        return y, f


class LearnerProxy(_Proxy):
    def run(self, rounds) -> None:
        # SOALearner lives in littlestone; its run is that layer's work
        layer = self._target.__class__.__module__.rpartition(".")[2]
        name = "littlestone.soa" if layer == "littlestone" else f"{layer}.run"
        return self._tracer.call(name, self._target.run, ChannelProxy(self._tracer, rounds))


class ChannelProxy(_Proxy):
    def next_point(self):
        return self._tracer.call("game.next_point", self._target.next_point)

    def submit(self, y_hat, **kwargs):
        return self._tracer.call("game.submit", self._target.submit, y_hat, **kwargs)

    def oracle(self, sample):
        return self._tracer.call("game.oracle", self._target.oracle, sample)

    def annotate_update(self, appended, deleted) -> None:
        # learner._annotate finds this hook by getattr; without it the
        # transcript would silently lose the learner's list mutations
        appended, deleted = tuple(appended), tuple(deleted)
        counts = self._tracer.counts
        counts["learner.appended"] += len(appended)
        counts["learner.deleted"] += len(deleted)
        self._tracer.active += len(appended) - len(deleted)
        counts["learner.active_max"] = max(counts["learner.active_max"], self._tracer.active)
        return self._tracer.call("game.annotate", self._target.annotate_update, appended, deleted)
