"""Spans around the calls `oppaccess.cli` makes into the library modules.

The wrappers live here, not in the program. For one traced pass, every
function object in `oppaccess.cli`'s namespace that *is* (by identity) a
function defined in one of TRACED_MODULES is replaced by a wrapper that
records a span whose parent is the enclosing CLI command span. Matching by
identity rather than by name keeps the tracing working when `cli.py`
renames or regroups its imports. `distribution` and `errors` are only
reached from inside those modules, so their cost lands in the callers'
spans.

Counts come from public return values: `IdleTrace.n`, `FitResult.n_iter`,
`WindowedFit.results`, `Strategy.name`, `SimResult.n_cycles`; written bytes
from the size of the file `write_trace` was given. A call that raises is
recorded as failed and the exception is re-raised.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

TRACED_MODULES = ("smmpp", "traceio", "fit", "strategies", "simulate")
# The nine strategies the per-layer table breaks construction time down by.
STRATEGY_NAMES = (
    "stat_one_shot", "stat_optimal", "multiple_shot",
    "markov_os_balanced", "markov_os_suboptimal", "markov_opt_balanced",
    "markov_optimal", "full_balanced", "full_optimal",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    traced_pass: int = 0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; `dump` writes them out when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.traced_pass = 0
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter() - self._origin,
                               parent=parent, traced_pass=self.traced_pass))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter() - self._origin
        self._stack.pop()
        return span

    def command(self, main, argv: list[str]) -> int:
        """Run one CLI command inside a command span."""
        index = self._open("cli." + argv[0])
        try:
            return main(argv)
        finally:
            self._close(index)

    def _wrap(self, module: str, func):
        name = f"{module}.{func.__name__}"
        signature = inspect.signature(func)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self._close(index).failed = True
                raise
            span = self._close(index)
            span.counts = observe(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, cli):
        """Wrap `cli`'s references to the traced modules' functions for the
        duration of the block; yields the names that were wrapped."""
        package = cli.__name__.rpartition(".")[0]
        targets = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for obj in vars(module).values():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (short, obj)
        originals = {name: obj for name, obj in vars(cli).items() if id(obj) in targets}
        for name, obj in originals.items():
            setattr(cli, name, self._wrap(*targets[id(obj)]))
        self.traced_pass += 1
        try:
            yield sorted(originals)
        finally:
            for name, obj in originals.items():
                setattr(cli, name, obj)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def observe(name: str, arguments: dict, result) -> dict:
    """Work counts of one successful call, read from its public result."""
    if name in ("smmpp.generate", "smmpp.generate_nonstationary", "traceio.read_trace"):
        return {"cycles": int(result.n)}
    if name == "traceio.write_trace":
        return {"bytes": os.path.getsize(arguments["path"])}
    if name == "fit.em_fit":
        return {"iters": int(result.n_iter)}
    if name == "fit.windowed_fit":
        done = [r for r in result.results if r is not None]
        return {"groups": len(result.results), "iters": sum(r.n_iter for r in done),
                "converged": sum(bool(r.converged) for r in done)}
    if name == "simulate.run":
        return {"runs": 1, "cycles": int(result.n_cycles)}
    if name == "simulate.compare":
        return {"runs": len(result), "cycles": sum(int(r.result.n_cycles) for r in result)}
    if name == "strategies.predict":
        return {"calls": 1}
    if name.startswith("strategies.") and isinstance(getattr(result, "name", None), str):
        return {"strategy": result.name}
    return {}


# Span name -> (metric of its time, {count: metric the count adds to}).
SPAN_METRICS = {
    "smmpp.generate": ("smmpp.generate_s", {"cycles": "smmpp.generate_cycles"}),
    "smmpp.generate_nonstationary": ("smmpp.generate_s", {"cycles": "smmpp.generate_cycles"}),
    "traceio.write_trace": ("traceio.write_s", {"bytes": "traceio.write_bytes"}),
    "traceio.read_trace": ("traceio.read_s", {"cycles": "traceio.read_cycles"}),
    "fit.em_fit": ("fit.em_fit_s", {"iters": "fit.em_fit_iters"}),
    "fit.windowed_fit": ("fit.windowed_fit_s", {"groups": "fit.windowed_groups",
                                                "iters": "fit.windowed_iters",
                                                "converged": "fit.windowed_converged_share"}),
    "fit.tail_diagnostics": ("fit.tail_diagnostics_s", {}),
    "strategies.predict": ("strategies.predict_s", {"calls": "strategies.predict_calls"}),
    "simulate.run": ("simulate.run_s", {"runs": "simulate.runs", "cycles": "simulate.cycles"}),
    "simulate.compare": ("simulate.run_s", {"runs": "simulate.runs",
                                            "cycles": "simulate.cycles"}),
}
# Per-layer metric names and units. Every traced run reports all of them;
# a module the workload never calls reads 0.
LAYER_UNITS = {
    "cli.self_s": "s", "cli.commands": "count",
    "smmpp.generate_s": "s", "smmpp.generate_cycles": "count",
    "smmpp.generate_cycles_per_s": "cycles/s",
    "traceio.write_s": "s", "traceio.write_bytes": "bytes", "traceio.read_s": "s",
    "traceio.read_cycles": "count", "traceio.read_cycles_per_s": "cycles/s",
    "fit.em_fit_s": "s", "fit.em_fit_iters": "count", "fit.windowed_fit_s": "s",
    "fit.windowed_groups": "count", "fit.windowed_iters": "count",
    "fit.windowed_converged_share": "ratio", "fit.tail_diagnostics_s": "s",
    "strategies.construct_s": "s", "strategies.constructions": "count",
    "strategies.construct_failed": "count",
    **{f"strategies.construct_s.{name}": "s" for name in STRATEGY_NAMES},
    "strategies.predict_s": "s", "strategies.predict_calls": "count",
    "simulate.run_s": "s", "simulate.runs": "count", "simulate.cycles": "count",
    "simulate.cycles_per_s": "cycles/s",
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(all_spans: list[Span], traced_pass: int) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced pass."""
    m = dict.fromkeys(LAYER_UNITS, 0)
    commands = {}  # index into all_spans of each command span -> child time
    for i, s in enumerate(all_spans):
        if s.traced_pass != traced_pass:
            continue
        if s.parent is None:
            commands[i] = 0.0
            continue
        if s.parent in commands:
            commands[s.parent] += s.duration
        if s.name in SPAN_METRICS:
            time_key, count_keys = SPAN_METRICS[s.name]
            m[time_key] += s.duration
            for count, key in count_keys.items():
                m[key] += s.counts.get(count, 0)
        elif s.name.startswith("strategies.") and (s.failed or "strategy" in s.counts):
            label = s.counts.get("strategy", s.name.partition(".")[2])
            m["strategies.construct_s"] += s.duration
            m["strategies.constructions"] += 1
            m["strategies.construct_failed"] += int(s.failed)
            if label in STRATEGY_NAMES:
                m[f"strategies.construct_s.{label}"] += s.duration
    m["cli.self_s"] = sum(all_spans[i].duration - child for i, child in commands.items())
    m["cli.commands"] = len(commands)
    m["smmpp.generate_cycles_per_s"] = _rate(m["smmpp.generate_cycles"], m["smmpp.generate_s"])
    m["traceio.read_cycles_per_s"] = _rate(m["traceio.read_cycles"], m["traceio.read_s"])
    m["fit.windowed_converged_share"] = _rate(m["fit.windowed_converged_share"],
                                              m["fit.windowed_groups"])
    m["simulate.cycles_per_s"] = _rate(m["simulate.cycles"], m["simulate.run_s"])
    return m
