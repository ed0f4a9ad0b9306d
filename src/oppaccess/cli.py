"""Command-line entry point tying generation, fitting, strategy
construction and simulation into reproducible file-based experiments.

Commands: generate, fit, diagnose, eval, sweep, compare. Every report
embeds the verbatim config and seed in `#` header lines, so any output is
reproducible from the file alone. Exit codes: 0 success, 2 config error,
3 data error, 4 solver or model error, or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .distribution import HyperExpDist
from .errors import ConfigError, DataError, ModelError, OppaccessError, SolverError
from .fit import em_fit, tail_diagnostics, windowed_fit
from .simulate import DEFAULT_WINDOW
from .simulate import run as run_strategy
from .smmpp import IdleTrace, NonstationarySchedule, SmmppModel, generate, generate_nonstationary
from .strategies import DEFAULT_EPSILON, PAPER_STRATEGIES, STAT, STRATEGIES, build, predict
from .traceio import read_trace, write_trace


def load_config(path) -> dict:
    if path is None:
        raise ConfigError("this command needs --config")
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _object(value, key: str) -> dict:
    """`value`, the config value at the dotted `key`, which must be an object."""
    if not isinstance(value, dict):
        raise ConfigError(f"config key `{key}` must be an object")
    return value


def _section(section: dict, key: str) -> dict:
    """Config object at the dotted `key` in `section`; absent reads as empty."""
    return _object(section.get(key.rsplit(".", 1)[-1], {}), key)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_KINDS = {str: "a string", bool: "true or false", float: "a number", int: "an integer"}
_REQUIRED = object()


def _scalar(section: dict, key: str, kind: type, default=_REQUIRED):
    """Config value at the dotted `key`, whose last part indexes `section`,
    or `default` when absent (required without one): a string, true or
    false, a number, or an integer-valued number (int); bools are not numbers."""
    name = key.rsplit(".", 1)[-1]
    if name not in section:
        if default is _REQUIRED:
            raise ConfigError(f"config key `{key}` is required")
        return default
    value = section[name]
    if kind in (str, bool):
        ok = isinstance(value, kind)
    else:
        ok = _is_number(value) and (kind is float or value % 1 == 0)
    if ok:
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"config key `{key}` must be {_KINDS[kind]}, got {json.dumps(value)}")


def _numbers(section: dict, key: str) -> np.ndarray:
    """Config value at the dotted `key`, whose last part indexes `section`,
    as a float array: a number or a regular nested list of numbers."""
    value = section[key.rsplit(".", 1)[-1]]

    def numeric(v) -> bool:
        return all(map(numeric, v)) if isinstance(v, list) else _is_number(v)

    if numeric(value):
        try:
            return np.asarray(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or beyond the float range
            pass
    raise ConfigError(f"config key `{key}` must be a number array, got {json.dumps(value)}")


# flag -> (config key it overrides, kind, default)
_SETTINGS = {"epsilon": ("strategy.epsilon", float, DEFAULT_EPSILON),
             "window": ("eval.window", int, DEFAULT_WINDOW),  # run() refuses < 1
             "seed": ("eval.seed", int, 0)}


def _setting(args, cfg: dict, flag: str):
    """--`flag` when given, else the config key it overrides (_SETTINGS)."""
    value = getattr(args, flag)
    if value is not None:
        return value
    key, kind, default = _SETTINGS[flag]
    return _scalar(_section(cfg, key.split(".")[0]), key, kind, default)


def build_model(spec, key: str, allow_schedule: bool = True):
    """Turn the model spec at config key `key` into a model or schedule."""
    _object(spec, key)
    kinds = [k for k in ("weights", "transition", "schedule") if k in spec]
    if len(kinds) != 1:
        raise ConfigError(f"model spec `{key}` needs exactly one of weights, transition, schedule")
    kind = kinds[0]
    try:
        if kind == "schedule":
            if not allow_schedule:
                raise ConfigError("nested schedules are not supported")
            if not isinstance(spec["schedule"], list):
                raise ConfigError(f"config key `{key}.schedule` must be a list of segments")
            segments = []
            for i, seg in enumerate(spec["schedule"]):
                where = f"{key}.schedule[{i}]"
                _object(seg, where)
                segments.append((_scalar(seg, where + ".cycles", int),
                                 build_model(seg.get("model"), where + ".model", False)))
            return NonstationarySchedule(tuple(segments))
        rates = _numbers(spec, key + ".rates")
        if kind == "weights":
            return HyperExpDist(_numbers(spec, key + ".weights"), rates)
        return SmmppModel(rates, _numbers(spec, key + ".transition"))
    except KeyError as exc:
        raise ConfigError(f"model spec `{key}` is missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad model spec `{key}`: {exc}") from exc


def design_source(cfg: dict):
    """Model the strategies are designed from: the `design` section when
    present, otherwise a stationary `model`."""
    if "design" in cfg:
        return build_model(cfg["design"], "design", allow_schedule=False)
    src = build_model(cfg.get("model", {}), "model")
    if isinstance(src, NonstationarySchedule):
        raise ConfigError(
            "traffic model is a schedule; add a stationary `design` section "
            "for strategy construction")
    return src


def get_etas(args, configured, key: str) -> list[float]:
    """Collision budgets from --eta or the config value at `key`: a number,
    a comma-separated string or a list of numbers."""
    raw = args.eta if args.eta is not None else configured
    if raw is None:
        raise ConfigError(f"collision budget is required (--eta or {key})")
    if isinstance(raw, str):
        items = [v for v in raw.split(",") if v]
    else:
        items = raw if isinstance(raw, list) else [raw]
    try:
        values = [float(v) for v in items]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"eta must be a number, a comma list or a list, got {raw!r}") from exc
    if not values or any(not 0 < v < 1 for v in values):
        raise ConfigError(f"eta values must lie in (0, 1), got {raw!r}")
    return values


def get_eta(args, cfg: dict) -> float:
    values = get_etas(args, _section(cfg, "strategy").get("eta"), "strategy.eta")
    if len(values) != 1:
        raise ConfigError("this command takes a single eta")
    return values[0]


def get_trace(cfg: dict, seed=None) -> tuple[IdleTrace, int | None]:
    """The configured trace and its seed: `seed`, else `trace.generate.seed`.
    A stationary model plays for `trace.generate.cycles`; a schedule sets
    the length itself, which that key must then equal if given."""
    spec = _section(cfg, "trace")
    if len([k for k in ("generate", "file") if k in spec]) != 1:
        raise ConfigError("trace section needs exactly one of `generate` or `file`")
    if "file" in spec:
        return read_trace(_scalar(spec, "trace.file", str)), None
    gen = _section(spec, "trace.generate")
    if seed is None:
        seed = _scalar(gen, "trace.generate.seed", int, 0)
    model = build_model(cfg.get("model", {}), "model")
    key = "trace.generate.cycles"
    if not isinstance(model, NonstationarySchedule):
        model = NonstationarySchedule(((_scalar(gen, key, int), model),))
    total = sum(count for count, _ in model.segments)
    if _scalar(gen, key, int, total) != total:
        raise ConfigError(f"config key `{key}` must equal the schedule's {total} cycles")
    return generate_nonstationary(model, seed), seed


def select_names(args, cfg: dict, sweep_cfg: dict | None = None) -> list[str]:
    """Strategies named by --strategy, else `sweep.strategies` (given `sweep_cfg`), else
    `strategy.name`, else all paper strategies; no repeats, kept to the --ptsi mode."""
    raw = args.strategy
    if not raw and sweep_cfg is not None and "strategies" in sweep_cfg:
        raw = sweep_cfg["strategies"]
        if isinstance(raw, list) and all(isinstance(n, str) for n in raw):
            raw = ",".join(raw)
        elif not isinstance(raw, str):
            raise ConfigError("config key `sweep.strategies` must be a list of strings or a "
                              f"comma string, got {json.dumps(raw)}")
    raw = raw or _scalar(_section(cfg, "strategy"), "strategy.name", str, "all")
    names = list(dict.fromkeys(PAPER_STRATEGIES if raw == "all" else filter(None, raw.split(","))))
    if args.ptsi:
        # unknown names stay, so that build() reports them
        names = [n for n in names if n not in STRATEGIES or STRATEGIES[n][0] == args.ptsi]
        if not names:
            raise ConfigError(f"no selected strategy has PTSI mode {args.ptsi!r}")
    return names


def _experiment(args, cfg: dict, etas: list[float], names: list[str], seed: int | None,
                labels: tuple[str, ...] = (), traces=None):
    """Build and predict each strategy in `names` at each eta, and with a
    `seed` also run each over every trace `traces` yields, strategy k on
    child k of SeedSequence(seed); write the one report table of
    `args.command`, a row per (trace, eta, strategy) in that order.
    `traces` yields (values of the `labels` columns, trace) pairs, one
    trace alive at a time; by default it is the configured trace,
    unlabelled. Returns the report's header lines and the last SimResult
    (None without a seed)."""
    epsilon = _setting(args, cfg, "epsilon")
    source = design_source(cfg)
    columns = ["strategy", "eta", *labels, "predicted_capacity", "predicted_collision"]
    extra = {"command": args.command}
    if seed is None:
        traces = [((), None)]
    else:
        window = _setting(args, cfg, "window")
        if traces is None:
            traces = [((), get_trace(cfg)[0])]
        seeds = np.random.SeedSequence(seed).spawn(len(names))
        columns += ["capacity", "collision", "outage"]
    designs = []
    for eta in etas:
        for k, name in enumerate(names):
            strategy = build(name, source, eta, epsilon)
            designs.append((k, name, eta, strategy, predict(strategy, source)))
    rows, res = [], None
    for values, trace in traces:
        for k, name, eta, strategy, pred in designs:
            rows.append([name, eta, *values, pred.capacity, pred.collision])
            if trace is not None:
                res = run_strategy(trace, strategy, source=source, seed=seeds[k],
                                   window=window, eta=eta)
                rows[-1] += [res.capacity, res.collision_prob, res.outage_prob]
                extra["cycles"] = trace.n
        trace = None  # free it before the next one is made
    comments = header_lines(cfg, seed, extra)
    write_report(args.out, comments, columns, rows)
    return comments, res


def header_lines(cfg: dict | None, seed=None, extra: dict | None = None) -> list[str]:
    lines = []
    if cfg is not None:
        lines.append("# config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":")))
    if seed is not None:
        lines.append(f"# seed: {seed}")
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return lines


def write_report(out, comments: list[str], columns: list[str], rows: list[list]) -> None:
    text_rows = [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
    text = "\n".join(comments + text_rows) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    if "generate" not in _section(cfg, "trace"):
        raise ConfigError("generate needs a trace.generate section in the config")
    if args.out is None:
        raise ConfigError("generate needs --out")
    trace, seed = get_trace(cfg, args.seed)
    write_trace(trace, args.out, extra_header=header_lines(cfg, seed))
    return 0


def cmd_fit(args) -> int:
    trace = read_trace(args.trace)
    samples = trace.durations
    comments = header_lines(None, extra={
        "command": "fit", "trace": args.trace, "components": args.components,
    })
    if args.group_size is not None:
        wf = windowed_fit(samples, args.group_size, args.components)
        columns = ["group", "converged", "n_components"]
        for k in range(args.components):
            columns += [f"alpha_{k + 1}", f"lambda_{k + 1}"]
        rows = []
        for g, res in enumerate(wf.results):
            n = 0 if res is None else res.dist.n
            row = [g, res is not None and res.converged, n]
            for k in range(args.components):
                row += ([float(res.dist.weights[k]), float(res.dist.rates[k])]
                        if k < n else ["", ""])
            rows.append(row)
        summary = wf.dispersion()
        comments.append(f"# group_size: {wf.group_size}")
        comments.append("# summary: parameter,min,q1,median,q3,max")
        for name, quartiles in summary.items():
            comments.append("# summary: " + name + "," + ",".join(f"{q:.10g}" for q in quartiles))
        write_report(args.out, comments, columns, rows)
        return 0
    res = em_fit(samples, args.components)
    rows = [["n", res.dist.n], ["log_likelihood", res.log_likelihood],
            ["iterations", res.n_iter], ["converged", res.converged],
            ["dropped_components", res.dropped_components],
            ["merged_components", res.merged_components]]
    for k in range(res.dist.n):
        rows.append([f"alpha_{k + 1}", float(res.dist.weights[k])])
        rows.append([f"lambda_{k + 1}", float(res.dist.rates[k])])
    write_report(args.out, comments, ["field", "value"], rows)
    return 0


def cmd_diagnose(args) -> int:
    trace = read_trace(args.trace)
    diag = tail_diagnostics(trace.durations)
    comments = header_lines(None, extra={"command": "diagnose", "trace": args.trace})
    rows = [
        ["knee_seconds", diag.knee],
        ["pre_knee_loglog_slope", diag.pre_knee_slope],
        ["post_knee_linearlog_slope", diag.post_knee_slope],
        ["pre_knee_r2", diag.pre_knee_r2],
        ["post_knee_r2", diag.post_knee_r2],
        ["knee_at_left_boundary", diag.knee_at_left_boundary],
    ]
    write_report(args.out, comments, ["field", "value"], rows)
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    eta = get_eta(args, cfg)
    seed = _setting(args, cfg, "seed")
    names = select_names(args, cfg)
    if len(names) != 1:
        raise ConfigError("eval runs a single strategy; use compare for several")
    comments, res = _experiment(args, cfg, [eta], names, seed)
    if args.windows:
        wrows = [[i, int(c), c / res.window] for i, c in enumerate(res.window_collisions)]
        write_report(args.windows, comments + [f"# window_size: {res.window}"],
                     ["window", "collided", "collision_rate"], wrows)
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    eta = get_eta(args, cfg)
    seed = _setting(args, cfg, "seed")
    _experiment(args, cfg, [eta], select_names(args, cfg), seed)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sweep_cfg = _section(cfg, "sweep")
    if "true_weights" in sweep_cfg:
        # fixed design, drifting truth: one generated trace per true weight vector
        eta = get_eta(args, cfg)
        seed = _setting(args, cfg, "seed")
        cycles = _scalar(sweep_cfg, "sweep.cycles", int, 100_000)
        true_weights = _numbers(sweep_cfg, "sweep.true_weights")
        if true_weights.ndim != 2 or not true_weights.size:
            raise ConfigError("sweep.true_weights must be a non-empty list of weight vectors")
        names = select_names(args, cfg, sweep_cfg)
        # unknown names stay, so that build() reports them
        if any(STRATEGIES[n][0] != STAT for n in names if n in STRATEGIES):
            raise ConfigError("robustness sweeps support statistical-PTSI strategies only")
        rates = design_source(cfg).rates
        traces = ((w.tolist(), generate(HyperExpDist(w, rates), cycles, seed=seed + k))
                  for k, w in enumerate(true_weights))
        labels = tuple(f"true_alpha_{i + 1}" for i in range(true_weights.shape[1]))
        _experiment(args, cfg, [eta], names, seed, labels, traces)
        return 0
    etas = get_etas(args, sweep_cfg.get("etas"), "sweep.etas")
    seed = None
    if args.simulate or _scalar(sweep_cfg, "sweep.simulate", bool, False):
        seed = _setting(args, cfg, "seed")
    elif args.seed is not None or args.window is not None:
        raise ConfigError("--seed and --window need --simulate or sweep.simulate")
    _experiment(args, cfg, etas, select_names(args, cfg, sweep_cfg), seed)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppaccess",
        description="Idle-time traffic modelling and secondary transmission experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output file (default stdout)")
        p.set_defaults(func=func)
        return p

    def experiment(name, func, help_text, eta_help="collision budget"):
        p = command(name, func, help_text)
        p.add_argument("--config", help="experiment config (JSON)")
        p.add_argument("--seed", type=int, help="simulation seed, overrides eval.seed "
                       "(a robustness sweep also seeds its traces from it)")
        p.add_argument("--eta", help=eta_help)
        p.add_argument("--epsilon", type=float, help="multiple-shot confidence parameter")
        p.add_argument("--window", type=int, help="outage window size in cycles")
        p.add_argument("--ptsi", choices=["stat", "markov", "full"],
                       help="restrict strategies to one PTSI mode")
        p.add_argument("--strategy", help="strategy name, comma list, or `all`")
        return p

    p = command("generate", cmd_generate, "write a synthetic idle trace")
    p.add_argument("--config", help="experiment config (JSON)")
    p.add_argument("--seed", type=int, help="trace seed, overrides trace.generate.seed")

    p = command("fit", cmd_fit, "fit a mixture to a trace (optionally windowed)")
    p.add_argument("trace", help="trace file")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--group-size", type=int)

    p = command("diagnose", cmd_diagnose, "CCDF tail diagnostics of a trace")
    p.add_argument("trace", help="trace file")

    p = experiment("eval", cmd_eval, "run one strategy over a trace")
    p.add_argument("--windows", help="also write the per-window collision series here")

    p = experiment("sweep", cmd_sweep, "capacity/collision tables over eta or drifting weights",
                   eta_help="collision budget, or a comma list of them (a robustness "
                            "sweep takes one)")
    p.add_argument("--simulate", action="store_true",
                   help="add measured columns from a simulation run")

    experiment("compare", cmd_compare, "run several strategies over one trace")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ModelError, SolverError) as exc:
        print(f"model/solver error: {exc}", file=sys.stderr)
        return 4
    except OppaccessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
