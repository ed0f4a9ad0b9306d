"""Command-line entry point tying generation, fitting, strategy
construction and simulation into reproducible file-based experiments.

Commands: generate, fit, diagnose, eval, sweep, compare. Every report
embeds the verbatim config and seed in `#` header lines, so any output is
reproducible from the file alone. Exit codes: 0 success, 2 config error,
3 data error, 4 solver or model error.
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
from .simulate import compare as compare_strategies
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


def _section(cfg: dict, key: str) -> dict:
    """Config section `key`; absent reads as empty, a non-object is an error."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section `{key}` must be an object")
    return section


_KINDS = {str: "a string", float: "a number", int: "an integer"}


def _scalar(section: dict, key: str, kind: type, default=None):
    """Config value at the dotted `key`, whose last part indexes `section`,
    or `default` when it is absent. A present value must be a string (kind
    str), a number (float) or a number with no fractional part (int); true,
    false and null are none of these."""
    name = key.rsplit(".", 1)[-1]
    if name not in section:
        return default
    value = section[name]
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or value % 1 == 0))
    if ok:
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"config key `{key}` must be {_KINDS[kind]}, got {json.dumps(value)}")


def build_model(spec: dict, allow_schedule: bool = True):
    """Turn a model spec into HyperExpDist / SmmppModel / schedule."""
    if not isinstance(spec, dict):
        raise ConfigError("model spec must be an object")
    kinds = [k for k in ("weights", "transition", "schedule") if k in spec]
    if len(kinds) != 1:
        raise ConfigError("model spec needs exactly one of weights, transition, schedule")
    kind = kinds[0]
    try:
        if kind == "schedule":
            if not allow_schedule:
                raise ConfigError("nested schedules are not supported")
            segments = tuple(
                (seg["cycles"], build_model(seg["model"], allow_schedule=False))
                for seg in spec["schedule"]
            )
            return NonstationarySchedule(segments)
        rates = np.asarray(spec["rates"], dtype=float)
        if kind == "weights":
            return HyperExpDist(np.asarray(spec["weights"], dtype=float), rates)
        return SmmppModel(rates, np.asarray(spec["transition"], dtype=float))
    except KeyError as exc:
        raise ConfigError(f"model spec is missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc


def design_source(cfg: dict):
    """Model the strategies are designed from: the `design` section when
    present, otherwise a stationary `model`."""
    if "design" in cfg:
        src = build_model(cfg["design"], allow_schedule=False)
    else:
        src = build_model(cfg.get("model", {}), allow_schedule=True)
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


def get_epsilon(args, cfg: dict) -> float:
    if args.epsilon is not None:
        return args.epsilon
    return _scalar(_section(cfg, "strategy"), "strategy.epsilon", float, DEFAULT_EPSILON)


def get_window(args, cfg: dict) -> int:
    w = args.window
    if w is None:
        w = _scalar(_section(cfg, "eval"), "eval.window", int, 100)
    if w < 1:
        raise ConfigError("window must be >= 1")
    return w


def get_sim_seed(args, cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    return _scalar(_section(cfg, "eval"), "eval.seed", int, 0)


def _sim_inputs(args, cfg: dict):
    """Outage window, seed and trace of a simulation run."""
    return get_window(args, cfg), get_sim_seed(args, cfg), get_trace(cfg, None)[0]


def get_trace(cfg: dict, seed_override) -> tuple[IdleTrace, int | None]:
    spec = _section(cfg, "trace")
    if len([k for k in ("generate", "file") if k in spec]) != 1:
        raise ConfigError("trace section needs exactly one of `generate` or `file`")
    if "file" in spec:
        return read_trace(spec["file"]), None
    gen = _section(spec, "generate")
    if "cycles" not in gen:
        raise ConfigError("trace.generate needs `cycles`")
    cycles = _scalar(gen, "trace.generate.cycles", int)
    seed = seed_override
    if seed is None:
        seed = _scalar(gen, "trace.generate.seed", int, 0)
    model = build_model(cfg.get("model", {}), allow_schedule=True)
    if isinstance(model, NonstationarySchedule):
        return generate_nonstationary(model, seed), seed
    if isinstance(model, HyperExpDist):
        model = SmmppModel.from_mixture(model)
    return generate(model, cycles, seed), seed


def select_names(args, cfg: dict) -> list[str]:
    raw = args.strategy or _scalar(_section(cfg, "strategy"), "strategy.name", str, "all")
    names = list(PAPER_STRATEGIES) if raw == "all" else [s for s in raw.split(",") if s]
    mode = getattr(args, "ptsi", None)
    if mode:
        names = [n for n in names if n in STRATEGIES and STRATEGIES[n][0] == mode]
        if not names:
            raise ConfigError(f"no selected strategy has PTSI mode {mode!r}")
    return names


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
    text_rows = [",".join(columns)]
    for row in rows:
        text_rows.append(",".join(_fmt(v) for v in row))
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
    if args.group_size:
        wf = windowed_fit(samples, args.group_size, args.components)
        columns = ["group", "converged", "n_components"]
        for k in range(args.components):
            columns += [f"alpha_{k + 1}", f"lambda_{k + 1}"]
        rows = []
        for g, res in enumerate(wf.results):
            if res is None:
                rows.append([g, False, 0] + [""] * (2 * args.components))
                continue
            row = [g, res.converged, res.dist.n]
            for k in range(args.components):
                if k < res.dist.n:
                    row += [float(res.dist.weights[k]), float(res.dist.rates[k])]
                else:
                    row += ["", ""]
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


def _eval_setup(args, cfg):
    eta = get_eta(args, cfg)
    epsilon = get_epsilon(args, cfg)
    window, sim_seed, trace = _sim_inputs(args, cfg)
    source = design_source(cfg)
    return eta, epsilon, window, sim_seed, trace, source


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    eta, epsilon, window, sim_seed, trace, source = _eval_setup(args, cfg)
    names = select_names(args, cfg)
    if len(names) != 1:
        raise ConfigError("eval runs a single strategy; use compare for several")
    name = names[0]
    strategy = build(name, source, eta, epsilon)
    res = run_strategy(trace, strategy, source=source, seed=sim_seed, window=window, eta=eta)
    pred = predict(strategy, source)
    comments = header_lines(cfg, sim_seed, extra={"command": "eval"})
    columns = ["strategy", "mode", "eta", "cycles", "capacity", "collision",
               "outage", "predicted_capacity", "predicted_collision"]
    rows = [[name, strategy.mode, eta, res.n_cycles, res.capacity,
             res.collision_prob, res.outage_prob, pred.capacity, pred.collision]]
    write_report(args.out, comments, columns, rows)
    if args.windows:
        wrows = [[i, int(c), c / window] for i, c in enumerate(res.window_collisions)]
        write_report(args.windows, comments + [f"# window_size: {window}"],
                     ["window", "collided", "collision_rate"], wrows)
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    eta, epsilon, window, sim_seed, trace, source = _eval_setup(args, cfg)
    names = select_names(args, cfg)
    strategies = {n: build(n, source, eta, epsilon) for n in names}
    rows_out = []
    for row in compare_strategies(strategies, trace, eta, seed=sim_seed,
                                  source=source, window=window):
        pred = predict(strategies[row.name], source)
        rows_out.append([row.name, eta, row.capacity, row.collision_prob,
                         row.outage_prob, pred.capacity, pred.collision])
    comments = header_lines(cfg, sim_seed, extra={"command": "compare"})
    columns = ["strategy", "eta", "capacity", "collision", "outage",
               "predicted_capacity", "predicted_collision"]
    write_report(args.out, comments, columns, rows_out)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    sweep_cfg = _section(cfg, "sweep")
    if "true_weights" in sweep_cfg:
        return _robustness_sweep(args, cfg, sweep_cfg)
    etas = get_etas(args, sweep_cfg.get("etas"), "sweep.etas")
    epsilon = get_epsilon(args, cfg)
    source = design_source(cfg)
    names = select_names(args, cfg)
    simulate = bool(args.simulate or sweep_cfg.get("simulate", False))
    columns = ["strategy", "eta", "predicted_capacity", "predicted_collision"]
    trace = sim_seed = window = None
    if simulate:
        window, sim_seed, trace = _sim_inputs(args, cfg)
        columns += ["capacity", "collision", "outage"]
    rows = []
    for eta in etas:
        for name in names:
            strategy = build(name, source, eta, epsilon)
            pred = predict(strategy, source)
            row = [name, eta, pred.capacity, pred.collision]
            if simulate:
                res = run_strategy(trace, strategy, source=source,
                                   seed=sim_seed, window=window, eta=eta)
                row += [res.capacity, res.collision_prob, res.outage_prob]
            rows.append(row)
    comments = header_lines(cfg, sim_seed, extra={"command": "sweep"})
    write_report(args.out, comments, columns, rows)
    return 0


def _robustness_sweep(args, cfg: dict, sweep_cfg: dict) -> int:
    """Fixed design, drifting truth: measured collision per true weight
    vector for the selected strategies."""
    eta = get_eta(args, cfg)
    epsilon = get_epsilon(args, cfg)
    window = get_window(args, cfg)
    source = design_source(cfg)
    cycles = _scalar(sweep_cfg, "sweep.cycles", int, 100_000)
    sim_seed = get_sim_seed(args, cfg)
    true_weights = sweep_cfg["true_weights"]
    if not isinstance(true_weights, list) or not true_weights:
        raise ConfigError("sweep.true_weights must be a non-empty list of weight vectors")
    names = select_names(args, cfg)
    if args.strategy is None and "strategies" in sweep_cfg:
        names = list(sweep_cfg["strategies"])
    strategies = {n: build(n, source, eta, epsilon) for n in names}
    for n in names:
        if strategies[n].mode != STAT:
            raise ConfigError("robustness sweeps support statistical-PTSI strategies only")
    rows = []
    for k, weights in enumerate(true_weights):
        true_dist = HyperExpDist(np.asarray(weights, dtype=float), source.rates)
        true_model = SmmppModel.from_mixture(true_dist)
        trace = generate(true_model, cycles, seed=sim_seed + k)
        for name in names:
            res = run_strategy(trace, strategies[name], seed=sim_seed,
                               window=window, eta=eta)
            rows.append([name, eta] + [float(w) for w in weights]
                        + [res.capacity, res.collision_prob, res.outage_prob])
    n_weights = len(true_weights[0])
    columns = (["strategy", "eta"] + [f"true_alpha_{i + 1}" for i in range(n_weights)]
               + ["capacity", "collision", "outage"])
    comments = header_lines(cfg, sim_seed, extra={"command": "sweep-robustness"})
    write_report(args.out, comments, columns, rows)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oppaccess",
        description="Idle-time traffic modelling and secondary transmission experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eta_list=False):
        p.add_argument("--config", help="experiment config (JSON)")
        p.add_argument("--seed", type=int, help="override config seeds")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--eta", help="collision budget" + (" (comma list)" if eta_list else ""))
        p.add_argument("--epsilon", type=float, help="multiple-shot confidence parameter")
        p.add_argument("--window", type=int, help="outage window size in cycles")
        p.add_argument("--ptsi", choices=["stat", "markov", "full"],
                       help="restrict strategies to one PTSI mode")
        p.add_argument("--strategy", help="strategy name, comma list, or `all`")

    p = sub.add_parser("generate", help="write a synthetic idle trace")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit a mixture to a trace (optionally windowed)")
    p.add_argument("trace", help="trace file")
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--group-size", type=int)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnose", help="CCDF tail diagnostics of a trace")
    p.add_argument("trace", help="trace file")
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("eval", help="run one strategy over a trace")
    common(p)
    p.add_argument("--windows", help="also write the per-window collision series here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="capacity/collision tables over eta or drifting weights")
    common(p, eta_list=True)
    p.add_argument("--simulate", action="store_true",
                   help="add measured columns from a simulation run")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="run several strategies over one trace")
    common(p)
    p.set_defaults(func=cmd_compare)
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


if __name__ == "__main__":
    sys.exit(main())
