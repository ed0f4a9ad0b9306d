import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppaccess.cli import main, make_parser

THREE_STATE = {
    "rates": [5.0, 100.0, 6000.0],
    "transition": [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
}
MIXTURE = {"rates": [100.0, 6000.0], "weights": [0.5, 0.5]}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_table(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return comments, rows


def test_generate_writes_reproducible_trace(tmp_path):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 1000, "seed": 7}},
    })
    out_a, out_b = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["generate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "# oppaccess-trace v1"
    assert any(line.startswith("# config:") for line in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1000
    assert all(float(l.split(",")[0]) > 0 for l in data)


def test_generate_marks_schedule_boundaries(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"schedule": [
            {"cycles": 50, "model": {"rates": [100.0, 6000.0], "weights": [0.5, 0.5]}},
            {"cycles": 50, "model": {"rates": [100.0, 6000.0], "weights": [0.9, 0.1]}},
        ]},
        "trace": {"generate": {"cycles": 100, "seed": 1}},
    })
    out = tmp_path / "sched.trace"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert "# segment: cycle=50" in out.read_text().splitlines()


def test_schedule_sets_the_trace_length(tmp_path, capsys):
    schedule = {"schedule": [{"cycles": 100, "model": MIXTURE},
                             {"cycles": 50, "model": THREE_STATE}]}

    def generate(generate_section):
        out = tmp_path / "sched.trace"
        cfg = write_config(tmp_path, {"model": schedule,
                                      "trace": {"generate": generate_section}})
        code = main(["generate", "--config", cfg, "--out", str(out)])
        if code:
            return code
        return sum(not line.startswith("#") for line in out.read_text().splitlines())

    assert generate({"seed": 1}) == 150
    assert generate({"cycles": 150, "seed": 1}) == 150
    capsys.readouterr()
    for cycles in (10, 151):
        assert generate({"cycles": cycles, "seed": 1}) == 2
        assert "`trace.generate.cycles`" in capsys.readouterr().err
    # a stationary model still needs the cycle count
    cfg = write_config(tmp_path, {"model": MIXTURE, "trace": {"generate": {"seed": 1}}})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x.trace")]) == 2
    assert "`trace.generate.cycles` is required" in capsys.readouterr().err


def test_generate_requires_out(tmp_path):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE, "trace": {"generate": {"cycles": 10, "seed": 0}},
    })
    assert main(["generate", "--config", cfg]) == 2


def test_fit_single_exponential_reports_inverse_mean(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"rates": [100.0], "weights": [1.0]},
        "trace": {"generate": {"cycles": 20_000, "seed": 3}},
    })
    trace = tmp_path / "exp.trace"
    main(["generate", "--config", cfg, "--out", str(trace)])
    report = tmp_path / "fit.csv"
    assert main(["fit", str(trace), "--components", "1", "--out", str(report)]) == 0
    _, rows = read_table(report)
    fields = {r["field"]: r["value"] for r in rows}
    durations = [float(l.split(",")[0]) for l in trace.read_text().splitlines()
                 if not l.startswith("#")]
    assert float(fields["lambda_1"]) == pytest.approx(1.0 / np.mean(durations), rel=1e-6)
    assert fields["converged"] == "True"


def test_fit_windowed_report_row_count_and_summary(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"rates": [160.0, 3670.0], "weights": [0.32, 0.68]},
        "trace": {"generate": {"cycles": 100_000, "seed": 5}},
    })
    trace = tmp_path / "mix.trace"
    main(["generate", "--config", cfg, "--out", str(trace)])
    report = tmp_path / "windowed.csv"
    assert main(["fit", str(trace), "--components", "2",
                 "--group-size", "1000", "--out", str(report)]) == 0
    comments, rows = read_table(report)
    assert len(rows) == 100
    summary = [c for c in comments if c.startswith("# summary: lambda_1")]
    assert len(summary) == 1
    quartiles = [float(v) for v in summary[0].split(",")[1:]]
    assert len(quartiles) == 5 and quartiles == sorted(quartiles)


def test_diagnose_reports_tail_fields(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"rates": [5.0, 100.0, 6000.0], "weights": [1 / 3, 1 / 3, 1 / 3]},
        "trace": {"generate": {"cycles": 50_000, "seed": 9}},
    })
    trace = tmp_path / "mix3.trace"
    main(["generate", "--config", cfg, "--out", str(trace)])
    report = tmp_path / "diag.csv"
    assert main(["diagnose", str(trace), "--out", str(report)]) == 0
    _, rows = read_table(report)
    fields = {r["field"]: r["value"] for r in rows}
    assert float(fields["knee_seconds"]) > 0
    assert float(fields["post_knee_linearlog_slope"]) < 0
    assert fields["knee_at_left_boundary"] == "False"


def test_eval_always_transmit_collides_every_cycle(tmp_path):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 5000, "seed": 2}},
        "strategy": {"name": "always_transmit", "eta": 0.1},
    })
    report = tmp_path / "eval.csv"
    assert main(["eval", "--config", cfg, "--out", str(report)]) == 0
    _, rows = read_table(report)
    assert float(rows[0]["collision"]) == 1.0
    assert float(rows[0]["predicted_collision"]) == pytest.approx(1.0)


def test_eval_multiple_shot_respects_budget(tmp_path):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 100_000, "seed": 4}},
        "strategy": {"name": "multiple_shot", "eta": 0.05},
    })
    report = tmp_path / "ms.csv"
    assert main(["eval", "--config", cfg, "--out", str(report)]) == 0
    comments, rows = read_table(report)
    measured = float(rows[0]["collision"])
    assert measured <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 100_000)
    assert any(c.startswith("# config:") for c in comments)


def test_eval_window_series_export(tmp_path):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 10_000, "seed": 4}},
        "strategy": {"name": "stat_optimal", "eta": 0.1},
    })
    windows = tmp_path / "windows.csv"
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "r.csv"),
                 "--windows", str(windows), "--window", "100"]) == 0
    _, rows = read_table(windows)
    assert len(rows) == 100
    rates = [float(r["collision_rate"]) for r in rows]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert abs(np.mean(rates) - 0.1) < 0.03


def test_eval_full_mode_without_labels_fails_with_data_error(tmp_path, capsys):
    bare = tmp_path / "bare.trace"
    bare.write_text("\n".join(f"{x:.6f}" for x in np.full(2000, 0.01)) + "\n")
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"file": str(bare)},
        "strategy": {"name": "full_balanced", "eta": 0.1},
    })
    assert main(["eval", "--config", cfg]) == 3
    assert "full" in capsys.readouterr().err


def test_eval_ptsi_flag_must_match_strategy(tmp_path):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 1000, "seed": 0}},
        "strategy": {"name": "stat_optimal", "eta": 0.1},
    })
    assert main(["eval", "--config", cfg, "--ptsi", "markov"]) == 2


def test_sweep_predictions_table(tmp_path):
    cfg = write_config(tmp_path, {"model": THREE_STATE})
    report = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--eta", "0.01,0.05,0.1",
                 "--strategy", "all", "--out", str(report)]) == 0
    _, rows = read_table(report)
    assert len(rows) == 27
    for row in rows:
        eta = float(row["eta"])
        predicted = float(row["predicted_collision"])
        if row["strategy"] == "multiple_shot":
            assert predicted <= eta + 1e-9
        else:
            assert predicted == pytest.approx(eta, abs=1e-9)


def test_sweep_single_cell(tmp_path):
    cfg = write_config(tmp_path, {"model": THREE_STATE})
    report = tmp_path / "one.csv"
    assert main(["sweep", "--config", cfg, "--eta", "0.1",
                 "--strategy", "full_optimal", "--out", str(report)]) == 0
    _, rows = read_table(report)
    assert len(rows) == 1
    assert float(rows[0]["predicted_capacity"]) == pytest.approx(0.02, rel=1e-9)


def test_sweep_ptsi_filter(tmp_path):
    cfg = write_config(tmp_path, {"model": THREE_STATE})
    report = tmp_path / "statonly.csv"
    assert main(["sweep", "--config", cfg, "--eta", "0.1", "--ptsi", "stat",
                 "--out", str(report)]) == 0
    _, rows = read_table(report)
    assert sorted({r["strategy"] for r in rows}) == [
        "multiple_shot", "stat_one_shot", "stat_optimal"]


def test_design_only_sweep_refuses_simulation_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": THREE_STATE, "eval": {"seed": 3, "window": 10}})
    for flags in (["--seed", "-5"], ["--window", "0"], ["--seed", "3", "--window", "10"]):
        assert main(["sweep", "--config", cfg, "--eta", "0.1", *flags]) == 2, flags
        assert "--simulate" in capsys.readouterr().err
    # the eval section may stay in a config shared with eval and compare
    assert main(["sweep", "--config", cfg, "--eta", "0.1", "--out",
                 str(tmp_path / "sweep.csv")]) == 0


def test_every_sweep_reads_sweep_strategies(tmp_path):
    base = {"model": THREE_STATE, "trace": {"generate": {"cycles": 1000, "seed": 0}}}

    def names(sweep, *flags):
        report = tmp_path / "sweep.csv"
        config = write_config(tmp_path, {**base, "sweep": {"etas": 0.1, **sweep}})
        assert main(["sweep", "--config", config, "--out", str(report), *flags]) == 0
        return [r["strategy"] for r in read_table(report)[1]]

    listed = {"strategies": ["stat_optimal", "full_optimal"]}
    assert names(listed) == ["stat_optimal", "full_optimal"]
    assert names(listed, "--simulate") == ["stat_optimal", "full_optimal"]
    assert names({**listed, "simulate": True}) == ["stat_optimal", "full_optimal"]
    assert names({"strategies": "markov_optimal"}) == ["markov_optimal"]
    assert names(listed, "--ptsi", "full") == ["full_optimal"]
    assert names(listed, "--strategy", "multiple_shot") == ["multiple_shot"]


def test_sweep_robustness_over_true_weights(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"rates": [100.0, 6000.0], "weights": [0.5, 0.5]},
        "strategy": {"eta": 0.1},
        "sweep": {
            "true_weights": [[0.5, 0.5], [0.7, 0.3], [0.9, 0.1]],
            "cycles": 50_000,
            "strategies": ["stat_optimal", "multiple_shot"],
        },
    })
    report = tmp_path / "robust.csv"
    assert main(["sweep", "--config", cfg, "--out", str(report)]) == 0
    _, rows = read_table(report)
    assert len(rows) == 6
    tuned = [float(r["collision"]) for r in rows if r["strategy"] == "stat_optimal"]
    robust = [float(r["collision"]) for r in rows if r["strategy"] == "multiple_shot"]
    assert tuned[0] < tuned[-1]
    assert tuned[-1] > 0.1
    assert all(c <= 0.105 for c in robust)


def test_compare_table_orders_strategies(tmp_path):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 50_000, "seed": 6}},
        "eval": {"window": 100},
    })
    report = tmp_path / "cmp.csv"
    assert main(["compare", "--config", cfg, "--eta", "0.05",
                 "--strategy", "stat_optimal,multiple_shot,full_optimal",
                 "--out", str(report)]) == 0
    _, rows = read_table(report)
    caps = {r["strategy"]: float(r["capacity"]) for r in rows}
    assert caps["full_optimal"] >= caps["multiple_shot"]
    assert caps["stat_optimal"] >= caps["multiple_shot"]
    assert all(r["outage"] not in ("", "None") for r in rows)


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["eval", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 100, "seed": 0}},
        "strategy": {"name": "nonexistent", "eta": 0.1},
    })
    assert main(["eval", "--config", cfg]) == 2
    cfg2 = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 100, "seed": 0}},
        "strategy": {"name": "stat_optimal", "eta": 1.5},
    }, name="cfg2.json")
    assert main(["eval", "--config", cfg2]) == 2
    eval_cfg = {"model": THREE_STATE, "trace": {"generate": {"cycles": 100, "seed": 0}},
                "strategy": {"name": "stat_optimal", "eta": 0.1}}
    for section, value in (("strategy", 3), ("eval", 3), ("trace", {"generate": 3}),
                           ("strategy", {"name": "stat_optimal", "eta": ["a"]}),
                           ("strategy", {"name": "stat_optimal", "eta": []}),
                           ("strategy", {"name": "stat_optimal", "eta": {"x": 0.1}})):
        bad_cfg = write_config(tmp_path, {**eval_cfg, section: value}, name="bad_eval.json")
        assert main(["eval", "--config", bad_cfg]) == 2, (section, value)
    for sweep in (3, {"true_weights": []}, {"true_weights": 3}):
        bad_cfg = write_config(tmp_path, {"model": THREE_STATE, "strategy": {"eta": 0.1},
                                          "sweep": sweep}, name="bad_sweep.json")
        assert main(["sweep", "--config", bad_cfg]) == 2, sweep
    capsys.readouterr()
    # scalars of the wrong JSON type exit 2 with a message naming the key
    strategy = eval_cfg["strategy"]
    for key, section, value in (
            ("strategy.name", "strategy", {**strategy, "name": 3}),
            ("strategy.epsilon", "strategy", {**strategy, "epsilon": [1]}),
            ("strategy.epsilon", "strategy", {**strategy, "epsilon": "0.001"}),
            ("strategy.epsilon", "strategy", {**strategy, "epsilon": 10**400}),
            ("eval.window", "eval", {"window": None}),
            ("eval.window", "eval", {"window": 50.5}),
            ("eval.seed", "eval", {"seed": [1]}),
            ("eval.seed", "eval", {"seed": True}),
            ("trace.generate.cycles", "trace", {"generate": {"cycles": None}}),
            ("trace.generate.cycles", "trace", {"generate": {"cycles": 1.5}}),
            ("trace.generate.cycles", "trace", {"generate": {"cycles": "100"}}),
            ("trace.generate.seed", "trace", {"generate": {"cycles": 100, "seed": 0.5}})):
        bad_cfg = write_config(tmp_path, {**eval_cfg, section: value}, name="bad_scalar.json")
        assert main(["eval", "--config", bad_cfg]) == 2, (key, value)
        assert f"`{key}`" in capsys.readouterr().err, (key, value)
    bad_cfg = write_config(tmp_path, {"model": THREE_STATE, "strategy": {"eta": 0.1},
                                      "sweep": {"true_weights": [[0.2, 0.3, 0.5]],
                                                "cycles": [1000]}}, name="bad_sweep.json")
    assert main(["sweep", "--config", bad_cfg]) == 2
    assert "`sweep.cycles`" in capsys.readouterr().err
    # number arrays, schedules, trace files and sweep options of the wrong
    # JSON type exit 2 with a message naming the key
    schedule_cfg = {**eval_cfg, "design": MIXTURE}
    robust_cfg = {"model": THREE_STATE, "strategy": {"eta": 0.1},
                  "sweep": {"true_weights": [[0.2, 0.3, 0.5]], "cycles": 100}}
    design_sweep = {"model": THREE_STATE, "trace": eval_cfg["trace"], "sweep": {"etas": 0.1}}
    for command, key, cfg in (
            *[("eval", f"model.{field}", {**eval_cfg, "model": {**THREE_STATE, field: value}})
              for field in ("rates", "transition") for value in ({}, [[{}]])],
            *[("eval", f"{section}.{field}", {**eval_cfg, section: {**MIXTURE, field: value}})
              for section in ("model", "design") for field in ("rates", "weights")
              for value in ({}, [[{}]], [True, False])],
            *[("eval", key, {**schedule_cfg, "model": {"schedule": schedule}})
              for key, schedule in (
                  ("model.schedule", 3),
                  ("model.schedule[0]", [3]),
                  *[("model.schedule[0].cycles", [{"cycles": cycles, "model": MIXTURE}])
                    for cycles in (None, 2.7, True, "7")])],
            ("eval", "trace.file", {**eval_cfg, "trace": {"file": 3}}),
            *[("sweep", "sweep.true_weights",
               {**robust_cfg, "sweep": {**robust_cfg["sweep"], "true_weights": weights}})
              for weights in ([{}], [[True, False, False]], [[0.5, 0.5], [0.2, 0.3, 0.5]])],
            *[("sweep", "sweep.strategies",
               {**robust_cfg, "sweep": {**robust_cfg["sweep"], "strategies": strategies}})
              for strategies in (3, {"stat_optimal": 1}, ["stat_optimal", 3])],
            ("sweep", "sweep.simulate",
             {**design_sweep, "sweep": {"etas": 0.1, "simulate": "false"}})):
        bad_cfg = write_config(tmp_path, cfg, name="bad_typed.json")
        assert main([command, "--config", bad_cfg]) == 2, (key, cfg)
        assert f"`{key}`" in capsys.readouterr().err, (key, cfg)


def test_eta_accepts_number_comma_string_and_list(tmp_path):
    def rows(command, cfg):
        report = tmp_path / "report.csv"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(report)]) == 0
        return read_table(report)[1]

    sweeps = [rows("sweep", {"model": THREE_STATE, "sweep": {"etas": etas}})
              for etas in (0.05, "0.05", [0.05], "0.01,0.05", [0.01, 0.05])]
    assert sweeps[0] == sweeps[1] == sweeps[2] == sweeps[3][9:]
    assert sweeps[3] == sweeps[4]
    evals = [rows("eval", {"model": THREE_STATE,
                           "trace": {"generate": {"cycles": 1000, "seed": 0}},
                           "strategy": {"name": "stat_optimal", "eta": eta}})
             for eta in (0.05, [0.05])]
    assert evals[0] == evals[1]


def test_missing_trace_file_exits_3(tmp_path):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"file": str(tmp_path / "missing.trace")},
        "strategy": {"name": "stat_optimal", "eta": 0.1},
    })
    assert main(["eval", "--config", cfg]) == 3


def test_trace_shorter_than_one_window_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": THREE_STATE,
        "trace": {"generate": {"cycles": 50, "seed": 0}},
        "strategy": {"name": "stat_optimal", "eta": 0.1},
    })
    assert main(["eval", "--config", cfg, "--window", "100"]) == 3
    assert "single window of 100 cycles" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg, "--eta", "0.1", "--simulate"]) == 3
    assert main(["eval", "--config", cfg, "--window", "50",
                 "--out", str(tmp_path / "r.csv")]) == 0


def test_round_trip_generate_then_fit(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"rates": [160.0, 3670.0], "weights": [0.32, 0.68]},
        "trace": {"generate": {"cycles": 100_000, "seed": 8}},
    })
    trace = tmp_path / "round.trace"
    main(["generate", "--config", cfg, "--out", str(trace)])
    report = tmp_path / "roundfit.csv"
    assert main(["fit", str(trace), "--components", "2", "--out", str(report)]) == 0
    _, rows = read_table(report)
    fields = {r["field"]: r["value"] for r in rows}
    assert float(fields["lambda_1"]) == pytest.approx(160.0, rel=0.10)
    assert float(fields["lambda_2"]) == pytest.approx(3670.0, rel=0.10)
    assert float(fields["alpha_1"]) == pytest.approx(0.32, abs=0.05)


def test_robustness_sweep_strategy_list(tmp_path):
    cfg = {"model": {"rates": [100.0, 6000.0], "weights": [0.5, 0.5]},
           "strategy": {"eta": 0.1},
           "sweep": {"true_weights": [[0.5, 0.5]], "cycles": 1000}}

    def names(strategies, *flags):
        report = tmp_path / "robust.csv"
        sweep = {**cfg["sweep"], "strategies": strategies}
        config = write_config(tmp_path, {**cfg, "sweep": sweep})
        code = main(["sweep", "--config", config, "--out", str(report), *flags])
        return [r["strategy"] for r in read_table(report)[1]] if code == 0 else code

    assert names("stat_optimal,multiple_shot") == ["stat_optimal", "multiple_shot"]
    assert names(["multiple_shot"]) == ["multiple_shot"]
    # --ptsi filters sweep.strategies like every other strategy list
    assert names(["stat_optimal", "markov_optimal"], "--ptsi", "stat") == ["stat_optimal"]
    assert names(["stat_optimal"], "--ptsi", "markov") == 2
    assert names(["stat_optimal"], "--strategy", "multiple_shot") == ["multiple_shot"]


def test_fit_group_size_zero_is_refused(tmp_path, capsys):
    trace = tmp_path / "short.trace"
    trace.write_text("\n".join(["0.01", "0.02"] * 50) + "\n")
    assert main(["fit", str(trace), "--group-size", "0"]) == 3
    assert "group_size must be >= 20" in capsys.readouterr().err


@pytest.mark.parametrize("components", ["0", "-1"])
def test_fit_nonpositive_components_is_a_config_error(tmp_path, capsys, components):
    trace = tmp_path / "short.trace"
    trace.write_text("\n".join(["0.01", "0.02"] * 50) + "\n")
    for extra in ([], ["--group-size", "0"]):
        assert main(["fit", str(trace), "--components", components] + extra) == 2
        assert "n_components must be >= 1" in capsys.readouterr().err


EXPERIMENT_FLAGS = {"--out", "--config", "--seed", "--eta", "--epsilon", "--window",
                    "--ptsi", "--strategy"}
COMMAND_FLAGS = {
    "generate": {"--out", "--config", "--seed"},
    "fit": {"--out", "--components", "--group-size"},
    "diagnose": {"--out"},
    "eval": EXPERIMENT_FLAGS | {"--windows"},
    "compare": EXPERIMENT_FLAGS,
    "sweep": EXPERIMENT_FLAGS | {"--simulate"},
}
UNREAD_FLAGS = {
    "generate": ("--eta", "--epsilon", "--window", "--ptsi", "--strategy"),
    "fit": ("--config", "--seed", "--eta", "--epsilon", "--window", "--ptsi", "--strategy"),
    "diagnose": ("--config", "--seed", "--eta", "--epsilon", "--window", "--ptsi",
                 "--strategy"),
}


def test_each_command_takes_only_the_flags_it_reads():
    commands = make_parser()._subparsers._group_actions[0].choices
    assert set(commands) == set(COMMAND_FLAGS)
    for name, parser in commands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == COMMAND_FLAGS[name], name


# a value each flag would accept where it is read
FLAG_VALUES = {"--config": "cfg.json", "--seed": "3", "--eta": "0.1", "--epsilon": "0.01",
               "--window": "10", "--ptsi": "stat", "--strategy": "all"}


@pytest.mark.parametrize("command,flag", [(c, f) for c, flags in UNREAD_FLAGS.items()
                                          for f in flags])
def test_unread_flags_are_refused(command, flag, tmp_path, capsys):
    args = {"generate": ["--config", "cfg.json"]}.get(command, [str(tmp_path / "x.trace")])
    with pytest.raises(SystemExit) as exc:
        main([command, *args, flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# Fuzzed configs: one key of a working config (or an element of one of its
# lists, or the whole config) is replaced by a value of the wrong shape.
# Cycle counts stay at most 200, so no draw can ask for a large trace.
FUZZ_TRACE = {"generate": {"cycles": 200, "seed": 1}}
FUZZ_STRATEGY = {"name": "stat_optimal", "eta": 0.1, "epsilon": 0.001}
FUZZ_EVAL = {"window": 50, "seed": 0}
FUZZ_BASES = (
    ("generate", {"model": THREE_STATE, "trace": FUZZ_TRACE}),
    ("generate", {"model": {"schedule": [{"cycles": 100, "model": MIXTURE},
                                         {"cycles": 100, "model": THREE_STATE}]},
                  "trace": FUZZ_TRACE}),
    ("eval", {"model": THREE_STATE, "trace": FUZZ_TRACE, "strategy": FUZZ_STRATEGY,
              "eval": FUZZ_EVAL}),
    ("eval", {"model": {"schedule": [{"cycles": 100, "model": MIXTURE}]}, "design": MIXTURE,
              "trace": FUZZ_TRACE, "strategy": {**FUZZ_STRATEGY, "name": "multiple_shot"},
              "eval": FUZZ_EVAL}),
    ("compare", {"model": THREE_STATE, "trace": FUZZ_TRACE, "eval": FUZZ_EVAL,
                 "strategy": {**FUZZ_STRATEGY,
                              "name": "multiple_shot,markov_os_balanced,full_optimal"}}),
    ("sweep", {"model": THREE_STATE, "trace": FUZZ_TRACE, "eval": FUZZ_EVAL,
               "strategy": {**FUZZ_STRATEGY, "name": "stat_one_shot,markov_optimal"},
               "sweep": {"etas": [0.05, 0.1], "simulate": True}}),
    ("sweep", {"design": MIXTURE, "strategy": {"eta": 0.1, "epsilon": 0.001},
               "eval": FUZZ_EVAL,
               "sweep": {"true_weights": [[0.5, 0.5], [0.9, 0.1]], "cycles": 200,
                         "strategies": ["stat_optimal", "multiple_shot"]}}),
)
FUZZ_VALUES = (None, True, "x", "7", [], {}, [{}], 1.5, -1, 0)


def _key_paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _key_paths(child, prefix + (key,))


FUZZ_CASES = [(command, cfg, path) for command, cfg in FUZZ_BASES
              for path in _key_paths(cfg)]


@settings(max_examples=50)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(FUZZ_VALUES))
def test_fuzzed_config_never_escapes(case, value, tmp_path_factory):
    command, cfg, path = case
    if path:
        cfg = copy.deepcopy(cfg)
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        cfg = value
    workdir = tmp_path_factory.mktemp("fuzz")
    config = write_config(workdir, cfg)
    assert main([command, "--config", config, "--out", str(workdir / "out")]) in (0, 2, 3, 4)
