"""Golden outputs: every strategy schedule and four CLI reports, compared
exactly (`==` on floats, bytes on reports) against files recorded from the
code before the strategy constructions were rebuilt on shared kernels; one
digest per (model, eta) of all nine schedules on 60 random 2-5-state models,
recorded from the code before the experiment commands shared one report; the
plain and the windowed `fit` report of a drifting capture, recorded from the
row-major, group-by-group EM; and sha256 digests of generated traces (per
model, size and seed) and of trace files, recorded from the per-cycle
generator and line-by-line trace I/O.
The generator's output per seed is a compatibility contract: every report
claims to be reproducible from its embedded config and seed.

Rewrite the files after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

which prints, before it writes, how the new outputs differ from the
recorded ones: per changed schedule the largest absolute and relative
change of each field, every change of structure (episode counts, infinite
or zero values, raised error types), each random (model, eta) whose
schedules moved, changed report lines and changed trace digests. A change that moves bits commits the new files with that
diff and the bound it holds; the tests themselves keep comparing exactly.
"""

import difflib
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from oppaccess import (
    HyperExpDist,
    IdleTrace,
    NonstationarySchedule,
    SmmppModel,
    full_balanced,
    full_optimal,
    generate,
    generate_nonstationary,
    markov_opt_balanced,
    markov_optimal,
    markov_os_balanced,
    markov_os_suboptimal,
    multiple_shot,
    read_trace,
    stat_one_shot,
    stat_optimal,
    write_trace,
)
from oppaccess.cli import main
from oppaccess.errors import OppaccessError

from conftest import THREE_STATE_P, THREE_STATE_RATES, TWO_RATE_RATES, TWO_RATE_WEIGHTS

GOLDEN = Path(__file__).parent / "golden"
ETAS = (0.01, 0.05, 0.1)
MODELS = {
    "three_state": (THREE_STATE_RATES, THREE_STATE_P),
    "two_state": ([100.0, 6000.0], [[0.9, 0.1], [0.1, 0.9]]),
    # test_markov_optimal_threshold_tie_on_deterministic_row
    "tie": ([10.0, 1000.0], [[0.0, 1.0], [0.3, 0.7]]),
    # test_markov_optimal_budget_below_constant_row_mass
    "atom": ([10.0, 1000.0], [[0.9, 0.1], [1.0, 0.0]]),
}
# the budget the tie test uses, on top of ETAS
EXTRA_ETAS = {"tie": (0.9,)}
CONSTRUCTORS = (
    ("stat_one_shot", lambda model, eta: stat_one_shot(model.marginal_dist(), eta)),
    ("stat_optimal", lambda model, eta: stat_optimal(model.marginal_dist(), eta)),
    ("multiple_shot", lambda model, eta: multiple_shot(model.rates, eta)),
    ("markov_os_balanced", markov_os_balanced),
    ("markov_os_suboptimal", markov_os_suboptimal),
    ("markov_opt_balanced", markov_opt_balanced),
    ("markov_optimal", markov_optimal),
    ("full_balanced", full_balanced),
    ("full_optimal", full_optimal),
)
FIXTURE = {"rates": THREE_STATE_RATES.tolist(), "transition": THREE_STATE_P.tolist()}
TRACE = {"generate": {"cycles": 2000, "seed": 11}}
REPORTS = {
    "eval": ({"model": FIXTURE, "trace": TRACE,
              "strategy": {"name": "markov_optimal", "eta": 0.05},
              "eval": {"window": 50, "seed": 3}},
             ["eval"]),
    "compare": ({"model": FIXTURE, "trace": TRACE, "eval": {"seed": 4}},
                ["compare", "--eta", "0.1", "--strategy", "all"]),
    "sweep_simulate": ({"model": FIXTURE, "trace": TRACE, "eval": {"seed": 5}},
                       ["sweep", "--eta", "0.01,0.05,0.1", "--strategy", "all",
                        "--simulate"]),
    "sweep_robustness": ({"model": FIXTURE, "strategy": {"eta": 0.05},
                          "sweep": {"true_weights": [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]],
                                    "cycles": 2000,
                                    "strategies": ["stat_one_shot", "stat_optimal",
                                                   "multiple_shot", "always_transmit"]}},
                         ["sweep", "--seed", "6"]),
}

# `fit` reports on the capture `drift_capture` writes; the report header
# names the trace, so the command runs inside the work directory
FIT_REPORTS = {
    "fit": ["fit", "drift.trace", "--components", "3"],
    "fit_windowed": ["fit", "drift.trace", "--components", "3", "--group-size", "1000"],
}


# sizes on both sides of the generator's block and chunk edges
GENERATOR_SIZES = (1, 1023, 1024, 1025, 65537, 1_000_000)
GENERATOR_SEEDS = (3, 7)
GENERATOR_MODELS = {
    "three_state": lambda: SmmppModel(THREE_STATE_RATES, THREE_STATE_P),
    "five_state": lambda: SmmppModel(
        [2.0, 20.0, 200.0, 2000.0, 20000.0],
        [[0.8 if i == j else 0.05 for j in range(5)] for i in range(5)]),
    "mixture": lambda: SmmppModel.from_mixture(HyperExpDist(TWO_RATE_WEIGHTS, TWO_RATE_RATES)),
    "tie": lambda: SmmppModel([10.0, 1000.0], [[0.0, 1.0], [0.3, 0.7]]),
}


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _trace_sha(trace: IdleTrace) -> str:
    states = b"" if trace.states is None else trace.states.astype("<i8").tobytes()
    return _sha(trace.durations.astype("<f8").tobytes(), states,
                repr(trace.boundaries).encode())


def _schedule_trace() -> IdleTrace:
    """A mixture segment, then a Markov one, then the mixture again; the
    first switch falls on a multiple of 1024 cycles."""
    mixture = HyperExpDist(np.array([0.5, 0.3, 0.2]), THREE_STATE_RATES)
    model = SmmppModel(THREE_STATE_RATES, THREE_STATE_P)
    schedule = NonstationarySchedule(((65536, mixture), (1000, model), (3464, mixture)))
    return generate_nonstationary(schedule, seed=5)


def trace_digests(workdir: Path) -> dict:
    """sha256 of generated arrays, of written trace files and of the arrays
    read back from them."""
    out = {}
    for name, make in GENERATOR_MODELS.items():
        model = make()
        for n in GENERATOR_SIZES:
            for seed in GENERATOR_SEEDS:
                out[f"generate/{name}/{n}/{seed}"] = _trace_sha(generate(model, n, seed))
    labelled = _schedule_trace()
    out["generate_nonstationary"] = _trace_sha(labelled)
    unlabelled = IdleTrace(generate(GENERATOR_MODELS["three_state"](), 70_000, 9).durations)
    for name, trace, header in (("labelled", labelled, ["# note: golden"]),
                                ("unlabelled", unlabelled, None)):
        path = workdir / f"{name}.trace"
        write_trace(trace, path, extra_header=header)
        out[f"write_trace/{name}"] = _sha(path.read_bytes())
        out[f"read_trace/{name}"] = _trace_sha(read_trace(path))
    return out


def test_generate_plays_a_mixture_as_its_iid_state_model():
    # the `generate/mixture/*` digests were recorded on SmmppModel.from_mixture
    expected = json.loads((GOLDEN / "traces.json").read_text())
    mixture = HyperExpDist(TWO_RATE_WEIGHTS, TWO_RATE_RATES)
    for n in GENERATOR_SIZES:
        for seed in GENERATOR_SEEDS:
            digest = _trace_sha(generate(mixture, n, seed))
            assert digest == expected[f"generate/mixture/{n}/{seed}"], (n, seed)


def schedule_records() -> dict:
    out = {}
    for model_name, (rates, transition) in MODELS.items():
        model = SmmppModel(np.array(rates, dtype=float), np.array(transition, dtype=float))
        for eta in ETAS + EXTRA_ETAS.get(model_name, ()):
            for name, construct in CONSTRUCTORS:
                try:
                    record = construct(model, eta).to_record()
                except OppaccessError as exc:
                    record = {"error": type(exc).__name__}
                out[f"{model_name}/{eta!r}/{name}"] = record
    return out


RANDOM_ETAS = (0.01, 0.1, 0.5)


def draw_random_models(n: int = 60, seed: int = 2026) -> list[dict]:
    """`n` 2-5-state models shaped like `spread_models` in test_strategies:
    rates over 1-4 decades, a ring of positive transitions plus small
    integer weights. Drawn once, when the golden file is first recorded;
    the file keeps them, so the digests do not depend on an RNG stream."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n):
        k = int(rng.integers(2, 6))
        decades = rng.uniform(1.0, 4.0)
        exponents = decades * np.concatenate(([0.0, 1.0], rng.uniform(0.01, 0.99, k - 2)))
        weights = rng.integers(0, 4, (k, k)).astype(float)
        weights[np.arange(k), (np.arange(k) + 1) % k] += 1.0
        models.append({"rates": (rng.uniform(0.5, 50.0) * 10.0 ** exponents).tolist(),
                       "transition": (weights / weights.sum(axis=1, keepdims=True)).tolist()})
    return models


def random_schedule_digests(models: list[dict]) -> dict:
    """sha256 per (model index, eta) of the nine schedule records (or raised
    error types), as `json.dumps` writes them: floats by repr."""
    out = {}
    for i, spec in enumerate(models):
        model = SmmppModel(np.array(spec["rates"]), np.array(spec["transition"]))
        for eta in RANDOM_ETAS:
            records = []
            for _, construct in CONSTRUCTORS:
                try:
                    records.append(construct(model, eta).to_record())
                except OppaccessError as exc:
                    records.append({"error": type(exc).__name__})
            out[f"{i}/{eta!r}"] = _sha(json.dumps(records).encode())
    return out


def _key_changes(key: str, old: dict, new: dict, largest: dict) -> list[str]:
    """How schedule record `new` differs from `old`: one line per change of
    structure, then the largest absolute and relative change of each field,
    which also raise the running maxima in `largest`."""
    if "error" in old or "error" in new or old["mode"] != new["mode"]:
        return [f"{key}: {old.get('error') or old['mode']} -> {new.get('error') or new['mode']}"]
    counts = ([len(ctx) for ctx in old["contexts"]], [len(ctx) for ctx in new["contexts"]])
    if counts[0] != counts[1]:
        return [f"{key}: episode counts {counts[0]} -> {counts[1]}"]
    lines, mine = [], {}
    for c, (ctx_old, ctx_new) in enumerate(zip(old["contexts"], new["contexts"])):
        for e, (ep_old, ep_new) in enumerate(zip(ctx_old, ctx_new)):
            for field, x in ep_old.items():
                y = ep_new[field]
                if x == y:
                    continue
                if x is None or y is None or 0.0 in (x, y):  # None is an infinite end
                    lines.append(f"{key}: context {c} episode {e} {field} {x!r} -> {y!r}")
                    continue
                for table in (mine, largest):
                    abs_max, rel_max = table.get(field, (0.0, 0.0))
                    table[field] = (max(abs_max, abs(y - x)), max(rel_max, abs(y - x) / abs(x)))
    return lines + _largest_lines(key, mine)


def _largest_lines(what: str, largest: dict) -> list[str]:
    return [f"{what}: {field} max abs {a:.3g}, max rel {r:.3g}"
            for field, (a, r) in sorted(largest.items())]


def golden_diff(name: str, old: bytes, new: bytes) -> list[str]:
    """Lines describing how the golden file `name` would change."""
    if old == new:
        return []
    if name.endswith(".csv"):
        return [f"{name}: {line}" for line in difflib.unified_diff(
            old.decode().splitlines(), new.decode().splitlines(), lineterm="", n=0)
            if line[:1] in "+-" and line[:3] not in ("+++", "---")]
    old_rec, new_rec = json.loads(old), json.loads(new)
    if name == "schedules_random.json":
        # the models stay as first recorded; each moved (model, eta) is named
        old_rec, new_rec = old_rec.get("digests", {}), new_rec["digests"]
    lines = [f"{name}: removed {key}" for key in sorted(old_rec.keys() - new_rec.keys())]
    lines += [f"{name}: added {key}" for key in sorted(new_rec.keys() - old_rec.keys())]
    changed = [key for key in sorted(old_rec.keys() & new_rec.keys())
               if old_rec[key] != new_rec[key]]
    if name != "schedules.json":
        return lines + [f"{name}: changed {key}" for key in changed]
    largest = {}
    for key in changed:
        lines += [f"{name}: {line}" for line in
                  _key_changes(key, old_rec[key], new_rec[key], largest)]
    summary = f"{len(changed)} of {len(new_rec)} keys changed, all fields"
    return lines + [f"{name}: {line}" for line in _largest_lines(summary, largest)]


def drift_capture() -> IdleTrace:
    """60k unlabelled draws of the three-rate mixture, its weights moving
    from (0.5, 0.3, 0.2) to (0.2, 0.3, 0.5) over six segments."""
    segments = tuple((10_000, HyperExpDist(np.array(weights), THREE_STATE_RATES))
                     for weights in np.linspace([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], 6))
    return IdleTrace(generate_nonstationary(NonstationarySchedule(segments), seed=13).durations)


def report_bytes(name: str, workdir: Path) -> bytes:
    if name in FIT_REPORTS:
        write_trace(drift_capture(), workdir / "drift.trace")
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            assert main(FIT_REPORTS[name] + ["--out", f"{name}.csv"]) == 0
        finally:
            os.chdir(cwd)
        return (workdir / f"{name}.csv").read_bytes()
    cfg, argv = REPORTS[name]
    config = workdir / f"{name}.json"
    config.write_text(json.dumps(cfg))
    out = workdir / f"{name}.csv"
    assert main(argv + ["--config", str(config), "--out", str(out)]) == 0
    return out.read_bytes()


def test_schedules_match_golden_records():
    expected = json.loads((GOLDEN / "schedules.json").read_text())
    actual = schedule_records()
    assert sorted(actual) == sorted(expected)
    for key, record in actual.items():
        assert record == expected[key], key


def test_random_model_schedules_match_golden_digests():
    expected = json.loads((GOLDEN / "schedules_random.json").read_text())
    actual = random_schedule_digests(expected["models"])
    assert sorted(actual) == sorted(expected["digests"])
    assert [key for key, digest in actual.items() if digest != expected["digests"][key]] == []


@pytest.mark.parametrize("name", sorted(REPORTS) + sorted(FIT_REPORTS))
def test_cli_report_matches_golden_bytes(name, tmp_path):
    assert report_bytes(name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


def test_trace_digests_match_golden(tmp_path):
    expected = json.loads((GOLDEN / "traces.json").read_text())
    actual = trace_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    for key, digest in actual.items():
        assert digest == expected[key], key


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"schedules.json": (json.dumps(schedule_records(), indent=1) + "\n").encode()}
        random_path = GOLDEN / "schedules_random.json"
        models = (json.loads(random_path.read_text())["models"] if random_path.exists()
                  else draw_random_models())
        files["schedules_random.json"] = (json.dumps(
            {"models": models, "digests": random_schedule_digests(models)}, indent=1) + "\n").encode()
        files.update((f"{report}.csv", report_bytes(report, Path(tmp)))
                     for report in (*REPORTS, *FIT_REPORTS))
        files["traces.json"] = (json.dumps(trace_digests(Path(tmp)), indent=1) + "\n").encode()
    for name, content in files.items():
        path = GOLDEN / name
        old = path.read_bytes() if path.exists() else b"{}" if name.endswith(".json") else b""
        print("\n".join(golden_diff(name, old, content) or [f"{name}: unchanged"]))
        path.write_bytes(content)
