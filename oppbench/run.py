"""oppaccess benchmark: the CLI's three workloads, checked and timed.

Run from the root of a checkout:

    python3 oppbench/run.py --workload {evaluate,capture,sweep} --seed N \\
        --seconds S --trace {0,1} [--smoke] [--profile]

Every command goes through `oppaccess.cli.main(argv)` in this process. The
inputs come from the benchmark's own code and the seed. A run does timed
passes of the workload's command sequence until `--seconds` have been
measured (at least MIN_PASSES), then checks the outputs; a non-zero exit, a
failed check, or a pass whose output bytes differ from the first pass's
counts as a failed operation.

--trace 0 prints the end-to-end metrics: `wall_s` (median pass time),
`setup_s` (median over fresh processes that each import `oppaccess` and
write the inputs, SETUPS_PER_PASS of them before every pass, plus this
process's own set-up) and `peak_rss_mb` (this process's peak resident
memory, read before the checks). --trace 1 alternates untraced and traced
passes (see tracing.py), prints the per-layer metrics of the median traced
pass and the tracing overhead (median traced minus median untraced pass),
and writes the spans to oppbench/results/. --profile adds one untimed pass
under cProfile after the checks and writes its top 20 functions. --smoke
runs tiny sizes for the benchmark's own test.

The last line of stdout is the result object. The line before it, also
written to oppbench/results/, records the seed, Python and numpy versions,
nproc, git sha, pass count and times, input and output sha256 digests and
any failed operations.
"""

import os

# Pinned before numpy is imported here or in the set-up processes, which
# inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("evaluate", "capture", "sweep")
MIN_PASSES = 3
SETUPS_PER_PASS = 2
SETUP_TIMEOUT_S = 60
PROFILE_TOP = 20


def import_program():
    """Import `oppaccess` from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import oppaccess
    from oppaccess import cli

    if Path(oppaccess.__file__).resolve().parent != SRC / "oppaccess":
        raise ImportError(f"oppaccess imported from {oppaccess.__file__}, not {SRC}")
    return cli


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_once(workload: str, seed: int, smoke: bool, workdir: Path) -> float:
    """Body of one set-up process: import the program, write the inputs."""
    start = time.perf_counter()
    import_program()
    import workloads

    workloads.get(workload, smoke).write_inputs(workdir, seed)
    return time.perf_counter() - start


def timed_setups(args, count: int) -> list[float]:
    """setup_s samples, each from a fresh interpreter."""
    samples = []
    for _ in range(count):
        workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}-setup"
        workdir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(workdir),
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S, check=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


class Runner:
    """Runs passes of one workload in a work directory and tallies operations."""

    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[dict[str, str]] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def run_pass(self, tracer=None) -> float:
        """One pass of the command sequence; returns its wall time."""
        gc.collect()
        start = time.perf_counter()
        for argv in self.workload.commands():
            self.attempted += 1
            try:
                code = tracer.command(self.cli.main, argv) if tracer else self.cli.main(argv)
            except Exception:  # noqa: BLE001 - an escaped exception is a failed command
                traceback.print_exc()
                code = "exception"
            if code != 0:
                self.fail(f"command {' '.join(argv)} exited with {code}")
        wall = time.perf_counter() - start
        self.digests.append({name: sha256(self.workdir / name)
                             for name in self.workload.outputs
                             if (self.workdir / name).exists()})
        return wall

    def compare_digests(self) -> None:
        """Every pass must reproduce the first pass's output bytes."""
        first = self.digests[0]
        for k, later in enumerate(self.digests[1:], start=1):
            for name in self.workload.outputs:
                self.attempted += 1
                if name not in first or later.get(name) != first[name]:
                    self.fail(f"pass {k} output {name} differs from pass 0")

    def check(self, seed: int) -> dict:
        try:
            checks, info = self.workload.check(self.workdir, seed)
        except Exception:  # noqa: BLE001 - unreadable outputs fail the check step
            traceback.print_exc()
            self.attempted += 1
            self.fail("output checks raised")
            return {}
        for c in checks:
            self.attempted += 1
            if not c.passed:
                self.fail(f"check {c.name}: {c.detail}")
        return info


def profile_pass(runner: Runner, path: Path) -> None:
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.runcall(lambda: [runner.cli.main(argv) for argv in runner.workload.commands()])
    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(PROFILE_TOP)
    path.write_text(out.getvalue())
    sys.stderr.write(out.getvalue())


def measure(args) -> tuple[dict, dict, int, int]:
    """Run the workload; returns (metrics, record, attempted, failed)."""
    setup_samples = []

    def sample_setups():
        # Spread between the passes, so set-up samples and pass times see
        # the same mix of the host's fast and slow phases.
        if not args.trace:
            setup_samples.extend(timed_setups(args, SETUPS_PER_PASS))

    sample_setups()
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        cli = import_program()
        import numpy
        import tracing
        import workloads

        workload = workloads.get(args.workload, args.smoke)
        workload.write_inputs(workdir, args.seed)
        setup_samples.append(time.perf_counter() - start)
        runner = Runner(cli, workload, workdir)
        tracer = tracing.Tracer()
        untraced, traced, layers = [], [], []
        here = os.getcwd()
        os.chdir(workdir)
        try:
            measured = 0.0
            # A traced run measures untraced/traced pairs; one pair already
            # gives two passes to compare output bytes across.
            while measured < args.seconds or len(untraced) < (1 if args.trace else MIN_PASSES):
                if untraced:
                    sample_setups()
                untraced.append(runner.run_pass())
                measured += untraced[-1]
                if args.trace:
                    with tracer.installed(cli) as wrapped:
                        traced.append(runner.run_pass(tracer))
                    layers.append(tracing.layer_metrics(tracer.spans, tracer.traced_pass))
                    measured += traced[-1]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            runner.compare_digests()
            info = runner.check(args.seed)
            if args.profile:
                RESULTS.mkdir(exist_ok=True)
                profile_pass(runner, RESULTS / f"profile-{args.workload}-seed{args.seed}.txt")
        finally:
            os.chdir(here)
        input_digests = {n: sha256(workdir / n) for n in workload.inputs}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "passes": len(untraced), "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "setup_samples_s": setup_samples, "input_sha256": input_digests,
        "output_sha256": runner.digests[0], "checks": info, "failures": runner.failures,
    }
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        tracer.dump(RESULTS / f"spans-{tag}.json")
        record["wrapped"] = wrapped
        median_pass = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
        values = dict(layers[median_pass])
        values["trace.untraced_wall_s"] = statistics.median(untraced)
        values["trace.traced_wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
        units = dict(tracing.LAYER_UNITS, **dict.fromkeys(
            ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s"), "s"))
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    (RESULTS / f"record-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return metrics, record, runner.attempted, len(runner.failures)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per run (at least %d passes)" % MIN_PASSES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--profile", action="store_true",
                        help="after the checks, profile one pass and write the top 20")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            seconds = setup_once(args.workload, args.seed, args.smoke, Path(args.setup_only))
            print(json.dumps({"setup_s": seconds}))
            return 0
        metrics, record, attempted, failed = measure(args)
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
