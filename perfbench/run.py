#!/usr/bin/env python3
"""Benchmark of hyperon's batch workflows, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; hyperon is imported from ./src and the
run writes only under ./.perfbench.  Workloads (one client, closed loop:
one step at a time, at most nproc threads inside mc.generate):

  pair-file     simulate 1M singlet pairs to a CSV file, then `analyze
                witness` and `analyze correlations` on it
  generate-mem  mc.generate on 1M events of three models at workers=1,
                then at workers=nproc, then pairing and both estimators
  bell-reports  bell --threshold and bell --k 0.46 for I2, I3 and I4, then
                the table, context and complementarity reports
  all           the three in turn, printing every workload's named metrics

--trace 0 measures what a user sees: every step is a fresh child process
(`python -m hyperon.cli ...`, or perfbench/genmem.py), timed by wall clock
with its own peak RSS from os.wait4.  A run makes one pass, and another
while one more fits in --seconds; generate-mem repeats its rounds inside
one child for --seconds.  Each metric is the median over passes or rounds.

--trace 1 runs the steps of all three workloads in-process with spans
around the layers' public functions (perfbench/tracing.py) and prints the
per-layer metrics.  It also runs the chosen workload's steps in-process
untraced, for trace.overhead_ratio.

Every output is checked (perfbench/checks.py).  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
perfbench/README.md defines each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

WORKLOADS = ("pair-file", "generate-mem", "bell-reports")
INEQUALITIES = ("I2", "I3", "I4")
MODELS = ("single", "pair", "cascade")
EVENTS = 1_000_000
K = checks.K
NPROC = os.cpu_count() or 1
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
REPORT_REPEATS = 2  # the cheap reports are short, so report_s takes more samples
RUN_BUDGET_S = 170.0  # a run must end within 180 s
# Bounded: the pass time and the stage RSS.  Stage times are printed under
# their workflow names but not bounded: on a shared 2-core host one 5-12 s
# step reads 15-30% apart from run to run, a whole pass about half that.
END_TO_END = ("wall_s", "stage1_rss_mb", "stage2_rss_mb", "stage3_rss_mb")
SETUP_CODE = "import hyperon.cli; hyperon.cli.build_parser()"


@dataclass
class Step:
    name: str
    stage: int
    argv: list[str]  # hyperon CLI arguments
    check: Callable[[str], None]  # raises checks.CheckFailed given stdout


@dataclass
class Outcome:
    name: str
    stage: int
    wall_s: float
    rss_mb: float
    failure: str | None


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return max(self.deadline - time.monotonic(), 0.0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("HYPERON_PARAMS", None)  # the bundled parameter table
    return env


def run_child(cmd: list[str], timeout: float) -> tuple[float, float, int, bool, str, str]:
    """Run cmd to completion: (wall s, peak RSS MB, exit code, timed out, stdout, stderr).

    The peak RSS is this child's own, from os.wait4; RUSAGE_CHILDREN would
    carry the largest peak of every child reaped before it.
    """
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_maxrss * 1024 / 1e6,
        proc.returncode,
        not ready,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


def _judge(code, timed_out: bool, stderr: str, check: Callable[[], None]) -> str | None:
    """The reason a step failed, or None."""
    if timed_out:
        return "timed out"
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    if "Traceback" in stderr:
        return f"traceback: {stderr.strip()[-300:]}"
    try:
        check()
    except checks.CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"
    return None


# ---------------------------------------------------------------------------
# workloads


def pair_file_steps(seed: int, events_path: Path) -> list[Step]:
    path = str(events_path)
    return [
        Step("simulate", 1,
             ["simulate", "pair", "--k", f"{K:g}", "--events", str(EVENTS),
              "--seed", str(seed), "--out", path],
             lambda out: checks.event_file(events_path, 2 * EVENTS)),
        Step("analyze_witness", 2, ["analyze", "witness", "--events", path],
             lambda out: checks.witness_report(out, EVENTS)),
        Step("analyze_correlations", 3, ["analyze", "correlations", "--events", path],
             lambda out: checks.correlations_report(out, EVENTS)),
    ]


def bell_steps(seed: int, repeats: int) -> list[Step]:
    s = ["--seed", str(seed)]
    steps = [
        Step(f"threshold/{i}", 1, ["bell", "--inequality", i, "--threshold", *s],
             functools.partial(checks.threshold_report, name=i))
        for i in INEQUALITIES
    ]
    steps += [
        Step(f"maximize/{i}", 2, ["bell", "--inequality", i, "--k", f"{K:g}", *s],
             functools.partial(checks.maximum_report, name=i, k=K))
        for i in INEQUALITIES
    ]
    reports = [
        Step("table", 3, ["table", *s], checks.table_report),
        Step("context", 3, ["context", "--alpha", "0.75", "--alphabar", "0.75", *s],
             functools.partial(checks.context_report, alpha=0.75, alphabar=0.75)),
        Step("complementarity", 3, ["complementarity", "--theta", "1.0472", *s],
             checks.complementarity_report),
    ]
    return steps + reports * repeats


def cli_steps(workload: str, seed: int, events_path: Path, repeat: bool) -> list[Step]:
    """The workload's CLI steps; `repeat` runs the cheap reports several times."""
    if workload == "pair-file":
        return pair_file_steps(seed, events_path)
    return bell_steps(seed, REPORT_REPEATS if repeat else 1)


def stage_metrics(outcomes: list[Outcome], workload: str) -> dict[str, float]:
    """stageN_s and stageN_rss_mb of one pass of a CLI workload.

    A stage's time is the sum of its steps' wall times, except the cheap
    reports of bell-reports (stage 3), which take the median over all their
    children; its RSS is the largest peak among its children.  wall_s sums
    every step's median wall time.
    """
    out = {"wall_s": sum(
        statistics.median(o.wall_s for o in outcomes if o.name == name)
        for name in dict.fromkeys(o.name for o in outcomes)
    )}
    for stage in (1, 2, 3):
        times = [o.wall_s for o in outcomes if o.stage == stage]
        combine = statistics.median if (workload, stage) == ("bell-reports", 3) else sum
        out[f"stage{stage}_s"] = combine(times)
        out[f"stage{stage}_rss_mb"] = max(o.rss_mb for o in outcomes if o.stage == stage)
    return out


def cli_pass(workload: str, seed: int, budget: Budget) -> tuple[dict, list[Outcome]]:
    events_path = OUT / f"events-{seed}.csv"
    outcomes = []
    try:
        for step in cli_steps(workload, seed, events_path, repeat=True):
            wall, rss, code, timed_out, stdout, stderr = run_child(
                [sys.executable, "-m", "hyperon.cli", *step.argv], budget.left()
            )
            failure = _judge(code, timed_out, stderr, lambda: step.check(stdout))
            outcomes.append(Outcome(step.name, step.stage, wall, rss, failure))
    finally:
        events_path.unlink(missing_ok=True)
    return stage_metrics(outcomes, workload), outcomes


def genmem_pass(seed: int, seconds: float, budget: Budget) -> tuple[dict, list[Outcome]]:
    """One genmem.py child that repeats rounds for `seconds`; stage times are medians."""
    wall, rss, code, timed_out, stdout, stderr = run_child(
        [sys.executable, str(HERE / "genmem.py"), "--seed", str(seed), "--workers", str(NPROC),
         "--seconds", str(seconds)],
        budget.left(),
    )
    rounds = []

    def check():
        rounds.extend(json.loads(stdout.strip().splitlines()[-1])["rounds"])
        failures = [f for r in rounds for f in r["failures"]]
        if failures:
            raise checks.CheckFailed("; ".join(dict.fromkeys(failures)))

    failure = _judge(code, timed_out, stderr, check)
    metrics = {}
    if rounds:
        for i in range(3):
            metrics[f"stage{i + 1}_s"] = statistics.median(r["stage_s"][i] for r in rounds)
            # peak so far, so only the first round tells the stages apart
            metrics[f"stage{i + 1}_rss_mb"] = rounds[0]["rss_mb"][i]
        metrics["stage3_rss_mb"] = rss  # whole-child peak, from os.wait4
        metrics["wall_s"] = sum(metrics[f"stage{i + 1}_s"] for i in range(3))
    return metrics, [Outcome(f"generate-mem ({len(rounds)} rounds)", 0, wall, rss, failure)]


def measure_setup(budget: Budget) -> tuple[float, list[Outcome]]:
    """Median wall time of a fresh interpreter importing the CLI (after one warm-up)."""
    outcomes = []
    for _ in range(SETUP_SAMPLES + 1):
        wall, rss, code, timed_out, _, stderr = run_child(
            [sys.executable, "-c", SETUP_CODE], min(budget.left(), 60.0)
        )
        failure = _judge(code, timed_out, stderr, lambda: None)
        outcomes.append(Outcome("setup", 0, wall, rss, failure))
    return statistics.median(o.wall_s for o in outcomes[1:]), outcomes


def end_to_end(workload: str, seed: int, seconds: float, budget: Budget) -> tuple[dict, list[Outcome], int]:
    """Stage metrics of one workload, each the median over its passes."""
    start = time.monotonic()
    passes: list[dict] = []
    outcomes: list[Outcome] = []
    last = 0.0
    # start a pass only if it should end within `seconds` and the run budget
    while not outcomes or (time.monotonic() - start + last <= seconds and budget.left() > 2.0 * last):
        t0 = time.monotonic()
        if workload == "generate-mem":
            metrics, done = genmem_pass(seed, seconds, budget)
        else:
            metrics, done = cli_pass(workload, seed, budget)
        last = time.monotonic() - t0
        outcomes += done
        if metrics:
            passes.append(metrics)
    merged = {name: statistics.median(p[name] for p in passes) for name in (passes[0] if passes else {})}
    return merged, outcomes, len(passes)


def named_metrics(workload: str, m: dict) -> dict[str, tuple[float, str]]:
    """The stage slots under the names a user of each workflow would use."""
    if not m:
        return {}
    if workload == "pair-file":
        return {
            "simulate_s": (m["stage1_s"], "s"),
            "analyze_witness_s": (m["stage2_s"], "s"),
            "analyze_correlations_s": (m["stage3_s"], "s"),
            "simulate_peak_rss_mb": (m["stage1_rss_mb"], "MB"),
            "analyze_peak_rss_mb": (max(m["stage2_rss_mb"], m["stage3_rss_mb"]), "MB"),
        }
    if workload == "generate-mem":
        return {
            "generate_events_per_s": (len(MODELS) * EVENTS / m["stage2_s"], "events/s"),
            "generate_events_per_s_serial": (len(MODELS) * EVENTS / m["stage1_s"], "events/s"),
            "estimate_s": (m["stage3_s"], "s"),
            "generate_peak_rss_mb": (m["stage3_rss_mb"], "MB"),
        }
    return {
        "bell_threshold_s": (m["stage1_s"], "s"),
        "bell_maximize_s": (m["stage2_s"], "s"),
        "report_s": (m["stage3_s"], "s"),
    }


# ---------------------------------------------------------------------------
# traced run


def _import_hyperon() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def install_spans(tracer) -> None:
    """Spans at every layer boundary the workloads cross; evaluate is only counted."""
    _import_hyperon()
    from hyperon import cascade, cli, dataio, decay, interferometer, mc, pairs, qcore
    from hyperon import inequalities as ineq

    wanted = [
        (cli, ("main",)),
        (mc, ("generate", "directions_from_linear_density")),
        (dataio, ("format_events", "write_events", "read_events", "paired_directions", "load_parameters")),
        (pairs, ("witness_estimate", "correlation_estimate")),
        (ineq, ("maximize", "maximize_at_settings", "threshold", "contextuality_value",
                "equal_alpha_contextuality_threshold")),
    ]
    for module, names in wanted:
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            if hasattr(module, name):  # later versions may drop a helper
                tracer.span(module, name, f"{layer}.{name}", keep_result=name == "threshold")
    tracer.count(ineq, "evaluate", "inequalities.evaluate")
    tracer.span_imports(mc, cascade)
    for module in (cli, dataio):
        tracer.span_imports(module, decay)
        tracer.span_imports(module, interferometer)
    for module in (interferometer, decay):
        tracer.span_imports(module, qcore)


def inproc_cli(workload: str, steps: list[Step], step_ctx, info: dict) -> list[Outcome]:
    _import_hyperon()
    from hyperon import cli

    outcomes = []
    for step in steps:
        out, err = io.StringIO(), io.StringIO()
        code = None
        with step_ctx(f"{workload}/{step.name}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(step.argv)
            except Exception:
                traceback.print_exc()
            wall = time.perf_counter() - t0
        stdout = out.getvalue()
        failure = _judge(code, False, err.getvalue(), lambda: step.check(stdout))
        if step.name.startswith("threshold/") and failure is None:
            info[step.name.replace("/", ".")] = float(stdout.splitlines()[1].split(",")[1])
        outcomes.append(Outcome(step.name, step.stage, wall, 0.0, failure))
    return outcomes


def inproc_pass(workload: str, seed: int, step_ctx, info: dict) -> tuple[float, list[Outcome]]:
    """In-process steps of one workload: (summed timed wall, outcomes)."""
    if workload == "generate-mem":
        _import_hyperon()
        import genmem

        try:
            result = genmem.run(seed, NPROC, step=step_ctx)
        except Exception:
            return 0.0, [Outcome("generate-mem", 0, 0.0, 0.0, traceback.format_exc()[-300:])]
        info["table_bytes"] = result["table_bytes"]
        failure = "; ".join(result["failures"]) or None
        wall = sum(result["stage_s"])
        return wall, [Outcome("generate-mem", 0, wall, 0.0, failure)]
    events_path = OUT / f"events-{seed}.csv"
    steps = cli_steps(workload, seed, events_path, repeat=False)
    try:
        if workload == "pair-file":
            outcomes = inproc_cli(workload, steps[:1], step_ctx, info)
            info["event_file_bytes"] = events_path.stat().st_size if events_path.exists() else 0
            outcomes += inproc_cli(workload, steps[1:], step_ctx, info)
        else:
            outcomes = inproc_cli(workload, steps, step_ctx, info)
    finally:
        events_path.unlink(missing_ok=True)
    return sum(o.wall_s for o in outcomes), outcomes


def import_times(budget: Budget) -> tuple[dict, list[Outcome]]:
    """Cumulative -X importtime of `import hyperon.cli` and of hyperon.inequalities, medians."""
    cli_s, ineq_s, outcomes = [], [], []
    for _ in range(IMPORT_SAMPLES):
        wall, rss, code, timed_out, _, stderr = run_child(
            [sys.executable, "-X", "importtime", "-c", "import hyperon.cli"], min(budget.left(), 60.0)
        )
        cli_us = ineq_us = 0
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2][1:]
            cumulative = int(parts[1])
            if name.startswith("hyperon"):  # top level: no indentation
                cli_us += cumulative
            if name.strip() == "hyperon.inequalities":
                ineq_us = cumulative
        failure = _judge(code, timed_out, stderr, lambda: None)
        if failure is None and not cli_us:
            failure = "no hyperon entries in the -X importtime output"
        outcomes.append(Outcome("importtime", 0, wall, rss, failure))
        cli_s.append(cli_us / 1e6)
        ineq_s.append(ineq_us / 1e6)
    return {"cli.import_s": statistics.median(cli_s),
            "inequalities.import_s": statistics.median(ineq_s)}, outcomes


def layer_metrics(tracer, info: dict) -> dict[str, float]:
    from tracing import self_times

    spans = tracer.done()
    own = self_times(spans)

    def pick(name: str, prefix: str):
        return [s for s in spans if s.name == name and (s.step or "").startswith(prefix)]

    def total(name, prefix):
        return sum(s.duration for s in pick(name, prefix))

    def mean(name, prefix=""):
        found = pick(name, prefix)
        return sum(s.duration for s in found) / len(found) if found else 0.0

    def layer_self(layer, prefix):
        return sum(own[s.id] for s in spans
                   if s.name.split(".", 1)[0] == layer and (s.step or "").startswith(prefix))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m = {"cli.self_s": layer_self("cli", "bell-reports/")}
    for model in MODELS:
        serial = total("mc.generate", f"generate-mem/serial/{model}")
        parallel = total("mc.generate", f"generate-mem/parallel/{model}")
        m[f"mc.generate_s.{model}"] = serial
        m[f"mc.scaling_efficiency.{model}"] = ratio(serial, NPROC * parallel)
    m["mc.directions_s"] = total("mc.directions_from_linear_density", "generate-mem/serial/")
    m["mc.generate_self_s"] = sum(own[s.id] for s in pick("mc.generate", "generate-mem/serial/"))
    m["mc.table_bytes"] = info.get("table_bytes", 0)
    m["cascade.self_s"] = layer_self("cascade", "generate-mem/")

    file_mb = info.get("event_file_bytes", 0) / 1e6
    write = pick("dataio.write_events", "pair-file/simulate")
    m["dataio.format_events_s"] = total("dataio.format_events", "pair-file/simulate")
    m["dataio.write_self_s"] = sum(own[s.id] for s in write)
    m["dataio.write_mb_per_s"] = ratio(file_mb, sum(s.duration for s in write))
    m["dataio.read_events_s"] = mean("dataio.read_events", "pair-file/")
    m["dataio.read_mb_per_s"] = ratio(file_mb, m["dataio.read_events_s"])
    m["dataio.paired_directions_s"] = mean("dataio.paired_directions")
    m["dataio.event_file_bytes"] = info.get("event_file_bytes", 0)
    m["dataio.load_parameters_s"] = total("dataio.load_parameters", "bell-reports/table")
    m["pairs.witness_estimate_s"] = mean("pairs.witness_estimate")
    m["pairs.correlation_estimate_s"] = mean("pairs.correlation_estimate")

    for name in INEQUALITIES:
        m[f"inequalities.threshold_s.{name}"] = total("inequalities.threshold", f"bell-reports/threshold/{name}")
        m[f"inequalities.maximize_s.{name}"] = total("inequalities.maximize", f"bell-reports/maximize/{name}")
        for kind in ("threshold", "maximize"):
            m[f"inequalities.evaluate_calls.{kind}.{name}"] = tracer.counts[
                ("inequalities.evaluate", f"bell-reports/{kind}/{name}")
            ]
        # the full-precision return value; the report prints only 6 digits
        values = [s.result for s in pick("inequalities.threshold", f"bell-reports/threshold/{name}")]
        value = values[0] if values and isinstance(values[0], float) else info.get(f"threshold.{name}")
        m[f"inequalities.threshold_abs_err.{name}"] = (
            abs(value - checks.BELL_THRESHOLD[name]) if value is not None else 1.0
        )
    for layer in ("decay", "interferometer", "qcore"):
        m[f"{layer}.self_s"] = layer_self(layer, "bell-reports/")
    return m


def traced(workloads: list[str], seed: int, budget: Budget) -> tuple[dict, list[Outcome], dict]:
    from tracing import Tracer

    info: dict = {}
    outcomes: list[Outcome] = []
    untraced_wall = {}
    for w in workloads:
        untraced_wall[w], done = inproc_pass(w, seed, lambda name: contextlib.nullcontext(), info)
        outcomes += done
    tracer = Tracer()
    traced_wall = {}
    install_spans(tracer)
    try:
        for w in WORKLOADS:
            traced_wall[w], done = inproc_pass(w, seed, tracer.step, info)
            outcomes += done
    finally:
        tracer.restore()
    metrics, imports = import_times(budget)
    outcomes += imports
    metrics.update(layer_metrics(tracer, info))
    for w in workloads:
        key = "trace.overhead_ratio" if len(workloads) == 1 else f"trace.overhead_ratio.{w}"
        metrics[key] = traced_wall[w] / untraced_wall[w] - 1.0 if untraced_wall[w] > 0 else 0.0
    return metrics, outcomes, tracer.dump()


# ---------------------------------------------------------------------------


def run_metadata(workload: str, seed: int, trace: int, passes: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            sha = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "events": EVENTS,
        "pair_file_rows": 2 * EVENTS,
        "src_lines": src_lines,
        "passes": passes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (SRC / "hyperon" / "cli.py").is_file():
        print(f"perfbench: no hyperon sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    problems = checks.self_test(OUT)
    if problems:
        print("perfbench: output checks are broken:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    budget = Budget(RUN_BUDGET_S * len(workloads))
    outcomes: list[Outcome] = []
    passes: dict = {}
    if args.trace:
        metrics, outcomes, spans = traced(workloads, args.seed, budget)
        units = {}
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {unit_of(name)}")
    else:
        setup_s, outcomes = measure_setup(budget)
        metrics = {"setup_s": setup_s}
        named = {"setup_s": (setup_s, "s")}
        for w in workloads:
            stage, done, passes[w] = end_to_end(w, args.seed, args.seconds, budget)
            outcomes += done
            named.update(named_metrics(w, stage))
            if args.workload != "all":
                metrics.update((k, v) for k, v in stage.items() if k in END_TO_END)
                named["wall_s"] = (stage.get("wall_s", 0.0), "s")
        failed = sum(o.failure is not None for o in outcomes)
        named["error_rate"] = (failed / len(outcomes), "ratio")
        for name, (value, unit) in named.items():
            print(f"{name} = {value:.6g} {unit}")
        if args.workload == "all":
            metrics = {name: value for name, (value, _) in named.items()}
        units = {name: unit for name, (_, unit) in named.items()}

    failures = [o for o in outcomes if o.failure is not None]
    for o in failures:
        print(f"perfbench: {o.name} failed: {o.failure}", file=sys.stderr)
    meta = run_metadata(args.workload, args.seed, args.trace, passes)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units.get(name) or unit_of(name)}
                    for name, value in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "steps": [o.__dict__ for o in outcomes], **result}, indent=1)
    )
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if ".evaluate_calls." in name:
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_abs_err." in name:
        return "1"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
