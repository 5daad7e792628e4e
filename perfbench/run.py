"""Benchmark of the prefractal command-line tool.

    python3 perfbench/run.py --workload {certify,generate,transport,all}
                             --seed N --seconds S --trace {0,1}

Run from a source checkout; nothing is installed. Each workload is a
list of CLI commands (workloads.py) run as a user would: one fresh
process per command, one command at a time, from this single process
(a closed loop with one client). The program's own fork pool is the only
concurrency. Every output is checked (checks.py); a command fails when
it exits nonzero or its output fails its check.

--trace 0 repeats the workload until S seconds have passed (at least
once) and reports, as medians over the repetitions:
  wall_s        sum over commands of spawn-to-exit time
  setup_s       number of commands times the median spawn-to-import
                time of prefractal.cli, over every command of the run
                and five extra `--version` spawns
  peak_rss_mb   largest kernel high-water RSS of any process in any
                command's process tree (wait4), pool workers included;
                commands start from a small helper (spawner.py) so the
                reading is not inflated by this process's own memory
  success_rate  commands that passed over commands attempted
The error rate is printed as failed/attempted with its base.

--trace 1 runs the workload once untraced and twice traced (spans.py)
and reports per-layer self times and exact counts, which must agree
between the two traced passes. Spans go to
.perfbench_work/spans-<workload>-seed<N>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. `correct` is false when an output failed
its check or a count did not repeat; a command that exits nonzero counts
in `failed` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = BENCH / "child.py"

SETUP_SPAWNS = 5
RUN_LIMIT_S = 170.0   # past this point in a run, commands are killed or not started


@dataclass
class Outcome:
    command: workloads.Command
    code: int
    wall: float
    setup: float | None
    rss_mib: float
    out_bytes: int
    error: str | None = None   # why the command failed; None if it passed
    wrong: bool = False        # the output failed its check
    spans: list | None = None  # [name, start, end, parent index or -1]
    counts: dict | None = None
    exit: float | None = None  # teardown after the spans were written


class Spawner:
    """The small process that starts every command (see spawner.py)."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def run(self, **request) -> dict:
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited with code %s" % self._proc.wait())
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def run_command(spawner: Spawner, cmd: workloads.Command, tmp: Path, src: Path,
                cache: Path, deadline: float, trace: bool = False) -> Outcome:
    """Run one command in a fresh process, then check its output."""
    if time.monotonic() >= deadline:
        return Outcome(cmd, -1, 0.0, None, 0.0, 0, error="not run: the run's time limit passed")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("PREFRACTAL_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    if cmd.uses_cache:
        env["PREFRACTAL_CACHE"] = str(cache)
    args = [sys.executable, str(CHILD), str(tmp / "stamp")]
    if trace:
        args += ["--trace", str(tmp / "spans")]
    done = spawner.run(args=[*args, "--", *cmd.argv], env=env, cwd=str(tmp),
                       stdout=str(tmp / "out"), stderr=str(tmp / "err"),
                       timeout=max(1.0, deadline - time.monotonic()))
    start, end, stamp = done["start"], done["end"], tmp / "stamp"
    setup = float(stamp.read_text()) - start if stamp.exists() else None
    out = (tmp / "out").read_bytes()
    outcome = Outcome(cmd, done["code"], end - start, setup, done["maxrss_kib"] / 1024.0,
                      len(out))
    if outcome.code != 0:
        lines = (tmp / "err").read_text(errors="replace").strip().splitlines()
        outcome.error = "exit %d: %s" % (outcome.code, lines[-1] if lines else "no stderr")
    else:
        try:
            checks.verify(cmd.check, out)
        except checks.CheckFailed as exc:
            outcome.error, outcome.wrong = "check: %s" % exc, True
    if trace and (tmp / "spans").exists():
        with open(tmp / "spans") as fh:
            record, written = (json.loads(line) for line in fh)
        outcome.spans, outcome.counts = record["spans"], record["counts"]
        outcome.exit = end - written["written"]
    return outcome


def run_pass(spawner: Spawner, cmds, work: Path, src: Path, deadline: float,
             trace: bool = False):
    """The workload's commands in order, with a fresh metric-space cache."""
    cache = work / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    outcomes = [run_command(spawner, c, work / "cmd", src, cache, deadline, trace)
                for c in cmds]
    shutil.rmtree(cache, ignore_errors=True)
    return outcomes


# -- reductions ------------------------------------------------------------


def self_times(spans) -> Counter:
    """Seconds per span name, minus the time covered by child spans."""
    own = Counter()
    for name, start, end, parent in spans:
        own[name] += end - start
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    return own


def coverage(o: Outcome) -> float:
    """Set-up, every span's self time and the exit phase over wall time.

    Set-up and exit are timed from outside the process; what is left is
    the tracer's own work and gaps between spans."""
    if o.setup is None or o.exit is None or not o.spans:
        return 0.0
    return (o.setup + sum(self_times(o.spans).values()) + o.exit) / o.wall


def tally(passes):
    """(commands attempted, commands failed, whether an output was wrong)."""
    flat = [o for p in passes for o in p]
    return len(flat), sum(o.error is not None for o in flat), any(o.wrong for o in flat)


def _report_commands(passes, tag):
    for k, p in enumerate(passes):
        for o in p:
            print("  %s pass %d  %7.3f s  setup %.3f s  %7.1f MiB  %-4s %s%s" % (
                tag, k, o.wall, o.setup or float("nan"), o.rss_mib,
                "ok" if o.error is None else "FAIL", o.command.label,
                "" if o.error is None else "  <- " + o.error), flush=True)


def measure(spawner: Spawner, name: str, seed: int, seconds: float, src: Path,
            start: float) -> dict:
    cmds = workloads.commands(name, seed)
    work = WORK / name
    deadline = start + RUN_LIMIT_S
    budget = min(seconds, RUN_LIMIT_S)
    passes, durations = [], []
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(spawner, cmds, work, src, deadline))
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + max(durations) > budget:
            break
    version = workloads.Command(("--version",), lambda out: None)
    spawns = [run_command(spawner, version, work / "cmd", src, work / "cache", deadline)
              for _ in range(SETUP_SPAWNS)]
    _report_commands(passes, name)
    setups = [o.setup for o in [*spawns, *(o for p in passes for o in p)]
              if o.setup is not None]
    attempted, failed, wrong = tally(passes)
    metrics = {
        "wall_s": statistics.median(sum(o.wall for o in p) for p in passes),
        "setup_s": len(cmds) * statistics.median(setups),
        "peak_rss_mb": statistics.median(max(o.rss_mib for o in p) for p in passes),
        "success_rate": (attempted - failed) / attempted,
    }
    print("%s: %d passes; wall_s %.3f s | setup_s %.3f s | peak_rss_mb %.1f MiB | "
          "error_rate %d/%d = %.3f (failed/attempted commands)" % (
              name, len(passes), metrics["wall_s"], metrics["setup_s"],
              metrics["peak_rss_mb"], failed, attempted, failed / attempted), flush=True)
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure_traced(spawner: Spawner, name: str, seed: int, src: Path, start: float) -> dict:
    cmds = workloads.commands(name, seed)
    work = WORK / name
    deadline = start + RUN_LIMIT_S
    plain = run_pass(spawner, cmds, work, src, deadline)
    traced = [run_pass(spawner, cmds, work, src, deadline, trace=True) for _ in range(2)]
    _report_commands([plain], name + " untraced")
    _report_commands(traced, name + " traced")

    per_pass = []
    for p in traced:
        own, counts = Counter(), Counter()
        for o in p:
            own.update(self_times(o.spans or []))
            counts.update(o.counts or {})
        own["cli.exit"] = sum(o.exit or 0.0 for o in p)
        counts["cli.output_bytes"] = sum(o.out_bytes for o in p)
        per_pass.append(({k + "_s": v for k, v in own.items()}, counts))
    repeated = per_pass[0][1] == per_pass[1][1]
    if not repeated:
        print("counts differ between two traced passes with seed %d: %s vs %s"
              % (seed, dict(per_pass[0][1]), dict(per_pass[1][1])), flush=True)

    metrics = {}
    for key in {k for times, _ in per_pass for k in times}:
        metrics[key] = statistics.median(times.get(key, 0.0) for times, _ in per_pass)
    metrics.update(per_pass[0][1])
    covered = [coverage(o) for p in traced for o in p]
    metrics["trace.coverage"] = min(covered)
    metrics["trace.overhead_s"] = (statistics.median(sum(o.wall for o in p) for p in traced)
                                   - sum(o.wall for o in plain))
    for o, cov in zip(traced[0], covered):
        print("  coverage %.4f  %s" % (cov, o.command.label))

    WORK.mkdir(exist_ok=True)
    with open(WORK / ("spans-%s-seed%d.jsonl" % (name, seed)), "w") as fh:
        for k, p in enumerate(traced):
            for i, o in enumerate(p):
                fh.write(json.dumps({"pass": k, "command": i, "argv": o.command.argv,
                                     "wall": o.wall, "setup": o.setup, "exit": o.exit,
                                     "counts": o.counts}) + "\n")
                for span, t0, t1, parent in o.spans or []:
                    fh.write(json.dumps({"pass": k, "command": i, "name": span,
                                         "start": t0, "end": t1,
                                         "parent": parent}) + "\n")
    attempted, failed, wrong = tally([plain, *traced])
    return {"correct": repeated and not wrong, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# -- entry -----------------------------------------------------------------


def _declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _environment() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return "nproc %d, Python %s, numpy %s, %s" % (
        os.cpu_count() or 0, platform.python_version(), numpy, platform.machine())


def _result(raw: dict, units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(raw["metrics"]))
    metrics = {k: {"value": raw["metrics"].get(k, 0), "unit": u} for k, u in units.items()}
    if missing:
        print("not measured on this workload (reported as 0): %s" % ", ".join(missing))
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prefractal" / "cli.py").is_file():
        print("no prefractal source under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    probe = subprocess.run([sys.executable, "-c", "import prefractal.cli"],
                           env={**os.environ, "PYTHONPATH": str(SRC)},
                           capture_output=True, text=True)
    if probe.returncode != 0:
        print("prefractal.cli does not import:\n" + probe.stderr, file=sys.stderr)
        return 2
    units = _declared_metrics(bool(args.trace))
    print("environment: " + _environment(), flush=True)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    with Spawner() as spawner:
        for name in names:
            t0 = time.monotonic()
            raw = (measure_traced(spawner, name, args.seed, SRC, t0) if args.trace
                   else measure(spawner, name, args.seed, args.seconds, SRC, t0))
            results[name] = _result(raw, units)
            shutil.rmtree(WORK / name, ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s/%s" % (n, k): v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
