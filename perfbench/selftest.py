"""Self-test of the benchmark, in seconds: python3 perfbench/selftest.py

Runs every workload at tiny sizes through the same runner as run.py,
untraced and traced, and shows that:
  * every command passes its check, and two traced passes give the same counts;
  * the checks' own gasket graph has the CLI's vertex numbering;
  * each checker rejects a deliberately corrupted output;
  * a command's peak RSS does not include the benchmark's own memory;
  * a command that exits with code 3 is counted as failed.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import time

import checks
import run
import workloads

WORK = run.WORK / "selftest"


def _expect(cond, what) -> None:
    """Like assert, but kept under python -O."""
    if not cond:
        raise AssertionError(what)


def _edit_json(fn):
    def corrupt(out: bytes) -> bytes:
        doc = json.loads(out)
        fn(doc)
        return json.dumps(doc).encode()
    return corrupt


def _last_csv_field(new: str):
    def corrupt(out: bytes) -> bytes:
        lines = out.decode().rstrip("\n").split("\n")
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + new
        return ("\n".join(lines) + "\n").encode()
    return corrupt


def _extent_above_bound(out: bytes) -> bytes:
    header, row = out.decode().split("\n")[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    cells["empiricalMax"] = repr(2 * float(cells["bound"]) + 1)
    return (header + "\n" + ",".join(cells[k] for k in header.split(",")) + "\n").encode()


def _first_mult_plus_two(out: bytes) -> bytes:
    lines = out.decode().split("\n")
    value, mult = lines[1].split(",")
    lines[1] = "%s,%d" % (value, int(mult) + 2)
    return "\n".join(lines).encode()


def _set(path, fn):
    """Corruption editing the JSON value at `path` (keys and indices)."""
    def edit(doc):
        *head, last = path
        for k in head:
            doc = doc[k]
        doc[last] = fn(doc[last])
    return _edit_json(edit)


# (command kind, name of the corruption, corruption)
CORRUPTIONS = {
    "gh-table": [("nonzero discrepancy", _last_csv_field("0.001")),
                 ("bound above reference", lambda out: re.sub(
                     rb"\n2,3,[0-9.e-]+,", b"\n2,3,9.0,", out))],
    "gen sg json": [("vertex dropped", _set(("complex", "vertices"), lambda v: v[:-1])),
                    ("curve dropped", _set(("complex", "curves"), lambda v: v[:-1])),
                    ("complex missing", _edit_json(lambda doc: doc.pop("complex")))],
    "gen harmonic json": [("length shortened", _set(("lengths", 5, "length"), lambda v: 0.99 * v)),
                          ("curve dropped", _set(("lengths",), lambda v: v[:-1]))],
    "gen sg svg": [("triangle dropped", lambda out: out.replace(b"<polygon", b"<polyline", 1)),
                   ("not XML", lambda out: out[:-20])],
    "spectrum": [("multiplicity changed", _first_mult_plus_two)],
    "dimension": [("count changed", _set(("fit", "counts", 0), lambda v: v + 1))],
    "covariant": [("identity gap", _set(("report", "max_identity_gap"), lambda v: 1e-6))],
    "kantorovich": [
        ("plan mass moved", _set(("transport", "plan", 0, 2), lambda v: v + 1e-3)),
        ("value changed", _set(("transport", "value"), lambda v: v * 1.01 + 1e-6)),
        ("potentials stretched", _set(("transport", "dual"),
                                      lambda v: [[i, 3 * p + i] for i, p in v])),
    ],
    "extent": [("empiricalMax above bound", _extent_above_bound)],
}


def _kind(argv) -> str:
    if argv[0] != "gen":
        return argv[0]
    return "gen %s %s" % (argv[argv.index("--geometry") + 1], argv[argv.index("--format") + 1])


def check_vertex_numbering(spawner) -> None:
    """The checks' level-3 graph has the CLI's level-3 edges, vertex for vertex."""
    cmd = workloads.Command(("gen", "--geometry", "sg", "--level", "3", "--format", "json"),
                            lambda out: None)
    tmp = WORK / "cmd"
    outcome = run.run_command(spawner, cmd, tmp, run.SRC, WORK / "cache", time.monotonic() + 60)
    _expect(outcome.error is None, outcome.error)
    curves = json.loads((tmp / "out").read_bytes())["complex"]["curves"]
    cli_edges = {frozenset(c["endpoints"]) for c in curves if c["level"] == 3}
    _, adj = checks.gasket_graph(3)
    own_edges = {frozenset((u, v)) for u, nbrs in enumerate(adj) for v in nbrs}
    _expect(cli_edges == own_edges, "vertex numbering differs from the CLI's")
    print("ok  vertex numbering matches the CLI at level 3")


def check_workload(spawner, name: str) -> None:
    cmds = workloads.commands(name, seed=7, tiny=True)
    tmp, cache = WORK / "cmd", WORK / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    for cmd in cmds:
        outcome = run.run_command(spawner, cmd, tmp, run.SRC, cache, time.monotonic() + 60)
        _expect(outcome.error is None, "%s: %s" % (cmd.label, outcome.error))
        out = (tmp / "out").read_bytes()
        kind = _kind(cmd.argv)
        for what, corrupt in CORRUPTIONS[kind]:
            try:
                checks.verify(cmd.check, corrupt(out))
            except checks.CheckFailed as exc:
                print("ok  %-18s rejects %-24s (%s)" % (kind, what, exc))
            else:
                raise AssertionError("%s check accepted a corrupted output (%s)" % (kind, what))
    passes = [run.run_pass(spawner, cmds, WORK, run.SRC, time.monotonic() + 60, trace=True)
              for _ in range(2)]
    counts = []
    for p in passes:
        _expect(all(o.error is None for o in p), [o.error for o in p if o.error])
        _expect(all(o.spans for o in p), "a traced command recorded no spans")
        counts.append([o.counts for o in p])
    _expect(counts[0] == counts[1], "counts differ between two traced passes")
    cover = min(run.coverage(o) for p in passes for o in p)
    print("ok  %s: %d tiny commands pass, traced counts repeat, coverage >= %.3f"
          % (name, len(cmds), cover))


def check_rss_not_inherited(spawner) -> None:
    """A command's peak RSS excludes the memory this process holds."""
    ballast = [bytearray(1 << 20) for _ in range(300)]
    cmd = workloads.Command(("--version",), lambda out: None)
    outcome = run.run_command(spawner, cmd, WORK / "cmd", run.SRC, WORK / "cache",
                              time.monotonic() + 60)
    _expect(len(ballast) == 300 and outcome.rss_mib < 150, outcome.rss_mib)
    print("ok  peak RSS of `--version` is %.1f MiB while this process holds 300 MiB"
          % outcome.rss_mib)


def check_exit_code_3(spawner) -> None:
    """A CLI whose main returns 3 is counted as a failed command."""
    stub = WORK / "stub"
    (stub / "prefractal").mkdir(parents=True, exist_ok=True)
    (stub / "prefractal" / "__init__.py").write_text("")
    (stub / "prefractal" / "cli.py").write_text(
        "import sys\n\ndef main(argv=None):\n"
        "    sys.stderr.write('{\"error\": \"non-convergence\", \"exitCode\": 3}\\n')\n"
        "    return 3\n")
    cmd = workloads.commands("certify", seed=7, tiny=True)[0]
    outcome = run.run_command(spawner, cmd, WORK / "cmd", stub, WORK / "cache",
                              time.monotonic() + 60)
    attempted, failed, wrong = run.tally([[outcome]])
    _expect(outcome.code == 3 and (attempted, failed, wrong) == (1, 1, False), outcome)
    print("ok  exit code 3 counts as a failure: %s" % outcome.error)


def main() -> int:
    start = time.monotonic()
    shutil.rmtree(WORK, ignore_errors=True)
    with run.Spawner() as spawner:
        check_vertex_numbering(spawner)
        for name in workloads.NAMES:
            check_workload(spawner, name)
        check_rss_not_inherited(spawner)
        check_exit_code_3(spawner)
    shutil.rmtree(WORK, ignore_errors=True)
    print("self-test passed in %.1f s" % (time.monotonic() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
