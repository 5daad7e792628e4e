"""A seeded fuzz of the command line, run in process.

Each case is one argv: a command with a random choice of its own flags,
now and then another command's, a repeated flag or a missing required
one. Values come from boundary ints, signs, huge and tiny decimals,
non-finite, empty and zero-denominator text, and garbled or repeated
measure atoms. Sizes that a guard admits stay small (levels up to 4,
and 30 only where it is refused or builds no complex; at most 30
trials), so every case should end at once; one that runs past
CASE_SECONDS is a finding.

Every case must exit 0, 2 or 3, with nothing on stderr on 0 and exactly
the JSON error object on 2 or 3, and raise no exception and no warning
(a warning is an error here: a numpy cast that overflowed warned once,
and wrote INT64_MIN into an artifact). The seeds are fixed, so the cases
are the same on every run.
"""

import json
import random
import signal
import warnings

import pytest

from prefractal.cli import main

SEEDS, CASES = (0, 1), 1000
CASE_SECONDS = 1.0

INTS = ["0", "1", "2", "3", "-1", "-2", "30", "99999999999999999999",
        "-99999999999999999999", "1" + "0" * 400, "007", "1.5", "1e3", "", "x"]
SMALL_LEVELS = ["0", "1", "2", "3", "4", "-1", "30", "99999999999999999999",
                "-99999999999999999999", "", "nan"]
FLOATS = ["0", "1", "0.5", "-1", "50", "1e-6", "1e308", "1e400", "1e-400", "-1e-400",
          "nan", "inf", "-inf", "1/0", "", "1e-30", "99999999999999999999"]
FRACTIONS = ["auto", "1/16", "1/0", "0", "0.0", "-1", "1e400", "0.5e-400", "nan",
             "inf", "", "3/2", "1/99999999999999999999", " 1/4 "]
ATOMS = ["0:1", "1:1", "2:1/2", "5:1", "x:1", ":", "0:", ":1", "0:nan", "0:1e400",
         "0:1e-400", "-1:1", "1:-1", "0:0", "0:1/0", "99999999999999999999:1",
         "0:1:1", "1:1/3", " 3 : 1 "]

# the flags of each command, with the values each may take: "measure" is
# a drawn list of atoms and "path" an --out path, writable or not
FLAGS = {
    "gen": {"--geometry": ["sg", "harmonic", "x"], "--level": SMALL_LEVELS,
            "--tol": FLOATS, "--strict": None, "--format": ["json", "svg", "csv"],
            "--out": "path"},
    "gh-table": {"--max-level": SMALL_LEVELS, "--m": INTS, "--samples": INTS,
                 "--format": ["csv", "json", "svg", "x"], "--out": "path"},
    "spectrum": {"--geometry": ["sg", "x"], "--level": INTS, "--infinite": None,
                 "--cutoff": ["0", "1", "50", "-1", "nan", "inf", "1e400", "1e-400",
                              "1e308", "", "1/0"], "--format": ["json", "csv", "svg"],
                 "--out": "path"},
    "dimension": {"--geometry": ["sg"], "--level": INTS, "--infinite": None,
                  "--lambda-min": FLOATS, "--lambda-max": FLOATS, "--grid": INTS,
                  "--format": ["json", "svg"], "--out": "path"},
    "kantorovich": {"--level": INTS, "--mu": "measure", "--nu": "measure", "--out": "path"},
    "extent": {"--n": SMALL_LEVELS, "--m": INTS, "--alpha": FRACTIONS, "--samples": INTS,
               "--trials": INTS, "--seed": INTS, "--format": ["csv", "json"],
               "--out": "path"},
    "covariant": {"--n": INTS, "--epsilon": FLOATS, "--trials": INTS, "--seed": INTS,
                  "--out": "path"},
}
REQUIRED = {"gen": ["--level"], "spectrum": ["--cutoff"],
            "dimension": ["--lambda-min", "--lambda-max"],
            "kantorovich": ["--level", "--mu", "--nu"], "extent": ["--n", "--m"],
            "covariant": ["--n", "--epsilon"]}


def _measure(rng) -> str:
    return ",".join(rng.choice(ATOMS) for _ in range(rng.randint(0, 3)))


def _flag(rng, flags, name, paths) -> list[str]:
    """The flag and its value, as --flag=value so a leading '-' reaches the
    command, or alone for a switch."""
    values = flags[name]
    if values is None:
        return [name]
    value = (_measure(rng) if values == "measure" else rng.choice(paths) if values == "path"
             else rng.choice(values))
    return ["%s=%s" % (name, value)]


def fuzz_cases(seed: int, count: int, paths: list[str]):
    """`count` seeded argv lists, writing to stdout or one of `paths`."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(list(FLAGS))
        flags = FLAGS[command]
        names = [f for f in REQUIRED.get(command, []) if rng.random() < 0.95]
        names += [f for f in flags if f not in names and rng.random() < 0.4]
        rng.shuffle(names)
        if names and rng.random() < 0.05:
            names.append(rng.choice(names))  # a repeated flag: the last one wins
        argv = [command]
        for name in names:
            argv += _flag(rng, flags, name, paths)
        if rng.random() < 0.05:
            other = rng.choice([c for c in FLAGS if c != command])
            argv += _flag(rng, FLAGS[other], rng.choice(list(FLAGS[other])), paths)
        yield argv


class _CaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _CaseTimeout


def run_case(argv, capsys) -> str | None:
    """None when the case ends as it must, else what went wrong."""
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except SystemExit as exc:  # argparse: usage errors, --help, --version
        code = exc.code
    except _CaseTimeout:
        return "ran past %.1f s" % CASE_SECONDS
    except Exception as exc:  # the finding itself, so the fuzz can name it
        return "raised %s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        out, err = capsys.readouterr()
    if code not in (0, 2, 3):
        return "exit code %r" % (code,)
    if code == 0:
        return None if err == "" else "exit 0 with stderr %r" % err[:200]
    try:
        payload = json.loads(err)
    except ValueError:
        return "stderr is not one JSON object: %r" % err[:200]
    if (sorted(payload) != ["error", "exitCode", "message"] or payload["exitCode"] != code
            or not isinstance(payload["message"], str)):
        return "stderr is not the JSON error object: %r" % err[:200]
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_every_case_exits_cleanly(seed, capsys, tmp_path):
    paths = [str(tmp_path / "out.txt"), str(tmp_path / "missing" / "out.txt"), ""]
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        found = [(argv, problem) for argv in fuzz_cases(seed, CASES, paths)
                 if (problem := run_case(argv, capsys))]
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert found == []
