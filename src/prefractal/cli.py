"""Batch command-line front end.

Every command validates its parameters, dispatches to the library, and
writes one artifact (JSON, CSV, or SVG) either to --out or stdout. The
determinism contract: identical configs and seeds give byte-identical
output, so JSON is dumped with sorted keys and no timestamps ever enter
a file. Exit codes: 0 success, 2 validation error, 3 non-convergence;
failures print a machine-readable JSON object on stderr.

Each command imports the modules it calls inside its own body, so a
command loads only what it runs: `spectrum`, `covariant`, `kantorovich`,
`gh-table` and `extent` never import numpy (the last two certify from one
generic cell, curves.cell_certificate, and load neither the complex nor
the metric code), and `gen` of the plain gasket loads neither the metric
nor the harmonic code. The package's records are named tuples, so
no command loads dataclasses (and with it inspect, ast, dis and
tokenize); csv loads only where CSV is written; and the parser gives
arguments only to the command being run.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import __version__

SCHEMA_VERSION = 2

# peak RSS of `gen --format json` per curve of the complex above the base,
# by geometry, with the document streamed in row blocks: sg is the complex
# itself (33.9/42.5/70.6/154.2 MiB at levels 10-13 under wait4, 7-18 B
# per curve, kept at complex_bytes' 90); harmonic adds its length columns
# (51.5/92.7/214.5 MiB at levels 9-11, 231-240 B per curve). `gen --format
# svg` streams the same way (sg: 52.0/96.6/230.4 MiB at levels 11-13)
_JSON_BYTES_PER_CURVE = {"sg": 90, "harmonic": 300}

# peak RSS of a numpy-free command: `kantorovich` peaks at 16.4-16.9 MiB
# under wait4 for 1-80 support points at levels 1-11, plus 40 + level/8 B
# per int slot: k^2 for the distance block, 16 per point and level for the
# oracle's tables (k = 500/1000 at level 11: 22.9/41.1 MiB, 26 B per
# entry; k = 500 at level 38: 29.4 MiB, 480 B per table)
_LEAN_BASE_BYTES = 17 << 20
_KANTOROVICH_SLOTS_PER_TABLE = 16

# the exact rows of gh-table and extent are Fractions over 2^m, normalized
# by gcds (in process, 2-core VM): 2.14 B per bit of m at their peak (m =
# 4e6, 1.6e7); row n takes 1.2e-8 s per bit of m plus 1e-11 to 1.7e-11 s
# per unit of n(m - n) (m = 2e5, 4e5); an extent trial 4.7e-5 + 1.1e-5 m s
_ROW_BYTES_PER_BIT, _ROW_SECONDS_PER_BIT, _ROW_SECONDS_PER_PAIR = 3, 1.5e-8, 2e-11
_TRIAL_SECONDS, _TRIAL_SECONDS_PER_LEVEL = 6e-5, 1.2e-5

# peak RSS of `dimension` per cutoff grid point above the base: the grid
# arrays, the counting table, the fit's lists and the written document
# (wait4 peaks of 43/56/78 MiB for JSON and 46/61/88 MiB for SVG at 25k,
# 50k and 100k points, 476 and 572 B per point)
_DIMENSION_BYTES_PER_POINT = 600


def _emit(chunks: Iterable[str], out: str | None):
    """Write the artifact to --out or stdout chunk by chunk as it comes; a
    string is one chunk."""
    if isinstance(chunks, str):
        chunks = [chunks]
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    with open(out, "w") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _json_chunks(command: str, config: dict, body: dict,
                 texts: dict[str, str | Iterable[str]] | None = None) -> Iterator[str]:
    """The document json.dumps(payload, sort_keys=True, indent=2) gives,
    in chunks, key by key in sorted order.

    `texts` maps top-level keys to values that arrive as finished JSON
    text one level deep, a string or an iterable of chunks; they go in
    verbatim, each chunk as it is produced. Every other value is dumped
    on its own and re-indented, which is safe because json.dumps escapes
    the newlines inside strings.
    """
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "config": config,
    }
    payload.update(body)
    texts = texts or {}
    sep = "{\n  "
    for key in sorted([*payload, *texts]):
        yield sep + json.dumps(key) + ": "
        sep = ",\n  "
        if key in texts:
            value = texts[key]
            yield from [value] if isinstance(value, str) else value
        else:
            value = json.dumps(payload[key], sort_keys=True, indent=2)
            yield value.replace("\n", "\n  ")
    yield "\n}\n"


def _csv_text(header, rows) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        if not any(c in text for c in ".eE"):
            return Fraction(int(text))
        # 1e400 overflows to inf, which Fraction refuses
        value = Fraction(repr(float(text)))
        underflow = value == 0 and Fraction(text) != 0
    except ZeroDivisionError:
        raise ValueError("fraction %r has a zero denominator" % text) from None
    except ValueError:
        raise ValueError("%r is not a finite integer, decimal or fraction" % text) from None
    if underflow:
        raise ValueError("%r is not zero but underflows to 0 as a float" % text)
    return value


def _parse_measure(text: str):
    """Comma list of index:weight pairs, weights as fractions or floats, as
    a DiscreteMeasure."""
    from .transport import DiscreteMeasure

    entries = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise ValueError("measure entry %r is not index:weight" % chunk)
        idx, w = chunk.split(":", 1)
        try:
            idx = int(idx)
        except ValueError:
            raise ValueError("measure index %r is not an integer" % idx) from None
        entries.append((idx, _parse_fraction(w)))
    return DiscreteMeasure(entries)


def _config_echo(args) -> dict:
    """The parsed arguments that shape the result, unset ones left out."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "func", "out", "strict") and v is not None}


# -- commands --------------------------------------------------------------


def cmd_gen(args) -> Iterable[str]:
    from .curves import curve_count
    from .gasket import (BASE_BYTES, build_gasket, check_memory, check_tolerance,
                         complex_json_chunks)

    check_tolerance(args.tol)  # echoed in every config, so never NaN
    svg = args.format == "svg"
    what = ("SVG output: the drawing of its triangles" if svg
            else "JSON output: the complex as JSON text")
    check_memory(BASE_BYTES + _JSON_BYTES_PER_CURVE["sg" if svg else args.geometry]
                 * curve_count(args.level),
                 "level %d is past the size cap for %s" % (args.level, what))
    # every check that can fail runs before the first chunk is returned
    if svg:
        from .svg import gasket_svg, plane_coords

        if args.geometry == "sg":
            return gasket_svg(build_gasket(args.level), args.level)
        from .harmonic import HarmonicTable

        table = HarmonicTable(build_gasket(args.level))
        coords = plane_coords(table.embedding_array())
        return gasket_svg(table.cx, args.level, coords=coords)
    if args.geometry == "sg":
        cx = build_gasket(args.level)
        return _json_chunks("gen", _config_echo(args), {},
                            {"complex": complex_json_chunks(cx, 1)})
    from .harmonic import build_harmonic_gasket, derive_subdivision_rule

    hg = build_harmonic_gasket(args.level, tol=args.tol)
    if args.strict and hg.unconverged():
        raise RuntimeError(
            "harmonic quadrature hit the refinement cap on %d curves before "
            "reaching tol=%g" % (len(hg.unconverged()), args.tol))
    rule = derive_subdivision_rule()
    body = {
        "subdivision": {"adjacent": rule.adjacent, "opposite": rule.opposite,
                        "denominator": rule.den},
        "quadrature": {"tol": hg.tol, "refinementCap": hg.cap,
                       "unconverged": hg.unconverged()},
    }
    return _json_chunks("gen", _config_echo(args), body,
                        {"complex": complex_json_chunks(hg.cx, 1),
                         "lengths": hg.length_json_chunks(1)})


def _certificate_cost(what: str, lo: int, hi: int, m: int, trials: int = 0) -> None:
    """Refuse, naming both estimates, the exact rows n = lo..hi at fine
    level m and `trials` extent mixture trials, if they pass a guard."""
    from .curves import check_cost

    # sum of n(m - n) over n <= k, for k = hi and lo - 1
    pairs = [m * k * (k + 1) // 2 - k * (k + 1) * (2 * k + 1) // 6 for k in (hi, lo - 1)]
    try:
        seconds = ((hi - lo + 1) * _ROW_SECONDS_PER_BIT * m
                   + (pairs[0] - pairs[1]) * _ROW_SECONDS_PER_PAIR
                   + trials * (_TRIAL_SECONDS + _TRIAL_SECONDS_PER_LEVEL * m))
    except OverflowError:  # a count past any float is past the guard too
        seconds = float("inf")
    check_cost(_LEAN_BASE_BYTES + _ROW_BYTES_PER_BIT * m, seconds, what)


def cmd_gh_table(args) -> Iterable[str]:
    from .curves import cell_certificate, check_samples, gh_upper_bound

    if args.max_level < 0:
        raise ValueError("--max-level must be nonnegative, got %d" % args.max_level)
    if args.m < args.max_level:
        raise ValueError("--m must be at least --max-level")
    check_samples(args.samples)
    _certificate_cost("gh-table: %d exact rows over 2^%d" % (args.max_level + 1, args.m),
                      0, args.max_level, args.m)
    rows = []
    for n in range(args.max_level + 1):
        cell = cell_certificate(n, args.m)  # the Hausdorff term and the agreement
        rep = gh_upper_bound(cell, args.samples)
        rows.append((n, args.m, float(rep.bound), float(rep.bound_with_slack),
                     float(rep.paper_bound) + float(rep.tail), float(cell.discrepancy())))
    header = ("n", "m", "bound", "boundWithSlack", "referenceBound",
              "agreementDiscrepancy")
    if args.format == "svg":
        from .svg import line_plot

        for n in (r[0] for r in rows if not r[2] > 0):
            raise ValueError("the bound at level %d underflows to 0 as a float, which "
                             "the log axis of --format svg cannot show" % n)
        certified = [(r[0], r[2]) for r in rows]
        reference = [(r[0], r[4]) for r in rows]
        return line_plot([("certified bound", certified),
                          ("reference 2^(1-n)+2^-m", reference)],
                         "level n", "bound", log_y=True,
                         title="two-scale convergence")
    if args.format == "json":
        return _json_chunks("gh-table", _config_echo(args),
                            {"header": list(header),
                             "rows": [list(r) for r in rows]})
    return _csv_text(header, rows)


def cmd_spectrum(args) -> Iterable[str]:
    from .spectrum import enumerate_eigenvalues

    spec = _spectrum_spec(args)
    enum = enumerate_eigenvalues(spec, args.cutoff)
    if args.format == "csv":
        return _csv_text(("value", "multiplicity"),
                         zip(enum.values, enum.multiplicities))
    return _json_chunks("spectrum", _config_echo(args), {
        "label": spec.label,
        "cutoff": float(args.cutoff),
        "total": enum.total,
        "values": enum.values,
        "multiplicities": enum.multiplicities,
    })


def _spectrum_spec(args):
    from .spectrum import SpectrumSpec

    if getattr(args, "infinite", False):
        return SpectrumSpec.gasket_limit()
    if args.level is None:
        raise ValueError("need --level or --infinite")
    return SpectrumSpec.gasket(args.level)


def cmd_dimension(args) -> Iterable[str]:
    from .gasket import BASE_BYTES, check_memory
    from .spectrum import dimension_fit

    spec = _spectrum_spec(args)
    check_memory(BASE_BYTES + _DIMENSION_BYTES_PER_POINT * args.grid,
                 "dimension on %d cutoffs: the grid, its counts and the fit"
                 % args.grid)
    fit = dimension_fit(spec, args.lambda_min, args.lambda_max,
                        grid_size=args.grid)
    if args.format == "svg":
        from .svg import line_plot

        pts = list(zip(fit.grid.tolist(), [max(c, 1) for c in fit.counts.tolist()]))
        return line_plot([("mode counts", pts)], "cutoff", "count",
                         log_x=True, log_y=True,
                         title="counting function, slope %.4f" % fit.slope)
    return _json_chunks("dimension", _config_echo(args), {"fit": fit.to_dict()})


def cmd_kantorovich(args) -> Iterable[str]:
    from .curves import GasketSpace, check_memory
    from .transport import kantorovich

    mu = _parse_measure(args.mu)
    nu = _parse_measure(args.nu)
    k = len(set(mu.support) | set(nu.support))
    slots = k * k + _KANTOROVICH_SLOTS_PER_TABLE * k * args.level
    check_memory(_LEAN_BASE_BYTES + slots * (40 + args.level // 8),
                 "kantorovich on %d support points at level %d: the distance block "
                 "and the oracle's tables" % (k, args.level))
    res = kantorovich(GasketSpace(args.level), mu, nu)
    return _json_chunks("kantorovich", _config_echo(args), {"transport": res.to_dict()})


def cmd_extent(args) -> Iterable[str]:
    from .curves import cell_certificate, check_samples
    from .transport import certify_extent, check_alpha, check_trials

    alpha = None if args.alpha == "auto" else _parse_fraction(args.alpha)
    n, m = args.n, args.m
    if not 0 <= n <= m:
        raise ValueError("need 0 <= n <= m, got n=%d m=%d" % (n, m))
    check_samples(args.samples)
    check_trials(args.trials, m)
    check_alpha(alpha)
    _certificate_cost("extent at levels (%d, %d) with %d mixture trials" % (n, m, args.trials),
                      n, n, m, args.trials)
    rep = certify_extent(cell_certificate(n, m), alpha=alpha,
                         samples_per_curve=args.samples,
                         mixture_trials=args.trials, seed=args.seed)
    if args.format == "json":
        return _json_chunks("extent", _config_echo(args), {"report": rep.as_floats()})
    header = ("n", "m", "alpha", "epsilon", "bound", "empiricalMax")
    return _csv_text(header, [rep.to_row()])


def cmd_covariant(args) -> Iterable[str]:
    from .modes import covariant_reach_witness

    rep = covariant_reach_witness(args.n, args.epsilon, args.trials,
                                  seed=args.seed)
    return _json_chunks("covariant", _config_echo(args), {"report": rep.to_dict()})


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors, the subcommands' too, print the JSON error object."""

    def error(self, message):
        self.exit(_fail(2, "validation", message))


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`: every command is registered by name and help
    text, but only the one argv[0] names gets its arguments, or all of
    them when argv[0] names none (as for --help)."""
    parser = _Parser(
        prog="prefractal",
        description="prefractal gasket geometry, spectra, and transport tables")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    names = ("gen", "gh-table", "spectrum", "dimension", "kantorovich", "extent", "covariant")
    run = argv[0] if argv and argv[0] in names else None

    def command(name, text, func):
        """Register the command; its parser if it gets arguments, else None."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p if run in (None, name) else None

    def common(p, fmt=("json",)):
        p.add_argument("--out", help="output path (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    if p := command("gen", "write a prefractal complex", cmd_gen):
        p.add_argument("--geometry", choices=("sg", "harmonic"), default="sg")
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--tol", type=float, default=1e-6,
                       help="harmonic length quadrature tolerance")
        p.add_argument("--strict", action="store_true",
                       help="fail (exit 3) if any harmonic length hit the refinement cap")
        common(p, fmt=("json", "svg"))

    if p := command("gh-table", "two-scale convergence bounds per level", cmd_gh_table):
        p.add_argument("--max-level", type=int, default=6)
        p.add_argument("--m", type=int, default=9, help="fine comparison level")
        p.add_argument("--samples", type=int, default=3, help="on-edge samples per curve")
        common(p, fmt=("csv", "json", "svg"))

    if p := command("spectrum", "enumerate eigenvalues up to a cutoff", cmd_spectrum):
        p.add_argument("--geometry", choices=("sg",), default="sg")
        p.add_argument("--level", type=int)
        p.add_argument("--infinite", action="store_true",
                       help="use the full scale-limit length sequence")
        p.add_argument("--cutoff", type=float, required=True)
        common(p, fmt=("json", "csv"))

    if p := command("dimension", "log-log slope of the counting function", cmd_dimension):
        p.add_argument("--geometry", choices=("sg",), default="sg")
        p.add_argument("--level", type=int)
        p.add_argument("--infinite", action="store_true", default=None)
        p.add_argument("--lambda-min", type=float, required=True, dest="lambda_min")
        p.add_argument("--lambda-max", type=float, required=True, dest="lambda_max")
        p.add_argument("--grid", type=int, default=40)
        common(p, fmt=("json", "svg"))

    if p := command("kantorovich", "transport distance between measures on V_n",
                    cmd_kantorovich):
        p.add_argument("--level", type=int, required=True)
        p.add_argument("--mu", required=True, help="index:weight[,index:weight...]")
        p.add_argument("--nu", required=True)
        common(p, fmt=None)

    if p := command("extent", "certified two-scale Dirac bound", cmd_extent):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--alpha", default="auto",
                       help="cross-edge weight; 'auto' picks epsilon/4")
        p.add_argument("--samples", type=int, default=3)
        p.add_argument("--trials", type=int, default=5, help="mixture spot-checks")
        p.add_argument("--seed", type=int, default=0)
        common(p, fmt=("csv", "json"))

    if p := command("covariant", "projection reach under time evolution", cmd_covariant):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--epsilon", type=float, required=True)
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        common(p, fmt=None)
    return parser


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps(
        {"error": kind, "exitCode": code, "message": message},
        sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        chunks = args.func(args)
    except (ValueError, KeyError) as exc:
        return _fail(2, "validation", str(exc))
    except RuntimeError as exc:
        return _fail(3, "non-convergence", str(exc))
    try:
        _emit(chunks, args.out)
    except OSError as exc:  # an --out path that cannot be opened, or a closed stdout
        return _fail(2, "validation", str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
