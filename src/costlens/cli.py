"""Command line interface: profile, compare, pareto.

All commands are deterministic: the same inputs produce byte-identical
output (no timestamps, sorted keys, fixed float formatting). The commands
call the library unwrapped, and ``main`` alone maps an exception to an
exit code: 0 success; 1 an ``AnalysisError`` (too few comparable models);
2 malformed input, a ``ValueError`` or ``OverflowError`` (a refused file,
flag or usage, a record that lacks the cost or quality, or a count past
its range), or an output path or stdout that cannot be written, is closed
or cannot encode the output (``cannot write stdout: <reason>``). Exits 1
and 2 print one JSON line on stderr. A refused input prints nothing on
stdout, as every refusal is decided before the first write; a stdout that
fails partway may hold a prefix of the output, as ``compare`` writes its
report one listed row per write. A stderr that cannot be written loses
its lines and changes neither the exit code nor stdout.

The CLI opens no input file itself. ``costlens.read_spec_file`` reads
spec files and ``costlens.read_records`` records files (formats in
docs/file-formats.md); ``costlens.profiles`` also reads the ``--hw``,
``--energy`` and ``--pricing`` files. A refused file, read or written,
raises ``InputFileError`` and an invalid architecture ``InvalidSpecError``;
the message and ``detail`` of either make the error line. A usage error is
a plain ``ValueError``, whose message alone makes it.
``compare`` takes spec files or ``--records``, never both; ``--hw`` and
``--batch`` profile spec files, so they are refused with ``--records``.
``profile`` takes a spec file or builder flags, never both, and refuses a
builder flag that ``--family`` does not take.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import io
import json
import math
import os
import re
import sys
from html import escape
from itertools import chain, islice

from .analysis import (
    HIGHER_BETTER,
    AnalysisError,
    InsufficientDataError,
    MisnomerReport,
    ModelRecord,
    _listed_rows,
    _numeral,
    indicators_present,
    misnomer_report,
    pareto_frontier,
    read_records,
)
from .archlib import ARRANGEMENTS, BUILDER_ARGS, build_from_reference
from .archspec import (  # validate: the bench tracer test reads it
    ArchSpec, InputFileError, _cut, _echo, validate)
from .footprint import EnergyProfile, PricingProfile
from .indicators import OptimizerKind
from .profiles import _hardware, _rates, compute_profile, read_spec_file, record_from_profile


#: Significant digits of every number the CLI prints.
SIG_DIGITS = 6


def format_fixed(x) -> str:
    """Fixed-notation rendering of a finite number with up to ``SIG_DIGITS`` significant digits."""
    if isinstance(x, int):
        x = float(x)
    if x == 0:
        return "0"
    digits = SIG_DIGITS - 1 - math.floor(math.log10(abs(x)))
    y = round(x, digits)
    if digits <= 0:
        return str(int(y))
    text = f"{y:.{digits}f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


# ---------------------------------------------------------------------------
# Input loading


def _batch(flag: int | None, from_file: int | None) -> int:
    """``--batch``, else the spec file's ``batch``, else 1."""
    if flag is not None:
        return flag
    return 1 if from_file is None else from_file


# Kept: the bench spans cli.load_spec_file and cli.read_records_csv wrap
# these names, and the tests call them.
load_spec_file = read_spec_file
read_records_csv = read_records


# ---------------------------------------------------------------------------
# SVG scatter


#: Size of the scatter in SVG user units, and the label of its y axis.
SVG_WIDTH, SVG_HEIGHT, SVG_QUALITY_LABEL = 640, 480, "quality"


def _axis(lo: float, hi: float, start: float, end: float):
    """The linear map of ``[lo, hi]`` onto ``[start, end]``, or their midpoint
    when ``lo == hi``. Every term is halved where ``hi - lo`` overflows, so any
    finite value lands on the canvas; only there, as halving would round a
    subnormal span to 0."""
    if hi == lo:
        return lambda v: (start + end) / 2.0
    k = 0.5 if math.isinf(hi - lo) else 1.0
    return lambda v: start + (v * k - lo * k) / (hi * k - lo * k) * (end - start)


def svg_scatter(records, cost_key: str, frontier) -> str:
    """Minimal deterministic SVG 1.1 scatter; ``frontier`` is ``pareto_frontier``'s list."""
    width, height = SVG_WIDTH, SVG_HEIGHT
    margin = 56.0
    xs = [r.indicators[cost_key] for r in records]
    ys = [r.quality for r in records]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)

    sx = _axis(xmin, xmax, margin, width - margin)
    sy = _axis(ymin, ymax, height - margin, margin)

    def f(v):
        return f"{v:.2f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{f(margin)}" y1="{f(height - margin)}" x2="{f(width - margin)}" '
        f'y2="{f(height - margin)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{f(margin)}" y1="{f(margin)}" x2="{f(margin)}" '
        f'y2="{f(height - margin)}" stroke="black" stroke-width="1"/>',
        f'<text x="{f(width / 2)}" y="{f(height - margin / 4)}" font-size="13" '
        f'text-anchor="middle">{escape(cost_key, quote=False)}</text>',
        f'<text x="{f(margin / 4)}" y="{f(height / 2)}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 {f(margin / 4)} '
        f'{f(height / 2)})">{SVG_QUALITY_LABEL}</text>',
        f'<text x="{f(margin)}" y="{f(height - margin / 2)}" font-size="11" '
        f'text-anchor="middle">{format_fixed(xmin)}</text>',
        f'<text x="{f(width - margin)}" y="{f(height - margin / 2)}" font-size="11" '
        f'text-anchor="middle">{format_fixed(xmax)}</text>',
        f'<text x="{f(margin / 2)}" y="{f(height - margin)}" font-size="11" '
        f'text-anchor="middle">{format_fixed(ymin)}</text>',
        f'<text x="{f(margin / 2)}" y="{f(margin)}" font-size="11" '
        f'text-anchor="middle">{format_fixed(ymax)}</text>',
    ]
    if len(frontier) >= 2:
        line = frontier[::-1] if cost_key in HIGHER_BETTER else frontier  # left to right
        points = " ".join(
            f"{f(sx(r.indicators[cost_key]))},{f(sy(r.quality))}" for r in line
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="#d62728" '
            f'stroke-width="1.5" stroke-dasharray="4 3"/>'
        )
    on = {id(r) for r in frontier}
    for r in records:
        fill = "#d62728" if id(r) in on else "#1f77b4"
        parts.append(
            f'<circle cx="{f(sx(r.indicators[cost_key]))}" '
            f'cy="{f(sy(r.quality))}" r="4" fill="{fill}">'
            f"<title>{escape(r.name, quote=False)}</title></circle>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Output rendering


#: indent=2's bytes for a flat object, from the C encoder.
_PROFILE_JSON = json.JSONEncoder(sort_keys=True, separators=(",\n  ", ": "))


def _profile_lines(d: dict, fmt: str) -> str:
    if fmt == "json":
        text = _PROFILE_JSON.encode(d)
        return "{\n  " + text[1:-1] + "\n}\n"
    keys = sorted(d)
    cells = [d[k] if isinstance(d[k], str) else format_fixed(d[k]) for k in keys]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows((keys, cells))
        return buf.getvalue()
    width = max(map(len, keys))
    return "".join(f"{k:<{width}}  {cell}\n" for k, cell in zip(keys, cells))


def _render_misnomer(report: MisnomerReport):
    """The report's text as chunks to write in order, each of whole lines:
    the tau lines and the listing header, one listed row per chunk (at most
    n - 1 lines for n records, so memory follows the records, not the
    pairs), then the tail sections."""
    lines = ["", "rank agreement (kendall tau-b, tie-corrected):"]
    if not report.indicator_pairs_examined:
        lines.append("  (no indicator pair carried by >= 2 models)")
    for pair in report.indicator_pairs_examined:
        tau = report.kendall_tau[pair]
        lines.append(f"  {pair[0]} vs {pair[1]}: tau = {format_fixed(tau)}")
    lines.append("inverted pairs (cheaper under the first indicator, "
                 "costlier under the second):")
    yield "\n".join(lines) + "\n"
    # A row's lines join per-record templates, in which its record stands as a
    # run of NULs longer than any a name holds, so replace() finds only those.
    names = report._listings[0].names if report._listings else ()
    held = re.findall("\0+", "\n".join(chain(names, *report.indicator_pairs_examined)))
    ph = "\0" * (1 + max(map(len, held), default=0))
    shown = 0
    for listing in report._listings:  # the pairs, never built as InvertedPair
        if not listing.rows:  # no templates to build: cost follows the rows listed
            continue
        a, b = listing.indicator_a, listing.indicator_b
        rows = _listed_rows(listing,
                            [f"  {ph} < {o} on {a} but {ph} > {o} on {b}\n" for o in names],
                            [f"  {o} < {ph} on {a} but {o} > {ph} on {b}\n" for o in names])
        for i, items, count in rows:
            shown += count
            yield "".join(islice(items, count)).replace(ph, names[i])
    lines = []
    if shown < report.n_inverted_pairs:
        lines.append(f"  showing {shown} of {report.n_inverted_pairs} inverted pairs")
    elif not shown:
        lines.append("  none")
    if report.frontier_analysis_ran:
        lines.append("pareto instability (frontier under some indicators, "
                     "dominated under others):")
        if not report.pareto_instability:
            lines.append("  none")
        for entry in report.pareto_instability:
            lines.append(
                f"  {entry.name}: frontier under "
                f"{', '.join(entry.frontier_under)}; dominated under "
                f"{', '.join(entry.dominated_under)}"
            )
    else:
        lines.append("pareto instability: skipped (no quality scores)")
    if report.coverage_warnings:
        lines.append("coverage warnings:")
        for w in report.coverage_warnings:
            lines.append(f"  {w.name} is missing {w.indicator}")
    yield "\n".join(lines) + "\n"


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    fmt_row = lambda cells: "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return [fmt_row(header)] + [fmt_row(r) for r in rows]


# ---------------------------------------------------------------------------
# Commands


#: Every builder argument, with its annotated type, in declaration order.
_ALL_BUILDER_ARGS = {n: kind for accepted in BUILDER_ARGS.values() for n, kind in accepted.items()}
#: The dests of every builder flag, ``--family`` first.
_BUILDER_DESTS = ("family", *_ALL_BUILDER_ARGS)


def _flag(name: str) -> str:
    """The flag of a builder argument: its name with dashes, but
    ``--layers`` for ``layers_per_stack``."""
    return {"layers_per_stack": "--layers"}.get(name, "--" + name.replace("_", "-"))


def _int(text: str) -> int:
    """An integer flag's value, its numeral read by the rule of a records cell."""
    try:
        return _numeral(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}")


def _add_builder_flags(parser):
    """``--family`` and one flag per builder argument, read from its annotation."""
    settings = {int: {"type": _int}, tuple[int, int, int]: {"type": _int, "nargs": 3},
                str: {"choices": ARRANGEMENTS}}
    group = parser.add_argument_group("builder flags (instead of a spec file)")
    group.add_argument("--family", choices=list(BUILDER_ARGS))
    for name, kind in _ALL_BUILDER_ARGS.items():
        group.add_argument(_flag(name), dest=name, **settings[kind], help=", ".join(
            f for f, accepted in BUILDER_ARGS.items() if name in accepted))


def _spec_from_args(args) -> ArchSpec:
    kwargs = {name: value for name in _ALL_BUILDER_ARGS
              if (value := getattr(args, name)) is not None}
    extra = [_flag(name) for name in kwargs if name not in BUILDER_ARGS[args.family]]
    if extra:
        raise ValueError(f"{', '.join(extra)} {'does' if len(extra) == 1 else 'do'} "
                         f"not apply to builder {_echo(args.family)}")
    return build_from_reference(args.family, kwargs)


def cmd_profile(args) -> int:
    hardware = None
    batch = None
    if args.spec is not None:
        extra = [_flag(name) for name in _BUILDER_DESTS if getattr(args, name) is not None]
        if extra:
            raise ValueError(f"a spec file cannot be combined with {', '.join(extra)}")
        spec, hardware, batch = read_spec_file(args.spec)
    elif args.family is not None:
        spec = _spec_from_args(args)
    else:
        raise ValueError("profile requires a spec file or --family")
    if args.hw is not None:
        hardware = _hardware(args.hw)
    energy = pricing = None
    if args.energy is not None:
        energy = _rates(EnergyProfile, args.energy, "energy profile")
    if args.pricing is not None:
        pricing = _rates(PricingProfile, args.pricing, "pricing profile")
    profile = compute_profile(spec, _batch(args.batch, batch), hardware,
                              optimizer=OptimizerKind(args.optimizer),
                              energy=energy, pricing=pricing)
    sys.stdout.write(_profile_lines(profile.to_dict(), args.format))
    sys.stdout.flush()  # so a stdout that fails exits 2 before any warning
    if hardware is None:
        _stderr_line("warning: no hardware model given; latency and throughput "
                     "are omitted")
    return 0


def _records_from_specs(paths, hw_name, batch) -> list[ModelRecord]:
    hardware = None if hw_name is None else _hardware(hw_name)
    records = []
    for path in paths:
        spec, file_hw, file_batch = read_spec_file(path)
        profile = compute_profile(spec, _batch(batch, file_batch), hardware or file_hw)
        records.append(record_from_profile(profile.to_dict()))
    return records


def cmd_compare(args) -> int:
    if args.max_pairs is not None and args.max_pairs < 0:
        raise ValueError(f"--max-pairs must be >= 0, got {args.max_pairs}")
    if args.records is not None:
        extra = [flag for flag, given in (("spec files", args.specs),
                                          ("--hw", args.hw is not None),
                                          ("--batch", args.batch is not None)) if given]
        if extra:
            raise ValueError(f"--records cannot be combined with {', '.join(extra)}")
        records = read_records(args.records)
    elif args.specs:
        records = _records_from_specs(args.specs, args.hw, args.batch)
    else:
        raise ValueError("compare requires spec files or --records")
    if len(records) < 2:
        raise InsufficientDataError("compare requires at least 2 models")

    dropped = []
    if args.indicators is not None:
        wanted = [s.strip() for s in args.indicators.split(",") if s.strip()]
        if not wanted:
            raise ValueError(f"--indicators {_echo(args.indicators)} names no indicator")
        present = indicators_present(records)
        unknown = [w for w in wanted if w not in present]
        if unknown:
            raise ValueError(f"indicator(s) not present in any record: {', '.join(unknown)}")
        dropped = [r.name for r in records if r.indicators.keys().isdisjoint(wanted)]
        records = [ModelRecord(r.name, {k: v for k, v in r.indicators.items()
                                        if k in wanted}, r.quality)
                   for r in records if not r.indicators.keys().isdisjoint(wanted)]
        if len(records) < 2:
            raise InsufficientDataError("fewer than 2 models carry the requested indicators")
    columns = indicators_present(records)
    sort_key = columns[0]
    ordered = sorted(
        records,
        key=lambda r: (r.indicators.get(sort_key, math.inf), r.name),
    )
    # Each distinct value formatted once: values equal as keys (1 and 1.0,
    # 0.0 and -0.0) print alike, as format_fixed reads an int as a float.
    values = {r.quality for r in records if r.quality is not None}
    values.update(v for r in records for v in r.indicators.values())
    text = {v: format_fixed(v) for v in values}
    rows = [[r.name, text.get(r.quality, "")]
            + [text.get(r.indicators.get(c), "") for c in columns] for r in ordered]
    table = "\n".join(_table(["name", "quality"] + columns, rows)) + "\n"
    # max_pairs is passed only when given, so a stand-in for misnomer_report
    # that takes just the records (as in bench/test_bench.py) still fits.
    limit = {} if args.max_pairs is None else {"max_pairs": args.max_pairs}
    chunks = _render_misnomer(misnomer_report(records, **limit))
    # Every refusal is decided before this first write, so a refused input
    # prints nothing. The table names every record and indicator a later
    # line holds, so a stdout that cannot encode them fails here, empty.
    sys.stdout.write(table + next(chunks))
    for chunk in chunks:
        sys.stdout.write(chunk)
    sys.stdout.flush()  # so a stdout that fails exits 2 before any warning
    if dropped:
        _stderr_line(f"warning: --indicators leaves out {', '.join(dropped)}, which "
                     "carry none of the requested indicators")
    return 0


def cmd_pareto(args) -> int:
    records = read_records(args.records)
    frontier = pareto_frontier(records, args.cost)
    names = {r.name for r in frontier}
    lines = [f"frontier (quality vs {args.cost}): "
             f"{len(frontier)} of {len(records)} records"]
    rows = [
        [r.name, format_fixed(r.quality), format_fixed(r.indicators[args.cost])]
        for r in frontier
    ]
    lines += _table(["name", "quality", args.cost], rows)
    dominated = [r.name for r in records if r.name not in names]
    lines.append("dominated: " + (", ".join(sorted(dominated)) if dominated else "none"))
    if args.svg is not None:  # before stdout, so a refused path prints nothing
        svg = svg_scatter(records, args.cost, frontier)  # pareto_frontier checked every cost
        try:  # ValueError: a path holding a null byte or a lone surrogate
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except (OSError, ValueError) as exc:
            raise InputFileError(f"cannot write {args.svg}: {exc}", file=args.svg)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, in every subcommand, exit 2
    with one JSON line like any other malformed input. A refused choice,
    a flag's or the command's, is echoed cut short."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def _check_value(self, action, value):  # argparse's one check of a choice
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {_echo(value)} (choose "
                                                 f"from {', '.join(map(repr, action.choices))})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process (parsing leaves it as is); ``commands`` maps each
    command to its sub-parser, which ``main`` runs alone on a line naming it."""
    parser = _Parser(
        prog="costlens",
        description="Analytical cost indicators and cross-indicator "
                    "disagreement analysis for neural architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("profile", help="compute every indicator for one architecture")
    p.add_argument("spec", nargs="?", help="spec file (JSON)")
    p.add_argument("--hw", help="hardware preset name or JSON path")
    p.add_argument("--batch", type=_int)
    p.add_argument("--optimizer", choices=[o.value for o in OptimizerKind],
                   default="adam")
    p.add_argument("--energy", help="energy profile JSON (enables carbon)")
    p.add_argument("--pricing", help="pricing profile JSON (enables monetary cost)")
    p.add_argument("--format", choices=["json", "csv", "table"], default="table")
    _add_builder_flags(p)

    p = sub.add_parser("compare", help="compare models across indicators")
    p.add_argument("specs", nargs="*", help="spec files (JSON)")
    p.add_argument("--records", help="records CSV instead of spec files")
    p.add_argument("--indicators", help="comma-separated indicator subset")
    p.add_argument("--hw", help="hardware preset for spec-file profiling")
    p.add_argument("--batch", type=_int)
    p.add_argument("--max-pairs", type=_int, metavar="N",
                   help="list at most N inverted pairs (all are still counted)")

    p = sub.add_parser("pareto", help="frontier of quality versus one cost indicator")
    p.add_argument("records", help="records CSV")
    p.add_argument("--cost", required=True)
    p.add_argument("--svg", help="write an SVG scatter to this path")
    return parser


#: Characters of an error line's ``error``, past which ``main`` cuts it,
#: whoever wrote the text; ``detail`` keeps its exact values.
_ERROR_CHARS = 1000


def _stderr_line(line: str) -> None:
    """Print ``line`` on stderr; a stderr that refuses it is skipped."""
    if sys.stderr is not None:  # closed before start-up: print would pick stdout
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def main(argv=None) -> int:
    """Run a command line (``sys.argv[1:]`` when None) and return its exit code.
    A line naming a command is parsed in one pass, by that command's sub-parser;
    any other, by the full parser, which only refuses it or prints help."""
    try:
        parser = build_parser()
        argv = list(sys.argv[1:] if argv is None else argv)
        sub = parser.commands.get(argv[0]) if argv and isinstance(argv[0], str) else None
        if sub is None:
            args = parser.parse_args(argv)
        else:
            args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extra:  # worded as the full parse words it
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if sys.stdout is None:  # closed before start-up: fail as a closed descriptor does
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        # Looked up on each call, so a replaced cmd_<name> takes effect.
        return globals()[f"cmd_{args.command}"](args)
    # Stdout, as the commands guard every file they use; first, as
    # UnicodeEncodeError is a ValueError.
    except (OSError, UnicodeEncodeError) as exc:
        if sys.stdout is sys.__stdout__ is not None:  # so the exit flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, error = 2, {"error": f"cannot write stdout: {exc}"}
    except (ValueError, OverflowError) as exc:
        code, error = 2, {"error": str(exc), **getattr(exc, "detail", {})}
    except AnalysisError as exc:
        code, error = 1, {"error": str(exc)}
    error["error"] = _cut(error["error"], _ERROR_CHARS)
    _stderr_line(json.dumps(error, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
