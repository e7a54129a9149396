"""Cross-model, cross-indicator analysis.

Given a set of (name, quality, indicator values) records, built in
Python or read from a CSV file by ``read_records``, this module finds
where the indicators disagree: Pareto frontiers per indicator,
tie-corrected Kendall rank correlation between indicator orderings with the
count of inverted pairs and a listing of them (all, or the first N),
and a combined report of models that look efficient under one indicator
and dominated under another.

A report ranks each indicator once, and each indicator pair masks those
ranks with the records carrying both; each indicator's frontier is read
from the same ranks by ``_frontier``, the one domination rule, which
``pareto_frontier`` runs on the costs themselves. The inverted-pair
listing is held as each record's discordant partners in one bitmask, and
one decoder reads it a record's row at a time, picking per partner from
two sequences over the records the caller gives: ``inverted_pairs``
builds the ``InvertedPair`` objects from it on first access, and the CLI
picks line templates with it, one listed row per write, without building
them.

All indicator values are treated as lower-is-better; throughput is
declared higher-is-better at ingestion and negated internally so the rule
holds uniformly. Everything is deterministic and pure over the input
record list.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, groupby, islice
from operator import attrgetter
from typing import NamedTuple

from .archspec import InputFileError, _echo, check_value

#: The canonical indicator ids, in report order, each with the ``CostProfile``
#: field it is read from. CSV files may carry extra columns (treated as
#: lower-is-better indicators); these are the ids with defined semantics.
PROFILE_FIELDS = {
    "params": "params",
    "flops": "flops",
    "latency": "latency_sec",
    "throughput": "throughput_examples_per_sec",
    "activation": "activation_elements",
    "mac": "mac_bytes",
    "memory": "peak_training_bytes",
    "carbon": "carbon_kg_co2e",
    "cost": "monetary_cost",
}
INDICATOR_IDS = tuple(PROFILE_FIELDS)

#: Indicators where larger raw values are better; negated internally.
HIGHER_BETTER = frozenset({"throughput"})


class AnalysisError(Exception):
    """Base class for analysis-level failures (not input parse errors)."""


class InsufficientDataError(AnalysisError):
    """Fewer comparable records than the operation needs."""


class CoverageError(AnalysisError, ValueError):
    """Records are missing a required column/indicator: malformed input."""


@dataclass(frozen=True)
class ModelRecord:
    """One model's quality score and cost-indicator values.

    ``quality`` is higher-is-better and may be None for records built from
    pure cost profiles; frontier analyses then refuse to run. Indicator
    values are raw as ingested (throughput stays positive here).
    """

    name: str
    indicators: dict[str, float]
    quality: float | None = None

    def __post_init__(self):
        check_value("name", self.name, str)
        if self.quality is not None and not _finite(self.quality):
            raise ValueError(f"record {_echo(self.name)}: quality must be finite")
        check_value("indicators", self.indicators, dict)
        if not self.indicators:
            raise ValueError(f"record {_echo(self.name)}: at least one indicator required")
        for key, value in self.indicators.items():
            if type(key) is not str:  # reports sort the names
                raise ValueError(f"record {_echo(self.name)}: indicator name must be a "
                                 f"string, got {_echo(key)}")
            if not _finite(value):
                raise ValueError(f"record {_echo(self.name)}: indicator {_echo(key)} "
                                 f"must be finite")

    def cost_value(self, indicator: str) -> float:
        """Lower-is-better view of one indicator."""
        v = self.indicators[indicator]
        return -v if indicator in HIGHER_BETTER else v


def _finite(value) -> bool:
    """True for a finite number; a bool is not one, though Python compares it as one."""
    try:
        return value is not True and value is not False and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int past the float range
        return False


def _record_list(records) -> list[ModelRecord]:
    """``records`` as a list; ValueError unless it is an iterable of ModelRecord."""
    try:
        records = list(records)
        ok = all(isinstance(r, ModelRecord) for r in records)
    except TypeError:  # not iterable
        ok = False
    if not ok:
        raise ValueError("records must be an iterable of ModelRecord")
    return records


def _csv_rows(path: str):
    """(physical line where the row starts, cells) of each non-blank row of a
    CSV file, read as it is iterated, a leading byte-order mark dropped; a file
    that cannot be read raises ``InputFileError``."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            start = 1
            for row in reader:
                if row:
                    yield start, row
                start = reader.line_num + 1
    except FileNotFoundError:
        raise InputFileError(f"no such file: {path}", file=path)
    except (OSError, ValueError, csv.Error) as exc:
        raise InputFileError(f"cannot read {path}: {exc}", file=path)


def _numeral(text: str, kind):
    """``kind(text)``, but ValueError for the ``1_0`` and non-ASCII digits it reads."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return kind(text)


def read_records(path: str) -> list[ModelRecord]:
    """One record per data row of a records CSV file (format in
    docs/file-formats.md). A ``family`` column is ignored, ``quality`` may be
    any finite score, and each indicator cell obeys the ``float`` field rule
    of ``check_value``. A file that breaks the format raises ``InputFileError``.
    Each record is built as its row is read."""
    def refuse(line: int, message: str, **detail) -> InputFileError:
        return InputFileError(f"{path}:{line}: {message}", file=path, line=line, **detail)

    check_value("path", path, (str, os.PathLike))  # open() reads an int as a descriptor
    rows = _csv_rows(path)
    head_line, header = next(rows, (None, None))
    if header is None:
        raise InputFileError(f"{path}: empty records file", file=path)
    header = [h.strip() for h in header]
    first = {}  # column name -> its first column number
    for i, col in enumerate(header, start=1):
        if not col or first.setdefault(col, i) != i:
            raise refuse(head_line, f"column names must be unique and non-empty, "
                                    f"got {_echo(col)} in column {i}", column=col)
    missing = [c for c in ("name", "quality") if c not in header]
    if missing:
        raise InputFileError(f"{path}: records header must contain 'name' and "
                               f"'quality' (missing: {', '.join(missing)})", file=path)
    number_cols = [c for c in header if c not in ("name", "family")]
    records = []
    first_line = {}
    for lineno, row in rows:
        if len(row) != len(header):
            raise refuse(lineno, f"expected {len(header)} cells, got {len(row)}")
        cells = dict(zip(header, (c.strip() for c in row)))
        name = cells["name"]
        if not name:
            raise refuse(lineno, "name cell is empty")
        if name in first_line:
            raise refuse(lineno, f"duplicate model name {_echo(name)} "
                                 f"(first on line {first_line[name]})", model=name)
        first_line[name] = lineno
        if cells["quality"] == "":
            raise refuse(lineno, "quality cell is empty")
        numbers = {}
        for col in number_cols:
            text = cells[col]
            if text == "":
                continue
            try:
                numbers[col] = _numeral(text, float)
            except ValueError:
                raise refuse(lineno, f"cell {_echo(col)} is not numeric: {_echo(text)}",
                             column=col)
            if col != "quality":  # a score, not a cost: ModelRecord checks it
                try:
                    check_value(col, numbers[col], float)
                except ValueError as exc:
                    raise refuse(lineno, str(exc), column=col)
        quality = numbers.pop("quality")
        try:
            records.append(ModelRecord(name, numbers, quality))
        except ValueError as exc:
            raise refuse(lineno, str(exc))
    if not records:
        raise InputFileError(f"{path}: no data rows", file=path)
    return records


def indicators_present(records) -> list[str]:
    """Indicator ids present on at least one record, canonical ids first."""
    seen = set()
    for r in records:
        seen.update(r.indicators)
    ordered = [k for k in INDICATOR_IDS if k in seen]
    ordered.extend(sorted(seen.difference(INDICATOR_IDS)))
    return ordered


# ---------------------------------------------------------------------------
# Pareto frontier


def pareto_frontier(records, cost_key: str = "params"):
    """Records not strictly dominated in the (quality, cost) plane.

    A record is dominated when another has quality >= and cost <= with at
    least one strict; exact ties in both coordinates are all kept. Output
    is ordered by cost ascending (input order breaks ties).
    """
    check_value("cost_key", cost_key, str)
    records = _record_list(records)
    missing = [r.name for r in records if cost_key not in r.indicators]
    if missing:
        raise CoverageError(
            f"records missing cost indicator {_echo(cost_key)}: {', '.join(missing)}")
    no_quality = [r.name for r in records if r.quality is None]
    if no_quality:
        raise CoverageError(f"records missing quality: {', '.join(no_quality)}")
    keys = [r.cost_value(cost_key) for r in records]
    return [records[k] for k in _frontier(keys, [r.quality for r in records])]


def _frontier(keys, quality) -> list[int]:
    """The positions no other position dominates, in ascending ``keys`` order
    with input order breaking ties; a None key leaves its position out. A
    position is kept when its ``quality`` is the best among its equal keys and
    beats every smaller key's. Both are sequences over the same positions."""
    kept = []
    best = -math.inf  # best quality at a strictly smaller key
    order = sorted([k for k, v in enumerate(keys) if v is not None], key=keys.__getitem__)
    for _, group in groupby(order, key=keys.__getitem__):
        group = list(group)
        top = max([quality[k] for k in group])
        if top > best:
            kept += [k for k in group if quality[k] == top]
            best = top
    return kept


# ---------------------------------------------------------------------------
# Rank disagreement (Kendall tau-b with explicit inversions)


class InvertedPair(NamedTuple):
    """Two models whose ordering flips between two indicators; ``model_a``
    is the one that looks cheaper under ``indicator_a``."""

    model_a: str
    model_b: str
    indicator_a: str
    indicator_b: str


class _Listing(NamedTuple):
    """One indicator pair's listed inversions as bitmasks. ``rows`` holds
    ``(i, partners, a_first, count)`` for each record position ``i`` with
    listed partners: bit ``k`` of ``partners`` is the discordant partner
    ``i + 1 + k``, the same bit of ``a_first`` is set when that partner
    costs more under ``indicator_a`` (so record ``i`` is ``model_a``), and
    the first ``count`` partners are listed (only the last row is cut).
    ``names`` holds every record's name, carrier or not."""

    indicator_a: str
    indicator_b: str
    names: tuple[str, ...]
    rows: tuple[tuple[int, int, int, int], ...]


#: ``bytes.translate`` table turning the digits of ``bin(m)`` into 0/1
#: bytes, a selector for ``itertools.compress``.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int, width: int) -> bytes:
    """Byte ``k`` is bit ``k`` of ``mask``, for ``k`` below ``width``."""
    return bin(mask | 1 << width)[:2:-1].encode().translate(_BIT_BYTES)


def _listed_rows(listing: _Listing, me_first, other_first):
    """``(i, items, count)`` of each listed row ``i``, in record order: ``items``
    yields, in partner order, ``me_first[j]`` for a partner ``j`` costlier under
    ``indicator_a`` and ``other_first[j]`` for any other, two sequences over the
    records; its first ``count`` are listed. A mixed row reads them interleaved."""
    both = [None] * (2 * len(me_first))
    both[::2], both[1::2] = other_first, me_first
    for i, partners, a_first, count in listing.rows:
        start, width = i + 1, partners.bit_length()
        if a_first == partners or not a_first:  # every partner faces one way
            side = me_first if a_first else other_first
            yield i, compress(side[start:start + width], _bits(partners, width)), count
        else:
            picked = bytearray(2 * width)
            picked[::2], picked[1::2] = _bits(partners ^ a_first, width), _bits(a_first, width)
            yield i, compress(both[2 * start:2 * (start + width)], picked), count


def _inverted_pairs(listings) -> tuple[InvertedPair, ...]:
    pairs = []
    for listing in filter(attrgetter("rows"), listings):
        a, b, names = listing.indicator_a, listing.indicator_b, listing.names
        rows = _listed_rows(listing, [(n, True) for n in names], [(n, False) for n in names])
        for i, items, count in rows:
            pairs += [InvertedPair(*((names[i], other) if first else (other, names[i])), a, b)
                      for other, first in islice(items, count)]
    return tuple(pairs)


@dataclass(frozen=True)
class RankDisagreement:
    kendall_tau: float
    n_records: int
    n_concordant: int
    n_discordant: int
    _listing: _Listing = field(repr=False)

    @cached_property
    def inverted_pairs(self) -> tuple[InvertedPair, ...]:
        return _inverted_pairs((self._listing,))


def _ranking(records, indicator: str):
    """``indicator`` ranked over the record positions: each position's dense
    rank (exact float equality ties, so ``0.0 == -0.0``) or None, each rank's
    bitmask of positions, and the bitmask of the positions carrying it."""
    values = [r.cost_value(indicator) if indicator in r.indicators else None for r in records]
    index = {v: r for r, v in enumerate(sorted(set(values) - {None}))}
    ranks = [index.get(v) for v in values]
    buckets = [0] * len(index)
    for pos, r in enumerate(ranks):
        if r is not None:
            buckets[r] |= 1 << pos
    return indicator, ranks, buckets, sum(buckets)


def _below(buckets, carrying: int):
    """``below[r]``, the ``carrying`` positions ranked under ``r`` as a bitmask
    (``below[-1]`` holds them all), and the number of pairs of them tied."""
    below, ties = [0], 0
    for bucket in buckets:
        bucket &= carrying
        below.append(below[-1] | bucket)
        ties += math.comb(bucket.bit_count(), 2)
    return below, ties


def rank_disagreement(records, indicator_a: str, indicator_b: str) -> RankDisagreement:
    """Tie-corrected Kendall tau (tau-b) between two cost orderings.

    ``inverted_pairs`` lists the discordant pairs in record order (pair
    ``(i, j)`` before ``(i, j + 1)`` before ``(i + 1, j)``). When every
    pair is tied in at least one indicator the correlation is undefined;
    it is reported as 1.0 when there are no discordant pairs (the
    orderings never actually disagree) and 0.0 otherwise.

    The counts come from rank bitmasks: each indicator is ranked once over
    the record positions (once per report in ``misnomer_report``) and masked
    with the records carrying both. For record ``i`` the records ranked
    below and above it are integers used as bitsets, so its concordant and
    discordant partners take a few whole-integer operations. The listing
    keeps those partner bitmasks, one row per record, and
    ``inverted_pairs`` decodes them row by row on first access.
    """
    check_value("indicator_a", indicator_a, str)
    check_value("indicator_b", indicator_b, str)
    records = _record_list(records)
    return _disagreement(tuple(r.name for r in records), _ranking(records, indicator_a),
                         _ranking(records, indicator_b), None)


def _disagreement(names, ranking_a, ranking_b, max_pairs) -> RankDisagreement:
    """``rank_disagreement`` from two ``_ranking`` results over ``names``."""
    indicator_a, ranks_a, buckets_a, carrying_a = ranking_a
    indicator_b, ranks_b, buckets_b, carrying_b = ranking_b
    everyone = carrying_a & carrying_b
    n = everyone.bit_count()
    if n < 2:
        raise InsufficientDataError(f"need >= 2 records carrying both "
                                    f"{_echo(indicator_a)} and {_echo(indicator_b)}, got {n}")
    below_a, ties_a = _below(buckets_a, everyone)
    below_b, ties_b = _below(buckets_b, everyone)
    n0 = n * (n - 1) // 2
    room = n0 if max_pairs is None else max_pairs
    concordant = discordant = 0
    rows = []
    for i, (x, y) in enumerate(zip(ranks_a, ranks_b)):
        if x is None or y is None:
            continue
        lt_a, gt_a = below_a[x], everyone ^ below_a[x + 1]
        lt_b, gt_b = below_b[y], everyone ^ below_b[y + 1]
        # bit k of these is the partner j = i + 1 + k
        concordant += (((lt_a & lt_b) | (gt_a & gt_b)) >> (i + 1)).bit_count()
        flipped = ((lt_a & gt_b) | (gt_a & lt_b)) >> (i + 1)
        if not flipped:
            continue
        found = flipped.bit_count()
        discordant += found
        if room > 0:
            rows.append((i, flipped, (gt_a >> (i + 1)) & flipped, min(found, room)))
            room -= found
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0:
        tau = 1.0 if discordant == 0 else 0.0
    else:
        tau = (concordant - discordant) / denom
    return RankDisagreement(
        kendall_tau=tau,
        n_records=n,
        n_concordant=concordant,
        n_discordant=discordant,
        _listing=_Listing(indicator_a, indicator_b, names, tuple(rows)),
    )


# ---------------------------------------------------------------------------
# Misnomer report


@dataclass(frozen=True)
class ParetoInstability:
    """A model on the frontier under some indicators and strictly
    dominated under others."""

    name: str
    frontier_under: tuple[str, ...]
    dominated_under: tuple[str, ...]


@dataclass(frozen=True)
class CoverageWarning:
    name: str
    indicator: str


@dataclass(frozen=True)
class MisnomerReport:
    """Where cost indicators disagree across a model set.

    Rank correlations use tie-corrected Kendall tau (tau-b). Frontier
    analyses run only when every record carries a quality score;
    otherwise the report covers rank disagreement alone.
    """

    indicator_pairs_examined: tuple[tuple[str, str], ...]
    kendall_tau: dict[tuple[str, str], float]
    n_inverted_pairs: int
    pareto_instability: tuple[ParetoInstability, ...]
    coverage_warnings: tuple[CoverageWarning, ...]
    _listings: tuple[_Listing, ...] = field(repr=False)
    frontier_analysis_ran: bool = True

    @cached_property
    def inverted_pairs(self) -> tuple[InvertedPair, ...]:
        return _inverted_pairs(self._listings)


def misnomer_report(records, max_pairs: int | None = None) -> MisnomerReport:
    """Run every pairwise rank comparison and per-indicator frontier.

    ``inverted_pairs`` concatenates each indicator pair's listing, cut to
    the first ``max_pairs`` when that is given, and is built on first
    access; ``n_inverted_pairs`` counts every discordant pair.
    """
    if max_pairs is not None and (type(max_pairs) is not int or max_pairs < 0):
        raise ValueError(f"max_pairs must be an integer >= 0, got {_echo(max_pairs)}")
    records = _record_list(records)
    if len(records) < 2:
        raise InsufficientDataError(f"need >= 2 records, got {len(records)}")
    present = indicators_present(records)

    coverage = [
        CoverageWarning(r.name, ind)
        for r in records for ind in present if ind not in r.indicators
    ]

    names = tuple(r.name for r in records)
    rankings = {ind: _ranking(records, ind) for ind in present}
    taus = {}
    listings = []
    room = max_pairs
    n_inverted = 0
    for i, ind_a in enumerate(present):
        for ind_b in present[i + 1:]:
            try:
                result = _disagreement(names, rankings[ind_a], rankings[ind_b], room)
            except InsufficientDataError:
                continue
            taus[(ind_a, ind_b)] = result.kendall_tau
            listings.append(result._listing)
            if room is not None:
                room = max(0, room - result.n_discordant)
            n_inverted += result.n_discordant

    have_quality = all(r.quality is not None for r in records)
    instability = []
    if have_quality:
        # Keyed by position, so rows sharing a name stay apart. Each
        # frontier is read from the ranks, which order as the costs do.
        quality = [r.quality for r in records]
        frontier_under = [[] for _ in records]
        dominated_under = [[] for _ in records]
        for ind in present:
            ranks = rankings[ind][1]
            on = set(_frontier(ranks, quality))
            for k, rank in enumerate(ranks):
                if rank is not None:
                    (frontier_under if k in on else dominated_under)[k].append(ind)
        instability = [
            ParetoInstability(r.name, tuple(front), tuple(dominated))
            for r, front, dominated in zip(records, frontier_under, dominated_under)
            if front and dominated
        ]

    return MisnomerReport(
        indicator_pairs_examined=tuple(taus),
        kendall_tau=taus,
        n_inverted_pairs=n_inverted,
        pareto_instability=tuple(instability),
        coverage_warnings=tuple(coverage),
        _listings=tuple(listings),
        frontier_analysis_ran=have_quality,
    )
