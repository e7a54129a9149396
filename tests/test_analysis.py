import dataclasses
import random
import time
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from costlens import (
    CoverageError,
    InsufficientDataError,
    ModelRecord,
    misnomer_report,
    pareto_frontier,
    rank_disagreement,
)
from costlens import analysis, cli
from costlens.analysis import InvertedPair, indicators_present, read_records
from costlens.cli import _render_misnomer

from support import (
    TABLE2_ROWS,
    brute_force_frontier_names,
    brute_force_tau,
    data_file,
    oracle_rank_disagreement,
    random_records,
)


def rec(name, quality, **indicators):
    return ModelRecord(name=name, indicators=indicators, quality=quality)


def table2_records():
    return [
        ModelRecord(name=name, quality=acc,
                    indicators={"params": params, "flops": gflops, "latency": msec})
        for name, _, _, _, _, params, gflops, msec, acc in TABLE2_ROWS
    ]


class TestParetoFrontier:
    def test_three_point_example(self):
        records = [rec("a", 1, flops=1), rec("b", 2, flops=2), rec("c", 1.5, flops=3)]
        assert [r.name for r in pareto_frontier(records, "flops")] == ["a", "b"]

    def test_single_record(self):
        records = [rec("only", 5, params=10)]
        assert pareto_frontier(records, "params") == records

    def test_exact_ties_all_kept(self):
        records = [rec("a", 2, flops=1), rec("b", 2, flops=1), rec("c", 1, flops=2)]
        assert {r.name for r in pareto_frontier(records, "flops")} == {"a", "b"}

    def test_missing_cost_raises_with_offenders(self):
        records = [rec("a", 1, flops=1), rec("b", 2, params=2)]
        with pytest.raises(CoverageError) as err:
            pareto_frontier(records, "flops")
        assert str(err.value).endswith(": b")
        assert isinstance(err.value, ValueError)  # so the CLI reads it as malformed input

    def test_sorted_by_cost_ascending(self):
        records = [rec(f"m{i}", q, flops=c)
                   for i, (q, c) in enumerate([(5, 9), (1, 1), (3, 4), (6, 12)])]
        costs = [r.indicators["flops"] for r in
                 pareto_frontier(records, "flops")]
        assert costs == sorted(costs)

    def test_table2_frontier_matches_dominance_oracle(self):
        records = table2_records()
        expected = brute_force_frontier_names(records, "flops")
        got = {r.name for r in pareto_frontier(records, "flops")}
        assert got == expected
        assert {"W768", "W4096"} <= got         # cheapest and highest quality
        assert got == {"W768", "D6", "D8", "W1024", "D16", "D24", "D32", "D48", "W4096"}

    def test_random_sets_match_oracle(self):
        rng = random.Random(11)
        for _ in range(100):
            records = random_records(rng, rng.randint(1, 40))
            got = {r.name for r in pareto_frontier(records, "flops")}
            assert got == brute_force_frontier_names(records, "flops")

    def test_throughput_is_higher_better(self):
        # b has higher throughput (cheaper cost once negated) and higher
        # quality: a must be dominated
        records = [rec("a", 1, throughput=10), rec("b", 2, throughput=20)]
        assert [r.name for r in pareto_frontier(records, "throughput")] == ["b"]


class TestRankDisagreement:
    def test_identical_orderings(self):
        records = [rec("a", 0, params=1, flops=1), rec("b", 0, params=2, flops=2),
                   rec("c", 0, params=3, flops=3)]
        result = rank_disagreement(records, "params", "flops")
        assert result.kendall_tau == 1.0
        assert result.inverted_pairs == ()

    def test_exactly_reversed(self):
        records = [rec("a", 0, params=1, flops=3), rec("b", 0, params=2, flops=2),
                   rec("c", 0, params=3, flops=1)]
        result = rank_disagreement(records, "params", "flops")
        assert result.kendall_tau == -1.0
        assert len(result.inverted_pairs) == 3

    def test_table2_discordant_pair_reported(self):
        result = rank_disagreement(table2_records(), "params", "latency")
        pairs = {(p.model_a, p.model_b) for p in result.inverted_pairs}
        assert ("D48", "W3072") in pairs

    def test_tau_matches_pair_counting_oracle(self):
        records = table2_records()
        both = [r for r in records
                if "params" in r.indicators and "latency" in r.indicators]
        oracle = brute_force_tau(
            [r.indicators["params"] for r in both],
            [r.indicators["latency"] for r in both],
        )
        assert rank_disagreement(records, "params", "latency").kendall_tau == oracle

    def test_tau_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        records = table2_records()
        got = rank_disagreement(records, "params", "latency").kendall_tau
        want = stats.kendalltau(
            [r.indicators["params"] for r in records],
            [r.indicators["latency"] for r in records],
        ).statistic
        assert got == pytest.approx(want, abs=1e-12)

    def test_pair_orientation(self):
        # model_a is the one cheaper under indicator_a
        records = [rec("big", 0, params=10, latency=1),
                   rec("small", 0, params=1, latency=2)]
        result = rank_disagreement(records, "params", "latency")
        assert result.inverted_pairs[0].model_a == "small"
        assert result.inverted_pairs[0].model_b == "big"

    def test_symmetric_in_indicator_order(self):
        records = table2_records()
        ab = rank_disagreement(records, "params", "latency")
        ba = rank_disagreement(records, "latency", "params")
        assert ab.kendall_tau == ba.kendall_tau
        assert len(ab.inverted_pairs) == len(ba.inverted_pairs)

    def test_all_tied_counts_as_agreement(self):
        records = [rec("a", 0, params=5, flops=5), rec("b", 0, params=5, flops=5)]
        assert rank_disagreement(records, "params", "flops").kendall_tau == 1.0

    def test_insufficient_records(self):
        with pytest.raises(InsufficientDataError):
            rank_disagreement([rec("a", 0, params=1, flops=1)], "params", "flops")

    def test_records_missing_one_indicator_excluded(self):
        records = [rec("a", 0, params=1), rec("b", 0, params=2, flops=1)]
        with pytest.raises(InsufficientDataError):
            rank_disagreement(records, "params", "flops")

    def test_tau_in_range_on_random_data(self):
        rng = random.Random(5)
        for _ in range(50):
            records = [rec(f"m{i}", 0,
                           params=round(rng.uniform(0, 5), 1),
                           flops=round(rng.uniform(0, 5), 1))
                       for i in range(rng.randint(2, 20))]
            result = rank_disagreement(records, "params", "flops")
            assert -1.0 <= result.kendall_tau <= 1.0
            oracle = brute_force_tau(
                [r.indicators["params"] for r in records],
                [r.indicators["flops"] for r in records],
            )
            assert result.kendall_tau == oracle


class TestMisnomerReport:
    def test_one_model_leads_everywhere(self):
        records = [rec("good", 2, params=1, flops=1, latency=1),
                   rec("bad", 1, params=2, flops=2, latency=2)]
        report = misnomer_report(records)
        assert all(t == 1.0 for t in report.kendall_tau.values())
        assert report.pareto_instability == ()
        assert report.inverted_pairs == ()

    def test_sparse_model_triple(self):
        # a stand-in for the classic dense / depth-shared / expert-routed
        # triple: the expert-routed model is parameter-hungry but compute
        # cheap, so it is on the FLOP frontier yet dominated on parameters
        records = [
            rec("dense", 80.0, params=100, flops=100),
            rec("depth_shared", 85.0, params=40, flops=300),
            rec("expert_routed", 84.0, params=1000, flops=110),
        ]
        report = misnomer_report(records)
        flagged = {e.name: e for e in report.pareto_instability}
        assert "expert_routed" in flagged
        assert "flops" in flagged["expert_routed"].frontier_under
        assert "params" in flagged["expert_routed"].dominated_under

    def test_coverage_warning_names_model_and_indicator(self):
        records = [rec("a", 1, params=1, latency=2), rec("b", 2, params=2)]
        report = misnomer_report(records)
        assert any(w.name == "b" and w.indicator == "latency"
                   for w in report.coverage_warnings)

    def test_requires_two_records(self):
        with pytest.raises(InsufficientDataError):
            misnomer_report([rec("a", 1, params=1)])

    def test_comonotone_family_has_no_inversions(self):
        records = [rec(f"m{i}", float(i), params=float(i), flops=2.0 * i + 1,
                       latency=i / 3.0)
                   for i in range(1, 8)]
        report = misnomer_report(records)
        assert report.inverted_pairs == ()
        assert all(t == 1.0 for t in report.kendall_tau.values())

    def test_monotone_transform_invariance(self):
        rng = random.Random(3)
        records = [rec(f"m{i}", round(rng.uniform(0, 9), 1),
                       params=round(rng.uniform(1, 9), 1),
                       flops=round(rng.uniform(1, 9), 1))
                   for i in range(12)]
        scaled = [ModelRecord(r.name,
                              {"params": r.indicators["params"] * 1000.0,
                               "flops": r.indicators["flops"]},
                              r.quality) for r in records]
        base = misnomer_report(records)
        after = misnomer_report(scaled)
        assert base.kendall_tau == after.kendall_tau
        assert ({e.name for e in base.pareto_instability}
                == {e.name for e in after.pareto_instability})

    def test_quality_free_records_skip_frontiers(self):
        records = [
            ModelRecord("a", {"params": 1.0, "flops": 2.0}, quality=None),
            ModelRecord("b", {"params": 2.0, "flops": 1.0}, quality=None),
        ]
        report = misnomer_report(records)
        assert not report.frontier_analysis_ran
        assert report.kendall_tau  # rank analysis still runs

    def test_table2_instability(self):
        report = misnomer_report(table2_records())
        flagged = {e.name for e in report.pareto_instability}
        # W3072 is on the speed frontier but parameter-dominated; W768 is
        # the parameter/flops floor but slower than D6
        assert "W3072" in flagged


# ---------------------------------------------------------------------------
# Rank bitsets against the frozen pair loop

# Fixed profile: the same examples on every run, so Tier-1 stays
# deterministic.
DIFFERENTIAL = settings(max_examples=100, derandomize=True, deadline=None,
                        database=None,
                        suppress_health_check=[HealthCheck.too_slow])

COLUMNS = ("params", "flops", "throughput", "latency", "extra")

# Few distinct values, so ties are common, with signed zeros, huge and
# tiny magnitudes (a subnormal among them) on both sides of zero.
VALUES = st.sampled_from([
    0.0, -0.0, 1.0, 2.0, 2.5, 3.0, -1.0, 1e300, -1e300, 1e-300, -1e-300,
    5e-324, 7.25,
])


@st.composite
def record_sets(draw):
    n = draw(st.integers(2, 40))
    records = []
    for i in range(n):
        cells = draw(st.lists(st.one_of(st.none(), VALUES, VALUES, VALUES),
                              min_size=len(COLUMNS), max_size=len(COLUMNS)))
        indicators = {c: v for c, v in zip(COLUMNS, cells) if v is not None}
        records.append(ModelRecord(f"m{i}", indicators or {"params": 0.0},
                                   quality=float(draw(st.integers(0, 3)))))
    return records


def carrying_both(records, a, b):
    return sum(a in r.indicators and b in r.indicators for r in records)


def oracle_listing(records):
    """The oracle result of every indicator pair the report examines, in
    report order."""
    present = indicators_present(records)
    return [((a, b), oracle_rank_disagreement(records, a, b))
            for i, a in enumerate(present) for b in present[i + 1:]
            if carrying_both(records, a, b) >= 2]


LISTING_HEAD = ("inverted pairs (cheaper under the first indicator, "
                "costlier under the second):")


def pair_lines(report) -> list[str]:
    """The line of each of ``report.inverted_pairs``, formatted afresh."""
    return [f"  {a} < {b} on {ind_a} but {a} > {b} on {ind_b}\n"
            for a, b, ind_a, ind_b in report.inverted_pairs]


def assert_rendered_listing(report):
    """The pair lines the CLI prints are the lines formatted from
    ``report.inverted_pairs``, followed by the right closing line. The
    renderer's chunks are joined: each holds whole lines. Compared as text,
    as a name may hold a line break."""
    expected = "".join(pair_lines(report))
    chunks = list(_render_misnomer(report))
    assert all(chunk.endswith("\n") for chunk in chunks)
    text = "".join(chunks)
    start = text.index(LISTING_HEAD + "\n") + len(LISTING_HEAD) + 1
    assert text[start:start + len(expected)] == expected
    after = text[start + len(expected):]
    shown = len(report.inverted_pairs)
    if shown < report.n_inverted_pairs:
        assert after.startswith(f"  showing {shown} of "
                                f"{report.n_inverted_pairs} inverted pairs\n")
    elif not shown:
        assert after.startswith("  none\n")
    else:
        assert after.startswith("pareto instability")


def assert_one_row_per_chunk(report):
    """Between the head and the tail, the renderer writes each listed row
    as one chunk, in order, and the chunks join to the whole listing."""
    head, *listing, tail = _render_misnomer(report)
    lines = pair_lines(report)
    assert "".join(listing) == "".join(lines)
    ends = list(accumulate(row[3] for l in report._listings for row in l.rows))
    assert listing == ["".join(lines[start:end]) for start, end in zip([0] + ends, ends)]


def mid_row_cut(report):
    """A ``max_pairs`` that ends the listing between two partners of one
    record, or None when no record has two listed partners."""
    before = 0
    for listing in report._listings:
        for row in listing.rows:
            if row[3] >= 2:
                return before + 1
            before += row[3]
    return None


def mixed_row_cut(report):
    """A ``max_pairs`` that ends the listing inside a row whose partners face
    both ways, just after its first partner facing the other way from the
    row's first, or None when no such row has a partner after that one."""
    before = 0
    for listing in report._listings:
        for _, partners, a_first, count in listing.rows:
            ways = [a_first >> k & 1 for k in range(partners.bit_length()) if partners >> k & 1]
            turn = next((k for k in range(1, count) if ways[k] != ways[0]), None)
            if turn is not None and turn + 1 < count:
                return before + turn + 1
            before += count
    return None


def oracle_frontier(records, indicator):
    """Quadratic dominance scan on the lower-is-better cost, ordered by
    (cost, input position)."""
    cost = [r.cost_value(indicator) for r in records]
    kept = [k for k, r in enumerate(records) if not any(
        s.quality >= r.quality and cost[j] <= cost[k]
        and (s.quality > r.quality or cost[j] < cost[k])
        for j, s in enumerate(records))]
    return [records[k] for k in sorted(kept, key=lambda k: (cost[k], k))]


class TestParetoOrderDifferential:
    @DIFFERENTIAL
    @given(record_sets(), st.sampled_from(COLUMNS))
    def test_ordered_frontier_matches_oracle(self, records, indicator):
        """The frontier list itself, not only its set: signed zeros tie,
        rows equal in cost and quality all stay, in input order, and
        throughput is negated."""
        carrying = [r for r in records if indicator in r.indicators]
        got = pareto_frontier(carrying, indicator)
        assert [id(r) for r in got] \
            == [id(r) for r in oracle_frontier(carrying, indicator)]


@st.composite
def record_sets_sharing_names(draw):
    """``record_sets`` with each name drawn from three, so rows share names."""
    return [dataclasses.replace(r, name=draw(st.sampled_from("abc")))
            for r in draw(record_sets())]


class TestReportFrontierDifferential:
    @DIFFERENTIAL
    @given(st.one_of(record_sets(), record_sets_sharing_names()))
    def test_instability_matches_oracle(self, records):
        """Each indicator's frontier over the records carrying it, as the
        quadratic oracle finds it, places each row on or off it."""
        under = {id(r): ([], []) for r in records}
        for indicator in indicators_present(records):
            carrying = [r for r in records if indicator in r.indicators]
            on = {id(r) for r in oracle_frontier(carrying, indicator)}
            for r in carrying:
                under[id(r)][id(r) not in on].append(indicator)
        expected = tuple(analysis.ParetoInstability(r.name, tuple(front), tuple(dominated))
                         for r in records
                         for front, dominated in [under[id(r)]] if front and dominated)
        assert misnomer_report(records).pareto_instability == expected


class TestRankBitsetsDifferential:
    @DIFFERENTIAL
    @given(record_sets(), st.sampled_from(COLUMNS), st.sampled_from(COLUMNS),
           st.integers(0, 30))
    def test_matches_pair_loop(self, records, a, b, k):
        ref = oracle_rank_disagreement(records, a, b)
        if carrying_both(records, a, b) < 2:
            with pytest.raises(InsufficientDataError):
                rank_disagreement(records, a, b)
            return
        got = rank_disagreement(records, a, b)
        assert got.kendall_tau == ref.kendall_tau
        assert (got.n_concordant, got.n_discordant) == (ref.n_concordant,
                                                        ref.n_discordant)
        assert got.inverted_pairs == ref.inverted_pairs
        assert all(type(p) is InvertedPair for p in got.inverted_pairs)
        if a == b:
            return
        # The cut is the report's: over records carrying just a and b, it
        # examines that one pair, in its own indicator order.
        both = [ModelRecord(r.name, {a: r.indicators[a], b: r.indicators[b]}, r.quality)
                for r in records if a in r.indicators and b in r.indicators]
        cut = misnomer_report(both, max_pairs=k)
        (pair,) = cut.indicator_pairs_examined
        ordered = oracle_rank_disagreement(records, *pair)
        assert cut.inverted_pairs == ordered.inverted_pairs[:k]
        assert (cut.kendall_tau, cut.n_inverted_pairs) == ({pair: ordered.kendall_tau},
                                                           ordered.n_discordant)

    @DIFFERENTIAL
    @given(record_sets(), st.integers(0, 60))
    def test_report_listing_is_prefix(self, records, k):
        listing = oracle_listing(records)
        full = tuple(p for _, ref in listing for p in ref.inverted_pairs)
        report = misnomer_report(records)
        assert report.indicator_pairs_examined == tuple(ab for ab, _ in listing)
        assert report.kendall_tau == {ab: ref.kendall_tau for ab, ref in listing}
        assert report.inverted_pairs == full
        assert report.n_inverted_pairs == len(full)
        cut = misnomer_report(records, max_pairs=k)
        assert cut.inverted_pairs == full[:k]
        assert cut.n_inverted_pairs == len(full)
        assert cut.kendall_tau == report.kendall_tau
        assert cut.pareto_instability == report.pareto_instability

    @DIFFERENTIAL
    @given(record_sets(), st.integers(0, 60))
    def test_rendered_listing_matches_inverted_pairs(self, records, k):
        full = misnomer_report(records)
        inside = mid_row_cut(full)
        for cut in {None, k, *([] if inside is None else [inside])}:
            assert_rendered_listing(misnomer_report(records, max_pairs=cut))

    def test_rendered_listing_at_every_cut(self):
        kept = ("params", "flops", "latency")
        records = [ModelRecord(r.name, {k: r.indicators[k] for k in kept},
                               quality=r.quality)
                   for r in sweep_records(14, seed=5)]
        total = misnomer_report(records).n_inverted_pairs
        assert 50 < total < 500
        for cut in range(total + 2):
            assert_rendered_listing(misnomer_report(records, max_pairs=cut))

    def test_cut_on_a_row_boundary(self):
        """A cut that ends exactly on the last partner of a row that has
        several, with later rows left out."""
        records = sweep_records(14, seed=5)
        full = misnomer_report(records)
        rows = full._listings[0].rows
        end = next(k for k in range(len(rows) - 1) if rows[k][3] >= 2)
        cut = sum(row[3] for row in rows[:end + 1])
        report = misnomer_report(records, max_pairs=cut)
        assert report._listings[0].rows[-1][3] == rows[end][3]
        assert report.inverted_pairs == full.inverted_pairs[:cut]
        assert_rendered_listing(report)

    def test_cut_on_the_first_pair_of_the_second_listing(self):
        records = sweep_records(14, seed=5)
        full = misnomer_report(records)
        first = sum(row[3] for row in full._listings[0].rows)
        report = misnomer_report(records, max_pairs=first + 1)
        assert [sum(row[3] for row in listing.rows) for listing in report._listings] \
            == [first, 1] + [0] * (len(report._listings) - 2)
        assert report.inverted_pairs == full.inverted_pairs[:first + 1]
        assert report.inverted_pairs[-1][2:] == full.indicator_pairs_examined[1]
        assert_rendered_listing(report)

    def test_each_indicator_pair_carried_by_other_records(self):
        """Record ``i`` lacks the ``i % 5``-th column (none when that is 4),
        so every indicator pair is carried by a different subset. Ranks
        taken once over all records and masked per pair must count and
        list as ranking each pair's carriers afresh does."""
        columns = ("params", "flops", "latency", "throughput")
        pool = (0.0, -0.0, 1.0, 2.5, 2.5, -1.0, 1e-300, 7.25)
        rng = random.Random(17)
        records = [ModelRecord(f"m{i:02d}", {c: rng.choice(pool) for k, c
                                             in enumerate(columns) if k != i % 5},
                               quality=float(i % 3))
                   for i in range(23)]
        carriers = {(a, b): frozenset(k for k, r in enumerate(records)
                                      if a in r.indicators and b in r.indicators)
                    for i, a in enumerate(columns) for b in columns[i + 1:]}
        assert len(set(carriers.values())) == len(carriers)
        listing = oracle_listing(records)
        report = misnomer_report(records)
        assert report.indicator_pairs_examined == tuple(carriers)
        for (a, b), ref in listing:
            assert report.kendall_tau[(a, b)] == ref.kendall_tau
            got = rank_disagreement(records, a, b)
            assert (got.kendall_tau, got.n_concordant, got.n_discordant,
                    got.n_records, got.inverted_pairs) == (
                ref.kendall_tau, ref.n_concordant, ref.n_discordant,
                len(carriers[(a, b)]), ref.inverted_pairs)
        full = tuple(p for _, ref in listing for p in ref.inverted_pairs)
        assert report.inverted_pairs == full
        for cut in range(len(full) + 2):
            cut_report = misnomer_report(records, max_pairs=cut)
            assert cut_report.inverted_pairs == full[:cut]
            assert_rendered_listing(cut_report)

    def test_signed_zero_is_a_tie(self):
        records = [rec("a", 0, params=0.0, flops=1.0),
                   rec("b", 0, params=-0.0, flops=2.0),
                   rec("c", 0, params=1.0, flops=0.5)]
        result = rank_disagreement(records, "params", "flops")
        assert result.n_concordant + result.n_discordant == 2
        assert result.inverted_pairs == (
            ("a", "c", "params", "flops"), ("b", "c", "params", "flops"))

    def test_negative_max_pairs_rejected(self):
        records = [rec("a", 0, params=1, flops=2), rec("b", 0, params=2, flops=1)]
        with pytest.raises(ValueError):
            misnomer_report(records, max_pairs=-1)


#: Pieces of names that the renderer must carry through unchanged: runs of
#: NULs, format markers, quotes and line breaks. ``st.characters`` adds
#: every other code point up to U+00FF.
PIECES = ["\0", "\0\0", "\0\0\0", "%s", "%%", "%(a)s", "{}", "{0}", '"', "'", "\n",
          "\r\n", " on ", " but ", " < "]
AWKWARD = st.lists(st.one_of(st.characters(max_codepoint=0xFF), st.sampled_from(PIECES)),
                   max_size=4).map("".join)


@st.composite
def awkward_record_sets(draw):
    """Records whose names and indicator names hold ``AWKWARD`` text, with
    values from a wider range than ``VALUES``, so that rows run longer."""
    columns = draw(st.lists(AWKWARD, min_size=2, max_size=4, unique=True))
    values = st.one_of(VALUES, st.integers(0, 40).map(float))
    return [ModelRecord(draw(AWKWARD), dict(zip(columns, draw(st.lists(
                values, min_size=len(columns), max_size=len(columns))))),
                        quality=float(i % 3))
            for i in range(draw(st.integers(2, 25)))]


class TestRowRenderer:
    """The CLI renders each listed row from per-record line templates,
    the row's record standing in them as a run of NULs."""

    @DIFFERENTIAL
    @given(awkward_record_sets(), st.integers(0, 60))
    def test_awkward_names_render_as_their_pairs(self, records, k):
        full = misnomer_report(records)
        assert full.inverted_pairs == tuple(p for _, ref in oracle_listing(records)
                                            for p in ref.inverted_pairs)
        for cut in {None, k, mid_row_cut(full), mixed_row_cut(full)}:
            report = misnomer_report(records, max_pairs=cut)
            assert_rendered_listing(report)
            assert_one_row_per_chunk(report)

    def test_names_holding_every_code_point_to_u00ff(self):
        latin1 = "".join(map(chr, range(0x100)))
        names = [latin1, latin1[::-1], "\0" * 5, "a\0\0b", "%s{}\"'\n", "\0", "x\r\ny",
                 " on a but ", "m7", "\0\0\0\0"]
        columns = ("\0\0 on " + latin1, "%(a)s {b}\n'\"", "params")
        rng = random.Random(3)
        ranks = [rng.sample(range(len(names)), len(names)) for _ in columns]
        records = [ModelRecord(name, {c: float(r[i]) for c, r in zip(columns, ranks)},
                               quality=float(i % 4)) for i, name in enumerate(names)]
        full = misnomer_report(records)
        assert full.n_inverted_pairs > 30
        for cut in (None, 1, mid_row_cut(full), mixed_row_cut(full)):
            report = misnomer_report(records, max_pairs=cut)
            assert_rendered_listing(report)
            assert_one_row_per_chunk(report)

    def test_cut_inside_a_mixed_row(self):
        records = sweep_records(14, seed=5)
        full = misnomer_report(records)
        cut = mixed_row_cut(full)
        report = misnomer_report(records, max_pairs=cut)
        _, partners, a_first, count = [row for listing in report._listings
                                       for row in listing.rows][-1]
        assert a_first not in (0, partners) and count < partners.bit_count()
        assert report.inverted_pairs == full.inverted_pairs[:cut]
        assert_rendered_listing(report)
        assert_one_row_per_chunk(report)

    def test_listings_of_uniform_rows_and_of_none(self):
        """``params`` rises with the position, ``flops`` falls and ``latency``
        rises: every partner of a row faces one way, ``model_a`` first under
        ``(params, flops)`` and second under ``(flops, latency)``, and
        ``(params, latency)`` lists nothing."""
        records = [rec(f"m{i}", 0.0, params=float(i), flops=float(-i), latency=float(i))
                   for i in range(12)]
        report = misnomer_report(records)
        assert [{(a_first == partners, a_first == 0) for _, partners, a_first, _ in l.rows}
                for l in report._listings] == [{(True, False)}, set(), {(False, True)}]
        for cut in (None, 0, 5, 66, 67, 131):
            cut_report = misnomer_report(records, max_pairs=cut)
            assert_rendered_listing(cut_report)
            assert_one_row_per_chunk(cut_report)
        agreeing = misnomer_report([rec(f"m{i}", 0.0, params=float(i), latency=float(i))
                                    for i in range(5)])
        assert agreeing._listings[0].rows == ()
        assert_rendered_listing(agreeing)
        assert_one_row_per_chunk(agreeing)


def sweep_records(n, seed=2000):
    """``n`` records with nine independent, tie-heavy indicator columns."""
    rng = random.Random(seed)
    columns = ("params", "flops", "latency", "throughput", "activation",
               "mac", "memory", "carbon", "cost")
    return [ModelRecord(f"m{i:04d}",
                        {c: float(rng.randint(1, 40)) for c in columns},
                        quality=round(rng.uniform(30, 80), 1))
            for i in range(n)]


class TestSweepScale:
    def test_bounded_report_on_2000_records(self):
        records = sweep_records(2000)
        start = time.perf_counter()
        report = misnomer_report(records, max_pairs=100)
        assert time.perf_counter() - start < 10.0
        assert len(report.inverted_pairs) == 100
        # independent columns: close to half of the ~2M pairs per
        # indicator pair are discordant, far more than are listed
        assert report.n_inverted_pairs > 10_000_000
        assert len(report.kendall_tau) == 36

    def test_bounded_memory_does_not_follow_discordant_count(self):
        records = sweep_records(300)
        tracemalloc.start()
        try:
            report = misnomer_report(records, max_pairs=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # listing all ~0.7M pairs would hold them as tuples: tens of MB
        assert report.n_inverted_pairs > 500_000
        assert peak < 2_000_000


    def test_records_reader_holds_the_records_not_the_rows(self, tmp_path):
        records = sweep_records(10_000)
        columns = list(records[0].indicators)
        path = tmp_path / "sweep.csv"
        lines = [",".join(["name", "quality", *columns])]
        lines += [",".join([r.name, f"{r.quality:g}", *(f"{r.indicators[c]:g}" for c in columns)])
                  for r in records]
        path.write_text("\n".join(lines) + "\n", "utf-8")
        tracemalloc.start()
        try:
            assert read_records(str(path)) == records
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # records built as their rows are read take about 730 B each; holding
        # every row's cells first took about 1,390 B
        assert peak < 1_000 * len(records)


class TestLazyListing:
    def test_compare_never_builds_inverted_pairs(self, monkeypatch, capsys):
        reports = []

        def keep(records, **limit):
            reports.append(misnomer_report(records, **limit))
            return reports[-1]

        monkeypatch.setattr(cli, "misnomer_report", keep)
        path = Path(__file__).resolve().parent / "golden" / "compare_tie_heavy.csv"
        assert cli.main(["compare", "--records", str(path)]) == 0
        assert "showing" not in capsys.readouterr().out
        (report,) = reports
        assert report.n_inverted_pairs == 1654
        assert "inverted_pairs" not in report.__dict__
        assert len(report.inverted_pairs) == 1654
        assert "inverted_pairs" in report.__dict__

    def test_replace_keeps_the_listing(self):
        report = misnomer_report(sweep_records(30), max_pairs=50)
        shifted = dataclasses.replace(
            report, kendall_tau={k: v - 1e-4 for k, v in report.kendall_tau.items()})
        assert shifted.inverted_pairs == report.inverted_pairs
        assert len(shifted.inverted_pairs) == 50
        assert shifted.kendall_tau != report.kendall_tau

    def test_unbounded_report_holds_no_pair_objects(self):
        records = sweep_records(300)
        tracemalloc.start()
        try:
            report = misnomer_report(records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ~0.7M pairs as InvertedPair objects took about 75 MB
        assert report.n_inverted_pairs > 500_000
        assert peak < 4_000_000


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def ranking_calls(monkeypatch):
    """The indicator of each ranking the analysis makes."""
    calls = []
    real = analysis._ranking

    def spy(records, indicator):
        calls.append(indicator)
        return real(records, indicator)

    monkeypatch.setattr(analysis, "_ranking", spy)
    return calls


@pytest.fixture()
def format_calls(monkeypatch):
    """The value of each ``format_fixed`` call the CLI makes."""
    calls = []
    real = cli.format_fixed

    def spy(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(cli, "format_fixed", spy)
    return calls


def test_one_ranking_per_indicator_per_report(ranking_calls):
    records = sweep_records(30)
    report = misnomer_report(records)
    assert len(report.indicator_pairs_examined) == 36
    assert sorted(ranking_calls) == sorted(indicators_present(records))
    ranking_calls.clear()
    misnomer_report(read_records(str(GOLDEN / "compare_tie_heavy.csv")), max_pairs=5)
    assert len(ranking_calls) == len(set(ranking_calls)) == 6
    ranking_calls.clear()
    rank_disagreement(records, "params", "flops")
    assert ranking_calls == ["params", "flops"]


def test_one_format_per_distinct_table_value(format_calls, capsys):
    path = str(GOLDEN / "compare_tie_heavy.csv")
    assert cli.main(["compare", "--records", path]) == 0
    records = read_records(path)
    distinct = {r.quality for r in records}
    distinct.update(v for r in records for v in r.indicators.values())
    cells = sum(1 + len(r.indicators) for r in records)
    taus = len(misnomer_report(records, max_pairs=0).kendall_tau)
    assert len(format_calls) == len(distinct) + taus
    assert len(distinct) < cells / 2


def formatted_table(records):
    """The ``compare`` table with ``format_fixed`` called on every cell."""
    columns = indicators_present(records)
    ordered = sorted(records, key=lambda r: (r.indicators.get(columns[0], float("inf")),
                                             r.name))
    return cli._table(["name", "quality"] + columns, [
        [r.name, "" if r.quality is None else cli.format_fixed(r.quality)]
        + [cli.format_fixed(r.indicators[c]) if c in r.indicators else "" for c in columns]
        for r in ordered])


class TestTableFormat:
    def test_csv_cells_print_as_formatted_one_by_one(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        path.write_text("name,quality,params,flops\n"
                        "zero,1,0.0,7.25\nneg_zero,2,-0.0,7.25\none,1.0,1,\n"
                        "one_f,-0.0,1.0,1e-300\ntiny,3,1e-300,7.25\nagain,3,7.25,0\n",
                        encoding="utf-8")
        assert cli.main(["compare", "--records", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = formatted_table(read_records(str(path)))
        assert lines[:len(expected)] == expected
        assert len(expected) == 7

    def test_ints_past_two_to_the_53_keep_their_own_cells(self, monkeypatch, capsys):
        big = 2 ** 53
        records = [rec("int_big", 1, params=big + 1, flops=3),
                   rec("float_big", 2, params=float(big), flops=3.0),
                   rec("int_huge", 3, params=10 ** 20 + 1, flops=-0.0),
                   rec("float_huge", 4, params=1e20, flops=0),
                   rec("int_small", 5, params=123456789, flops=3),
                   rec("float_small", 6, params=123456789.0, flops=1e-300)]
        monkeypatch.setattr(cli, "read_records", lambda path: records)
        assert cli.main(["compare", "--records", "in-memory"]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = formatted_table(records)
        assert lines[:len(expected)] == expected

    def test_spec_file_records_print_as_formatted_one_by_one(self, monkeypatch, capsys):
        kept = []
        real = cli._records_from_specs

        def keep(*args):
            kept.extend(real(*args))
            return kept

        monkeypatch.setattr(cli, "_records_from_specs", keep)
        with data_file("specs/vit_b16.json") as a, data_file("specs/vit_b32.json") as b:
            assert cli.main(["compare", a, b, "--hw", "tpu_like"]) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = formatted_table(kept)
        assert lines[:len(expected)] == expected


class TestDuplicateRows:
    def test_rows_sharing_a_name_stay_apart(self):
        records = [rec("a", 2, params=1, flops=10),
                   rec("a", 2, params=10, flops=1),
                   rec("b", 3, params=5, flops=5)]
        report = misnomer_report(records)
        assert [(e.name, e.frontier_under, e.dominated_under)
                for e in report.pareto_instability] == [
            ("a", ("params",), ("flops",)),
            ("a", ("flops",), ("params",)),
        ]

    def test_one_record_listed_twice(self):
        twin = rec("twin", 2, params=1, flops=10)
        records = [twin, twin, rec("b", 3, params=5, flops=5)]
        report = misnomer_report(records)
        assert [e.name for e in report.pareto_instability] == ["twin", "twin"]
