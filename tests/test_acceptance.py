"""Acceptance suite: one test per release criterion, in order.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them on a green run; they also appear in captured output on failure).
Tolerances are fixed here and nowhere else.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from costlens import (
    ArchSpec,
    EnergyProfile,
    Image,
    LmConfig,
    PatchEmbed,
    PricingProfile,
    carbon_footprint,
    count_flops,
    count_params,
    build_lm,
    build_moe_transformer,
    depth_width_pair,
    derive_sequence_length,
    estimate_latency,
    load_hardware,
    monetary_cost,
    pareto_frontier,
    preset_names,
    rank_disagreement,
    training_memory,
)
from costlens.archlib import MoeConfig
from costlens.cli import read_records_csv

from support import (
    TABLE1,
    brute_force_frontier_names,
    brute_force_tau,
    data_file,
    random_records,
    random_repeat_pair,
    vit_base,
)


def report(number, description, ok):
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_parameter_reproduction():
    start = time.perf_counter()
    errors = {}
    for patch, (image, million, _, _) in TABLE1.items():
        total = count_params(vit_base(patch, image)).total
        errors[patch] = abs(total - million * 1e6) / (million * 1e6)
    elapsed = time.perf_counter() - start
    report(1, f"patch-sweep params within 0.5% (max err "
              f"{max(errors.values()):.4%}, {elapsed:.2f}s)",
           all(e < 0.005 for e in errors.values()) and elapsed < 1.0)


def test_criterion_02_gflops_reproduction():
    start = time.perf_counter()
    errors = {}
    for patch, (image, _, gflops, _) in TABLE1.items():
        got = count_flops(vit_base(patch, image)).gflops
        errors[patch] = abs(got - gflops) / gflops
    elapsed = time.perf_counter() - start
    report(2, f"patch-sweep GFLOPs within 3% (max err "
              f"{max(errors.values()):.4%}, {elapsed:.2f}s)",
           all(e < 0.03 for e in errors.values()) and elapsed < 1.0)


def test_criterion_03_sequence_length_formula():
    # 64 does not divide 224; the published length 17 is the padded 4x4
    # grid, i.e. a 256x256 input (see data/specs/vit_b64.json notes)
    got = (
        derive_sequence_length(Image(224, 224, 3), 8, True),
        derive_sequence_length(Image(224, 224, 3), 16, True),
        derive_sequence_length(Image(224, 224, 3), 32, True),
        derive_sequence_length(Image(256, 256, 3), 64, True),
    )
    report(3, f"sequence lengths {got}", got == (785, 197, 50, 17))


def test_criterion_04_patch_embed_closed_form():
    # one 64x64 patch with neither CLS token nor positional table: the
    # evaluator's count is the projection matrix and its 768 bias
    spec = ArchSpec("p", Image(64, 64, 3),
                    (PatchEmbed(64, 3, 768, add_cls_token=False, positional=False),))
    got = count_params(spec).total - 768
    report(4, f"64x64x3x768 = {got}", got == 9_437_184)


def test_criterion_05_sharing_invariants():
    rng = random.Random(0xC0FFEE)
    checked = 0
    ok = True
    for _ in range(120):
        shared, unshared = random_repeat_pair(rng)
        flops_equal = count_flops(shared) == count_flops(unshared)
        params_less = count_params(shared).total < count_params(unshared).total
        act_equal = (training_memory(shared, 2).activation_bytes
                     == training_memory(unshared, 2).activation_bytes)
        ok = ok and flops_equal and params_less and act_equal
        checked += 1
    report(5, f"sharing invariants over {checked} random repeat specs",
           ok and checked >= 100)


def test_criterion_06_moe_decoupling():
    cfg = dict(patch=16, depth=12, model_dim=768, num_heads=12, ffn_dim=3072)
    results = []
    for e in (8, 32, 64):
        base = build_moe_transformer(MoeConfig(**cfg, num_experts=e, experts_per_token=1))
        doubled = build_moe_transformer(MoeConfig(**cfg, num_experts=2 * e,
                                                  experts_per_token=1))
        flop_change = abs(count_flops(doubled).flops - count_flops(base).flops) \
            / count_flops(base).flops
        # each added expert brings its own feed-forward block plus one
        # router row of width model_dim
        expert = 768 * 3072 + 3072 + 3072 * 768 + 768
        moe_layers = 6
        expected = moe_layers * e * (expert + 768)
        exact = (count_params(doubled).total - count_params(base).total) == expected
        results.append(flop_change < 0.01 and exact)
    report(6, "doubling experts: FLOPs <1%, params exactly "
              "layers*added*(expert+router_row)", all(results))


def test_criterion_07_encoder_decoder_ratios():
    # exact ratios (recorded by demos/encoder_decoder_ratios.py):
    #   params  L=2: 1.0726  L=6: 1.1164  L=12: 1.1371
    #   flops   L=2: 0.5155  L=6: 0.5231  L=12: 0.5263
    cfg = dict(model_dim=512, ffn_dim=2048, heads=8, vocab=32000,
               input_len=512, output_len=512)
    ok = True
    ratios = []
    for L in (2, 6, 12):
        ed = build_lm(LmConfig("encoder_decoder", L, **cfg))
        do = build_lm(LmConfig("decoder_only", L, **cfg))
        pr = count_params(ed).total / count_params(do).total
        fr = count_flops(ed).flops / count_flops(do).flops
        ratios.append((L, round(pr, 4), round(fr, 4)))
        ok = ok and 0.9 <= pr <= 1.15 and 0.45 <= fr <= 0.6
    report(7, f"enc-dec/dec-only ratios {ratios} in [0.9,1.15] x [0.45,0.6]", ok)


def test_criterion_08_depth_width_latency_ordering():
    deep, wide = depth_width_pair()
    flop_ratio = count_flops(deep).flops / count_flops(wide).flops
    ok = abs(flop_ratio - 1) < 0.02
    orderings = []
    for name in preset_names():
        hw = load_hardware(name)
        assert hw.per_op_overhead_sec > 0
        t_deep = estimate_latency(deep, hw).latency_sec
        t_wide = estimate_latency(wide, hw).latency_sec
        orderings.append((name, t_deep > t_wide))
        ok = ok and t_deep > t_wide
    report(8, f"FLOP-matched (ratio {flop_ratio:.4f}) deep slower than wide "
              f"on every preset {orderings}", ok)


def test_criterion_09_misnomer_on_scaling_table():
    with data_file("records/depth_width_scaling.csv") as path:
        records = read_records_csv(path)
    assert len(records) == 11
    result = rank_disagreement(records, "params", "latency")
    pair_found = any(p.model_a == "D48" and p.model_b == "W3072"
                     for p in result.inverted_pairs)
    oracle = brute_force_tau(
        [r.indicators["params"] for r in records],
        [r.indicators["latency"] for r in records],
    )
    report(9, f"(D48, W3072) discordance reported; tau {result.kendall_tau:.6f} "
              f"== pair-counting oracle exactly",
           pair_found and result.kendall_tau == oracle)


def test_criterion_10_pareto_against_brute_force():
    rng = random.Random(0xF00D)
    ok = True
    for _ in range(1000):
        records = random_records(rng, rng.randint(1, 50))
        got = pareto_frontier(records, "flops")
        got_names = {r.name for r in got}
        ok = ok and got_names == brute_force_frontier_names(records, "flops")
        costs = [r.indicators["flops"] for r in got]
        ok = ok and costs == sorted(costs)
    report(10, "frontier equals O(n^2) dominance oracle on 1000 random sets", ok)


def test_criterion_11_footprint_formulas():
    rng = random.Random(0xBEEF)

    def dyadic():
        return rng.randrange(0, 2**16) / 16.0

    ok = True
    for _ in range(10):
        train, per_query, queries, grid = dyadic(), dyadic(), dyadic(), dyadic()
        hours, chips, price = dyadic(), dyadic(), dyadic()
        carbon = carbon_footprint(EnergyProfile(train, per_query, queries, grid))
        money = monetary_cost(PricingProfile(hours, chips, price))
        carbon_oracle = (Fraction(train) + Fraction(queries) * Fraction(per_query)) \
            * Fraction(grid)
        money_oracle = Fraction(hours) * Fraction(chips) * Fraction(price)
        ok = ok and Fraction(carbon) == carbon_oracle
        ok = ok and Fraction(money) == money_oracle
        # linearity: splitting the training energy in half changes nothing
        half = carbon_footprint(EnergyProfile(train / 2, per_query, queries, grid)) \
            + carbon_footprint(EnergyProfile(train / 2, 0.0, 0.0, grid))
        ok = ok and half == carbon
    report(11, "carbon and monetary formulas match exact rational oracle "
               "(linearity included)", ok)


def test_criterion_12_cli_determinism(tmp_path):
    with data_file("specs/vit_b16.json") as spec_path, \
            data_file("records/depth_width_scaling.csv") as csv_path:
        commands = [
            ["profile", spec_path, "--hw", "tpu_like", "--batch", "256",
             "--format", "json"],
            ["profile", spec_path, "--format", "table"],
            ["compare", "--records", csv_path],
            ["pareto", csv_path, "--cost", "flops", "--svg",
             str(tmp_path / "out.svg")],
        ]
        ok = True
        for argv in commands:
            outputs = []
            svgs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "costlens", *argv],
                    capture_output=True,
                )
                outputs.append((proc.returncode, proc.stdout))
                if "--svg" in argv:
                    svgs.append((tmp_path / "out.svg").read_bytes())
            ok = ok and outputs[0] == outputs[1] and outputs[0][0] == 0
            if svgs:
                ok = ok and svgs[0] == svgs[1]
    report(12, "every CLI command byte-identical across two runs", ok)
