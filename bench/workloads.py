"""Seeded workload generators.

Each generator takes the seed and a scratch directory, writes every input
file there and builds every input object before timing starts, and
returns a fixed list of :class:`Op`, each with the expected result
computed by :mod:`reference` (never by costlens).

The shape of each list is fixed: how many operations of each kind,
their sizes on a log-spaced grid, and (for record sets) the column count
and quantisation per column. So every seed gives the same mix of small
and large operations, and a percentile means the same thing on every
seed and every commit. The seed draws everything else: dimensions,
widths, nesting, sharing, hardware, batch, optimizer, energy and pricing
inputs, column names, record values, ties and empty cells, and the order
of the list.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import costlens
import costlens.cli

from reference import (
    OPTIMIZER_COPIES,
    CompareExpect,
    Expect,
    arch_counts,
    builder_counts,
    carbon,
    check_compare,
    check_profile,
    check_profile_stdout,
    money,
)

BENCH = Path(__file__).resolve().parent
PRESET_DIR = BENCH.parent / "src" / "costlens" / "data" / "hardware"


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` is timed; ``check`` (failure reasons) and
    ``render`` (the text two identical calls must reproduce byte for
    byte) run outside the timer."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    render: Callable[[Any], str]


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    """``costlens.cli.main(argv)`` in process, output captured. The entry
    point is looked up on every call so a tracer's wrapper is seen."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = costlens.cli.main(argv)
        except SystemExit as exc:      # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_check(inner: Callable[[str], list[str]]) -> Callable[[CliResult], list[str]]:
    def check(result: CliResult) -> list[str]:
        if result.code != 0:
            return [f"exit code {result.code}: {result.stderr.strip()[:200]}"]
        return inner(result.stdout)
    return check


def _stdout(result: CliResult) -> str:
    return result.stdout


def log_grid(n: int, lo: float, hi: float) -> list[float]:
    """Midpoints of ``n`` equal strata of [lo, hi] in log space."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (i + 0.5) / n * (b - a)) for i in range(n)]


def preset_overheads() -> dict[str, float]:
    """Per-op overhead of each shipped preset, read from the data files."""
    out = {}
    for path in sorted(PRESET_DIR.glob("*.json")):
        out[path.stem] = float(json.loads(path.read_text())["per_op_overhead_sec"])
    return out


# ---------------------------------------------------------------------------
# Architecture generators


def _ln(d):
    return {"kind": "layer_norm", "model_dim": d}


def _attention(rng, d, causal=None):
    return {"kind": "attention", "model_dim": d, "qkv_dim": d, "num_heads": d // 64,
            "is_causal": rng.random() < 0.5 if causal is None else causal,
            "cross_attention": False}


def _ffn(rng, d):
    return {"kind": "feed_forward", "model_dim": d, "hidden_dim": d * rng.choice((2, 3, 4))}


def _dense(rng, d):
    return {"kind": "dense", "in_dim": d, "out_dim": d, "bias": rng.random() < 0.7}


def _leaf(rng, d):
    return rng.choice((_attention, _ffn, _dense))(rng, d)


def _feature_block(rng, d) -> list[dict]:
    """A block that holds every container kind: a Parallel, an MoE, a
    Repeat nested in a Repeat (sharing drawn per level) and a Dense."""
    e = rng.choice((4, 8, 16, 32, 64))
    parts = [
        [_ln(d), _attention(rng, d)],
        [{"kind": "parallel", "branches": [
            [_leaf(rng, d) for _ in range(rng.randint(1, 2))]
            for _ in range(rng.randint(2, 3))]}],
        [{"kind": "moe", "expert": rng.choice((_ffn, _dense))(rng, d),
          "num_experts": e, "experts_per_token": rng.randint(1, 2), "router_dim": d}],
        [{"kind": "repeat", "times": rng.randint(2, 3), "share_params": rng.random() < 0.5,
          "body": [_ln(d), {"kind": "repeat", "times": rng.randint(2, 3),
                            "share_params": rng.random() < 0.5,
                            "body": [_leaf(rng, d)]}]}],
        [_dense(rng, d)],
    ]
    rng.shuffle(parts)
    return [layer for part in parts for layer in part]


def inline_arch(rng: random.Random, target_ops: float) -> dict:
    """A random architecture document of about ``target_ops`` executed
    ops: an embedding, a repeated feature block, and a norm (plus a
    classifier head for image inputs)."""
    d = rng.choice(range(128, 513, 64))
    if rng.random() < 0.5:
        inp = {"kind": "image", "height": 224, "width": 224, "channels": 3}
        head = [{"kind": "patch_embed", "patch": rng.choice((14, 16, 28, 32)),
                 "in_channels": 3, "embed_dim": d,
                 "add_cls_token": rng.random() < 0.8, "positional": rng.random() < 0.8}]
        tail = [_ln(d), {"kind": "classifier_head", "model_dim": d,
                         "classes": rng.choice((10, 100, 1000))}]
    else:
        inp = {"kind": "token_sequence", "length": rng.choice((64, 128, 256, 512, 1024)),
               "vocab": rng.randint(1000, 32000)}
        head = [{"kind": "token_embedding", "vocab": inp["vocab"], "embed_dim": d,
                 "tied_output": rng.random() < 0.7}]
        tail = [_ln(d)]
    block = _feature_block(rng, d)
    per_block = arch_counts({"input": inp, "layers": block}).ops
    times = max(1, round((target_ops - len(head) - len(tail)) / per_block))
    body = {"kind": "repeat", "body": block, "times": times,
            "share_params": rng.random() < 0.5}
    return {"input": inp, "layers": head + [body] + tail}


def builder_ref(rng: random.Random, kind: str, depth: int) -> dict:
    """A builder reference of family ``kind`` (``lm_dec``/``lm_encdec``
    select the language-model arrangement) at the given depth."""
    d = rng.choice(range(192, 1025, 64))
    common = {"model_dim": d, "ffn_dim": d * rng.choice((2, 3, 4))}
    if kind.startswith("lm"):
        ref = {"family": "lm", "layers_per_stack": max(1, depth // 2), "heads": d // 64,
               "vocab": rng.randint(8000, 64000), **common}
        if kind == "lm_dec":
            ref.update(arrangement="decoder_only", input_len=rng.choice((64, 256, 512)),
                       output_len=rng.choice((64, 128, 512)))
        else:
            n = rng.choice((64, 256, 512, 1024))
            ref.update(arrangement="encoder_decoder", input_len=n, output_len=n)
        return ref
    ref = {"family": kind, "patch": rng.choice((8, 14, 16, 28, 32)), "depth": depth,
           "num_heads": d // 64, "image": [224, 224, 3],
           "classes": rng.choice((10, 100, 1000)), **common}
    if kind == "universal_transformer":
        ref["steps"] = depth
    elif kind == "moe":
        ref.update(num_experts=rng.randint(4, 64), experts_per_token=rng.randint(1, 2),
                   moe_every=rng.choice((1, 2)))
    return ref


# ---------------------------------------------------------------------------
# profile_sweep


PROFILE_KINDS = ("vit", "universal_transformer", "moe", "lm_dec", "lm_encdec")
PROFILE_PER_KIND = 8
PROFILE_INLINE = 40


def _profile_op(rng, tmp: Path, idx: int, body: dict, counts, overheads) -> Op:
    doc = {"schema_version": 1, "name": f"sweep_{idx:03d}", **body}
    argv = ["profile", str(tmp / f"spec_{idx:03d}.json"), "--format", "json"]
    presets = sorted(overheads)
    preset = presets[idx % len(presets)]
    mode = rng.choice(("none", "flag", "file", "inline"))
    overhead = None
    if mode == "flag":
        argv += ["--hw", preset]
        overhead = overheads[preset]
    elif mode == "file":
        doc["hardware"] = preset
        overhead = overheads[preset]
    elif mode == "inline":
        overhead = rng.choice((1e-6, 4e-6, 1e-5))
        doc["hardware"] = {
            "name": f"hw_{idx:03d}", "peak_flops_per_sec": rng.choice((1e12, 5e13, 2e14)),
            "mem_bandwidth_bytes_per_sec": rng.choice((1e11, 9e11, 2e12)),
            "per_op_overhead_sec": overhead, "num_devices": rng.randint(1, 8),
            "length_pad_multiple": rng.choice((None, 64, 128)),
        }
    batch = rng.choice((1, 8, 32, 64, 128, 256))
    if rng.random() < 0.5:
        doc["batch"] = batch
    else:
        argv += ["--batch", str(batch)]
    optimizer = rng.choice(sorted(OPTIMIZER_COPIES))
    argv += ["--optimizer", optimizer]
    energy = pricing = None
    if rng.random() < 0.25:
        energy = {"ee_train_kwh": rng.uniform(1, 1e4), "ee_inference_kwh": rng.uniform(0, 1e-2),
                  "queries": float(rng.randint(0, 10**7)), "co2e_per_kwh": rng.uniform(0.01, 0.9)}
        pricing = {"total_train_hours": rng.uniform(1, 1e3),
                   "num_chips": float(rng.randint(1, 512)),
                   "price_per_chip_hour": rng.uniform(0.1, 8.0)}
        for kind, value in (("energy", energy), ("pricing", pricing)):
            path = tmp / f"{kind}_{idx:03d}.json"
            path.write_text(json.dumps(value))
            argv += [f"--{kind}", str(path)]
    (tmp / f"spec_{idx:03d}.json").write_text(json.dumps(doc, indent=1))
    expect = Expect(counts, batch, optimizer, overhead,
                    carbon(energy) if energy else None, money(pricing) if pricing else None)
    label = f"profile {body.get('builder', {}).get('family', 'arch')} #{idx} ({mode} hw)"
    return Op(label, lambda: run_cli(argv),
              _cli_check(lambda text: check_profile_stdout(text, expect)), _stdout)


def profile_sweep(seed: int, tmp: Path) -> list[Op]:
    """``costlens profile <file> --format json``: builder references of
    every family and random inline trees, with rotating hardware."""
    rng = random.Random(f"profile_sweep:{seed}")
    overheads = preset_overheads()
    bodies = []
    for kind in PROFILE_KINDS:
        for depth in log_grid(PROFILE_PER_KIND, 2, 48):
            ref = builder_ref(rng, kind, round(depth))
            bodies.append(({"builder": ref}, builder_counts(ref)))
    for target in log_grid(PROFILE_INLINE, 20, 300):
        arch = inline_arch(rng, target)
        bodies.append(({"arch": arch}, arch_counts(arch)))
    rng.shuffle(bodies)
    return [_profile_op(rng, tmp, i, body, counts, overheads)
            for i, (body, counts) in enumerate(bodies)]


# ---------------------------------------------------------------------------
# deep_stack


DEEP_PER_KIND = 8


def _deep_ref(rng, kind: str, size: float) -> dict:
    if kind == "vit":
        return {"family": "vit", "patch": rng.choice((16, 32)), "depth": round(size),
                "model_dim": 64, "num_heads": rng.choice((1, 2)),
                "ffn_dim": rng.choice((128, 256)), "image": [224, 224, 3],
                "classes": rng.choice((10, 1000))}
    if kind == "universal_transformer":
        return {"family": kind, "patch": rng.choice((16, 32)), "depth": 1,
                "steps": round(size), "model_dim": 64, "num_heads": rng.choice((1, 2)),
                "ffn_dim": rng.choice((128, 256)), "image": [224, 224, 3], "classes": 10}
    d = rng.choice((64, 128))
    return {"family": "lm", "arrangement": "decoder_only", "layers_per_stack": round(size),
            "model_dim": d, "ffn_dim": 4 * d, "heads": d // 64,
            "vocab": rng.randint(1000, 8000), "input_len": rng.choice((32, 64, 128)),
            "output_len": rng.choice((32, 64, 128))}


def _nest_arch(rng, target: float) -> dict:
    """Repeat(Repeat(block)) of about ``target`` executed ops."""
    d = rng.choice((64, 128))
    inner_times = rng.randint(5, 25)
    block = [_ln(d), _attention(rng, d), _ln(d), _ffn(rng, d)]
    outer_times = max(1, round(target / (4 * inner_times + 1)))
    vocab = rng.randint(1000, 8000)
    return {"input": {"kind": "token_sequence", "length": rng.choice((64, 128, 256)),
                      "vocab": vocab},
            "layers": [
                {"kind": "token_embedding", "vocab": vocab, "embed_dim": d,
                 "tied_output": True},
                {"kind": "repeat", "times": outer_times, "share_params": rng.random() < 0.5,
                 "body": [{"kind": "repeat", "times": inner_times,
                           "share_params": rng.random() < 0.5, "body": block},
                          _dense(rng, d)]},
                _ln(d)]}


def deep_stack(seed: int, tmp: Path) -> list[Op]:
    """``compute_profile`` on specs that are small as written but execute
    thousands of layers, with rotating hardware presets."""
    rng = random.Random(f"deep_stack:{seed}")
    overheads = preset_overheads()
    presets = sorted(overheads)
    hardware = {name: costlens.load_hardware(name) for name in presets}
    plan = [(kind, size) for kind, lo, hi in (("vit", 200, 1500),
                                              ("universal_transformer", 200, 1000),
                                              ("lm", 100, 500), ("nest", 1000, 5000))
            for size in log_grid(DEEP_PER_KIND, lo, hi)]
    rng.shuffle(plan)
    ops = []
    for idx, (kind, size) in enumerate(plan):
        if kind == "nest":
            arch = _nest_arch(rng, size)
            spec, counts = costlens.spec_from_dict(arch), arch_counts(arch)
        else:
            ref = _deep_ref(rng, kind, size)
            args = {k: v for k, v in ref.items() if k != "family"}
            spec = costlens.build_from_reference(ref["family"], args)
            counts = builder_counts(ref)
        preset = presets[idx % len(presets)]
        batch = rng.choice((1, 8, 32, 64))
        optimizer = rng.choice(sorted(OPTIMIZER_COPIES))
        expect = Expect(counts, batch, optimizer, overheads[preset])
        ops.append(_deep_op(f"deep {kind} #{idx} ({counts.ops} ops)", spec, batch,
                            hardware[preset], optimizer, expect))
    return ops


def _deep_op(label, spec, batch, hw, optimizer, expect) -> Op:
    kind = costlens.OptimizerKind(optimizer)
    return Op(label,
              lambda: costlens.compute_profile(spec, batch=batch, hardware=hw, optimizer=kind),
              lambda profile: check_profile(profile.to_dict(), expect),
              lambda profile: json.dumps(profile.to_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# compare_sweep


COMPARE_SETS = 40
COLUMN_POOL = ("params", "flops", "latency", "throughput", "activation", "mac",
               "memory", "carbon", "cost", "energy", "bytes_moved")
EMPTY_CELL_RATE = 0.03
#: Quantisation levels of the j-th column: few enough that ties are
#: common, fixed per position because the tie rate sets how many pairs
#: are compared and listed.
COLUMN_LEVELS = (8, 12, 16, 20, 24, 10, 14, 18, 22, 6)


def _records(rng: random.Random, n: int, ncols: int) -> list[list[str]]:
    """Rows of independent quantised columns. Independent columns make
    the work per set (pairs discordant, pairs tied) vary little between
    seeds. Redrawn until every column pair has two distinct values in
    each column among the rows carrying both, which keeps tau-b defined."""
    while True:
        scales = [(levels, rng.choice((0.5, 1.0, 2.5, 10.0, 1000.0)))
                  for levels in COLUMN_LEVELS[:ncols]]
        rows = []
        for i in range(n):
            cells = ["" if rng.random() < EMPTY_CELL_RATE else repr(rng.randint(1, levels) * unit)
                     for levels, unit in scales]
            if all(cell == "" for cell in cells):
                cells[0] = repr(scales[0][1])
            quality = round(rng.uniform(30, 80) * 2) / 2
            rows.append([f"m{i:03d}", rng.choice(("vit", "lm", "moe", "ut")),
                         repr(quality)] + cells)
        if _taus_defined(rows, ncols):
            return rows


def _taus_defined(rows, ncols) -> bool:
    for a in range(3, 3 + ncols):
        for b in range(a + 1, 3 + ncols):
            both = [(r[a], r[b]) for r in rows if r[a] != "" and r[b] != ""]
            if len({x for x, _ in both}) < 2 or len({y for _, y in both}) < 2:
                return False
    return True


def scipy_references(paths: list[Path]) -> list[dict]:
    """Reference statistics from ``taus.py`` in a child process."""
    proc = subprocess.run([sys.executable, str(BENCH / "taus.py"), *map(str, paths)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"reference child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def compare_sweep(seed: int, tmp: Path) -> list[Op]:
    """``costlens compare --records <csv>`` on tie-heavy record sets of 11
    to 200 rows. The column count falls from 10 to 4 as the row count
    grows, which keeps the largest set's cost near 25 times the smallest
    one's: a pass stays short enough to repeat many times in a run, and
    neighbouring sets differ little in cost, so percentiles move smoothly."""
    rng = random.Random(f"compare_sweep:{seed}")
    paths = []
    for i, size in enumerate(log_grid(COMPARE_SETS, 11, 200)):
        cols = rng.sample(COLUMN_POOL, 10 - round(6 * i / (COMPARE_SETS - 1)))
        path = tmp / f"records_{i:03d}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "family", "quality"] + cols)
            writer.writerows(_records(rng, round(size), len(cols)))
        paths.append(path)
    ops = []
    for path, ref in zip(paths, scipy_references(paths)):
        expect = CompareExpect(ref["rows"], {tuple(sorted((a, b))): t for a, b, t in ref["taus"]},
                               ref["discordant"], ref["empty"])
        argv = ["compare", "--records", str(path)]
        ops.append(Op(f"compare {path.name} ({ref['rows']} rows)",
                      lambda argv=argv: run_cli(argv),
                      _cli_check(lambda text, e=expect: check_compare(text, e)), _stdout))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "profile_sweep": profile_sweep,
    "deep_stack": deep_stack,
    "compare_sweep": compare_sweep,
}
