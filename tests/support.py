"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the
frontier oracle is a quadratic dominance scan, the correlation oracle is
direct pair counting, the activation/traffic oracles are closed-form sums
written from the layer shapes, the unrolled evaluator is a frozen copy of
the walkers the one-pass evaluator replaced, and the pair-loop
disagreement oracle is a frozen copy of the ``rank_disagreement`` the
rank-bitset version replaced, and the validation oracle is a frozen copy
of the iterative ``validate`` walk the recursive one replaced.
"""

from __future__ import annotations

import math
import random
import re
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from importlib import resources

from costlens import (
    ArchSpec,
    Attention,
    ClassifierHead,
    Dense,
    FeedForward,
    Image,
    LayerNorm,
    ModelRecord,
    MoE,
    Parallel,
    PatchEmbed,
    Repeat,
    TokenEmbedding,
    TokenSequence,
    Violation,
    VitConfig,
    build_vit,
    derive_sequence_length,
)
from costlens.archspec import MAX_NESTING, field_errors

#: Every layer kind that holds no other layer, written out apart from the
#: library's own tag table.
LEAF_KINDS = (PatchEmbed, Attention, FeedForward, LayerNorm, Dense, TokenEmbedding,
              ClassifierHead)

# Published reference numbers for the base-size patch sweep: patch ->
# (image side used to build, million params, gflops, sequence length).
# 64 does not divide 224: the published 95.3M/0.93G correspond to a 3x3
# patch grid (image 192), the published length 17 to a 4x4 grid (image
# 256); both param counts agree to five digits.
TABLE1 = {
    8: (224, 86.5, 78.54, 785),
    16: (224, 86.6, 17.63, 197),
    32: (224, 88.2, 4.42, 50),
    64: (192, 95.3, 0.93, 17),
}

TABLE2_ROWS = [
    # name, layers, ffn, qkv, heads, Mparams, gflops, msec/img, accuracy
    ("D6", 6, 1024, 384, 6, 18.89, 0.61, 0.09, 37.5),
    ("D8", 8, 1024, 384, 6, 22.44, 0.79, 0.11, 42.4),
    ("D16", 16, 1024, 384, 6, 36.63, 1.52, 0.22, 51.5),
    ("D24", 24, 1024, 384, 6, 50.83, 2.25, 0.32, 55.7),
    ("D32", 32, 1024, 384, 6, 65.03, 2.98, 0.43, 58.8),
    ("D48", 48, 1024, 384, 6, 93.42, 4.43, 0.64, 61.8),
    ("W768", 12, 768, 192, 3, 9.47, 0.31, 0.11, 34.4),
    ("W1024", 12, 1024, 384, 6, 24.81, 0.92, 0.16, 45.2),
    ("W1536", 12, 1536, 512, 8, 42.51, 1.70, 0.22, 50.3),
    ("W3072", 12, 3072, 768, 12, 101.52, 4.44, 0.35, 58.3),
    ("W4096", 12, 4096, 1024, 16, 173.10, 7.80, 0.68, 63.3),
]


def document_required_fields(cls) -> set[str]:
    """Fields a JSON document of the dataclass ``cls`` must carry: no
    default, no default factory and no ``document_default``, read from the
    dataclass independently of the library's reader."""
    return {f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
            and "document_default" not in f.metadata}


def vit_base(patch: int, image: int) -> ArchSpec:
    return build_vit(VitConfig(patch=patch, depth=12, model_dim=768,
                               num_heads=12, ffn_dim=3072,
                               image=(image, image, 3)))


@contextmanager
def data_file(rel: str):
    """Filesystem path of a packaged data file."""
    with resources.as_file(resources.files("costlens").joinpath("data", rel)) as p:
        yield str(p)


# ---------------------------------------------------------------------------
# Random spec generation (parameter-sharing property suite)


def random_repeat_pair(rng: random.Random):
    """A (shared, unshared) spec pair identical except for the share flag.

    The repeat body always carries at least one parameterized layer and
    times >= 2, so sharing must strictly reduce the parameter count.
    """
    d = rng.choice([8, 16, 32, 64])
    heads = rng.choice([1, 2, 4])
    length = rng.randint(2, 24)

    def random_leaf():
        kind = rng.randrange(4)
        if kind == 0:
            return LayerNorm(d)
        if kind == 1:
            return FeedForward(d, rng.choice([d, 2 * d, 4 * d]))
        if kind == 2:
            return Attention(d, d, heads, is_causal=rng.random() < 0.5)
        return Dense(d, d, bias=rng.random() < 0.5)

    body = [random_leaf() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        body = [Repeat(tuple(body), rng.randint(2, 3),
                       share_params=rng.random() < 0.5)]
    times = rng.randint(2, 5)
    prefix = [random_leaf() for _ in range(rng.randint(0, 2))]
    suffix = [random_leaf() for _ in range(rng.randint(0, 2))]

    def spec(share):
        return ArchSpec(
            name=f"random_{'s' if share else 'u'}",
            input=TokenSequence(length, 64),
            layers=tuple(prefix) + (Repeat(tuple(body), times, share),) + tuple(suffix),
        )

    return spec(True), spec(False)


# ---------------------------------------------------------------------------
# Random records (frontier property suite)


def random_records(rng: random.Random, n: int, *, indicator: str = "flops"):
    records = []
    for i in range(n):
        # One decimal so ties in cost and quality actually happen.
        quality = round(rng.uniform(0, 10), 1)
        cost = round(rng.uniform(0, 10), 1)
        records.append(ModelRecord(
            name=f"m{i}",
            indicators={indicator: cost},
            quality=quality,
        ))
    return records


def brute_force_frontier_names(records, indicator: str) -> set[str]:
    """Quadratic dominance scan; a record survives unless some other
    record is at least as good on both axes and strictly better on one."""
    names = set()
    for r in records:
        dominated = False
        for s in records:
            if s is r:
                continue
            if (s.quality >= r.quality
                    and s.indicators[indicator] <= r.indicators[indicator]
                    and (s.quality > r.quality
                         or s.indicators[indicator] < r.indicators[indicator])):
                dominated = True
                break
        if not dominated:
            names.add(r.name)
    return names


def brute_force_tau(xs, ys) -> float:
    """Tie-corrected Kendall correlation by direct pair counting."""
    n = len(xs)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0:
        return 1.0 if discordant == 0 else 0.0
    return (concordant - discordant) / denom


@dataclass(frozen=True)
class OracleDisagreement:
    kendall_tau: float
    n_concordant: int
    n_discordant: int
    inverted_pairs: tuple[tuple[str, str, str, str], ...]


def oracle_rank_disagreement(records, indicator_a: str, indicator_b: str):
    """Frozen copy of the pair-loop ``rank_disagreement`` the rank-bitset
    version replaced: every record pair is visited in ``(i, j)`` order and
    each discordant one is listed as ``(cheaper under a, other, a, b)``."""
    both = [r for r in records
            if indicator_a in r.indicators and indicator_b in r.indicators]
    a = [r.cost_value(indicator_a) for r in both]
    b = [r.cost_value(indicator_b) for r in both]
    concordant = discordant = ties_a = ties_b = 0
    inversions = []
    n = len(both)
    for i in range(n):
        for j in range(i + 1, n):
            da = a[i] - a[j]
            db = b[i] - b[j]
            if da == 0:
                ties_a += 1
            if db == 0:
                ties_b += 1
            if da == 0 or db == 0:
                continue
            if (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
                lo, hi = (i, j) if da < 0 else (j, i)
                inversions.append(
                    (both[lo].name, both[hi].name, indicator_a, indicator_b))
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_a) * (n0 - ties_b))
    if denom == 0:
        tau = 1.0 if discordant == 0 else 0.0
    else:
        tau = (concordant - discordant) / denom
    return OracleDisagreement(tau, concordant, discordant, tuple(inversions))


# ---------------------------------------------------------------------------
# Unrolled reference evaluator (differential suite)
#
# A frozen copy of the layer-by-layer walkers the evaluator replaced: one
# step per *executed* leaf (a Repeat body appears once per iteration, with
# ``@t`` in its path), a separate parameter walker for storage, and a
# latency walker that adds op times one execution at a time. It imports
# nothing from costlens.trace, costlens.indicators or costlens.latency.

_SOFTMAX = 5
_LAYERNORM = 5
_ACTIVATION = 4
_ADD = 1


@dataclass(frozen=True)
class OracleStep:
    path: str
    layer: object
    seq_len: int
    params: int
    matmul_macs: int
    flops: int
    in_elements: int
    out_elements: int


def _oracle_pad(length, multiple):
    if multiple is None or multiple <= 1:
        return length
    return -(-length // multiple) * multiple


def _oracle_leaf_params(layer, spec):
    if isinstance(layer, PatchEmbed):
        inp = spec.input
        patch_in = layer.patch * layer.patch * layer.in_channels
        params = patch_in * layer.embed_dim + layer.embed_dim
        if layer.add_cls_token:
            params += layer.embed_dim
        if layer.positional:
            patches = (inp.height // layer.patch) * (inp.width // layer.patch)
            raw_len = patches + (1 if layer.add_cls_token else 0)
            params += raw_len * layer.embed_dim
        return params
    if isinstance(layer, Attention):
        return 4 * layer.model_dim * layer.qkv_dim + 4 * layer.qkv_dim
    if isinstance(layer, FeedForward):
        d, h = layer.model_dim, layer.hidden_dim
        return d * h + h + h * d + d
    if isinstance(layer, LayerNorm):
        return 2 * layer.model_dim
    if isinstance(layer, Dense):
        return layer.in_dim * layer.out_dim + (layer.out_dim if layer.bias else 0)
    if isinstance(layer, TokenEmbedding):
        v, d = layer.vocab, layer.embed_dim
        return v * d if layer.tied_output else 2 * v * d
    if isinstance(layer, ClassifierHead):
        return layer.model_dim * layer.classes + layer.classes
    raise TypeError(f"unexpected layer type {type(layer).__name__}")


def _oracle_leaf_step(layer, path, seq_len, spec, pad_multiple):
    L = seq_len
    params = _oracle_leaf_params(layer, spec)
    if isinstance(layer, PatchEmbed):
        inp = spec.input
        patches = (inp.height // layer.patch) * (inp.width // layer.patch)
        raw_len = patches + (1 if layer.add_cls_token else 0)
        L = _oracle_pad(raw_len, pad_multiple)
        d = layer.embed_dim
        patch_in = layer.patch * layer.patch * layer.in_channels
        macs = patches * patch_in * d
        flops = 2 * macs + patches * d * _ADD
        if layer.positional:
            flops += L * d * _ADD
        return OracleStep(path, layer, L, params, macs, flops,
                          inp.height * inp.width * inp.channels, L * d), L
    if isinstance(layer, Attention):
        d, dq = layer.model_dim, layer.qkv_dim
        macs = 4 * L * d * dq + 2 * L * L * dq
        flops = 2 * macs
        flops += _SOFTMAX * layer.num_heads * L * L
        flops += (3 * L * dq + L * d) * _ADD
        flops += L * d * _ADD
        return OracleStep(path, layer, L, params, macs, flops, L * d, L * d), L
    if isinstance(layer, FeedForward):
        d, h = layer.model_dim, layer.hidden_dim
        macs = 2 * L * d * h
        flops = 2 * macs
        flops += (L * h + L * d) * _ADD
        flops += _ACTIVATION * L * h
        flops += L * d * _ADD
        return OracleStep(path, layer, L, params, macs, flops, L * d, L * d), L
    if isinstance(layer, LayerNorm):
        d = layer.model_dim
        return OracleStep(path, layer, L, params, 0, _LAYERNORM * L * d,
                          L * d, L * d), L
    if isinstance(layer, Dense):
        a, b = layer.in_dim, layer.out_dim
        macs = L * a * b
        flops = 2 * macs + (L * b * _ADD if layer.bias else 0)
        return OracleStep(path, layer, L, params, macs, flops, L * a, L * b), L
    if isinstance(layer, TokenEmbedding):
        v, d = layer.vocab, layer.embed_dim
        macs = L * d * v
        return OracleStep(path, layer, L, params, macs, 2 * macs, L,
                          L * d + L * v), L
    if isinstance(layer, ClassifierHead):
        d, k = layer.model_dim, layer.classes
        macs = d * k
        return OracleStep(path, layer, L, params, macs, 2 * macs + k * _ADD,
                          d, k), L
    raise TypeError(f"unexpected layer type {type(layer).__name__} at {path}")


def _oracle_expand(layer, path, seq_len, spec, pad_multiple, out):
    L = seq_len
    if isinstance(layer, MoE):
        expert_steps = []
        _oracle_walk([layer.expert], f"{path}.expert", L, spec, pad_multiple,
                     expert_steps)
        dr, E, K = layer.router_dim, layer.num_experts, layer.experts_per_token
        router_macs = L * dr * E
        out.append(OracleStep(
            path, layer, L,
            params=dr * E + E * sum(s.params for s in expert_steps),
            matmul_macs=router_macs + K * sum(s.matmul_macs for s in expert_steps),
            flops=(2 * router_macs + _SOFTMAX * L * E
                   + K * sum(s.flops for s in expert_steps)),
            in_elements=expert_steps[0].in_elements,
            out_elements=expert_steps[-1].out_elements,
        ))
        return L
    step, L = _oracle_leaf_step(layer, path, L, spec, pad_multiple)
    out.append(step)
    return L


def _oracle_walk(layers, prefix, seq_len, spec, pad_multiple, out):
    L = seq_len
    for i, layer in enumerate(layers):
        path = f"{prefix}[{i}]" if prefix else f"layers[{i}]"
        if isinstance(layer, Repeat):
            for t in range(layer.times):
                L = _oracle_walk(layer.body, f"{path}.body@{t}", L, spec,
                                 pad_multiple, out)
        elif isinstance(layer, Parallel):
            merged = L
            for b, branch in enumerate(layer.branches):
                merged = _oracle_walk(branch, f"{path}.branches[{b}]", L, spec,
                                      pad_multiple, out)
            L = merged
        else:
            L = _oracle_expand(layer, path, L, spec, pad_multiple, out)
    return L


def oracle_steps(spec, pad_multiple=None) -> list[OracleStep]:
    """Every executed leaf layer of a valid spec, in execution order."""
    if isinstance(spec.input, TokenSequence):
        L = _oracle_pad(spec.input.length, pad_multiple)
    else:
        L = 0
    steps = []
    _oracle_walk(spec.layers, "", L, spec, pad_multiple, steps)
    return steps


def layer_mac_bytes(step, element_bytes: int, batch: int) -> int:
    """Bytes one execution of a step moves: its parameters and input read,
    its output written, per example, times ``batch``."""
    return (step.params + step.in_elements + step.out_elements) * element_bytes * batch


def oracle_params(spec):
    """(unique, unrolled, per-node breakdown) with shared bodies once."""

    def rec(layers, prefix):
        unique = unrolled = 0
        breakdown = []
        for i, layer in enumerate(layers):
            path = f"{prefix}[{i}]" if prefix else f"layers[{i}]"
            if isinstance(layer, Repeat):
                u, r, sub = rec(layer.body, f"{path}.body")
                copies = 1 if layer.share_params else layer.times
                unique += u * copies
                unrolled += r * layer.times
                breakdown.extend((p, c * copies) for p, c in sub)
            elif isinstance(layer, Parallel):
                for b, branch in enumerate(layer.branches):
                    u, r, sub = rec(branch, f"{path}.branches[{b}]")
                    unique += u
                    unrolled += r
                    breakdown.extend(sub)
            elif isinstance(layer, MoE):
                eu, er, _ = rec([layer.expert], f"{path}.expert")
                router = layer.router_dim * layer.num_experts
                unique += router + layer.num_experts * eu
                unrolled += router + layer.num_experts * er
                breakdown.append((path, router + layer.num_experts * eu))
            else:
                p = _oracle_leaf_params(layer, spec)
                unique += p
                unrolled += p
                breakdown.append((path, p))
        return unique, unrolled, breakdown

    return rec(spec.layers, "")


def oracle_latency(spec, hw, batch):
    """(latency_sec, per-executed-op timings) adding one op at a time.

    Each timing is ``(path, seconds, bound, flops, mac_bytes)``.
    """
    eb = spec.element_bytes

    def time_layers(layers, prefix, L, timings):
        total = 0.0
        for i, layer in enumerate(layers):
            path = f"{prefix}[{i}]" if prefix else f"layers[{i}]"
            if isinstance(layer, Repeat):
                for t in range(layer.times):
                    dt, L = time_layers(layer.body, f"{path}.body@{t}", L, timings)
                    total += dt
            elif isinstance(layer, Parallel):
                slowest = 0.0
                merged = L
                for b, branch in enumerate(layer.branches):
                    dt, merged = time_layers(branch, f"{path}.branches[{b}]", L,
                                             timings)
                    slowest = max(slowest, dt)
                total += slowest
                L = merged
            else:
                steps = []
                L = _oracle_expand(layer, path, L, spec, hw.length_pad_multiple,
                                   steps)
                for s in steps:
                    flops = s.flops * batch
                    mac_bytes = (s.params + s.in_elements + s.out_elements) * eb * batch
                    compute = flops / (hw.peak_flops_per_sec * hw.num_devices)
                    memory = mac_bytes / hw.mem_bandwidth_bytes_per_sec
                    seconds = hw.per_op_overhead_sec + max(compute, memory)
                    bound = "compute" if compute >= memory else "memory"
                    total += seconds
                    timings.append((s.path, seconds, bound, flops, mac_bytes))
        return total, L

    if isinstance(spec.input, TokenSequence):
        L = _oracle_pad(spec.input.length, hw.length_pad_multiple)
    else:
        L = 0
    timings = []
    latency, _ = time_layers(spec.layers, "", L, timings)
    return latency, timings


def node_path(path: str) -> str:
    """Spec-node path of an executed step: ``body@t`` becomes ``body``."""
    return re.sub(r"@\d+", "", path)


def group_by_node(rows):
    """Sum per-execution ``(path, *values)`` rows per spec node, in
    first-seen order."""
    grouped = {}
    for path, *values in rows:
        key = node_path(path)
        prior = grouped.get(key)
        grouped[key] = values if prior is None else [a + b for a, b in zip(prior, values)]
    return [(key, *values) for key, values in grouped.items()]


# ---------------------------------------------------------------------------
# Iterative validation walk (validation differential suite)
#
# A frozen copy of the stack-based walk ``validate`` used before the
# recursive one: a node's own violations, then its descendants', in spec
# order. Field messages come from ``field_errors``, the rule loop, not from
# the compiled per-class checks.


def oracle_validate(spec) -> tuple[Violation, ...]:
    """Every violation of ``spec``, in the order the iterative walk found them."""
    if not isinstance(spec, ArchSpec):
        return (Violation("", "not an ArchSpec"),)
    out = [Violation("spec", m) for m in field_errors(spec)]

    inp = spec.input
    if isinstance(inp, (Image, TokenSequence)):
        input_errors = field_errors(inp)
        out += [Violation("input", m) for m in input_errors]
    else:
        input_errors = [f"unknown input signature {type(inp).__name__}"]
        out.append(Violation("input", input_errors[0]))
    if isinstance(inp, Image) and not (spec.layers and isinstance(spec.layers[0], PatchEmbed)):
        out.append(Violation("layers[0]", "image input requires a leading PatchEmbed"))

    layer_kinds = set(LEAF_KINDS) | {MoE, Repeat, Parallel}
    stack = [(layer, f"layers[{i}]", 0) for i, layer in reversed(list(enumerate(spec.layers)))]
    while stack:
        layer, path, depth = stack.pop()
        if depth > MAX_NESTING:
            out.append(Violation(path, f"nesting depth exceeds {MAX_NESTING}"))
            continue
        if type(layer) not in layer_kinds:
            out.append(Violation(path, f"unknown layer kind {type(layer).__name__}"))
            continue
        errors = field_errors(layer)
        for message in errors:
            out.append(Violation(path, message))
        if isinstance(layer, Repeat):
            if not layer.body:
                out.append(Violation(path, "Repeat body is empty"))
            for i, child in reversed(list(enumerate(layer.body))):
                stack.append((child, f"{path}.body[{i}]", depth + 1))
        elif isinstance(layer, Parallel):
            if not layer.branches:
                out.append(Violation(path, "Parallel has no branches"))
            for b, branch in reversed(list(enumerate(layer.branches))):
                if not branch:
                    out.append(Violation(f"{path}.branches[{b}]", "Parallel branch is empty"))
                for i, child in reversed(list(enumerate(branch))):
                    stack.append((child, f"{path}.branches[{b}][{i}]", depth + 1))
        elif isinstance(layer, MoE):
            if not errors and layer.experts_per_token > layer.num_experts:
                out.append(Violation(path, "experts_per_token must be <= num_experts"))
            stack.append((layer.expert, f"{path}.expert", depth + 1))
        elif isinstance(layer, Attention):
            if not errors and layer.qkv_dim % layer.num_heads:
                out.append(Violation(path, "num_heads must divide qkv_dim"))
        elif isinstance(layer, PatchEmbed):
            if path != "layers[0]":
                out.append(Violation(path, "PatchEmbed is only valid as the first layer"))
            elif not isinstance(inp, Image):
                out.append(Violation(path, "PatchEmbed requires an image input"))
            elif not errors and not input_errors:
                if layer.in_channels != inp.channels:
                    out.append(Violation(
                        path,
                        f"in_channels {layer.in_channels} does not match image "
                        f"channels {inp.channels}",
                    ))
                try:
                    derive_sequence_length(inp, layer.patch, layer.add_cls_token)
                except ValueError as exc:
                    out.append(Violation(path, str(exc)))
    return tuple(out)
