"""Independent references for the benchmark's output checks.

Nothing here calls costlens. Parameter and MAC counts are closed forms
written from the builder configurations and from the layer shapes of the
generated architecture documents, following the conventions documented
in the package README and ``docs/file-formats.md``:

* one fused multiply-add is one MAC and 2 FLOPs;
* attention charges both quadratic terms (logits and value mixing);
* the patch embedding carries a CLS token and a learned positional table
  sized by the unpadded token count; hardware padding never changes a
  count, only latency;
* a parameter-shared repeat stores its body once; a mixture of experts
  stores every expert and runs ``experts_per_token`` of them.

A :class:`Expect` is computed before timing starts, and
:func:`check_profile` / :func:`check_compare` turn an output into a list
of failure reasons (empty when the output is correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

#: Optimizer state in parameter copies, from the README's memory model.
OPTIMIZER_COPIES = {"sgd": 0, "momentum": 1, "adam": 2, "sam": 2}
#: Bytes per element; no generated spec overrides the default width.
ELEMENT_BYTES = 4


@dataclass(frozen=True)
class Counts:
    params: int          # unique parameters (shared repeats once)
    macs: int            # per example
    ops: int             # executed leaf ops (a mixture of experts is one)
    critical_ops: int    # ops on the longest sequential path


@dataclass(frozen=True)
class Expect:
    """What one profile must satisfy. ``counts`` carries the exact
    params and MACs; ``overhead`` is the hardware's per-op dispatch time,
    or None when no hardware is given and latency must be absent."""

    counts: Counts
    batch: int
    optimizer: str = "adam"
    overhead: float | None = None
    carbon: float | None = None
    cost: float | None = None


# ---------------------------------------------------------------------------
# Builder closed forms


def _attn(d: int) -> int:
    return 4 * d * d + 4 * d


def _ffn(d: int, f: int) -> int:
    return 2 * d * f + f + d


def _block_params(d: int, f: int) -> int:
    return 2 * d + _attn(d) + 2 * d + _ffn(d, f)


def _attn_macs(L: int, d: int) -> int:
    return 4 * L * d * d + 2 * L * L * d


def _vit_common(b: dict):
    h, w, c = b.get("image", (224, 224, 3))
    p, d, k = b["patch"], b["model_dim"], b.get("classes", 1000)
    n = (h // p) * (w // p)
    L = n + 1
    embed_params = p * p * c * d + d + d + L * d
    embed_macs = n * p * p * c * d
    tail_params = 2 * d + d * k + k
    return L, d, embed_params, embed_macs, tail_params, d * k


def vit_counts(b: dict) -> Counts:
    """Vision transformer: patch embedding, ``depth`` pre-norm blocks,
    final norm, classifier over the CLS token."""
    L, d, ep, em, tp, head_macs = _vit_common(b)
    depth, f = b["depth"], b["ffn_dim"]
    block_macs = _attn_macs(L, d) + 2 * L * d * f
    ops = 1 + 4 * depth + 2
    return Counts(ep + depth * _block_params(d, f) + tp,
                  em + depth * block_macs + head_macs, ops, ops)


def ut_counts(b: dict) -> Counts:
    """Universal transformer: one block stored, run ``steps`` times."""
    L, d, ep, em, tp, head_macs = _vit_common(b)
    steps, f = b["steps"], b["ffn_dim"]
    block_macs = _attn_macs(L, d) + 2 * L * d * f
    ops = 1 + 4 * steps + 2
    return Counts(ep + _block_params(d, f) + tp,
                  em + steps * block_macs + head_macs, ops, ops)


def moe_counts(b: dict) -> Counts:
    """Vision transformer whose every ``moe_every``-th feed-forward is a
    mixture of ``num_experts`` feed-forward experts with a d x E router."""
    L, d, ep, em, tp, head_macs = _vit_common(b)
    depth, f = b["depth"], b["ffn_dim"]
    e, k = b["num_experts"], b["experts_per_token"]
    n_moe = depth // b.get("moe_every", 2)
    ffn_macs = 2 * L * d * f
    params = (ep + depth * (4 * d + _attn(d)) + (depth - n_moe) * _ffn(d, f)
              + n_moe * (d * e + e * _ffn(d, f)) + tp)
    macs = (em + depth * _attn_macs(L, d) + (depth - n_moe) * ffn_macs
            + n_moe * (L * d * e + k * ffn_macs) + head_macs)
    ops = 1 + 4 * depth + 2
    return Counts(params, macs, ops, ops)


def lm_counts(b: dict) -> Counts:
    """Language model with a tied embedding that also owns the logits.
    Decoder-only: 2L causal blocks over input+output tokens. Encoder-
    decoder: L encoder blocks, a norm, L decoder blocks with cross
    attention, a norm, over the (equal) input length."""
    n, d, f, v = b["layers_per_stack"], b["model_dim"], b["ffn_dim"], b["vocab"]
    lin, lout = b.get("input_len", 512), b.get("output_len", 512)
    block_p = _block_params(d, f)
    if b["arrangement"] == "decoder_only":
        L = lin + lout
        block_m = _attn_macs(L, d) + 2 * L * d * f
        ops = 1 + 8 * n + 1
        return Counts(v * d + 2 * n * block_p + 2 * d,
                      L * d * v + 2 * n * block_m, ops, ops)
    L = lin
    enc_m = _attn_macs(L, d) + 2 * L * d * f
    dec_p = 6 * d + 2 * _attn(d) + _ffn(d, f)
    dec_m = 2 * _attn_macs(L, d) + 2 * L * d * f
    ops = 1 + 4 * n + 1 + 6 * n + 1
    return Counts(v * d + n * block_p + 2 * d + n * dec_p + 2 * d,
                  L * d * v + n * enc_m + n * dec_m, ops, ops)


BUILDER_COUNTS = {
    "vit": vit_counts,
    "universal_transformer": ut_counts,
    "moe": moe_counts,
    "lm": lm_counts,
}


def builder_counts(builder: dict) -> Counts:
    """Closed-form counts for a spec-file ``builder`` reference."""
    return BUILDER_COUNTS[builder["family"]](builder)


# ---------------------------------------------------------------------------
# Architecture documents (inline ``arch`` trees)


def _leaf(layer: dict, L: int, inp: dict) -> tuple[int, int, int]:
    """(params, macs, sequence length after) of one primitive layer."""
    kind = layer["kind"]
    if kind == "patch_embed":
        p, c, d = layer["patch"], layer["in_channels"], layer["embed_dim"]
        cls = layer.get("add_cls_token", True)
        n = (inp["height"] // p) * (inp["width"] // p)
        raw = n + (1 if cls else 0)
        params = p * p * c * d + d + (d if cls else 0)
        if layer.get("positional", True):
            params += raw * d
        return params, n * p * p * c * d, raw
    if kind == "attention":
        d, q = layer["model_dim"], layer["qkv_dim"]
        return 4 * d * q + 4 * q, 4 * L * d * q + 2 * L * L * q, L
    if kind == "feed_forward":
        d, h = layer["model_dim"], layer["hidden_dim"]
        return 2 * d * h + h + d, 2 * L * d * h, L
    if kind == "layer_norm":
        return 2 * layer["model_dim"], 0, L
    if kind == "dense":
        a, b = layer["in_dim"], layer["out_dim"]
        return a * b + (b if layer.get("bias", True) else 0), L * a * b, L
    if kind == "token_embedding":
        v, d = layer["vocab"], layer["embed_dim"]
        return (v * d if layer.get("tied_output", True) else 2 * v * d), L * d * v, L
    if kind == "classifier_head":
        d, k = layer["model_dim"], layer["classes"]
        return d * k + k, d * k, L
    raise ValueError(f"unknown layer kind {kind!r}")


def _seq(layers: list, L: int, inp: dict) -> tuple[Counts, int]:
    params = macs = ops = crit = 0
    for layer in layers:
        kind = layer["kind"]
        if kind == "repeat":
            body, L = _seq(layer["body"], L, inp)
            t = layer["times"]
            params += body.params * (1 if layer.get("share_params") else t)
            macs += body.macs * t
            ops += body.ops * t
            crit += body.critical_ops * t
        elif kind == "parallel":
            branches = [_seq(b, L, inp)[0] for b in layer["branches"]]
            params += sum(b.params for b in branches)
            macs += sum(b.macs for b in branches)
            ops += sum(b.ops for b in branches)
            crit += max(b.critical_ops for b in branches)
        elif kind == "moe":
            expert, _ = _seq([layer["expert"]], L, inp)
            e, k, r = layer["num_experts"], layer["experts_per_token"], layer["router_dim"]
            params += r * e + e * expert.params
            macs += L * r * e + k * expert.macs
            ops += 1
            crit += 1
        else:
            p, m, L = _leaf(layer, L, inp)
            params += p
            macs += m
            ops += 1
            crit += 1
    return Counts(params, macs, ops, crit), L


def arch_counts(arch: dict) -> Counts:
    """Counts for an inline architecture document. The sequence length
    is the token count, or set by the leading patch embedding."""
    inp = arch["input"]
    L = inp["length"] if inp["kind"] == "token_sequence" else 0
    return _seq(arch["layers"], L, inp)[0]


# ---------------------------------------------------------------------------
# Footprint


def carbon(e: dict) -> float:
    return (e["ee_train_kwh"] + e["queries"] * e["ee_inference_kwh"]) * e["co2e_per_kwh"]


def money(p: dict) -> float:
    return p["total_train_hours"] * p["num_chips"] * p["price_per_chip_hour"]


# ---------------------------------------------------------------------------
# Checks


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_profile(d: dict, exp: Expect) -> list[str]:
    """Failure reasons for one profile dictionary."""
    bad = []
    for key, value in d.items():
        if isinstance(value, float) and not math.isfinite(value):
            bad.append(f"{key} is not finite: {value!r}")
    try:
        c = exp.counts
        if d["params"] != c.params:
            bad.append(f"params {d['params']} != closed form {c.params}")
        if d["macs"] != c.macs:
            bad.append(f"macs {d['macs']} != closed form {c.macs}")
        if d["flops"] < 2 * d["macs"]:
            bad.append(f"flops {d['flops']} < 2 * macs {d['macs']}")
        if d["batch"] != exp.batch:
            bad.append(f"batch {d['batch']} != requested {exp.batch}")
        if d["parameter_bytes"] != d["params"] * ELEMENT_BYTES:
            bad.append("parameter_bytes != params * element_bytes")
        if d["activation_bytes"] != d["activation_elements"] * ELEMENT_BYTES * exp.batch:
            bad.append("activation_bytes != activation_elements * element_bytes * batch")
        copies = OPTIMIZER_COPIES[exp.optimizer]
        if d["peak_training_bytes"] != (2 + copies) * d["parameter_bytes"] + d["activation_bytes"]:
            bad.append(f"peak_training_bytes disagrees with {exp.optimizer} state copies")
        if exp.overhead is None:
            if "latency_sec" in d:
                bad.append("latency reported without hardware")
        else:
            lat = d["latency_sec"]
            thr = d["throughput_examples_per_sec"]
            if not _close(thr * lat, exp.batch, 1e-9):
                bad.append(f"throughput*latency {thr * lat!r} != batch {exp.batch}")
            floor = c.critical_ops * exp.overhead
            if lat < floor * (1 - 1e-12):
                bad.append(f"latency {lat!r} < {c.critical_ops} ops x overhead {exp.overhead!r}")
        for key, want in (("carbon_kg_co2e", exp.carbon), ("monetary_cost", exp.cost)):
            if want is None:
                if key in d:
                    bad.append(f"{key} reported without its profile")
            elif key not in d or not _close(d[key], want, 1e-12):
                bad.append(f"{key} {d.get(key)!r} != {want!r}")
    except (KeyError, TypeError) as exc:
        bad.append(f"profile field missing or mistyped: {exc!r}")
    return bad


def check_profile_stdout(text: str, exp: Expect) -> list[str]:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(d, dict):
        return ["stdout JSON is not an object"]
    return check_profile(d, exp)


@dataclass(frozen=True)
class CompareExpect:
    """Expected ``compare`` output: tau-b per indicator pair (scipy),
    keyed by the sorted pair of names, the total of discordant pairs,
    and the number of empty cells."""

    rows: int
    taus: dict[tuple[str, str], float]
    discordant: int
    empty_cells: int


def _tau_tolerance(ref: float) -> float:
    """Half a unit in the last place of a 6-significant-digit rendering."""
    if ref == 0:
        return 1e-12
    digits = 5 - math.floor(math.log10(abs(ref)))
    return 0.5 * 10.0 ** -digits * (1 + 1e-9) + 1e-15


def check_compare(text: str, exp: CompareExpect) -> list[str]:
    """Failure reasons for ``costlens compare`` stdout. Works on offsets
    so a large inverted-pair listing is never split into a list."""
    bad = []
    head = "\nrank agreement (kendall tau-b, tie-corrected):\n"
    inv = "\ninverted pairs (cheaper under the first indicator, costlier under the second):\n"
    par = "\npareto instability"
    cov = "\ncoverage warnings:\n"
    i_head, i_inv = text.find(head), text.find(inv)
    i_par = text.find(par, max(i_inv, 0))
    if min(i_head, i_inv, i_par) < 0:
        return ["compare output is missing a section header"]
    table_rows = text.count("\n", 0, i_head) - 1
    if table_rows != exp.rows:
        bad.append(f"table has {table_rows} rows, expected {exp.rows}")
    seen = set()
    for line in text[i_head + len(head):i_inv].split("\n"):
        left, _, value = line.strip().partition(": tau = ")
        a, _, b = left.partition(" vs ")
        pair = tuple(sorted((a, b)))
        if pair not in exp.taus:
            bad.append(f"unexpected tau line {line.strip()!r}")
            continue
        seen.add(pair)
        ref = exp.taus[pair]
        try:
            ok = abs(float(value) - ref) <= _tau_tolerance(ref)
        except ValueError:
            ok = False
        if not ok:
            bad.append(f"tau {a} vs {b} printed {value}, scipy tau-b {ref!r}")
    missing = set(exp.taus) - seen
    if missing:
        bad.append(f"{len(missing)} indicator pairs have no tau line")
    listed = text.count("\n", i_inv + len(inv), i_par) + 1
    if text.startswith("  none\n", i_inv + len(inv)):
        listed = 0
    if listed != exp.discordant:
        bad.append(f"{listed} inverted pairs listed, {exp.discordant} discordant pairs exist")
    i_cov = text.find(cov, i_par)
    warnings = 0 if i_cov < 0 else text.count("\n", i_cov + len(cov))
    if warnings != exp.empty_cells:
        bad.append(f"{warnings} coverage warnings, {exp.empty_cells} empty cells")
    return bad
