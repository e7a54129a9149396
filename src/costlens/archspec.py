"""Declarative architecture descriptions used by all cost estimators.

An :class:`ArchSpec` is a tree of layer descriptions plus an input
signature. There is no weight data and no execution; the spec only carries
the shape information the analytical cost models need. All types are
immutable after construction and safe to share across threads.

Validation is deliberately separate from construction: any tree of layer
objects can be built, and :func:`validate` reports every invariant
violation as a value instead of raising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Union

UINT64_MAX = 2**64 - 1

#: Repeat/Parallel nesting deeper than this is rejected by validate().
#: Keeps every recursive walker comfortably inside the interpreter stack.
MAX_NESTING = 32

SCHEMA_VERSION = 1


class InvalidSpecError(ValueError):
    """Raised by cost operations when handed a spec that fails validation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(f"{v.path}: {v.message}" for v in self.violations)
        super().__init__(f"invalid architecture spec: {lines}")


# ---------------------------------------------------------------------------
# Input signatures


@dataclass(frozen=True)
class Image:
    height: int
    width: int
    channels: int


@dataclass(frozen=True)
class TokenSequence:
    length: int
    vocab: int


InputSignature = Union[Image, TokenSequence]


# ---------------------------------------------------------------------------
# Layer taxonomy (closed variant set)


@dataclass(frozen=True)
class PatchEmbed:
    """Image-to-token projection: non-overlapping patches to embed vectors."""

    patch: int
    in_channels: int
    embed_dim: int
    add_cls_token: bool = True
    positional: bool = True


@dataclass(frozen=True)
class Attention:
    """Multi-head attention block, residual add included.

    ``qkv_dim`` is the total projection width (all heads together). Bias
    vectors are modeled as four ``qkv_dim``-sized groups. Causal masking
    does not reduce the counted cost; both quadratic terms are charged in
    full as an upper bound. ``cross_attention`` marks blocks whose keys and
    values come from a second stream; key/value length is taken equal to
    the query length, which is the symmetric case the builders produce.
    """

    model_dim: int
    qkv_dim: int
    num_heads: int
    is_causal: bool = False
    cross_attention: bool = False


@dataclass(frozen=True)
class FeedForward:
    """Two-layer MLP block (GELU-like activation), residual add included."""

    model_dim: int
    hidden_dim: int


@dataclass(frozen=True)
class LayerNorm:
    model_dim: int


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int
    bias: bool = True


@dataclass(frozen=True)
class TokenEmbedding:
    """Vocabulary embedding; also owns the output logit projection.

    The lookup itself is free in FLOP terms, but the output matrix (shared
    with the input table when ``tied_output``) is applied once per token,
    so logit computation is charged here.
    """

    vocab: int
    embed_dim: int
    tied_output: bool = True


@dataclass(frozen=True)
class ClassifierHead:
    """Linear classifier over a single pooled token (CLS-style)."""

    model_dim: int
    classes: int


@dataclass(frozen=True)
class MoE:
    """Mixture-of-experts block: route each token to K of E expert blocks."""

    expert: "LayerSpec"
    num_experts: int
    experts_per_token: int
    router_dim: int


@dataclass(frozen=True)
class Repeat:
    """Run ``body`` sequentially ``times`` times.

    ``share_params=True`` reuses one parameter set across iterations:
    parameters are counted once, while compute, activations and memory
    traffic are identical to the unshared stack.
    """

    body: tuple["LayerSpec", ...]
    times: int
    share_params: bool = False

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))


@dataclass(frozen=True)
class Parallel:
    """Branches that execute concurrently; outputs are merged elementwise."""

    branches: tuple[tuple["LayerSpec", ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "branches", tuple(tuple(b) for b in self.branches)
        )


LayerSpec = Union[
    PatchEmbed,
    Attention,
    FeedForward,
    LayerNorm,
    Dense,
    TokenEmbedding,
    ClassifierHead,
    MoE,
    Repeat,
    Parallel,
]

LEAF_KINDS = (
    PatchEmbed,
    Attention,
    FeedForward,
    LayerNorm,
    Dense,
    TokenEmbedding,
    ClassifierHead,
)


@dataclass(frozen=True)
class ArchSpec:
    """A named architecture: input signature plus an ordered layer tree.

    ``element_bytes`` is the activation/parameter element width used by
    every byte-denominated estimate (default 4, i.e. 32-bit values).
    """

    name: str
    input: InputSignature
    layers: tuple[LayerSpec, ...]
    metadata: dict = field(default_factory=dict)
    element_bytes: int = 4

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    path: str
    message: str


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_leaf(layer, path, out):
    def positive(name, value):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            out.append(Violation(path, f"{name} must be a positive integer, got {value!r}"))
            return False
        return True

    if isinstance(layer, PatchEmbed):
        positive("patch", layer.patch)
        positive("in_channels", layer.in_channels)
        positive("embed_dim", layer.embed_dim)
    elif isinstance(layer, Attention):
        ok_d = positive("model_dim", layer.model_dim)
        ok_q = positive("qkv_dim", layer.qkv_dim)
        ok_h = positive("num_heads", layer.num_heads)
        if ok_q and ok_h and layer.qkv_dim % layer.num_heads != 0:
            out.append(Violation(path, "num_heads must divide qkv_dim"))
    elif isinstance(layer, FeedForward):
        positive("model_dim", layer.model_dim)
        positive("hidden_dim", layer.hidden_dim)
    elif isinstance(layer, LayerNorm):
        positive("model_dim", layer.model_dim)
    elif isinstance(layer, Dense):
        positive("in_dim", layer.in_dim)
        positive("out_dim", layer.out_dim)
    elif isinstance(layer, TokenEmbedding):
        positive("vocab", layer.vocab)
        positive("embed_dim", layer.embed_dim)
    elif isinstance(layer, ClassifierHead):
        positive("model_dim", layer.model_dim)
        positive("classes", layer.classes)
    else:
        out.append(Violation(path, f"unknown layer kind {type(layer).__name__}"))


def validate(spec: ArchSpec) -> ValidationResult:
    """Report every invariant violation in ``spec``.

    Total over any tree of layer objects: violations are returned as
    values, never raised. A spec with an empty violation list is safe for
    every downstream cost operation.
    """

    out: list[Violation] = []

    if not isinstance(spec, ArchSpec):
        return ValidationResult((Violation("", "not an ArchSpec"),))
    if not isinstance(spec.element_bytes, int) or spec.element_bytes < 1:
        out.append(Violation("element_bytes", "element_bytes must be a positive integer"))

    inp = spec.input
    if isinstance(inp, Image):
        for name in ("height", "width", "channels"):
            v = getattr(inp, name)
            if not isinstance(v, int) or v < 1:
                out.append(Violation("input", f"{name} must be a positive integer"))
    elif isinstance(inp, TokenSequence):
        for name in ("length", "vocab"):
            v = getattr(inp, name)
            if not isinstance(v, int) or v < 1:
                out.append(Violation("input", f"{name} must be a positive integer"))
    else:
        out.append(Violation("input", f"unknown input signature {type(inp).__name__}"))

    # Image inputs must be tokenized by a leading patch embedding; the
    # evaluator takes the sequence length from it.
    first = spec.layers[0] if spec.layers else None
    if isinstance(inp, Image):
        if not isinstance(first, PatchEmbed):
            out.append(Violation("layers[0]", "image input requires a leading PatchEmbed"))
        else:
            if first.in_channels != inp.channels:
                out.append(Violation(
                    "layers[0]",
                    f"in_channels {first.in_channels} does not match image channels {inp.channels}",
                ))
            if first.patch >= 1 and (inp.height % first.patch or inp.width % first.patch):
                out.append(Violation(
                    "layers[0]",
                    f"patch {first.patch} does not divide input extent "
                    f"{inp.height}x{inp.width}",
                ))

    # Iterative walk: validate must not blow the interpreter stack on
    # adversarially deep trees.
    stack: list[tuple[object, str, int]] = [
        (layer, f"layers[{i}]", 0) for i, layer in reversed(list(enumerate(spec.layers)))
    ]
    while stack:
        layer, path, depth = stack.pop()
        if depth > MAX_NESTING:
            out.append(Violation(path, f"nesting depth exceeds {MAX_NESTING}"))
            continue
        if isinstance(layer, Repeat):
            if not isinstance(layer.times, int) or isinstance(layer.times, bool) or layer.times < 1:
                out.append(Violation(path, f"times must be >= 1, got {layer.times!r}"))
            if not layer.body:
                out.append(Violation(path, "Repeat body is empty"))
            for i, child in reversed(list(enumerate(layer.body))):
                stack.append((child, f"{path}.body[{i}]", depth + 1))
        elif isinstance(layer, Parallel):
            if not layer.branches:
                out.append(Violation(path, "Parallel has no branches"))
            for b, branch in reversed(list(enumerate(layer.branches))):
                for i, child in reversed(list(enumerate(branch))):
                    stack.append((child, f"{path}.branches[{b}][{i}]", depth + 1))
        elif isinstance(layer, MoE):
            e, k = layer.num_experts, layer.experts_per_token
            if not isinstance(e, int) or e < 1:
                out.append(Violation(path, "num_experts must be >= 1"))
            if not isinstance(k, int) or k < 1:
                out.append(Violation(path, "experts_per_token must be >= 1"))
            elif isinstance(e, int) and e >= 1 and k > e:
                out.append(Violation(path, "experts_per_token must be <= num_experts"))
            if not isinstance(layer.router_dim, int) or layer.router_dim < 1:
                out.append(Violation(path, "router_dim must be a positive integer"))
            stack.append((layer.expert, f"{path}.expert", depth + 1))
        else:
            if isinstance(layer, PatchEmbed) and path != "layers[0]":
                out.append(Violation(path, "PatchEmbed is only valid as the first layer"))
            _check_leaf(layer, path, out)

    return ValidationResult(tuple(out))


def ensure_valid(spec: ArchSpec) -> None:
    """Raise :class:`InvalidSpecError` unless ``spec`` validates cleanly."""
    result = validate(spec)
    if not result.ok:
        raise InvalidSpecError(result.violations)


# ---------------------------------------------------------------------------
# Derived shapes


def derive_sequence_length(inp: InputSignature, patch: int, add_cls: bool) -> int:
    """Token count produced by patching an image input.

    Returns ``(H/patch) * (W/patch) + 1`` when a CLS token is appended.
    The patch size must divide both spatial extents exactly.
    """
    if isinstance(inp, TokenSequence):
        return inp.length
    if patch < 1:
        raise ValueError(f"patch must be >= 1, got {patch}")
    if inp.height % patch or inp.width % patch:
        raise ValueError(
            f"patch {patch} does not divide input extent {inp.height}x{inp.width}"
        )
    return (inp.height // patch) * (inp.width // patch) + (1 if add_cls else 0)


def input_sequence_length(spec: ArchSpec) -> int:
    """Sequence length entering the layer stack (after any patching)."""
    if isinstance(spec.input, TokenSequence):
        return spec.input.length
    first = spec.layers[0] if spec.layers else None
    if not isinstance(first, PatchEmbed):
        raise InvalidSpecError(
            (Violation("layers[0]", "image input requires a leading PatchEmbed"),)
        )
    return derive_sequence_length(spec.input, first.patch, first.add_cls_token)


# ---------------------------------------------------------------------------
# JSON serialization

_LAYER_TAGS = {
    PatchEmbed: "patch_embed",
    Attention: "attention",
    FeedForward: "feed_forward",
    LayerNorm: "layer_norm",
    Dense: "dense",
    TokenEmbedding: "token_embedding",
    ClassifierHead: "classifier_head",
    MoE: "moe",
    Repeat: "repeat",
    Parallel: "parallel",
}
_TAG_CLASSES = {tag: cls for cls, tag in _LAYER_TAGS.items()}


def layer_to_dict(layer: LayerSpec) -> dict:
    tag = _LAYER_TAGS.get(type(layer))
    if tag is None:
        raise TypeError(f"cannot serialize layer of type {type(layer).__name__}")
    d = {"kind": tag}
    if isinstance(layer, Repeat):
        d["body"] = [layer_to_dict(c) for c in layer.body]
        d["times"] = layer.times
        d["share_params"] = layer.share_params
    elif isinstance(layer, Parallel):
        d["branches"] = [[layer_to_dict(c) for c in b] for b in layer.branches]
    elif isinstance(layer, MoE):
        d["expert"] = layer_to_dict(layer.expert)
        d["num_experts"] = layer.num_experts
        d["experts_per_token"] = layer.experts_per_token
        d["router_dim"] = layer.router_dim
    else:
        for f in fields(layer):
            d[f.name] = getattr(layer, f.name)
    return d


def layer_from_dict(d: dict) -> LayerSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("layer entry must be an object with a 'kind' field")
    kind = d["kind"]
    cls = _TAG_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    args = {k: v for k, v in d.items() if k != "kind"}
    try:
        if cls is Repeat:
            args["body"] = tuple(layer_from_dict(c) for c in args.get("body", ()))
            return Repeat(**args)
        if cls is Parallel:
            args["branches"] = tuple(
                tuple(layer_from_dict(c) for c in b) for b in args.get("branches", ())
            )
            return Parallel(**args)
        if cls is MoE:
            args["expert"] = layer_from_dict(args["expert"])
            return MoE(**args)
        return cls(**args)
    except TypeError as exc:
        raise ValueError(f"bad fields for layer kind {kind!r}: {exc}") from exc


def input_to_dict(inp: InputSignature) -> dict:
    if isinstance(inp, Image):
        return {"kind": "image", "height": inp.height, "width": inp.width,
                "channels": inp.channels}
    if isinstance(inp, TokenSequence):
        return {"kind": "token_sequence", "length": inp.length, "vocab": inp.vocab}
    raise TypeError(f"cannot serialize input of type {type(inp).__name__}")


def input_from_dict(d: dict) -> InputSignature:
    kind = d.get("kind")
    try:
        if kind == "image":
            return Image(height=d["height"], width=d["width"], channels=d["channels"])
        if kind == "token_sequence":
            return TokenSequence(length=d["length"], vocab=d["vocab"])
    except KeyError as exc:
        raise ValueError(f"input signature missing field {exc}") from exc
    raise ValueError(f"unknown input kind {kind!r}")


def spec_to_dict(spec: ArchSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "input": input_to_dict(spec.input),
        "layers": [layer_to_dict(l) for l in spec.layers],
        "metadata": dict(spec.metadata),
        "element_bytes": spec.element_bytes,
    }


def spec_from_dict(d: dict) -> ArchSpec:
    if not isinstance(d, dict):
        raise ValueError("architecture document must be a JSON object")
    version = d.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    if "input" not in d or "layers" not in d:
        raise ValueError("architecture document requires 'input' and 'layers'")
    return ArchSpec(
        name=d.get("name", "unnamed"),
        input=input_from_dict(d["input"]),
        layers=tuple(layer_from_dict(l) for l in d["layers"]),
        metadata=dict(d.get("metadata", {})),
        element_bytes=d.get("element_bytes", 4),
    )


def to_json(spec: ArchSpec) -> str:
    """Canonical JSON text; serialize -> parse -> serialize is an identity."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


def from_json(text: str) -> ArchSpec:
    return spec_from_dict(json.loads(text))
