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
import sys
from dataclasses import dataclass, field, fields
from typing import Union, get_type_hints

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


# One rule for every number and flag of an input dataclass, read from the
# field annotations: ``int`` is a count (an integer >= 1), ``float`` a rate
# (a finite number >= 0, integers admitted), ``bool`` a flag; a bool is
# never a number and a string never either. ``X | None`` also admits None.
_FLOAT_MAX = sys.float_info.max
_RULES = {  # kind: (test, what the message asks for)
    int: (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    float: (lambda v: (type(v) is float or type(v) is int) and 0 <= v <= _FLOAT_MAX,
            "finite, a number >= 0"),
    bool: (lambda v: type(v) is bool, "true or false"),
}
_OPTIONAL = {kind | None: kind for kind in _RULES}
# Per class, because validate() runs inside every cost operation.
_FIELD_RULES: dict[type, tuple] = {}


def _field_rules(cls: type) -> tuple:
    """(name, test, kind, optional) of each number or flag field of
    ``cls``, read from its annotations once."""
    rules = _FIELD_RULES.get(cls)
    if rules is None:
        hints = get_type_hints(cls)
        rules = []
        for f in fields(cls):
            hint = hints[f.name]
            kind = _OPTIONAL.get(hint, hint)
            if kind in _RULES:
                rules.append((f.name, _RULES[kind][0], kind, kind is not hint))
        rules = _FIELD_RULES[cls] = tuple(rules)
    return rules


def _wrong(name: str, kind: type, optional: bool, value) -> str:
    return f"{name} must be {_RULES[kind][1]}{' or null' if optional else ''}, got {value!r}"


def field_errors(obj) -> list[str]:
    """One message per number or flag field of the dataclass ``obj`` that
    breaks the rule its annotation names."""
    rules = _FIELD_RULES.get(type(obj)) or _field_rules(type(obj))
    errors = []
    for name, admits, kind, optional in rules:
        value = getattr(obj, name)
        if not admits(value) and not (optional and value is None):
            errors.append(_wrong(name, kind, optional, value))
    return errors


def check_fields(obj) -> None:
    """Raise ValueError with the first of ``field_errors(obj)``; store the
    integer values of ``float`` fields as floats."""
    errors = field_errors(obj)
    if errors:
        raise ValueError(errors[0])
    for name, _, kind, _ in _field_rules(type(obj)):
        if kind is float and type(getattr(obj, name)) is int:
            object.__setattr__(obj, name, float(getattr(obj, name)))


def check_value(name: str, value, kind: type = int) -> None:
    """Raise ValueError unless ``value`` passes the field rule for ``kind``."""
    if not _RULES[kind][0](value):
        raise ValueError(_wrong(name, kind, False, value))


def validate(spec: ArchSpec) -> ValidationResult:
    """Report every invariant violation in ``spec``.

    Total over any tree of layer objects: violations are returned as
    values, never raised. A spec with an empty violation list is safe for
    every downstream cost operation.
    """

    if not isinstance(spec, ArchSpec):
        return ValidationResult((Violation("", "not an ArchSpec"),))
    out = [Violation("spec", m) for m in field_errors(spec)]

    inp = spec.input
    if isinstance(inp, (Image, TokenSequence)):
        input_errors = field_errors(inp)
        out += [Violation("input", m) for m in input_errors]
    else:
        input_errors = [f"unknown input signature {type(inp).__name__}"]
        out.append(Violation("input", input_errors[0]))
    # Image inputs must be tokenized by a leading patch embedding; the
    # evaluator takes the sequence length from it.
    if isinstance(inp, Image) and not (spec.layers and isinstance(spec.layers[0], PatchEmbed)):
        out.append(Violation("layers[0]", "image input requires a leading PatchEmbed"))

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
        if type(layer) not in _LAYER_TAGS:
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
                if inp.height % layer.patch or inp.width % layer.patch:
                    out.append(Violation(
                        path,
                        f"patch {layer.patch} does not divide input extent "
                        f"{inp.height}x{inp.width}",
                    ))

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
    check_value("patch", patch)
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


def _to_json(value):
    if type(value) in _LAYER_TAGS:
        return layer_to_dict(value)
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


def layer_to_dict(layer: LayerSpec) -> dict:
    tag = _LAYER_TAGS.get(type(layer))
    if tag is None:
        raise TypeError(f"cannot serialize layer of type {type(layer).__name__}")
    return {"kind": tag, **{f.name: _to_json(getattr(layer, f.name)) for f in fields(layer)}}


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
            args["body"] = [layer_from_dict(c) for c in args.get("body", ())]
        elif cls is Parallel:
            args["branches"] = [[layer_from_dict(c) for c in b]
                                for b in args.get("branches", ())]
        elif cls is MoE:
            args["expert"] = layer_from_dict(args.get("expert"))
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
    if not isinstance(d, dict):
        raise ValueError("input must be an object with a 'kind' field")
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
