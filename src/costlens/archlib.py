"""Canonical architecture builders.

These construct the model families whose indicator relationships the
toolkit is built to expose: patch-size sweeps of a vision transformer
(parameters up, FLOPs down), depth-shared stacks (parameters down, FLOPs
flat), expert-routed stacks (parameters up, FLOPs flat), and
encoder-decoder versus decoder-only language model arrangements
(parameters flat, FLOPs roughly halved).

Every builder output passes :func:`costlens.archspec.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import get_type_hints

from .archspec import (
    ArchSpec,
    Attention,
    ClassifierHead,
    FeedForward,
    Image,
    LayerNorm,
    LayerSpec,
    MoE,
    PatchEmbed,
    Repeat,
    TokenEmbedding,
    TokenSequence,
    _echo,
    check_fields,
    check_value,
    from_document,
)


@dataclass(frozen=True)
class VitConfig:
    """Vision-transformer shape. QKV width equals ``model_dim``."""

    patch: int
    depth: int
    model_dim: int
    num_heads: int
    ffn_dim: int
    image: tuple[int, int, int] = (224, 224, 3)
    classes: int = 1000

    def __post_init__(self):
        image = self.image
        if not (type(image) in (tuple, list) and len(image) == 3
                and all(type(v) is int and v >= 1 for v in image)):
            raise ValueError(f"image must be three integers >= 1, got {_echo(image)}")
        object.__setattr__(self, "image", tuple(image))
        check_fields(self)
        if self.model_dim % self.num_heads:
            raise ValueError("num_heads must divide model_dim")
        h, w, _c = self.image
        if h % self.patch or w % self.patch:
            raise ValueError(
                f"patch {self.patch} must divide image extents {h}x{w}"
            )


def _encoder_block(d: int, heads: int, ffn_dim: int, *,
                   causal: bool = False, cross: bool = False) -> tuple[LayerSpec, ...]:
    block: list[LayerSpec] = [LayerNorm(d), Attention(d, d, heads, is_causal=causal)]
    if cross:
        block += [LayerNorm(d), Attention(d, d, heads, cross_attention=True)]
    block += [LayerNorm(d), FeedForward(d, ffn_dim)]
    return tuple(block)


def _vision_spec(cfg: VitConfig, name: str, blocks: tuple[LayerSpec, ...],
                 metadata: dict[str, str]) -> ArchSpec:
    """The vision stack: patch embedding, ``blocks``, norm, classifier."""
    h, w, c = cfg.image
    return ArchSpec(
        name=name,
        input=Image(h, w, c),
        layers=(PatchEmbed(cfg.patch, c, cfg.model_dim), *blocks,
                LayerNorm(cfg.model_dim), ClassifierHead(cfg.model_dim, cfg.classes)),
        metadata=metadata,
    )


def build_vit(cfg: VitConfig) -> ArchSpec:
    """Patch embedding (CLS + learned positions), ``depth`` pre-norm
    encoder blocks, final norm, linear classifier over the CLS token."""
    check_value("cfg", cfg, VitConfig)
    return _vision_spec(
        cfg, f"vit_p{cfg.patch}_d{cfg.depth}_w{cfg.model_dim}",
        (Repeat(_encoder_block(cfg.model_dim, cfg.num_heads, cfg.ffn_dim),
                times=cfg.depth, share_params=False),),
        {"family": "vit", "patch": str(cfg.patch)},
    )


@dataclass(frozen=True, kw_only=True)
class UtConfig(VitConfig):  # depth is required but unused: the one block runs steps times
    steps: int


def build_universal_transformer(cfg: UtConfig) -> ArchSpec:
    """Same stack as :func:`build_vit` but one block reused ``steps``
    times with shared parameters: the parameter count of a depth-1 model
    with the compute of a depth-``steps`` model."""
    check_value("cfg", cfg, UtConfig)
    return _vision_spec(
        cfg, f"ut_p{cfg.patch}_k{cfg.steps}_w{cfg.model_dim}",
        (Repeat(_encoder_block(cfg.model_dim, cfg.num_heads, cfg.ffn_dim),
                times=cfg.steps, share_params=True),),
        {"family": "universal_transformer", "steps": str(cfg.steps)},
    )


@dataclass(frozen=True, kw_only=True)
class MoeConfig(VitConfig):
    num_experts: int
    experts_per_token: int
    moe_every: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.experts_per_token > self.num_experts:
            raise ValueError("experts_per_token must be <= num_experts")


def build_moe_transformer(cfg: MoeConfig) -> ArchSpec:
    """Vision transformer with every ``moe_every``-th feed-forward block
    replaced by a mixture of ``num_experts`` expert blocks of the same
    shape, ``experts_per_token`` of which run per token: block ``i``
    (from 1) is an expert block exactly when ``i % moe_every == 0``."""
    check_value("cfg", cfg, MoeConfig)
    block = _encoder_block(cfg.model_dim, cfg.num_heads, cfg.ffn_dim)
    moe_block = block[:-1] + (MoE(expert=block[-1], num_experts=cfg.num_experts,
                                  experts_per_token=cfg.experts_per_token,
                                  router_dim=cfg.model_dim),)
    every = cfg.moe_every
    periods, rest = divmod(cfg.depth, every)
    period = moe_block if every == 1 else (Repeat(block, times=every - 1), *moe_block)
    return _vision_spec(
        cfg, f"moe_p{cfg.patch}_d{cfg.depth}_e{cfg.num_experts}k{cfg.experts_per_token}",
        tuple(Repeat(body, times=n) for body, n in ((period, periods), (block, rest)) if n),
        {"family": "moe", "num_experts": str(cfg.num_experts),
         "experts_per_token": str(cfg.experts_per_token)},
    )


#: The language-model arrangements :class:`LmConfig` accepts.
ARRANGEMENTS = ("decoder_only", "encoder_decoder")


@dataclass(frozen=True)
class LmConfig:
    """Language-model shape for arrangement comparisons.

    ``layers_per_stack`` is L: an encoder-decoder gets L encoder plus L
    decoder layers, a decoder-only model gets 2L layers over the
    concatenated input+output stream. The encoder-decoder arrangement is
    modeled at equal input and output lengths (cross-attention key/value
    length equals the query length).
    """

    arrangement: str                  # one of ARRANGEMENTS
    layers_per_stack: int
    model_dim: int
    ffn_dim: int
    heads: int
    vocab: int
    input_len: int = 512
    output_len: int = 512

    def __post_init__(self):
        if self.arrangement not in ARRANGEMENTS:
            raise ValueError(
                f"arrangement must be {' or '.join(ARRANGEMENTS)}, "
                f"got {_echo(self.arrangement)}"
            )
        check_fields(self)
        if self.model_dim % self.heads:
            raise ValueError("heads must divide model_dim")
        if self.arrangement == "encoder_decoder" and self.input_len != self.output_len:
            raise ValueError(
                "encoder_decoder is modeled at equal input/output lengths"
            )


def build_lm(cfg: LmConfig) -> ArchSpec:
    """Decoder-only: one causal stack of 2L blocks over the full
    input+output length. Encoder-decoder: L encoder blocks then L decoder
    blocks (causal self-attention plus cross-attention) over the shared
    stream length, with one tied embedding/logit matrix."""
    check_value("cfg", cfg, LmConfig)
    d, L = cfg.model_dim, cfg.layers_per_stack

    def stack(times: int, **block) -> tuple[LayerSpec, ...]:
        return (Repeat(_encoder_block(d, cfg.heads, cfg.ffn_dim, **block),
                       times=times, share_params=False), LayerNorm(d))

    if cfg.arrangement == "decoder_only":
        name, length = f"lm_dec_{2 * L}x{d}", cfg.input_len + cfg.output_len
        stacks = stack(2 * L, causal=True)
    else:
        name, length = f"lm_encdec_{L}+{L}x{d}", cfg.input_len
        stacks = stack(L) + stack(L, causal=True, cross=True)
    return ArchSpec(
        name=name,
        input=TokenSequence(length, cfg.vocab),
        layers=(TokenEmbedding(cfg.vocab, d, tied_output=True), *stacks),
        metadata={"family": "lm", "arrangement": cfg.arrangement},
    )


def depth_width_pair(patch: int = 16, image: int = 224) -> tuple[ArchSpec, ArchSpec]:
    """A FLOP-matched deep-narrow / shallow-wide pair.

    The deep model stacks 48 thin blocks, the wide one 12 blocks at twice
    the width; the hidden dimension of the deep feed-forward is chosen so
    total FLOPs agree to within about one percent while the deep model
    dispatches four times as many sequential ops.
    """
    def geometry(kind: str, depth: int, width: int, heads: int, ffn_dim: int) -> ArchSpec:
        spec = build_vit(VitConfig(patch=patch, depth=depth, model_dim=width,
                                   num_heads=heads, ffn_dim=ffn_dim,
                                   image=(image, image, 3)))
        return replace(spec, name=f"{kind}_{depth}x{width}",
                       metadata={**spec.metadata, "geometry": kind})

    return geometry("deep", 48, 384, 6, 1440), geometry("wide", 12, 768, 12, 3072)


# ---------------------------------------------------------------------------
# Builder registry (spec files and the command line address builders by name)


#: Each builder family: the config dataclass whose fields are its
#: arguments, and the builder that takes one.
BUILDERS = {
    "vit": (VitConfig, build_vit),
    "universal_transformer": (UtConfig, build_universal_transformer),
    "moe": (MoeConfig, build_moe_transformer),
    "lm": (LmConfig, build_lm),
}

#: Keyword arguments each builder family accepts, with their annotated types.
BUILDER_ARGS = {family: get_type_hints(config) for family, (config, _) in BUILDERS.items()}


def build_from_reference(family: str, args: dict) -> ArchSpec:
    """Construct a spec from a builder name plus keyword arguments, as used
    by spec files and CLI flags. :func:`~costlens.archspec.from_document`
    reads the arguments as a document of the family's config."""
    if not isinstance(family, str) or family not in BUILDERS:
        raise ValueError(f"unknown builder family {_echo(family)} "
                         f"(known: {', '.join(sorted(BUILDERS))})")
    config, builder = BUILDERS[family]
    return builder(from_document(config, args,
                                 f"bad arguments for builder {_echo(family)}: "))
