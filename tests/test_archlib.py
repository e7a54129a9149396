import dataclasses
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from costlens import (
    ArchSpec,
    Attention,
    ClassifierHead,
    FeedForward,
    HardwareModel,
    Image,
    LayerNorm,
    LmConfig,
    MoE,
    MoeConfig,
    PatchEmbed,
    UtConfig,
    VitConfig,
    build_from_reference,
    build_lm,
    build_moe_transformer,
    build_universal_transformer,
    build_vit,
    compute_profile,
    count_flops,
    count_params,
    depth_width_pair,
    load_hardware,
    preset_names,
    read_spec_file,
    validate,
)
from costlens import archlib
from costlens.archlib import BUILDERS
from costlens.archspec import check_value, input_sequence_length, spec_from_dict, spec_to_dict
from costlens.trace import evaluate

from support import TABLE1, document_required_fields, vit_base


BASE = dict(patch=16, depth=12, model_dim=768, num_heads=12, ffn_dim=3072)


class TestVitBuilder:
    @pytest.mark.parametrize("patch", [8, 16, 32, 64])
    def test_outputs_validate(self, patch):
        image = TABLE1[patch][0]
        assert validate(vit_base(patch, image)).ok

    @pytest.mark.parametrize("patch", [8, 16, 32, 64])
    def test_reproduces_published_sweep(self, patch):
        image, million, gflops, _ = TABLE1[patch]
        spec = vit_base(patch, image)
        params = count_params(spec).total
        assert abs(params - million * 1e6) / (million * 1e6) < 0.005
        assert abs(count_flops(spec).gflops - gflops) / gflops < 0.03

    def test_sequence_length_patch32(self):
        assert input_sequence_length(vit_base(32, 224)) == 50

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            VitConfig(patch=16, depth=0, model_dim=768, num_heads=12, ffn_dim=3072)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError, match="divide"):
            VitConfig(patch=16, depth=1, model_dim=100, num_heads=7, ffn_dim=64)

    @pytest.mark.parametrize("image", ["abc", 5, [1, 2]])
    def test_image_of_the_wrong_shape_rejected(self, image):
        with pytest.raises(ValueError) as info:
            VitConfig(patch=16, depth=1, model_dim=64, num_heads=4, ffn_dim=64,
                      image=image)
        assert str(info.value) == f"image must be three integers >= 1, got {image!r}"

    def test_patch_must_divide_image(self):
        with pytest.raises(ValueError, match="divide"):
            VitConfig(patch=64, depth=1, model_dim=64, num_heads=4, ffn_dim=64,
                      image=(224, 224, 3))


class TestUniversalTransformer:
    def test_params_equal_depth_one(self):
        ut = build_universal_transformer(UtConfig(**BASE, steps=12))
        one = build_vit(VitConfig(**{**BASE, "depth": 1}))
        assert count_params(ut).total == count_params(one).total

    def test_flops_equal_full_depth(self):
        ut = build_universal_transformer(UtConfig(**BASE, steps=12))
        assert count_flops(ut) == count_flops(build_vit(VitConfig(**BASE)))

    def test_single_step_matches_vanilla_everywhere(self):
        from costlens import activation_size, inference_memory, memory_access_cost

        ut = build_universal_transformer(UtConfig(**{**BASE, "depth": 1}, steps=1))
        vanilla = build_vit(VitConfig(**{**BASE, "depth": 1}))
        assert count_params(ut).total == count_params(vanilla).total
        assert count_flops(ut).flops == count_flops(vanilla).flops
        assert activation_size(ut) == activation_size(vanilla)
        assert memory_access_cost(ut) == memory_access_cost(vanilla)
        assert (inference_memory(ut).peak_inference_bytes
                == inference_memory(vanilla).peak_inference_bytes)

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            build_universal_transformer(UtConfig(**BASE, steps=0))


class TestMoEBuilder:
    def test_output_validates(self):
        assert validate(build_moe_transformer(
            MoeConfig(**BASE, num_experts=8, experts_per_token=2))).ok

    def test_degenerate_single_expert_matches_vanilla_within_router(self):
        moe = build_moe_transformer(MoeConfig(**BASE, num_experts=1, experts_per_token=1))
        vanilla = build_vit(VitConfig(**BASE))
        router = 6 * 768 * 1  # 6 converted layers, one router row each
        assert count_params(moe).total - count_params(vanilla).total == router

    def test_moe_every_placement(self):
        spec = build_moe_transformer(MoeConfig(**{**BASE, "depth": 6}, num_experts=4,
                                               experts_per_token=1, moe_every=3))
        steps, _ = evaluate(spec)
        assert sum(s.count for s in steps if isinstance(s.layer, MoE)) == 2

    def test_k_bounded_by_e(self):
        with pytest.raises(ValueError):
            build_moe_transformer(MoeConfig(**BASE, num_experts=2,
                                            experts_per_token=3))

    def test_k_above_e_is_refused_by_the_config(self):
        """The rule is the config's, so a reference is refused while its
        arguments are read, with the same message."""
        args = {**BASE, "num_experts": 2, "experts_per_token": 3}
        for make in (lambda: MoeConfig(**args), lambda: build_from_reference("moe", args)):
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == "experts_per_token must be <= num_experts"


MOE_SMALL = dict(patch=8, model_dim=64, num_heads=4, ffn_dim=96, image=(32, 48, 3),
                 classes=10)


def listed_moe(depth: int, moe_every: int, num_experts: int = 4,
               experts_per_token: int = 2) -> ArchSpec:
    """The MoE vision transformer with every block written out, block ``i``
    (from 1) an expert block exactly when ``i % moe_every == 0``."""
    d, f = MOE_SMALL["model_dim"], MOE_SMALL["ffn_dim"]
    head = (LayerNorm(d), Attention(d, d, MOE_SMALL["num_heads"]), LayerNorm(d))
    block = head + (FeedForward(d, f),)
    moe_block = head + (MoE(FeedForward(d, f), num_experts, experts_per_token,
                            router_dim=d),)
    h, w, c = MOE_SMALL["image"]
    return ArchSpec(
        name="listed", input=Image(h, w, c),
        layers=(PatchEmbed(MOE_SMALL["patch"], c, d),
                *(layer for i in range(1, depth + 1)
                  for layer in (block if i % moe_every else moe_block)),
                LayerNorm(d), ClassifierHead(d, MOE_SMALL["classes"])))


def _profile_values(spec, batch, hardware):
    values = compute_profile(spec, batch, hardware).to_dict()
    del values["name"]
    return values


class TestMoEStackDifferential:
    """The built MoE stack costs what the listed stack costs, under every
    hardware the package ships and one that pads the 25-token stream."""

    HARDWARE = [None, *(load_hardware(name) for name in preset_names()),
                HardwareModel(1e12, 1e11, 1e-6, length_pad_multiple=8, name="pad8")]

    @pytest.mark.parametrize("depth, moe_every", [
        *itertools.product(range(1, 14), range(1, 6)), (12, 3), (48, 2)])
    def test_costs_equal_the_listed_stack(self, depth, moe_every):
        built = build_moe_transformer(MoeConfig(depth=depth, **MOE_SMALL, num_experts=4,
                                                experts_per_token=2, moe_every=moe_every))
        oracle = listed_moe(depth, moe_every)
        for hardware, batch in itertools.product(self.HARDWARE, (1, 8)):
            got = _profile_values(built, batch, hardware)
            want = _profile_values(oracle, batch, hardware)
            assert got.keys() == want.keys()
            for key, value in want.items():
                if isinstance(value, float):
                    assert math.isclose(got[key], value, rel_tol=1e-12), (key, hardware)
                else:
                    assert got[key] == value, (key, hardware)


def _nodes(document) -> int:
    if isinstance(document, dict):
        return 1 + sum(_nodes(v) for v in document.values())
    if isinstance(document, list):
        return sum(_nodes(v) for v in document)
    return 0


@pytest.mark.parametrize("moe_every", [1, 2, 4])
def test_moe_spec_size_does_not_grow_with_depth(moe_every):
    # 12 and 10**6 leave the same remainder for each moe_every here.
    def size(depth):
        spec = build_moe_transformer(MoeConfig(depth=depth, **MOE_SMALL, num_experts=4,
                                               experts_per_token=2, moe_every=moe_every))
        return _nodes(spec_to_dict(spec))

    assert size(10**6) == size(12)


class TestLmBuilder:
    CFG = dict(model_dim=512, ffn_dim=2048, heads=8, vocab=32000)

    def test_outputs_validate(self):
        for arrangement in ("decoder_only", "encoder_decoder"):
            cfg = LmConfig(arrangement=arrangement, layers_per_stack=2, **self.CFG)
            assert validate(build_lm(cfg)).ok

    def test_decoder_only_processes_full_length(self):
        cfg = LmConfig("decoder_only", 2, input_len=128, output_len=64, **self.CFG)
        assert build_lm(cfg).input.length == 192

    @pytest.mark.parametrize("L", [2, 6, 12])
    def test_param_ratio_band(self, L):
        ed = build_lm(LmConfig("encoder_decoder", L, **self.CFG))
        do = build_lm(LmConfig("decoder_only", L, **self.CFG))
        ratio = count_params(ed).total / count_params(do).total
        assert 0.9 <= ratio <= 1.15

    @pytest.mark.parametrize("L", [2, 6, 12])
    def test_flops_per_token_ratio_band(self, L):
        # equal generated-token counts, so the total-FLOPs ratio is the
        # per-token ratio
        ed = build_lm(LmConfig("encoder_decoder", L, **self.CFG))
        do = build_lm(LmConfig("decoder_only", L, **self.CFG))
        ratio = count_flops(ed).flops / count_flops(do).flops
        assert 0.45 <= ratio <= 0.6

    def test_layers_zero_rejected(self):
        with pytest.raises(ValueError):
            LmConfig("decoder_only", 0, **self.CFG)

    def test_encdec_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal input/output"):
            LmConfig("encoder_decoder", 2, input_len=128, output_len=64, **self.CFG)

    def test_unknown_arrangement(self):
        with pytest.raises(ValueError):
            LmConfig("prefix_lm", 2, **self.CFG)


class TestDepthWidthPair:
    def test_flop_matched(self):
        deep, wide = depth_width_pair()
        ratio = count_flops(deep).flops / count_flops(wide).flops
        assert abs(ratio - 1) < 0.01

    def test_deep_has_fewer_params(self):
        deep, wide = depth_width_pair()
        assert count_params(deep).total < count_params(wide).total


class TestBuilderRegistry:
    def test_vit_by_name(self):
        spec = build_from_reference("vit", dict(BASE))
        assert count_params(spec).total == count_params(vit_base(16, 224)).total

    def test_image_list_accepted(self):
        spec = build_from_reference("vit", {**BASE, "image": [224, 224, 3]})
        assert validate(spec).ok

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown builder family"):
            build_from_reference("resnet", {})

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="bad arguments"):
            build_from_reference("vit", {"patch": 16})

    @pytest.mark.parametrize("family", list(BUILDERS))
    def test_empty_reference_names_the_required_fields(self, family):
        """A reference is read as a document of the family's config, so an
        empty one names each field a document must carry, in declaration
        order."""
        config = BUILDERS[family][0]
        required = document_required_fields(config)
        missing = "; ".join(f"missing field {f.name!r}" for f in dataclasses.fields(config)
                            if f.name in required)
        with pytest.raises(ValueError) as exc:
            build_from_reference(family, {})
        assert str(exc.value) == f"bad arguments for builder {family!r}: {missing}"

    @pytest.mark.parametrize("family, extra, message", [
        ("universal_transformer", {"steps": 0}, "steps must be an integer >= 1, got 0"),
        ("moe", {"num_experts": 0, "experts_per_token": 1},
         "num_experts must be an integer >= 1, got 0"),
    ])
    def test_family_fields_are_ruled_with_the_config_fields(self, family, extra, message):
        """A family's own field is a config field, so the field rule refuses
        it before ``num_heads`` is found not to divide ``model_dim``."""
        with pytest.raises(ValueError) as exc:
            build_from_reference(family, {**BASE, "num_heads": 5, **extra})
        assert str(exc.value) == message

    @pytest.mark.parametrize("family, extra", [
        ("universal_transformer", {"steps": 3}),
        ("moe", {"num_experts": 4, "experts_per_token": 2}),
    ])
    def test_builder_checks_only_its_config(self, monkeypatch, family, extra):
        """The config rules every argument as it is read, so the builder
        checks nothing but that it was handed its config."""
        checked = []

        def spy(name, value, kind=int):
            checked.append(name)
            check_value(name, value, kind)

        monkeypatch.setattr(archlib, "check_value", spy)
        build_from_reference(family, {**BASE, **extra})
        assert checked == ["cfg"]


SMALL = dict(patch=8, depth=3, model_dim=64, num_heads=4, ffn_dim=96,
             image=(32, 48, 3), classes=10)
LM = dict(layers_per_stack=3, model_dim=64, ffn_dim=256, heads=4, vocab=1000,
          input_len=64, output_len=64)

#: One builder call per label; ``tests/golden/builder_specs.json`` holds
#: ``spec_to_dict`` of each output, and
#: ``PYTHONPATH=src python tests/test_archlib.py`` rewrites it.
BUILDER_CALLS = {
    "vit/small": lambda: build_vit(VitConfig(**SMALL)),
    "vit/base16": lambda: build_vit(VitConfig(**BASE)),
    "universal_transformer/small_k5": lambda: build_universal_transformer(
        UtConfig(**SMALL, steps=5)),
    "universal_transformer/base16_k12": lambda: build_universal_transformer(
        UtConfig(**BASE, steps=12)),
    "moe/small_every1": lambda: build_moe_transformer(
        MoeConfig(**SMALL, num_experts=4, experts_per_token=1, moe_every=1)),
    "moe/small_every2_default": lambda: build_moe_transformer(
        MoeConfig(**{**SMALL, "depth": 4}, num_experts=8, experts_per_token=2)),
    "moe/small_every2_depth5": lambda: build_moe_transformer(
        MoeConfig(**{**SMALL, "depth": 5}, num_experts=8, experts_per_token=2, moe_every=2)),
    "moe/small_every3_depth7": lambda: build_moe_transformer(
        MoeConfig(**{**SMALL, "depth": 7}, num_experts=3, experts_per_token=3, moe_every=3)),
    "moe/base16_every3": lambda: build_moe_transformer(
        MoeConfig(**BASE, num_experts=16, experts_per_token=2, moe_every=3)),
    "lm/decoder_only": lambda: build_lm(LmConfig("decoder_only", **LM)),
    "lm/encoder_decoder": lambda: build_lm(LmConfig("encoder_decoder", **LM)),
    "depth_width_pair/deep": lambda: depth_width_pair()[0],
    "depth_width_pair/wide": lambda: depth_width_pair()[1],
    "depth_width_pair/p32_i160_deep": lambda: depth_width_pair(32, 160)[0],
    "depth_width_pair/p32_i160_wide": lambda: depth_width_pair(32, 160)[1],
}

BUILDER_GOLDEN = Path(__file__).resolve().parent / "golden" / "builder_specs.json"


def _builder_documents() -> dict:
    # JSON round trip so tuples compare as the lists the golden holds.
    return json.loads(json.dumps(
        {label: spec_to_dict(call()) for label, call in BUILDER_CALLS.items()}))


class TestBuilderGolden:
    def test_specs_equal_golden(self):
        golden = json.loads(BUILDER_GOLDEN.read_text(encoding="utf-8"))
        assert golden.keys() == BUILDER_CALLS.keys()
        documents = _builder_documents()
        for label, call in BUILDER_CALLS.items():
            assert documents[label] == golden[label], label
            assert spec_from_dict(golden[label]) == call(), label


# The contract suite's profile: the same examples on every run, so Tier-1
# stays deterministic.
CONTRACT = settings(max_examples=150, derandomize=True, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

_small = st.integers(1, 6)


@st.composite
def valid_configs(draw):
    """(family, config) of a valid config of any family: the patch divides
    the image, the heads divide the width, K <= E, and an encoder-decoder
    reads and writes equal lengths."""
    family = draw(st.sampled_from(sorted(BUILDERS)))
    heads = draw(_small)
    width = heads * draw(_small)
    if family == "lm":
        arrangement = draw(st.sampled_from(archlib.ARRANGEMENTS))
        input_len = draw(st.integers(1, 64))
        output_len = input_len if arrangement == "encoder_decoder" else draw(st.integers(1, 64))
        return family, LmConfig(arrangement, draw(_small), width, draw(st.integers(1, 64)),
                                heads, draw(st.integers(1, 100)), input_len, output_len)
    patch = draw(_small)
    vit = dict(patch=patch, depth=draw(_small), model_dim=width, num_heads=heads,
               ffn_dim=draw(st.integers(1, 64)), classes=draw(st.integers(1, 20)),
               image=(patch * draw(_small), patch * draw(_small), draw(st.integers(1, 4))))
    if family == "universal_transformer":
        return family, UtConfig(**vit, steps=draw(st.integers(1, 12)))
    if family == "moe":
        experts = draw(_small)
        return family, MoeConfig(**vit, num_experts=experts,
                                 experts_per_token=draw(st.integers(1, experts)),
                                 moe_every=draw(st.integers(1, 4)))
    return family, VitConfig(**vit)


@pytest.fixture(scope="module")
def reference_file(tmp_path_factory):
    return tmp_path_factory.mktemp("builder") / "reference.json"


@CONTRACT
@given(valid_configs())
def test_every_builder_output_validates(reference_file, family_cfg):
    """``read_spec_file`` does not check a builder reference, because every
    builder output passes ``validate``; the file reads as the reference builds."""
    family, cfg = family_cfg
    spec = BUILDERS[family][1](cfg)
    assert validate(spec).ok
    args = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    reference_file.write_text(json.dumps({"schema_version": 1,
                                          "builder": {"family": family, **args}}))
    built = build_from_reference(family, args)
    assert built == spec
    assert read_spec_file(str(reference_file)) == (built, None, None)


if __name__ == "__main__":
    BUILDER_GOLDEN.write_text(
        json.dumps(_builder_documents(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
