import random

import pytest

from costlens import (
    ArchSpec,
    Attention,
    Dense,
    FeedForward,
    Image,
    LayerNorm,
    MoE,
    MoeConfig,
    OptimizerKind,
    Parallel,
    PatchEmbed,
    Repeat,
    TokenEmbedding,
    TokenSequence,
    UtConfig,
    activation_size,
    build_moe_transformer,
    build_universal_transformer,
    compute_profile,
    count_flops,
    count_params,
    inference_memory,
    memory_access_cost,
    training_memory,
)
from costlens.trace import evaluate

from support import TABLE1, layer_mac_bytes, random_repeat_pair, vit_base


def tokens(length=8, layers=()):
    return ArchSpec("t", TokenSequence(length, 100), tuple(layers))


# One spec per tree shape the steps fold over: plain and shared
# repeats, nested repeats, parallel branches, experts holding a shared
# repeat.
BREAKDOWN_SPECS = [
    vit_base(16, 224),
    build_universal_transformer(UtConfig(32, 6, 64, 4, 128, image=(64, 64, 3), steps=6)),
    build_moe_transformer(MoeConfig(32, 4, 64, 4, 128, image=(64, 64, 3), num_experts=8,
                                    experts_per_token=2)),
    tokens(8, [
        Repeat((Repeat((FeedForward(16, 32),), 3, share_params=True),
                Attention(16, 16, 2)), 4),
        Parallel(((Dense(16, 16),), (LayerNorm(16), Dense(16, 16, bias=False)))),
        MoE(Repeat((FeedForward(16, 64),), 2, share_params=True), 4, 2, 16),
    ]),
]


class TestParams:
    def test_patch_embed_full_count(self):
        # weight matrix + bias + CLS + positional table (10 tokens at 192)
        spec = ArchSpec("p", Image(192, 192, 3), (PatchEmbed(64, 3, 768),))
        expected = 9_437_184 + 768 + 768 + 10 * 768
        assert count_params(spec).total == expected

    @pytest.mark.parametrize("patch", [8, 16, 32, 64])
    def test_vit_base_sweep_params(self, patch):
        image, million, _, _ = TABLE1[patch]
        total = count_params(vit_base(patch, image)).total
        assert abs(total - million * 1e6) / (million * 1e6) < 0.005

    def test_vit_b16_exact(self):
        # pinned so accidental formula changes show up as an exact diff
        assert count_params(vit_base(16, 224)).total == 86_567_656

    def test_shared_repeat_counts_once(self):
        body = (LayerNorm(16), FeedForward(16, 64), Attention(16, 16, 2))
        shared = tokens(8, [Repeat(body, 5, share_params=True)])
        single = tokens(8, list(body))
        assert count_params(shared).total == count_params(single).total

    def test_shared_savings(self):
        body = (FeedForward(16, 64),)
        pc = count_params(tokens(8, [Repeat(body, 4, share_params=True)]))
        one = count_params(tokens(8, list(body))).total
        assert pc.total == one
        assert pc.shared_savings == 3 * one

    def test_breakdown_sums_to_total(self):
        for spec in BREAKDOWN_SPECS:
            steps = evaluate(spec)[0]
            eb = spec.element_bytes
            assert sum(s.unique_params * s.copies for s in steps) == count_params(spec).total
            assert sum(s.flops * s.count * 8 for s in steps) == count_flops(spec, 8).flops
            assert sum(layer_mac_bytes(s, eb, 8) * s.count
                       for s in steps) == memory_access_cost(spec, 8)

    def test_untied_embedding_adds_output_matrix(self):
        tied = tokens(8, [TokenEmbedding(100, 16, tied_output=True)])
        untied = tokens(8, [TokenEmbedding(100, 16, tied_output=False)])
        assert count_params(untied).total - count_params(tied).total == 100 * 16

    def test_overflow_raises(self):
        spec = tokens(2, [Dense(2**33, 2**32, bias=False)])
        with pytest.raises(OverflowError):
            count_params(spec)


class TestFlops:
    @pytest.mark.parametrize("patch", [8, 16, 32, 64])
    def test_vit_base_sweep_gflops(self, patch):
        image, _, gflops, _ = TABLE1[patch]
        fc = count_flops(vit_base(patch, image))
        assert abs(fc.gflops - gflops) / gflops < 0.03

    def test_fma_convention(self):
        # one Dense matmul: L*a*b MACs, 2 FLOPs each, plus L*b bias adds
        fc = count_flops(tokens(4, [Dense(8, 16)]))
        assert fc.macs == 4 * 8 * 16
        assert fc.flops == 2 * fc.macs + 4 * 16

    def test_flops_at_least_twice_macs(self):
        fc = count_flops(vit_base(16, 224))
        assert fc.flops >= 2 * fc.macs

    def test_sharing_does_not_change_flops(self):
        body = (LayerNorm(16), FeedForward(16, 32))
        shared = tokens(8, [Repeat(body, 4, share_params=True)])
        unshared = tokens(8, [Repeat(body, 4, share_params=False)])
        assert count_flops(shared) == count_flops(unshared)

    def test_repeat_multiplies(self):
        body = (FeedForward(16, 32),)
        once = count_flops(tokens(8, list(body))).flops
        assert count_flops(tokens(8, [Repeat(body, 7)])).flops == 7 * once

    def test_batch_linearity_exact(self):
        spec = vit_base(32, 224)
        base = count_flops(spec, 1)
        for k in (2, 3, 16):
            fc = count_flops(spec, k)
            assert fc.flops == k * base.flops
            assert fc.macs == k * base.macs

    def test_monotone_under_adding_layers(self):
        small = tokens(8, [FeedForward(16, 32)])
        bigger = tokens(8, [FeedForward(16, 32), Attention(16, 16, 2)])
        assert count_flops(bigger).flops > count_flops(small).flops

    def test_no_indicator_decreases_when_a_layer_is_added(self):
        small = tokens(8, [FeedForward(16, 32), LayerNorm(16)])
        bigger = tokens(8, list(small.layers) + [Attention(16, 16, 2)])
        assert count_params(bigger).total >= count_params(small).total
        assert count_flops(bigger).flops >= count_flops(small).flops
        assert activation_size(bigger) >= activation_size(small)
        assert memory_access_cost(bigger) >= memory_access_cost(small)
        assert (training_memory(bigger, 2).peak_training_bytes
                >= training_memory(small, 2).peak_training_bytes)
        assert (inference_memory(bigger, 2).peak_inference_bytes
                >= inference_memory(small, 2).peak_inference_bytes)

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            count_flops(vit_base(32, 224), 0)


class TestMoE:
    def cfg(self):
        return dict(patch=32, depth=4, model_dim=64, num_heads=4, ffn_dim=128,
                    image=(64, 64, 3), classes=10)

    def build(self, num_experts, k=1, every=2):
        return build_moe_transformer(MoeConfig(**self.cfg(), num_experts=num_experts,
                                               experts_per_token=k, moe_every=every))

    def test_flops_nearly_constant_in_experts(self):
        f1 = count_flops(self.build(8)).flops
        f2 = count_flops(self.build(16)).flops
        assert abs(f2 - f1) / f1 < 0.01

    def test_params_affine_in_experts(self):
        p8 = count_params(self.build(8)).total
        p16 = count_params(self.build(16)).total
        p24 = count_params(self.build(24)).total
        assert p16 - p8 == p24 - p16

    def test_param_growth_formula(self):
        d, dff = 64, 128
        expert = d * dff + dff + dff * d + d
        p8 = count_params(self.build(8)).total
        p16 = count_params(self.build(16)).total
        moe_layers = 2  # depth 4, every 2nd FFN converted
        assert p16 - p8 == moe_layers * 8 * (expert + d)

    def test_experts_per_token_scales_expert_flops(self):
        f1 = count_flops(self.build(8, k=1)).flops
        f2 = count_flops(self.build(8, k=2)).flops
        spec = self.build(8, k=1)
        # the doubled part is exactly the expert applications
        moe_steps = [s for s in evaluate(spec)[0] if isinstance(s.layer, MoE)]
        expert_flops = count_flops(
            tokens(5, [moe_steps[0].layer.expert])  # 5 tokens: 4 patches + CLS
        ).flops
        assert f2 - f1 == sum(s.count for s in moe_steps) * expert_flops


class TestActivation:
    def test_single_dense_output(self):
        assert activation_size(tokens(1, [Dense(10, 768)])) == 768

    def test_vit_b16_closed_form(self):
        # independent oracle: patch embed + 12 blocks of 4 outputs + final
        # norm, all L*d, plus the 1000-way head
        expected = (1 + 12 * 4 + 1) * 197 * 768 + 1000
        assert activation_size(vit_base(16, 224)) == expected

    def test_batch_doubling(self):
        spec = vit_base(32, 224)
        assert activation_size(spec, 2) == 2 * activation_size(spec, 1)

    def test_sharing_does_not_shrink_activations(self):
        shared, unshared = random_repeat_pair(random.Random(7))
        assert activation_size(shared) == activation_size(unshared)


class TestMemoryAccess:
    def test_dense_direct_count(self):
        # 20 params + 4 in + 4 out, 4-byte elements
        assert memory_access_cost(tokens(1, [Dense(4, 4)])) == 112

    def test_sharing_does_not_reduce_traffic(self):
        body = (FeedForward(16, 32),)
        shared = tokens(8, [Repeat(body, 4, share_params=True)])
        unshared = tokens(8, [Repeat(body, 4, share_params=False)])
        assert memory_access_cost(shared) == memory_access_cost(unshared)

    def test_vit_b16_closed_form(self):
        # params + all inputs + all outputs, 4 bytes each; inputs are the
        # image for the patch embed, L*d for the 49 stream layers, d for
        # the head
        params = 86_567_656
        ld = 197 * 768
        inputs = 224 * 224 * 3 + 49 * ld + 768
        outputs = 50 * ld + 1000
        assert memory_access_cost(vit_base(16, 224)) == (params + inputs + outputs) * 4

    def test_batch_linearity_exact(self):
        spec = vit_base(32, 224)
        assert memory_access_cost(spec, 3) == 3 * memory_access_cost(spec, 1)


class TestTrainingMemory:
    def test_sgd_has_no_state(self):
        m = training_memory(vit_base(32, 224), 1, OptimizerKind.SGD)
        assert m.optimizer_state_bytes == 0

    def test_adam_state_on_million_params(self):
        spec = tokens(1, [Dense(999, 1000)])  # exactly 1e6 parameters
        assert count_params(spec).total == 1_000_000
        m = training_memory(spec, 1, OptimizerKind.ADAM)
        assert m.optimizer_state_bytes == 8_000_000

    def test_sam_keeps_state_plus_extra_gradient(self):
        spec = tokens(1, [Dense(999, 1000)])
        m = training_memory(spec, 1, OptimizerKind.SAM)
        assert m.optimizer_state_bytes == 8_000_000

    def test_optimizer_must_be_an_optimizer_kind(self):
        spec = vit_base(16, 224)
        for call in (lambda: training_memory(spec, 1, "adam"),
                     lambda: compute_profile(spec, 1, None, "adam")):
            with pytest.raises(ValueError,
                               match="^optimizer must be an OptimizerKind, got 'adam'$"):
                call()

    def test_peak_is_sum_of_components(self):
        m = training_memory(vit_base(32, 224), 4)
        assert m.peak_training_bytes == (m.parameter_bytes + m.gradient_bytes
                                         + m.optimizer_state_bytes
                                         + m.activation_bytes)

    def test_sharing_shrinks_params_not_activations(self):
        body = (FeedForward(32, 64), Attention(32, 32, 2))
        shared = tokens(8, [Repeat(body, 6, share_params=True)])
        unshared = tokens(8, [Repeat(body, 6, share_params=False)])
        ms = training_memory(shared, 2)
        mu = training_memory(unshared, 2)
        assert ms.parameter_bytes * 6 == mu.parameter_bytes
        assert ms.activation_bytes == mu.activation_bytes


class TestInferenceMemory:
    def test_gradient_and_state_zero(self):
        m = inference_memory(vit_base(32, 224), 2)
        assert m.gradient_bytes == 0
        assert m.optimizer_state_bytes == 0

    def test_layernorm_example(self):
        m = inference_memory(tokens(1, [LayerNorm(8)]), 2)
        assert m.parameter_bytes == 64
        assert m.activation_bytes == 64
        assert m.peak_inference_bytes == 128

    def test_sharing_strictly_smaller_peak(self):
        body = (FeedForward(32, 64),)
        shared = tokens(8, [Repeat(body, 6, share_params=True)])
        unshared = tokens(8, [Repeat(body, 6, share_params=False)])
        assert (inference_memory(shared).peak_inference_bytes
                < inference_memory(unshared).peak_inference_bytes)


class TestTablewideRelations:
    def test_params_up_flops_down_with_patch(self):
        """Across the patch sweep, parameters rise while FLOPs collapse.

        The 8->16 step is a near-tie on parameters (the larger positional
        table of patch 8 almost exactly offsets its smaller projection
        matrix: +9216 of 86.6M), so the strict-parameter-increase check
        starts at patch 16; FLOPs decrease strictly across all four.
        """
        params = {}
        flops = {}
        for patch, (image, _, _, _) in TABLE1.items():
            spec = vit_base(patch, image)
            params[patch] = count_params(spec).total
            flops[patch] = count_flops(spec).flops
        assert params[16] < params[32] < params[64]
        assert abs(params[8] - params[16]) / params[16] < 0.0005
        assert flops[8] > flops[16] > flops[32] > flops[64]

    def test_elementwise_convention_documented_in_totals(self):
        # layernorm: 5 flops per element, no MACs
        fc = count_flops(tokens(3, [LayerNorm(7)]))
        assert fc.flops == 5 * 3 * 7
        assert fc.macs == 0
