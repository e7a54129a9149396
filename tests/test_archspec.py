import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from costlens import (
    ArchSpec,
    Attention,
    ClassifierHead,
    Dense,
    FeedForward,
    Image,
    LayerNorm,
    MoE,
    Parallel,
    PatchEmbed,
    Repeat,
    TokenEmbedding,
    TokenSequence,
    derive_sequence_length,
    from_json,
    to_json,
    validate,
)
from costlens.archspec import (
    MAX_NESTING,
    InvalidSpecError,
    LayerSpec,
    Violation,
    from_document,
    input_sequence_length,
    spec_from_dict,
)

from support import oracle_validate, vit_base


class TestSequenceLength:
    @pytest.mark.parametrize("patch,expected", [(8, 785), (16, 197), (224, 2)])
    def test_published_lengths(self, patch, expected):
        assert derive_sequence_length(Image(224, 224, 3), patch, True) == expected

    def test_no_cls(self):
        assert derive_sequence_length(Image(224, 224, 3), 16, False) == 196

    def test_non_divisible_patch(self):
        with pytest.raises(ValueError, match="does not divide"):
            derive_sequence_length(Image(224, 224, 3), 60, True)

    def test_strictly_decreasing_in_patch(self):
        lengths = [derive_sequence_length(Image(224, 224, 3), p, True)
                   for p in (8, 16, 32, 56, 112, 224)]
        assert lengths == [785, 197, 50, 17, 5, 2]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))


class TestValidate:
    def test_vit_ok(self):
        assert validate(vit_base(16, 224)).ok

    def test_patch_not_dividing(self):
        spec = ArchSpec("x", Image(224, 224, 3), (PatchEmbed(60, 3, 128),))
        result = validate(spec)
        assert not result.ok
        assert any("does not divide" in v.message for v in result.violations)

    @pytest.mark.parametrize("layers", [(), (LayerNorm(128),)])
    def test_image_without_leading_patch_embed(self, layers):
        """validate and the sequence length refuse it with one violation."""
        spec = ArchSpec("x", Image(224, 224, 3), layers)
        expected = Violation("layers[0]", "image input requires a leading PatchEmbed")
        assert validate(spec).violations[0] == expected
        with pytest.raises(InvalidSpecError) as err:
            input_sequence_length(spec)
        assert err.value.violations == (expected,)

    def test_moe_k_exceeds_e(self):
        spec = ArchSpec("x", TokenSequence(4, 10), (
            MoE(FeedForward(8, 16), num_experts=2, experts_per_token=3, router_dim=8),
        ))
        result = validate(spec)
        assert any("experts_per_token" in v.message for v in result.violations)

    def test_violation_paths_point_into_spec(self):
        spec = ArchSpec("x", TokenSequence(4, 10), (
            LayerNorm(8),
            Repeat((Dense(0, 4),), times=2),
        ))
        result = validate(spec)
        assert any(v.path == "layers[1].body[0]" for v in result.violations)

    def test_repeat_times_zero(self):
        spec = ArchSpec("x", TokenSequence(4, 10), (Repeat((LayerNorm(8),), times=0),))
        assert any("times" in v.message for v in validate(spec).violations)

    def test_heads_must_divide_qkv(self):
        spec = ArchSpec("x", TokenSequence(4, 10), (Attention(8, 9, 2),))
        assert any("divide" in v.message for v in validate(spec).violations)

    def test_image_requires_leading_patch_embed(self):
        spec = ArchSpec("x", Image(32, 32, 3), (LayerNorm(8),))
        assert any("PatchEmbed" in v.message for v in validate(spec).violations)

    def test_patch_embed_only_first(self):
        spec = ArchSpec("x", TokenSequence(4, 10), (LayerNorm(8), PatchEmbed(4, 3, 8)))
        assert any("first layer" in v.message for v in validate(spec).violations)

    def test_channel_mismatch(self):
        spec = ArchSpec("x", Image(32, 32, 1), (PatchEmbed(4, 3, 8),))
        assert any("channels" in v.message for v in validate(spec).violations)

    def test_nesting_depth_bounded(self):
        layer = LayerNorm(4)
        for _ in range(40):
            layer = Repeat((layer,), times=1)
        result = validate(ArchSpec("deep", TokenSequence(2, 4), (layer,)))
        assert any("nesting depth" in v.message for v in result.violations)

    def test_total_on_garbage_values(self):
        # validate reports, never raises, whatever the field values are
        spec = ArchSpec("x", TokenSequence(4, 10), (
            Dense("a", 4),           # type: ignore[arg-type]
            Attention(-1, 0, 0),
            Repeat((), times=-3),
            Parallel(()),
        ))
        result = validate(spec)
        assert not result.ok
        assert len(result.violations) >= 4

    def test_empty_layer_list_token_input_ok(self):
        assert validate(ArchSpec("x", TokenSequence(4, 10), ())).ok


# Fixed profile: the same examples on every run, so Tier-1 stays
# deterministic.
DIFFERENTIAL = settings(max_examples=300, derandomize=True, deadline=None,
                        database=None,
                        suppress_health_check=[HealthCheck.too_slow])

#: Mostly valid counts, sometimes a value the field rule refuses.
COUNTS = st.one_of(st.integers(1, 8), st.sampled_from([0, -2, True, None, 2.0, "4"]))
FLAGS = st.one_of(st.booleans(), st.sampled_from([0, None]))


class NotALayer:
    pass


class SubNorm(LayerNorm):
    pass


def broken_trees():
    """Layer trees mixing every kind of violation ``validate`` reports."""
    leaf = st.one_of(
        st.builds(LayerNorm, COUNTS),
        st.builds(Attention, COUNTS, st.sampled_from([4, 6, 8]), COUNTS,
                  is_causal=FLAGS),
        st.builds(FeedForward, COUNTS, COUNTS),
        st.builds(Dense, COUNTS, COUNTS, bias=FLAGS),
        st.builds(PatchEmbed, st.sampled_from([2, 3, 4]), st.sampled_from([1, 3]), COUNTS),
        st.sampled_from([NotALayer(), SubNorm(4), Image(4, 4, 3), "dense"]),
    )

    def containers(children):
        body = st.lists(children, max_size=3)
        return st.one_of(
            st.builds(Repeat, body, COUNTS, FLAGS),
            st.builds(Parallel, st.lists(body, max_size=4)),
            st.builds(MoE, children, COUNTS, COUNTS, COUNTS),
        )

    return st.recursive(leaf, containers, max_leaves=12)


@st.composite
def broken_specs(draw):
    tree = broken_trees()
    layers = draw(st.lists(tree, max_size=4))
    if draw(st.booleans()):
        inp = Image(draw(st.sampled_from([8, 12, 0])), 8, draw(st.sampled_from([1, 3])))
        if draw(st.booleans()):
            layers = [PatchEmbed(draw(st.sampled_from([2, 3, 4])), draw(st.sampled_from([1, 3])),
                                 draw(COUNTS))] + layers
    else:
        inp = draw(st.sampled_from([TokenSequence(4, 10), TokenSequence(0, 10), "tokens"]))
    return ArchSpec(draw(st.sampled_from(["x", 5])), inp, tuple(layers),
                    element_bytes=draw(st.sampled_from([4, 0])))


class TestValidateAgainstIterativeWalk:
    """The recursive walk reports exactly what the frozen iterative one did,
    in the same order."""

    @DIFFERENTIAL
    @given(spec=broken_specs())
    def test_random_broken_trees(self, spec):
        assert validate(spec).violations == oracle_validate(spec)

    def test_empty_parallel_branches_in_reverse_before_children(self):
        spec = ArchSpec("x", TokenSequence(4, 10), (
            Parallel(((), (Dense(0, 4),), (), (LayerNorm(-1),), ())),))
        violations = validate(spec).violations
        assert violations == oracle_validate(spec)
        assert [v.path for v in violations] == [
            "layers[0].branches[4]", "layers[0].branches[2]", "layers[0].branches[0]",
            "layers[0].branches[1][0]", "layers[0].branches[3][0]"]

    @pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1, 100_000])
    @pytest.mark.parametrize("wrap", [
        lambda child: Repeat((child, Dense(0, 4)), 2),
        lambda child: Parallel(((child,), (), (LayerNorm(4),))),
        lambda child: MoE(child, 2, 3, 4),
    ], ids=["repeat", "parallel", "moe"])
    def test_nesting_at_and_past_the_bound(self, levels, wrap):
        layer = Dense(4, 0)
        for _ in range(levels):
            layer = wrap(layer)
        spec = ArchSpec("deep", TokenSequence(2, 4), (layer, LayerNorm(0)))
        violations = validate(spec).violations
        assert violations == oracle_validate(spec)
        # The innermost Dense(4, 0) is inspected only within the bound.
        assert any("out_dim" in v.message for v in violations) == (levels <= MAX_NESTING)
        assert any("nesting depth" in v.message for v in violations) == (levels > MAX_NESTING)


class TestSerialization:
    def everything_spec(self):
        return ArchSpec(
            name="kitchen_sink",
            input=TokenSequence(16, 1000),
            layers=(
                TokenEmbedding(1000, 32, tied_output=False),
                Repeat((LayerNorm(32), Attention(32, 32, 4, is_causal=True)),
                       times=3, share_params=True),
                Parallel(((FeedForward(32, 64),), (Dense(32, 32, bias=False),))),
                MoE(FeedForward(32, 64), num_experts=4, experts_per_token=2,
                    router_dim=32),
                LayerNorm(32),
                ClassifierHead(32, 10),
            ),
            metadata={"note": "every layer kind"},
            element_bytes=2,
        )

    def test_round_trip_is_identity(self):
        text = to_json(self.everything_spec())
        assert to_json(from_json(text)) == text

    def test_round_trip_preserves_equality(self):
        spec = self.everything_spec()
        assert from_json(to_json(spec)) == spec

    def test_vit_round_trip(self):
        text = to_json(vit_base(16, 224))
        assert to_json(from_json(text)) == text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown layer kind"):
            from_document(LayerSpec, {"kind": "conv3x3"})

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError, match="bad fields"):
            from_document(LayerSpec, {"kind": "dense", "in_dim": 4})

    def test_unsupported_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            spec_from_dict({"schema_version": 99, "input": {}, "layers": []})


class TestImmutability:
    def test_frozen_layers(self):
        layer = Dense(4, 4)
        with pytest.raises(AttributeError):
            layer.in_dim = 8  # type: ignore[misc]

    def test_frozen_spec(self):
        spec = ArchSpec("x", TokenSequence(4, 10), (LayerNorm(8),))
        with pytest.raises(AttributeError):
            spec.name = "y"  # type: ignore[misc]
