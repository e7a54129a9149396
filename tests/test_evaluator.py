"""The one-pass evaluator against the frozen unrolled walkers.

Random valid specs (image and token inputs, nested shared and unshared
repeats, parallel blocks, experts that are leaves, repeats or parallel
blocks) are costed both ways. Integer totals and per-node steps must
be equal; times may differ only by float rounding, because a repeat's time
is ``times`` x its body instead of a running sum.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import costlens.archspec
import costlens.cli
import costlens.indicators
import costlens.latency
import costlens.profiles
import costlens.trace
from costlens import (
    ArchSpec,
    Attention,
    ClassifierHead,
    CostProfile,
    Dense,
    FeedForward,
    HardwareModel,
    Image,
    InvalidSpecError,
    LayerNorm,
    MoE,
    OptimizerKind,
    Parallel,
    PatchEmbed,
    Repeat,
    TokenEmbedding,
    TokenSequence,
    activation_size,
    compute_profile,
    count_flops,
    count_params,
    estimate_latency,
    inference_memory,
    load_hardware,
    memory_access_cost,
    preset_names,
    to_json,
    training_memory,
)
from costlens.indicators import OPTIMIZER_STATE_COPIES

from support import (
    data_file,
    group_by_node,
    layer_mac_bytes,
    oracle_latency,
    oracle_params,
    oracle_steps,
    vit_base,
)

HARDWARE = [load_hardware(name) for name in preset_names()] + [
    HardwareModel(1e12, 1e11, 1e-6, length_pad_multiple=8, name="pad8"),
]

# Fixed profile: the same examples on every run, so Tier-1 stays
# deterministic.
DIFFERENTIAL = settings(max_examples=150, derandomize=True, deadline=None,
                        database=None,
                        suppress_health_check=[HealthCheck.too_slow])


def layer_trees(d, heads):
    leaf = st.one_of(
        st.just(LayerNorm(d)),
        st.builds(FeedForward, st.just(d), st.sampled_from([d, 4 * d])),
        st.builds(Attention, st.just(d), st.just(d), st.just(heads),
                  is_causal=st.booleans()),
        st.builds(Dense, st.just(d), st.sampled_from([d, 3 * d]),
                  bias=st.booleans()),
        st.builds(TokenEmbedding, st.sampled_from([50, 100]), st.just(d),
                  tied_output=st.booleans()),
        st.builds(ClassifierHead, st.just(d), st.sampled_from([10, 1000])),
    )

    def containers(children):
        body = st.lists(children, min_size=1, max_size=3).map(tuple)
        moe = st.integers(1, 4).flatmap(lambda e: st.builds(
            MoE, children, st.just(e), st.integers(1, e),
            st.sampled_from([d, 2 * d])))
        return st.one_of(
            st.builds(Repeat, body, st.integers(1, 4), st.booleans()),
            st.builds(Parallel, st.lists(body, min_size=1, max_size=3)),
            moe,
        )

    return st.recursive(leaf, containers, max_leaves=10)


# Built once: a strategy validates itself on first use.
TREES = {(d, heads): layer_trees(d, heads) for d in (8, 16, 32) for heads in (1, 2, 4)}


@st.composite
def specs(draw):
    d = draw(st.sampled_from([8, 16, 32]))
    node = TREES[d, draw(st.sampled_from([1, 2, 4]))]
    layers = draw(st.lists(node, min_size=1, max_size=4))
    if draw(st.booleans()):
        patch = draw(st.sampled_from([2, 4, 8]))
        channels = draw(st.sampled_from([1, 3]))
        inp = Image(patch * draw(st.integers(1, 4)),
                    patch * draw(st.integers(1, 4)), channels)
        layers = [PatchEmbed(patch, channels, d,
                             add_cls_token=draw(st.booleans()),
                             positional=draw(st.booleans()))] + layers
    else:
        inp = TokenSequence(draw(st.integers(1, 40)), 100)
    return ArchSpec("random", inp, tuple(layers),
                    element_bytes=draw(st.sampled_from([1, 2, 4])))


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=0)


@DIFFERENTIAL
@given(spec=specs(), hw=st.sampled_from(HARDWARE),
       batch=st.sampled_from([1, 8, 64]),
       optimizer=st.sampled_from(list(OptimizerKind)))
def test_matches_unrolled_walkers(spec, hw, batch, optimizer):
    eb = spec.element_bytes
    steps = oracle_steps(spec)

    unique, unrolled, param_rows = oracle_params(spec)
    pc = count_params(spec)
    assert (pc.total, pc.shared_savings) == (unique, unrolled - unique)
    nodes = costlens.trace.evaluate(spec)[0]
    assert [(s.path, s.unique_params * s.copies) for s in nodes] == param_rows

    fc = count_flops(spec, batch)
    assert fc.macs == sum(s.matmul_macs for s in steps) * batch
    assert fc.flops == sum(s.flops for s in steps) * batch
    assert [(s.path, s.flops * s.count * batch) for s in nodes] == group_by_node(
        (s.path, s.flops * batch) for s in steps)

    activation = sum(s.out_elements for s in steps) * batch
    traffic = sum(s.params + s.in_elements + s.out_elements for s in steps) * eb * batch
    param_bytes = unique * eb
    peak_inference = param_bytes + max(s.out_elements for s in steps) * eb * batch
    assert activation_size(spec, batch) == activation
    assert memory_access_cost(spec, batch) == traffic
    train = training_memory(spec, batch, optimizer)
    opt_bytes = OPTIMIZER_STATE_COPIES[optimizer] * param_bytes
    assert (train.parameter_bytes, train.gradient_bytes,
            train.optimizer_state_bytes, train.activation_bytes,
            train.peak_training_bytes, train.peak_inference_bytes) == (
        param_bytes, param_bytes, opt_bytes, activation * eb,
        2 * param_bytes + opt_bytes + activation * eb, peak_inference)
    assert inference_memory(spec, batch).peak_inference_bytes == peak_inference

    latency, timings = oracle_latency(spec, hw, batch)
    est = estimate_latency(spec, hw, batch)
    assert close(est.latency_sec, latency)
    assert close(est.throughput_examples_per_sec, batch / latency)
    padded = []  # each node's step as the roofline times it, at the padded length
    costlens.trace.evaluate(spec, hw.length_pad_multiple,
                            seconds=lambda step: padded.append(step) or 0.0)
    assert [(s.path, s.flops * s.count * batch,
             layer_mac_bytes(s, eb, batch) * s.count) for s in padded] == group_by_node(
        (path, flops, mac_bytes) for path, _, _, flops, mac_bytes in timings)

    profile = compute_profile(spec, batch, hw, optimizer)
    assert (profile.params, profile.flops, profile.macs,
            profile.activation_elements, profile.mac_bytes,
            profile.parameter_bytes, profile.activation_bytes,
            profile.peak_training_bytes, profile.peak_inference_bytes) == (
        unique, sum(s.flops for s in steps), sum(s.matmul_macs for s in steps),
        activation // batch, traffic // batch, param_bytes, activation * eb,
        train.peak_training_bytes, peak_inference)
    assert close(profile.latency_sec, latency)
    assert close(profile.throughput_examples_per_sec, batch / latency)


@DIFFERENTIAL
@given(spec=specs(), hw=st.sampled_from(HARDWARE))
def test_a_fold_without_paths_gives_the_same_steps_and_time(spec, hw):
    """The indicators' fold, which builds no path, equals ``evaluate`` in
    every other field of every step, and in the time to the bit."""
    def seconds(step):
        return step.flops * 1e-9 + step.seq_len * 1e-6

    stepped, time = costlens.trace.evaluate(spec, hw.length_pad_multiple, seconds)
    summed, bare = costlens.trace._evaluate(spec, hw.length_pad_multiple, seconds, None)
    assert bare == time
    assert [s.path for s in summed] == [None] * len(stepped)
    assert [s[1:] for s in summed] == [s[1:] for s in stepped]


@pytest.fixture()
def fold_calls(monkeypatch):
    """Positional pad multiple, if any, of each evaluation, whichever
    module's binding calls the evaluator, public or private entry."""
    calls = []
    for name in ("evaluate", "_evaluate"):
        real = getattr(costlens.trace, name)

        def spy(*args, real=real, **kwargs):
            calls.append(args[1:2])
            return real(*args, **kwargs)

        for module in (costlens.indicators, costlens.latency, costlens.profiles):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    return calls


@pytest.fixture()
def validate_calls(monkeypatch):
    """One entry per ``validate`` call, through any module's binding."""
    calls = []
    real = costlens.archspec.validate

    def spy(spec):
        calls.append(spec)
        return real(spec)

    for module in (costlens.archspec, costlens.cli):
        monkeypatch.setattr(module, "validate", spy)
    return calls


def test_one_evaluation_per_indicator_call(fold_calls):
    spec = vit_base(16, 224)
    hw = load_hardware("tpu_like")
    for call in (count_params, count_flops, activation_size,
                 memory_access_cost, training_memory, inference_memory,
                 lambda s: estimate_latency(s, hw, 8)):
        fold_calls.clear()
        call(spec)
        assert len(fold_calls) == 1
    fold_calls.clear()
    compute_profile(spec, 8, hw)
    assert fold_calls == [(128,)]  # counts and padded latency in one fold


def test_one_evaluation_per_profile_without_padding(fold_calls):
    spec = vit_base(16, 224)  # 197 tokens
    meets = HardwareModel(1e12, 1e11, 1e-6, length_pad_multiple=197, name="meets")
    for hw in (load_hardware("default"), meets):
        fold_calls.clear()
        compute_profile(spec, 8, hw)
        assert len(fold_calls) == 1


def test_padded_moe_is_timed_padded_and_counted_true():
    """An ``MoE`` whose expert holds a shared repeat, on a pad that
    lengthens 10 tokens to 16: the one fold counts at the true length and
    times the node, expert sub-fold included, at the padded length."""
    expert = Repeat((Attention(16, 16, 2), FeedForward(16, 64)), 3, share_params=True)
    spec = ArchSpec("moe", TokenSequence(10, 100),
                    (LayerNorm(16), MoE(expert, 4, 2, 16), Dense(16, 8)))
    hw = HardwareModel(1e12, 1e11, 1e-6, length_pad_multiple=8, name="pad8")
    profile = compute_profile(spec, 8, hw)
    assert dataclasses.replace(profile, latency_sec=None, hardware=None,
                               throughput_examples_per_sec=None) == compute_profile(spec, 8)
    assert close(profile.latency_sec, oracle_latency(spec, hw, 8)[0])
    assert profile.latency_sec > estimate_latency(
        spec, dataclasses.replace(hw, length_pad_multiple=None), 8).latency_sec


@pytest.fixture()
def breakdowns(monkeypatch):
    """The class name of each ``ParamCount``, ``FlopCount``, ``MemoryEstimate``
    and ``SpeedEstimate`` built, through any module's binding, and of each
    call of ``CostProfile.__init__``."""
    built = []
    for home, name in ((costlens.indicators, "ParamCount"), (costlens.indicators, "FlopCount"),
                       (costlens.indicators, "MemoryEstimate"),
                       (costlens.latency, "SpeedEstimate")):
        real = getattr(home, name)

        def spy(*args, real=real, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)

        for module in (costlens.indicators, costlens.latency, costlens.profiles):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    real_init = CostProfile.__init__

    def init_spy(self, *args, **kwargs):
        built.append("CostProfile")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CostProfile, "__init__", init_spy)
    return built


def test_breakdowns_only_for_count_params_and_count_flops(breakdowns):
    spec = vit_base(16, 224)
    for hw in (None, load_hardware("default"), load_hardware("tpu_like")):
        compute_profile(spec, 8, hw)
    assert breakdowns == []
    count_params(spec)
    assert breakdowns == ["ParamCount"]
    count_flops(spec, 8)
    assert breakdowns == ["ParamCount", "FlopCount"]


def test_estimates_only_for_the_memory_and_latency_calls(breakdowns):
    """``compute_profile`` reads memory and speed as plain values; each
    public call builds its one estimate."""
    spec = vit_base(16, 224)
    for hw in (None, load_hardware("default"), load_hardware("tpu_like")):
        compute_profile(spec, 8, hw)
    assert breakdowns == []
    training_memory(spec, 8)
    inference_memory(spec, 8)
    estimate_latency(spec, load_hardware("default"), 8)
    assert breakdowns == ["MemoryEstimate", "MemoryEstimate", "SpeedEstimate"]


def test_only_replace_calls_the_profile_init(breakdowns):
    """``compute_profile`` fills its ``CostProfile`` in one step;
    ``dataclasses.replace`` still goes through ``__init__``."""
    profile = compute_profile(vit_base(16, 224), 8, load_hardware("tpu_like"))
    assert breakdowns == []
    dataclasses.replace(profile, latency_sec=1.0)
    assert breakdowns == ["CostProfile"]


def test_step_is_immutable_with_its_fields_in_order():
    step = costlens.trace.evaluate(vit_base(16, 224))[0][0]
    with pytest.raises(AttributeError):
        step.flops = 0
    assert costlens.trace.Step._fields == (
        "path", "layer", "seq_len", "params", "unique_params", "matmul_macs",
        "flops", "in_elements", "out_elements", "count", "copies")


@pytest.fixture()
def rule_loops(monkeypatch):
    """One entry per ``field_errors`` call: the rule loop that runs only
    when a class's compiled check fails."""
    calls = []
    real = costlens.archspec.field_errors

    def spy(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(costlens.archspec, "field_errors", spy)
    return calls


def test_clean_inputs_run_no_rule_loop(rule_loops):
    spec = vit_base(16, 224)
    for hw in (None, load_hardware("default"), load_hardware("tpu_like")):
        compute_profile(spec, 8, hw)
    HardwareModel(1e12, 1e11, 1e-6)
    assert rule_loops == []
    broken = dataclasses.replace(spec, input=Image(224, 224, 0))
    with pytest.raises(InvalidSpecError, match="channels must be"):
        compute_profile(broken)
    assert rule_loops == [broken.input]


def test_one_validation_per_public_call(validate_calls, tmp_path):
    spec = vit_base(16, 224)
    tpu, default = load_hardware("tpu_like"), load_hardware("default")
    for call in (count_params, count_flops, activation_size,
                 memory_access_cost, training_memory, inference_memory,
                 lambda s: estimate_latency(s, tpu, 8),
                 compute_profile,
                 lambda s: compute_profile(s, 8, default),
                 lambda s: compute_profile(s, 8, tpu),
                 costlens.trace.evaluate):
        validate_calls.clear()
        call(spec)
        assert len(validate_calls) == 1
    # The CLI checks an "arch" when it reads the file, and compute_profile
    # checks it again: twice. A builder reference is valid by construction,
    # so only compute_profile checks it: once per file.
    with data_file("specs/vit_b16.json") as path:
        validate_calls.clear()
        assert costlens.cli.main(["profile", str(path), "--hw", "tpu_like"]) == 0
    assert len(validate_calls) == 1
    arch = tmp_path / "arch.json"
    arch.write_text(f'{{"schema_version": 1, "arch": {to_json(spec)}}}')
    validate_calls.clear()
    assert costlens.cli.main(["profile", str(arch), "--hw", "tpu_like"]) == 0
    assert len(validate_calls) == 2
    with data_file("specs/vit_b16.json") as a, data_file("specs/vit_b32.json") as b:
        validate_calls.clear()
        assert costlens.cli.main(["compare", a, b]) == 0
    assert len(validate_calls) == 2
    broken = dataclasses.replace(spec, layers=(*spec.layers, Dense(in_dim=0, out_dim=8)))
    for call in (compute_profile, lambda s: compute_profile(s, 8, tpu)):
        with pytest.raises(InvalidSpecError, match="in_dim must be"):
            call(broken)


def test_cli_json_profile_work_counts(validate_calls, monkeypatch):
    """One CLI ``profile --format json`` of the shipped vit_b16 on
    ``tpu_like``: one validation, one fold of 7 steps, one hardware read."""
    folds, loads = [], []
    real_evaluate, real_load = costlens.trace._evaluate, costlens.latency.load_hardware

    def evaluate_spy(*args):
        steps, time = real_evaluate(*args)
        folds.append(len(steps))
        return steps, time

    def load_spy(name):
        loads.append(name)
        return real_load(name)

    monkeypatch.setattr(costlens.indicators, "_evaluate", evaluate_spy)
    monkeypatch.setattr(costlens.profiles, "load_hardware", load_spy)
    with data_file("specs/vit_b16.json") as path:
        assert costlens.cli.main(
            ["profile", str(path), "--hw", "tpu_like", "--format", "json"]) == 0
    assert (len(validate_calls), folds, loads) == (1, [7], ["tpu_like"])


#: Specs ``evaluate`` once folded into an answer: a non-number as a
#: dimension, an empty repeat, heads that do not divide ``qkv_dim``, and
#: something that is not a spec.
INVALID = {
    "dense_fields": ArchSpec("x", TokenSequence(4, 10), (Dense(0, "a"),)),
    "empty_repeat": ArchSpec("x", TokenSequence(4, 10), (Repeat((), times=3),)),
    "heads": ArchSpec("x", TokenSequence(4, 10), (Attention(8, 9, 2),)),
    "not_a_spec": "x",
}


@pytest.mark.parametrize("spec", INVALID.values(), ids=INVALID.keys())
def test_evaluate_refuses_an_invalid_spec(spec):
    with pytest.raises(InvalidSpecError) as exc:
        costlens.trace.evaluate(spec)
    assert exc.value.violations == costlens.archspec.validate(spec).violations


class Wide(Dense):
    """A subclass of a leaf kind, which is no layer kind."""


class Looped(Repeat):
    """A subclass of a container kind, which is no layer kind."""


#: Specs holding a subclass of a layer kind: the fold dispatches on the
#: exact type, so only ``validate`` stands between them and a wrong cost.
SUBCLASSED = {
    "leaf": (ArchSpec("x", TokenSequence(4, 10), (Wide(8, 8),)), "Wide"),
    "nested_leaf": (ArchSpec("x", TokenSequence(4, 10), (Repeat((Wide(8, 8),), 2),)),
                    "Wide"),
    "repeat": (ArchSpec("x", TokenSequence(4, 10), (Looped((Dense(8, 8),), 3),)), "Looped"),
}


@pytest.mark.parametrize("spec, name", SUBCLASSED.values(), ids=SUBCLASSED.keys())
def test_a_subclass_of_a_layer_kind_is_refused_before_the_fold(spec, name, monkeypatch):
    def fold(*args):
        raise AssertionError("a refused spec was costed")

    monkeypatch.setattr(costlens.trace, "_fold", fold)
    assert [v.message for v in costlens.archspec.validate(spec).violations] == [
        f"unknown layer kind {name}"]
    for call in (costlens.trace.evaluate, compute_profile,
                 lambda s: compute_profile(s, 8, load_hardware("tpu_like"))):
        with pytest.raises(InvalidSpecError, match=f"unknown layer kind {name}"):
            call(spec)


@pytest.fixture()
def length_calls(monkeypatch):
    """One entry per ``_sequence_length`` call, through any module's binding."""
    calls = []
    real = costlens.archspec._sequence_length

    def spy(*args):
        calls.append(args)
        return real(*args)

    for module in (costlens.archspec, costlens.trace):
        if getattr(module, "_sequence_length", None) is real:
            monkeypatch.setattr(module, "_sequence_length", spy)
    return calls


def test_two_sequence_lengths_per_image_profile(length_calls):
    """Validation derives the length once and the fold once; the PatchEmbed
    step reads its sizes from the fold's token count, padded or not."""
    spec = vit_base(16, 224)
    for hw in (None, load_hardware("default"), load_hardware("tpu_like")):
        length_calls.clear()
        compute_profile(spec, 8, hw)
        assert len(length_calls) == 2


def assert_profile_matches_public_calls(spec, hw, batch, optimizer):
    """``compute_profile`` equals the separate public calls bit for bit."""
    profile = compute_profile(spec, batch, hw, optimizer)
    params, flops = count_params(spec), count_flops(spec, 1)
    train = training_memory(spec, batch, optimizer)
    assert (profile.params, profile.flops, profile.macs,
            profile.activation_elements, profile.mac_bytes,
            profile.parameter_bytes, profile.activation_bytes,
            profile.peak_training_bytes, profile.peak_inference_bytes) == (
        params.total, flops.flops, flops.macs, activation_size(spec, 1),
        memory_access_cost(spec, 1), train.parameter_bytes,
        train.activation_bytes, train.peak_training_bytes,
        train.peak_inference_bytes)
    speed = None if hw is None else estimate_latency(spec, hw, batch)
    assert (profile.latency_sec, profile.throughput_examples_per_sec) == (
        (None, None) if speed is None
        else (speed.latency_sec, speed.throughput_examples_per_sec))


def profile_hardware(spec):
    """No hardware, every preset, and two pads: one the length already
    meets and one that lengthens the sequence."""
    length = costlens.trace.evaluate(spec)[0][0].seq_len
    return [None, *(load_hardware(name) for name in preset_names()),
            HardwareModel(1e12, 1e11, 1e-6, length_pad_multiple=length, name="meets"),
            HardwareModel(1e12, 1e11, 1e-6, length_pad_multiple=length + 1,
                          name="pads")]


@DIFFERENTIAL
@given(spec=specs(), batch=st.sampled_from([1, 8, 64]),
       optimizer=st.sampled_from(list(OptimizerKind)))
def test_profile_matches_public_calls(spec, batch, optimizer):
    for hw in profile_hardware(spec):
        assert_profile_matches_public_calls(spec, hw, batch, optimizer)


@pytest.mark.parametrize("name", ["vit_b8", "vit_b16", "vit_b32", "vit_b64"])
def test_shipped_profile_matches_public_calls(name):
    with data_file(f"specs/{name}.json") as path:
        spec, _, _ = costlens.cli.load_spec_file(str(path))
    for hw in profile_hardware(spec):
        for batch in (1, 64):
            assert_profile_matches_public_calls(spec, hw, batch, OptimizerKind.ADAM)


def test_count_overflow_is_reported_before_latency():
    layers = (Dense(8, 8),)
    for _ in range(18):  # 2**1152 executions, past the float range
        layers = (Repeat(layers, 2**64 - 1),)
    spec = ArchSpec("deep", TokenSequence(8, 10), layers)
    for hw in [None, *HARDWARE]:
        with pytest.raises(OverflowError, match="64-bit unsigned range"):
            compute_profile(spec, 1, hw)
    with pytest.raises(OverflowError, match="no finite throughput"):
        estimate_latency(spec, HARDWARE[0])


def tokens(length, layers, element_bytes=4):
    return ArchSpec("t", TokenSequence(length, 100), tuple(layers),
                    element_bytes=element_bytes)


def shared(layer, times):
    return Repeat((layer,), times, share_params=True)


#: One spec per reachable range check: (spec, batch, the public call, the
#: label ``compute_profile`` reports, the label the public call reports).
#: ``MAC count`` is never first, as FLOPs are at least twice the MACs, and
#: ``compute_profile`` never reports ``peak inference bytes``, as it checks
#: the larger ``peak training bytes`` first.
OVERFLOWS = {
    "params": (tokens(2, [Dense(2**33, 2**32, bias=False)]), 1,
               lambda spec, batch: count_params(spec),
               "parameter count", "parameter count"),
    "shared_params_unrolled": (
        tokens(1, [shared(Dense(2**16, 2**16, bias=False), 2**40)]), 1,
        lambda spec, batch: count_params(spec), "parameter count", "parameter count"),
    "flops": (tokens(2**20, [shared(Dense(2**16, 2**16, bias=False), 2**12)]), 1,
              count_flops, "FLOP count", "FLOP count"),
    "huge_batch": (tokens(8, [Dense(8, 8)]), 10**30, activation_size,
                   "activation element count", "activation element count"),
    "parameter_bytes": (tokens(2, [Dense(8, 8)], 2**62), 1, training_memory,
                        "parameter bytes", "parameter bytes"),
    "parameter_bytes_inference": (tokens(2, [Dense(8, 8)], 2**62), 1, inference_memory,
                                  "parameter bytes", "parameter bytes"),
    "activation_bytes": (tokens(2**20, [LayerNorm(2**10)], 2**40), 1, training_memory,
                         "activation bytes", "activation bytes"),
    "peak_training": (tokens(1, [Dense(2**16, 2**16, bias=False)], 2**30), 1,
                      training_memory, "peak training bytes", "peak training bytes"),
    "peak_inference": (tokens(2**20, [LayerNorm(2**10)], 2**34), 1, inference_memory,
                       "activation bytes", "peak inference bytes"),
    "memory_access": (tokens(1, [shared(Dense(2**15, 2**15, bias=False), 2**31)], 8), 1,
                      memory_access_cost, "memory access volume", "memory access volume"),
}


@pytest.mark.parametrize("case", OVERFLOWS.values(), ids=OVERFLOWS.keys())
def test_every_overflow_label(case):
    spec, batch, public, profile_label, public_label = case
    for hw in (None, load_hardware("default"), load_hardware("tpu_like")):
        with pytest.raises(OverflowError) as exc:
            compute_profile(spec, batch, hw)
        assert str(exc.value) == f"{profile_label} exceeds the 64-bit unsigned range"
    with pytest.raises(OverflowError) as exc:
        public(spec, batch)
    assert str(exc.value) == f"{public_label} exceeds the 64-bit unsigned range"
