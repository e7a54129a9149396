import math

import pytest

import costlens.latency
from costlens import (
    ArchSpec,
    Dense,
    HardwareModel,
    InputFileError,
    LayerNorm,
    Parallel,
    TokenSequence,
    count_flops,
    depth_width_pair,
    estimate_latency,
    load_hardware,
    memory_access_cost,
    preset_names,
)
from costlens.archspec import from_document
from costlens.trace import evaluate

from support import vit_base


def tokens(length, layers):
    return ArchSpec("t", TokenSequence(length, 100), tuple(layers))


COMPUTE_BOUND = HardwareModel(1e12, 1e300, 0.0, name="compute_only")


class TestHardwareModel:
    def test_shipped_presets_load(self):
        names = preset_names()
        assert {"default", "tpu_like", "gpu_like", "cpu_like"} <= set(names)
        for name in names:
            hw = load_hardware(name)
            assert hw.peak_flops_per_sec > 0

    def test_default_preset_values(self):
        hw = load_hardware("default")
        assert hw.peak_flops_per_sec == 1e14
        assert hw.mem_bandwidth_bytes_per_sec == 9e11
        assert hw.per_op_overhead_sec == 5e-6
        assert hw.num_devices == 1

    def test_env_dir_lookup(self, tmp_path, monkeypatch):
        custom = tmp_path / "mine.json"
        custom.write_text(
            '{"peak_flops_per_sec": 1e12, "mem_bandwidth_bytes_per_sec": 1e11,'
            ' "per_op_overhead_sec": 0, "name": "mine"}'
        )
        monkeypatch.setenv("COSTLENS_HW_DIR", str(tmp_path))
        assert load_hardware("mine").name == "mine"

    def test_path_lookup(self, tmp_path):
        p = tmp_path / "hw.json"
        p.write_text(
            '{"peak_flops_per_sec": 2e12, "mem_bandwidth_bytes_per_sec": 1e11,'
            ' "per_op_overhead_sec": 0}'
        )
        assert load_hardware(str(p)).peak_flops_per_sec == 2e12

    def test_unknown_preset(self):
        with pytest.raises(FileNotFoundError, match="shipped presets"):
            load_hardware("warp_drive")

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            HardwareModel(0, 1e9, 0)
        with pytest.raises(ValueError):
            HardwareModel(1e9, 1e9, -1)
        with pytest.raises(ValueError):
            HardwareModel(1e9, 1e9, 0, num_devices=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_rejected(self, bad):
        for field in range(3):
            args = [1e12, 1e11, 1e-6]
            args[field] = bad
            with pytest.raises(ValueError, match="finite"):
                HardwareModel(*args)
        with pytest.raises(ValueError, match="finite"):
            from_document(HardwareModel, {"peak_flops_per_sec": "nan",
                                          "mem_bandwidth_bytes_per_sec": 1e9,
                                          "per_op_overhead_sec": 0})


_HW = ('{{"peak_flops_per_sec": {peak}, "mem_bandwidth_bytes_per_sec": 1e11,'
       ' "per_op_overhead_sec": 0, "name": "{name}"}}')


class TestPresetCache:
    """Shipped presets are parsed once per process; a file or an entry of
    ``$COSTLENS_HW_DIR`` is read on every call and still comes first."""

    def test_repeated_shipped_loads_are_equal(self):
        for name in preset_names():
            first = load_hardware(name)
            assert load_hardware(name) == first
            assert load_hardware(name).name == name

    def test_working_directory_file_wins(self, tmp_path, monkeypatch):
        shipped = load_hardware("tpu_like")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tpu_like").write_text(_HW.format(peak=3e12, name="local"))
        assert load_hardware("tpu_like").name == "local"
        (tmp_path / "tpu_like").unlink()
        assert load_hardware("tpu_like") == shipped

    def test_env_dir_shadows_and_is_reread(self, tmp_path, monkeypatch):
        shipped = load_hardware("tpu_like")
        monkeypatch.setenv("COSTLENS_HW_DIR", str(tmp_path))
        entry = tmp_path / "tpu_like.json"
        entry.write_text(_HW.format(peak=1e12, name="first"))
        assert load_hardware("tpu_like").peak_flops_per_sec == 1e12
        entry.write_text(_HW.format(peak=2e12, name="second"))
        assert load_hardware("tpu_like").name == "second"
        assert load_hardware("tpu_like").peak_flops_per_sec == 2e12
        entry.unlink()
        assert load_hardware("tpu_like") == shipped

    def test_unknown_name_is_refused_and_not_cached(self):
        message = ("no hardware preset or file named 'warp_drive' "
                   f"(shipped presets: {', '.join(preset_names())})")
        for _ in range(2):
            with pytest.raises(FileNotFoundError) as info:
                load_hardware("warp_drive")
            assert str(info.value) == message
        assert set(costlens.latency._SHIPPED) <= set(preset_names())

    def test_malformed_file_names_itself(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text('{"name": "x",')
        with pytest.raises(InputFileError) as info:
            load_hardware(str(path))
        assert info.value.detail == {"file": str(path), "offset": 13}


class TestLatency:
    def test_sequential_is_sum_parallel_is_max(self):
        pair = (Dense(64, 64), Dense(64, 64))
        seq = tokens(8, pair)
        par = tokens(8, [Parallel((pair[:1], pair[1:]))])
        hw = HardwareModel(1e12, 1e12, 1e-6)
        t_seq = estimate_latency(seq, hw).latency_sec
        t_par = estimate_latency(par, hw).latency_sec
        assert t_seq == pytest.approx(2 * t_par)

    def test_pure_compute_roofline(self):
        spec = vit_base(32, 224)
        est = estimate_latency(spec, COMPUTE_BOUND, 1)
        assert est.latency_sec == pytest.approx(
            count_flops(spec).flops / 1e12, rel=1e-12
        )

    def test_devices_divide_compute_time(self):
        spec = vit_base(32, 224)
        one = estimate_latency(spec, COMPUTE_BOUND, 1).latency_sec
        four = estimate_latency(
            spec, HardwareModel(1e12, 1e300, 0.0, num_devices=4), 1
        ).latency_sec
        assert four == pytest.approx(one / 4)

    @pytest.mark.parametrize("peak, devices", [(1e12, 10**400), (1e308, 2)],
                             ids=["count_past_the_range", "rate_rounds_to_inf"])
    def test_device_count_past_the_float_range_is_refused(self, peak, devices):
        # Past 2**1024, or a finite count whose rate rounds to inf (a free op).
        with pytest.raises(ValueError, match=r"^num_devices x peak_flops_per_sec must be "
                                             r"within the float range, got "):
            HardwareModel(peak, 1e11, 1e-6, num_devices=devices)

    def test_overhead_counts_per_executed_op(self):
        spec = tokens(4, [LayerNorm(8), LayerNorm(8)])
        hw = HardwareModel(1e300, 1e300, 1e-3)
        assert estimate_latency(spec, hw).latency_sec == pytest.approx(2e-3)

    def test_compute_bound_batch_doubles_latency(self):
        spec = vit_base(32, 224)
        l1 = estimate_latency(spec, COMPUTE_BOUND, 1)
        l2 = estimate_latency(spec, COMPUTE_BOUND, 2)
        assert l2.latency_sec == 2 * l1.latency_sec
        assert l2.throughput_examples_per_sec == l1.throughput_examples_per_sec

    def test_bound_tags(self):
        spec = tokens(4, [Dense(64, 64)])
        compute = estimate_latency(spec, HardwareModel(1.0, 1e300, 0.0))
        memory = estimate_latency(spec, HardwareModel(1e300, 1.0, 0.0))
        assert compute.latency_sec == count_flops(spec).flops
        assert memory.latency_sec == memory_access_cost(spec)

    def test_fewer_sequential_ops_wins_at_equal_flops(self):
        # 4 x Dense(64->64) and 1 x Dense(64->256) have identical MACs
        deep = tokens(8, [Dense(64, 64, bias=False)] * 4)
        wide = tokens(8, [Dense(64, 256, bias=False)])
        assert count_flops(deep).flops == count_flops(wide).flops
        hw = HardwareModel(1e12, 1e300, 1e-5)
        assert (estimate_latency(deep, hw).latency_sec
                > estimate_latency(wide, hw).latency_sec)

    def test_length_padding_inflates_linear_terms(self):
        spec = vit_base(16, 224)  # 197 tokens -> padded to 256
        padded = estimate_latency(spec, HardwareModel(1e14, 9e11, 0, length_pad_multiple=128))
        plain = estimate_latency(spec, HardwareModel(1e14, 9e11, 0))

        def timed_ffn(pad):
            steps = []  # each node's step as the roofline times it
            evaluate(spec, pad, seconds=lambda step: steps.append(step) or 0.0)
            return [s for s in steps if s.path.endswith("[3]")][0]

        assert timed_ffn(128).flops / timed_ffn(None).flops == pytest.approx(256 / 197)
        assert padded.latency_sec > plain.latency_sec

    def test_depth_width_reversal_on_all_presets(self):
        deep, wide = depth_width_pair()
        ratio = count_flops(deep).flops / count_flops(wide).flops
        assert abs(ratio - 1) < 0.01
        for name in preset_names():
            hw = load_hardware(name)
            assert hw.per_op_overhead_sec > 0
            assert (estimate_latency(deep, hw).latency_sec
                    > estimate_latency(wide, hw).latency_sec), name


class TestThroughput:
    def test_throughput_times_latency_is_batch(self):
        spec = vit_base(32, 224)
        hw = load_hardware("default")
        for batch in (1, 7, 64):
            est = estimate_latency(spec, hw, batch)
            assert est.throughput_examples_per_sec * est.latency_sec == pytest.approx(batch)

    def test_hundred_examples_in_one_second(self):
        # calibrated so one batch of 100 takes exactly 1 s: throughput 100/s
        spec = tokens(1, [Dense(10, 10, bias=False)])
        flops = count_flops(spec, 100).flops
        hw = HardwareModel(float(flops), 1e300, 0.0)
        est = estimate_latency(spec, hw, 100)
        assert est.latency_sec == pytest.approx(1.0)
        assert est.throughput_examples_per_sec == pytest.approx(100.0)

    def test_batch_past_the_float_range_is_refused_with_the_documented_text(self):
        with pytest.raises(OverflowError, match=r"^latency inf s at batch 10{99}\.\.\. "
                                                r"gives no finite throughput$"):
            estimate_latency(vit_base(16, 224), load_hardware("default"), 10**400)
        # past Python's 4,300-digit limit the batch cannot be written out
        with pytest.raises(OverflowError, match=r"^latency inf s at batch <int> "
                                                r"gives no finite throughput$"):
            estimate_latency(vit_base(16, 224), load_hardware("default"), 10**5000)
