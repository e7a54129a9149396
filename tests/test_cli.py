import argparse
import csv
import dataclasses
import importlib
import io
import json
import os
import pkgutil
import random
import shlex
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path
from xml.dom import minidom

import pytest

import costlens
from costlens import (
    ArchSpec,
    CoverageError,
    EnergyProfile,
    InputFileError,
    InvalidSpecError,
    PricingProfile,
    Repeat,
    TokenSequence,
    build_from_reference,
    compute_profile,
    count_flops,
    count_params,
    load_hardware,
    misnomer_report,
    preset_names,
    rank_disagreement,
    read_records,
    read_spec_file,
    record_from_profile,
)
from costlens import analysis, cli
from costlens.archlib import ARRANGEMENTS, BUILDER_ARGS
from costlens.archspec import ensure_valid
from costlens.cli import build_parser, format_fixed, main

from support import data_file

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def vit16(tmp_path):
    with data_file("specs/vit_b16.json") as p:
        target = tmp_path / "vit_b16.json"
        shutil.copy(p, target)
    return str(target)


@pytest.fixture()
def records_csv():
    with data_file("records/depth_width_scaling.csv") as p:
        yield p


class TestFormatFixed:
    def test_six_significant_digits(self):
        assert format_fixed(86567656) == "86567700"
        assert format_fixed(17.563828224) == "17.5638"
        assert format_fixed(0.93) == "0.93"
        assert format_fixed(0) == "0"
        assert format_fixed(-1234.5678) == "-1234.57"


class TestProfile:
    def test_json_profile_with_hardware(self, vit16, capsys):
        code, out, err = run_cli(
            ["profile", vit16, "--hw", "tpu_like", "--batch", "256",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "vit_b16"
        assert doc["params"] == 86_567_656
        assert abs(doc["gflops"] - 17.63) / 17.63 < 0.03
        assert doc["latency_sec"] > 0
        assert doc["throughput_examples_per_sec"] > 0
        assert err == ""

    def test_no_hardware_warns_and_omits_speed(self, vit16, capsys):
        code, out, err = run_cli(["profile", vit16, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "latency_sec" not in doc
        assert "throughput_examples_per_sec" not in doc
        assert err.count("warning") == 1

    def test_builder_flags_equal_spec_file(self, vit16, capsys):
        code, from_file, _ = run_cli(["profile", vit16, "--format", "json"], capsys)
        assert code == 0
        code, from_flags, _ = run_cli(
            ["profile", "--family", "vit", "--patch", "16", "--depth", "12",
             "--model-dim", "768", "--num-heads", "12", "--ffn-dim", "3072",
             "--format", "json"], capsys)
        assert code == 0
        a, b = json.loads(from_file), json.loads(from_flags)
        for key in ("params", "flops", "macs", "activation_elements", "mac_bytes"):
            assert a[key] == b[key]

    @pytest.mark.parametrize("flags,family,args", [
        (["--arrangement", "encoder_decoder", "--layers", "2", "--heads", "4",
          "--model-dim", "64", "--ffn-dim", "128", "--vocab", "100",
          "--input-len", "32", "--output-len", "32"],
         "lm", dict(arrangement="encoder_decoder", layers_per_stack=2, heads=4,
                    model_dim=64, ffn_dim=128, vocab=100, input_len=32,
                    output_len=32)),
        (["--patch", "16", "--depth", "2", "--model-dim", "64", "--num-heads",
          "4", "--ffn-dim", "128", "--image", "32", "32", "3", "--steps", "5"],
         "universal_transformer", dict(patch=16, depth=2, model_dim=64,
                                       num_heads=4, ffn_dim=128,
                                       image=(32, 32, 3), steps=5)),
        (["--patch", "16", "--depth", "4", "--model-dim", "64", "--num-heads",
          "4", "--ffn-dim", "128", "--classes", "10", "--num-experts", "8",
          "--experts-per-token", "2", "--moe-every", "1"],
         "moe", dict(patch=16, depth=4, model_dim=64, num_heads=4, ffn_dim=128,
                     classes=10, num_experts=8, experts_per_token=2,
                     moe_every=1)),
    ])
    def test_builder_flags_of_every_family(self, flags, family, args, capsys):
        code, out, _ = run_cli(["profile", "--family", family, *flags,
                                "--format", "json"], capsys)
        assert code == 0
        spec = build_from_reference(family, args)
        doc = json.loads(out)
        assert doc["name"] == spec.name
        assert doc["params"] == count_params(spec).total
        assert doc["flops"] == count_flops(spec).flops

    def test_huge_repeat_answers_in_bounded_time(self, tmp_path, capsys):
        layer_norm = {"kind": "layer_norm", "model_dim": 64}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"schema_version": 1, "arch": {
            "input": {"kind": "token_sequence", "length": 128, "vocab": 1000},
            "layers": [{"kind": "repeat", "times": 10**12, "body": [layer_norm]}],
        }}))
        start = time.perf_counter()
        code, out, err = run_cli(["profile", str(p), "--hw", "default",
                                  "--format", "json"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["flops"] == 10**12 * 5 * 128 * 64
        assert doc["latency_sec"] > 10**12 * 5e-6

    def test_repeat_past_64_bits_exits_2(self, tmp_path, capsys):
        dense = {"kind": "dense", "in_dim": 64, "out_dim": 64}
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps({"schema_version": 1, "arch": {
            "input": {"kind": "token_sequence", "length": 8, "vocab": 100},
            "layers": [{"kind": "repeat", "times": 2**64, "body": [dense]}],
        }}))
        start = time.perf_counter()
        code, out, err = run_cli(["profile", str(p), "--hw", "default"], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "64-bit unsigned range" in json.loads(err)["error"]

    def test_round_trip_profile_to_record(self, vit16, capsys):
        code, out, _ = run_cli(
            ["profile", vit16, "--hw", "default", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        record = record_from_profile(doc)
        assert record.indicators["params"] == float(doc["params"])
        assert record.indicators["flops"] == float(doc["flops"])
        assert record.indicators["latency"] == doc["latency_sec"]
        assert record.indicators["throughput"] == doc["throughput_examples_per_sec"]
        assert record.indicators["memory"] == float(doc["peak_training_bytes"])

    def test_record_keeps_integer_indicators_exact(self, vit16):
        # as floats, two params counts past 2**53 would read as tied
        a = record_from_profile({"name": "a", "params": 2**53, "flops": 1})
        b = record_from_profile({"name": "b", "params": 2**53 + 1, "flops": 0})
        assert rank_disagreement([a, b], "params", "flops").n_discordant == 1
        profile = compute_profile(read_spec_file(vit16)[0])
        params = record_from_profile(profile.to_dict()).indicators["params"]
        assert type(params) is int and params == profile.params

    def test_energy_and_pricing(self, vit16, tmp_path, capsys):
        energy = tmp_path / "energy.json"
        energy.write_text('{"ee_train_kwh": 100, "co2e_per_kwh": 0.5}')
        pricing = tmp_path / "pricing.json"
        pricing.write_text('{"total_train_hours": 100, "num_chips": 64,'
                           ' "price_per_chip_hour": 2.0}')
        code, out, _ = run_cli(
            ["profile", vit16, "--energy", str(energy), "--pricing",
             str(pricing), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["carbon_kg_co2e"] == 50.0
        assert doc["monetary_cost"] == 12_800.0

    def test_byte_order_mark_is_skipped_in_json(self, vit16, tmp_path, capsys):
        """Every JSON input saved with a UTF-8 byte-order mark reads as without
        it: the spec, a hardware file beside it, and the --hw, --energy and
        --pricing files."""
        with data_file("hardware/tpu_like.json") as p:
            hardware = Path(p).read_text(encoding="utf-8")
        spec = json.loads(Path(vit16).read_text(encoding="utf-8"))
        texts = {"spec.json": json.dumps({**spec, "hardware": "hw.json"}),
                 "hw.json": hardware, "other_hw.json": hardware.replace("9e13", "8e13"),
                 "energy.json": '{"ee_train_kwh": 100, "co2e_per_kwh": 0.5}',
                 "pricing.json": '{"total_train_hours": 100, "num_chips": 64, '
                                 '"price_per_chip_hour": 2.0}'}
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            folder = tmp_path / f"mark{len(mark)}"
            folder.mkdir()
            for name, text in texts.items():
                (folder / name).write_bytes(mark + text.encode("utf-8"))
            flags = ["--energy", str(folder / "energy.json"),
                     "--pricing", str(folder / "pricing.json"), "--format", "json"]
            outputs.append([run_cli(["profile", str(folder / "spec.json"), *flags], capsys),
                            run_cli(["profile", str(folder / "spec.json"), *flags,
                                     "--hw", str(folder / "other_hw.json")], capsys)])
        assert outputs[0] == outputs[1]
        assert [code for code, _, _ in outputs[0]] == [0, 0]
        assert outputs[0][0][1] != outputs[0][1][1]  # each hardware file was read

    def test_each_json_input_is_opened_once_unbuffered(self, vit16, tmp_path, capsys,
                                                       monkeypatch):
        """A warm ``profile`` opens its spec, the hardware file beside it, and
        its --energy and --pricing files once each, as one unbuffered binary read."""
        with data_file("hardware/tpu_like.json") as p:
            shutil.copy(p, tmp_path / "hw.json")
        spec = json.loads(Path(vit16).read_text(encoding="utf-8"))
        (tmp_path / "spec.json").write_text(json.dumps({**spec, "hardware": "hw.json"}))
        (tmp_path / "energy.json").write_text('{"ee_train_kwh": 100, "co2e_per_kwh": 0.5}')
        (tmp_path / "pricing.json").write_text(
            '{"total_train_hours": 100, "num_chips": 64, "price_per_chip_hour": 2.0}')
        argv = ["profile", str(tmp_path / "spec.json"), "--energy", str(tmp_path / "energy.json"),
                "--pricing", str(tmp_path / "pricing.json"), "--format", "json"]
        warm = run_cli(argv, capsys)
        opened = []

        def spy(path, *args, **kwargs):
            opened.append((path, *args, *kwargs.items()))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(costlens.archspec, "open", spy, raising=False)
        assert run_cli(argv, capsys) == warm
        assert warm[0] == 0
        assert opened == [(str(tmp_path / name), "rb", ("buffering", 0))
                          for name in ("spec.json", "hw.json", "energy.json", "pricing.json")]

    @pytest.mark.parametrize("flag, doc", [
        ("--hw", {"peak_flops_per_sec": "nan",
                  "mem_bandwidth_bytes_per_sec": 1e9,
                  "per_op_overhead_sec": 0}),
        ("--energy", {"ee_train_kwh": 100, "co2e_per_kwh": "inf"}),
        ("--pricing", {"total_train_hours": "nan", "num_chips": 64,
                       "price_per_chip_hour": 2.0}),
    ])
    def test_non_finite_rates_exit_2(self, vit16, tmp_path, capsys, flag, doc):
        path = tmp_path / "rates.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["profile", vit16, flag, str(path)], capsys)
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        assert "must be finite" in json.loads(err)["error"]

    def test_device_count_past_the_float_range_exits_2(self, vit16, tmp_path, capsys):
        path = tmp_path / "hw.json"
        path.write_text('{"peak_flops_per_sec": 1e12, "mem_bandwidth_bytes_per_sec": 1e11,'
                        ' "per_op_overhead_sec": 1e-6, "num_devices": 1%s}' % ("0" * 400))
        code, out, err = run_cli(["profile", vit16, "--hw", str(path)], capsys)
        assert (code, out) == (2, "")
        assert len(err.strip().splitlines()) == 1
        doc = json.loads(err)
        assert "num_devices" in doc["error"] and doc["file"] == str(path)

    def test_preset_names_stay_in_preset_directories(self, vit16, tmp_path,
                                                     monkeypatch, capsys):
        hw = {"peak_flops_per_sec": 1e12, "mem_bandwidth_bytes_per_sec": 1e11,
              "per_op_overhead_sec": 1e-6}
        presets = tmp_path / "presets"
        (presets / "sub").mkdir(parents=True)
        (presets / "sub" / "nested.json").write_text(json.dumps(hw))
        (presets / "mine.json").write_text(json.dumps(hw))
        monkeypatch.setenv("COSTLENS_HW_DIR", str(presets))
        monkeypatch.chdir(tmp_path)
        for name in ("../specs/vit_b16", "sub/nested", "../presets/mine", "sub/../mine"):
            code, out, err = run_cli(["profile", vit16, "--hw", name], capsys)
            assert (code, out) == (2, ""), name
            assert f"no hardware preset or file named {name!r}" \
                in json.loads(err)["error"]
        # Bare names and explicit existing paths still resolve.
        for name in ("mine", "tpu_like", str(presets / "sub" / "nested.json")):
            assert run_cli(["profile", vit16, "--hw", name], capsys)[0] == 0, name

    def test_spec_file_hardware_is_read_beside_the_spec_file(self, tmp_path,
                                                             monkeypatch, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "hw.json").write_text(json.dumps({
            "peak_flops_per_sec": 1e12, "mem_bandwidth_bytes_per_sec": 1e11,
            "per_op_overhead_sec": 1e-6}))
        builder = {"family": "vit", "patch": 16, "depth": 1, "model_dim": 64,
                   "num_heads": 4, "ffn_dim": 128, "image": [32, 32, 3]}
        for name, hardware in (("spec.json", "hw.json"), ("preset.json", "tpu_like")):
            (sub / name).write_text(json.dumps(
                {"schema_version": 1, "hardware": hardware, "builder": builder}))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["profile", "sub/spec.json", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["latency_sec"] > 0
        # --hw stays relative to the working directory.
        assert run_cli(["profile", "sub/spec.json", "--hw", "sub/hw.json",
                        "--format", "json"], capsys)[:2] == (0, out)
        code, out, err = run_cli(["profile", "sub/spec.json", "--hw", "hw.json"], capsys)
        assert (code, out) == (2, "")
        assert "no hardware preset or file named 'hw.json'" in json.loads(err)["error"]
        # A bare preset name in a spec file still names a preset.
        assert run_cli(["profile", "sub/preset.json", "--format", "json"], capsys)[:2] \
            == run_cli(["profile", "sub/spec.json", "--hw", "tpu_like",
                        "--format", "json"], capsys)[:2]

    @pytest.mark.parametrize("doc", [
        {"schema_version": 1, "name": 5, "builder": {
            "family": "vit", "patch": 16, "depth": 1, "model_dim": 64,
            "num_heads": 4, "ffn_dim": 128, "image": [32, 32, 3]}},
        {"schema_version": 1, "arch": {
            "name": 5, "input": {"kind": "token_sequence", "length": 4, "vocab": 10},
            "layers": [{"kind": "layer_norm", "model_dim": 8}]}},
    ])
    def test_non_string_names_exit_2(self, tmp_path, capsys, doc):
        p = tmp_path / "named.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(["profile", str(p), "--format", "json"], capsys)
        assert (code, out) == (2, "")
        assert "name must be a string, got 5" in json.loads(err)["error"]

    def test_malformed_json_exits_2_with_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1, "arch": }')
        code, out, err = run_cli(["profile", str(bad)], capsys)
        assert code == 2
        payload = json.loads(err)
        assert "offset" in payload
        assert str(payload["offset"]) in payload["error"]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(["profile", "/nonexistent/spec.json"], capsys)
        assert code == 2
        assert "no such file" in json.loads(err)["error"]

    def test_arch_and_builder_both_rejected(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "arch": {"input": {"kind": "token_sequence", "length": 4,
                                  "vocab": 10}, "layers": []},
               "builder": {"family": "vit"}}
        p = tmp_path / "both.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(["profile", str(p)], capsys)
        assert code == 2
        assert "exactly one" in json.loads(err)["error"]

    @pytest.mark.parametrize("builder, message", [
        ("ab", "builder must be an object, got 'ab'"),
        (5, "builder must be an object, got 5"),
        ({"family": [], "patch": 16}, "unknown builder family [] (known: "
                                      "lm, moe, universal_transformer, vit)"),
    ], ids=["string", "number", "list_family"])
    def test_malformed_builder_is_refused_by_the_field_rule(self, tmp_path, capsys,
                                                            builder, message):
        p = tmp_path / "builder.json"
        p.write_text(json.dumps({"schema_version": 1, "builder": builder}))
        code, out, err = run_cli(["profile", str(p)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"{p}: {message}", "file": str(p)}

    def test_invalid_architecture_exits_2(self, tmp_path, capsys):
        doc = {"schema_version": 1,
               "arch": {"input": {"kind": "image", "height": 224, "width": 224,
                                  "channels": 3},
                        "layers": [{"kind": "patch_embed", "patch": 60,
                                    "in_channels": 3, "embed_dim": 64}]}}
        p = tmp_path / "bad_arch.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(["profile", str(p)], capsys)
        assert code == 2
        assert "does not divide" in json.loads(err)["error"]

    def test_table_and_csv_formats(self, vit16, capsys):
        code, table, _ = run_cli(["profile", vit16], capsys)
        assert code == 0
        assert "params" in table
        code, csv_text, _ = run_cli(["profile", vit16, "--format", "csv"], capsys)
        assert code == 0
        lines = csv_text.strip().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == len(lines[1].split(","))

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_golden_stdout(self, capsys, fmt):
        assert profile_sweep(fmt, capsys) \
            == (GOLDEN / f"profile_{fmt}.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("spec", ["vit_b8", "vit_b16", "vit_b32", "vit_b64"])
    def test_json_is_indented_json(self, spec):
        """The flat profile renders to the bytes of ``indent=2``, with and
        without each optional field and with a name that needs escapes."""
        energy = EnergyProfile(100.0, 0.001, 1e6, 0.4)
        pricing = PricingProfile(100.0, 64.0, 2.0)
        with data_file(f"specs/{spec}.json") as path:
            arch, _, _ = read_spec_file(path)
        for name in (arch.name, 'caf\u00e9 "\\x"\n'):
            arch = dataclasses.replace(arch, name=name)
            for hw in (None, *map(load_hardware, preset_names())):
                for extra in ({}, {"energy": energy}, {"pricing": pricing},
                              {"energy": energy, "pricing": pricing}):
                    d = compute_profile(arch, 8, hw, **extra).to_dict()
                    assert cli._profile_lines(d, "json") \
                        == json.dumps(d, indent=2, sort_keys=True) + "\n"


def profile_sweep(fmt: str, capsys) -> str:
    """``profile`` stdout of every shipped spec, without hardware and on
    each shipped preset, each run under a ``== <argv> ==`` line."""
    out = []
    for spec in ("vit_b8", "vit_b16", "vit_b32", "vit_b64"):
        for hw in (None, *preset_names()):
            argv = ["profile", f"specs/{spec}.json", "--format", fmt]
            argv += [] if hw is None else ["--hw", hw]
            with data_file(argv[1]) as path:
                code, stdout, _ = run_cli([argv[0], path, *argv[2:]], capsys)
            assert code == 0
            out.append(f"== {' '.join(argv)} ==\n{stdout}")
    return "".join(out)


class TestCompare:
    def test_records_compare(self, records_csv, capsys):
        code, out, _ = run_cli(
            ["compare", "--records", records_csv, "--indicators",
             "params,latency"], capsys)
        assert code == 0
        assert "D48 < W3072 on params but D48 > W3072 on latency" in out
        assert "kendall tau-b" in out

    def test_sorted_by_first_indicator(self, records_csv, capsys):
        code, out, _ = run_cli(["compare", "--records", records_csv], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith(" ")]
        names = [l.split()[0] for l in lines[1:12]]
        assert names[0] == "W768"      # smallest params
        assert names[-1] == "W4096"    # largest params

    def test_spec_files_compare(self, tmp_path, capsys):
        paths = []
        for name in ("vit_b16.json", "vit_b32.json"):
            with data_file(f"specs/{name}") as p:
                target = tmp_path / name
                shutil.copy(p, target)
                paths.append(str(target))
        code, out, _ = run_cli(["compare", *paths], capsys)
        assert code == 0
        assert "vit_b16" in out and "vit_b32" in out
        # quality-free records: frontier analysis is explicitly skipped
        assert "skipped (no quality scores)" in out

    def test_identical_specs_tau_one(self, vit16, capsys):
        code, out, _ = run_cli(["compare", vit16, vit16], capsys)
        assert code == 0
        assert "tau = 1" in out
        assert "none" in out

    def test_single_model_exits_1(self, vit16, capsys):
        code, _, err = run_cli(["compare", vit16], capsys)
        assert code == 1

    def test_missing_quality_column_exits_2(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("name,family,params\na,x,1\nb,y,2\n")
        code, _, err = run_cli(["compare", "--records", str(p)], capsys)
        assert code == 2
        assert "quality" in json.loads(err)["error"]

    def test_unknown_indicator_exits_2(self, records_csv, capsys):
        code, _, err = run_cli(
            ["compare", "--records", records_csv, "--indicators", "sparkles"],
            capsys)
        assert code == 2

    @pytest.mark.parametrize("selection", ["", ",", " , "])
    def test_empty_indicator_selection_exits_2(self, records_csv, capsys, selection):
        code, out, err = run_cli(
            ["compare", "--records", records_csv, "--indicators", selection], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": f"--indicators {selection!r} names no indicator"}

    @pytest.mark.parametrize("extra, named", [
        (["vit16"], "spec files"),
        (["--hw", "nope"], "--hw"),
        (["--hw", "tpu_like"], "--hw"),
        (["--batch", "8"], "--batch"),
        (["vit16", "vit16", "--hw", "nope", "--batch", "8"],
         "spec files, --hw, --batch"),
    ])
    def test_records_refuses_spec_inputs(self, records_csv, vit16, capsys,
                                         extra, named):
        extra = [vit16 if a == "vit16" else a for a in extra]
        code, out, err = run_cli(["compare", "--records", records_csv, *extra],
                                 capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": f"--records cannot be combined with {named}"}

    def test_non_numeric_cell_exits_2(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("name,quality,params\na,1.0,fast\n")
        code, _, err = run_cli(["compare", "--records", str(p)], capsys)
        assert code == 2
        assert "not numeric" in json.loads(err)["error"]

    @pytest.mark.parametrize("row, column, cell", [
        ("a,1.0,1_0", "params", "1_0"),
        ("a,1_0.5,3", "quality", "1_0.5"),
        ("a,1.0,\u0661\u0660", "params", "\u0661\u0660"),
    ])
    def test_cells_take_plain_decimal_notation_only(self, tmp_path, capsys,
                                                    row, column, cell):
        p = tmp_path / "r.csv"
        p.write_text(f"name,quality,params\n{row}\nb,2.0,3\n", encoding="utf-8")
        code, out, err = run_cli(["compare", "--records", str(p)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] \
            == f"{p}:2: cell {column!r} is not numeric: {cell!r}"

    @pytest.mark.parametrize("content, reason", [
        (b"name,quality,params\na,1.0,\xff\xfe\nb,2.0,3\n", "codec can't decode"),
        (b"name,quality,params\na,1.0," + b"1" * 200_000 + b"\nb,2.0,3\n",
         "field larger than field limit"),
        (None, "Is a directory"),
    ], ids=["not-utf8", "long-cell", "directory"])
    def test_unreadable_records_exit_2(self, tmp_path, capsys, content, reason):
        p = tmp_path / "r.csv"
        if content is None:
            p.mkdir()
        else:
            p.write_bytes(content)
        code, out, err = run_cli(["compare", "--records", str(p)], capsys)
        assert (code, out, len(err.splitlines())) == (2, "", 1)
        error = json.loads(err)["error"]
        assert error.startswith(f"cannot read {p}: ") and reason in error

    def test_line_numbers_count_blank_lines(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("\nname,quality,params,params\n\na,1.0,2,3\n")
        code, _, err = run_cli(["compare", "--records", str(p)], capsys)
        assert code == 2
        assert json.loads(err)["error"].startswith(f"{p}:2: column names")
        p.write_text("name,quality,params\n\na,1.0,x\n\n\nb,2.0,3\nb,3.0,4\n")
        code, _, err = run_cli(["compare", "--records", str(p)], capsys)
        assert json.loads(err)["error"] == f"{p}:3: cell 'params' is not numeric: 'x'"
        p.write_text("name,quality,params\n\na,1.0,2\n\n\nb,2.0,3\nb,3.0,4\n")
        code, _, err = run_cli(["compare", "--records", str(p)], capsys)
        assert json.loads(err)["error"] \
            == f"{p}:7: duplicate model name 'b' (first on line 6)"

    def test_negative_cost_cell_exits_2(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("name,quality,params,flops\na,-1.0,2,-0.5\nb,2.0,3,1\n")
        code, out, err = run_cli(["compare", "--records", str(p)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": f"{p}:2: flops must be finite, a number >= 0, got -0.5",
            "file": str(p), "line": 2, "column": "flops"}
        # Quality is a score and may be negative; zero is a cost like any other.
        p.write_text("name,quality,params,flops\na,-1.0,2,0\nb,2.0,3,-0\n")
        assert run_cli(["compare", "--records", str(p)], capsys)[0] == 0

    def test_non_finite_cell_exits_2(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("name,quality,params\na,1.0,inf\nb,2.0,3\n")
        code, _, err = run_cli(["compare", "--records", str(p)], capsys)
        assert code == 2
        assert "finite" in json.loads(err)["error"]

    def test_empty_cells_are_missing_indicators(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("name,quality,params,latency\na,1.0,1.0,\nb,2.0,2.0,0.5\n")
        code, out, _ = run_cli(["compare", "--records", str(p)], capsys)
        assert code == 0
        assert "a is missing latency" in out

    @pytest.mark.parametrize("golden, extra", [
        ("compare_depth_width_scaling.txt", []),
        ("compare_depth_width_scaling_params_latency.txt",
         ["--indicators", "params,latency"]),
    ])
    def test_golden_stdout(self, records_csv, capsys, golden, extra):
        code, out, _ = run_cli(["compare", "--records", records_csv, *extra],
                               capsys)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    @pytest.mark.parametrize("golden, extra", [
        ("compare_tie_heavy.txt", []),
        # 876 falls inside the row of m09 under flops vs memory, between a
        # pair m09 leads and one it trails.
        ("compare_tie_heavy_max_pairs_876.txt", ["--max-pairs", "876"]),
        ("compare_tie_heavy_latency_params_energy.txt",
         ["--indicators", "latency,params,energy"]),
    ])
    def test_tie_heavy_golden_stdout(self, capsys, golden, extra):
        """60 rows x 6 quantised indicators with empty cells: 1,654
        inverted pairs over 15 indicator pairs."""
        code, out, _ = run_cli(
            ["compare", "--records", str(GOLDEN / "compare_tie_heavy.csv"), *extra],
            capsys)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        """Spreadsheet programs save a CSV file with a UTF-8 byte-order mark."""
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / "compare_tie_heavy.csv").read_bytes())
        code, out, _ = run_cli(["compare", "--records", str(path)], capsys)
        assert (code, out.encode("utf-8")) == (0, (GOLDEN / "compare_tie_heavy.txt").read_bytes())

    def test_max_pairs_truncates_listing(self, records_csv, capsys):
        full = (GOLDEN / "compare_depth_width_scaling.txt").read_text(
            encoding="utf-8").splitlines()
        pair_lines = [l for l in full if " but " in l]
        code, out, _ = run_cli(
            ["compare", "--records", records_csv, "--max-pairs", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert [l for l in lines if " but " in l] == pair_lines[:2]
        assert f"  showing 2 of {len(pair_lines)} inverted pairs" in lines
        # everything but the pair listing is unchanged
        assert [l for l in lines if " but " not in l and "showing" not in l] \
            == [l for l in full if " but " not in l]

    def test_max_pairs_zero_and_at_total(self, records_csv, capsys):
        golden = (GOLDEN / "compare_depth_width_scaling.txt").read_text(
            encoding="utf-8")
        code, out, _ = run_cli(
            ["compare", "--records", records_csv, "--max-pairs", "6"], capsys)
        assert (code, out) == (0, golden)
        code, out, _ = run_cli(
            ["compare", "--records", records_csv, "--max-pairs", "0"], capsys)
        assert code == 0
        assert "  showing 0 of 6 inverted pairs" in out.splitlines()
        assert " but " not in out

    def test_negative_max_pairs_exits_2(self, records_csv, capsys):
        code, out, err = run_cli(
            ["compare", "--records", records_csv, "--max-pairs", "-1"], capsys)
        assert (code, out) == (2, "")
        assert "--max-pairs" in json.loads(err)["error"]

    def test_duplicate_name_exits_2(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("name,quality,params,flops\na,1.0,1,2\nb,2.0,2,1\n"
                     "a,3.0,3,3\n")
        code, out, err = run_cli(["compare", "--records", str(p)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["file"] == str(p)
        assert payload["line"] == 4
        assert payload["model"] == "a"
        assert "duplicate model name 'a'" in payload["error"]
        assert "line 2" in payload["error"]

    @pytest.mark.parametrize("header, column", [
        ("name,quality,params,params", "params"),
        ("name,quality,params,", ""),
    ])
    def test_header_names_unique_and_non_empty(self, tmp_path, capsys, header, column):
        p = tmp_path / "r.csv"
        p.write_text(f"{header}\na,1.0,2,30\nb,2.0,3,40\n")
        for argv in (["compare", "--records", str(p)],
                     ["pareto", str(p), "--cost", "params"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1
            payload = json.loads(err)
            assert (payload["file"], payload["line"], payload["column"]) \
                == (str(p), 1, column)
            assert f"got {column!r} in column 4" in payload["error"]

    @pytest.mark.parametrize("name", ["", "   "])
    def test_empty_model_name_exits_2(self, tmp_path, capsys, name):
        p = tmp_path / "r.csv"
        p.write_text(f"name,quality,params,flops\na,1.0,1,2\n{name},2.0,2,1\n")
        for argv in (["compare", "--records", str(p)],
                     ["pareto", str(p), "--cost", "params"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1
            payload = json.loads(err)
            assert (payload["file"], payload["line"]) == (str(p), 3)
            assert payload["error"] == f"{p}:3: name cell is empty"


class TestCompareLeftOutModels:
    CSV = "name,quality,params,flops\na,1,1,\nb,2,2,\nc,3,,3\nd,4,,4\n"

    def test_left_out_models_named_on_stderr(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text(self.CSV)
        code, out, err = run_cli(
            ["compare", "--records", str(p), "--indicators", "params"], capsys)
        assert code == 0
        assert [l.split()[0] for l in out.splitlines()[1:3]] == ["a", "b"]
        assert err == ("warning: --indicators leaves out c, d, which carry "
                       "none of the requested indicators\n")

    def test_nothing_left_out_keeps_stderr_empty(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text(self.CSV)
        code, _, err = run_cli(
            ["compare", "--records", str(p), "--indicators", "params,flops"], capsys)
        assert (code, err) == (0, "")

    def test_exit_1_writes_only_the_json_line(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("name,quality,params,flops\na,1,1,\nc,3,,3\nd,4,,4\n")
        code, out, err = run_cli(
            ["compare", "--records", str(p), "--indicators", "params"], capsys)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert "fewer than 2 models" in json.loads(err)["error"]


class TestPareto:
    def test_frontier_listing(self, records_csv, capsys):
        code, out, _ = run_cli(
            ["pareto", records_csv, "--cost", "flops"], capsys)
        assert code == 0
        assert "9 of 11 records" in out
        assert "W768" in out and "W4096" in out
        assert "dominated: W1536, W3072" in out

    def test_missing_cost_column_named(self, records_csv, capsys):
        code, _, err = run_cli(
            ["pareto", records_csv, "--cost", "carbon"], capsys)
        assert code == 2
        assert "carbon" in json.loads(err)["error"]

    def test_single_record(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("name,quality,flops\nonly,1.0,2.0\n")
        code, out, _ = run_cli(["pareto", str(p), "--cost", "flops"], capsys)
        assert code == 0
        assert "1 of 1 records" in out

    def test_svg_written_and_output_identical(self, records_csv, tmp_path, capsys):
        code, without_svg, _ = run_cli(
            ["pareto", records_csv, "--cost", "flops"], capsys)
        svg_path = tmp_path / "scatter.svg"
        code2, with_svg, _ = run_cli(
            ["pareto", records_csv, "--cost", "flops", "--svg", str(svg_path)],
            capsys)
        assert code == code2 == 0
        assert without_svg == with_svg
        svg = svg_path.read_text()
        assert svg.startswith("<?xml")
        assert svg.count("<circle") == 11
        assert "<polyline" in svg

    @pytest.mark.parametrize("name, column", [("R&D<1>", "flops"), ("m", "a<b")])
    def test_svg_is_well_formed_xml(self, tmp_path, capsys, name, column):
        p = tmp_path / "r.csv"
        p.write_text(f"name,quality,{column}\n{name},1.0,2.0\nother,2.0,3.0\n")
        svg_path = tmp_path / "scatter.svg"
        code, _, _ = run_cli(["pareto", str(p), "--cost", column,
                              "--svg", str(svg_path)], capsys)
        assert code == 0
        doc = minidom.parse(str(svg_path))
        titles = [t.firstChild.data for t in doc.getElementsByTagName("title")]
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert titles == [name, "other"]
        assert column in texts

    @pytest.mark.parametrize("qualities, costs, mid", [
        (("-1e308", "1e308", "0"), ("1", "2", "3"), "240.00"),
        (("-1.7976931348623157e308", "1.7976931348623157e308", "0"),
         ("0", "1.7976931348623157e308", "5e-324"), "240.00"),
        (("0", "5e-324", "0"), ("0", "5e-324", "5e-324"), "424.00"),
    ], ids=["quality_span_overflows", "both_spans_at_the_limit", "subnormal_spans"])
    def test_svg_coordinates_stay_on_the_canvas(self, tmp_path, capsys, qualities,
                                                costs, mid):
        p = tmp_path / "r.csv"
        p.write_text("name,quality,params\n" + "".join(
            f"{n},{q},{c}\n" for n, q, c in zip("abc", qualities, costs)))
        svg_path = tmp_path / "scatter.svg"
        code, _, _ = run_cli(["pareto", str(p), "--cost", "params",
                              "--svg", str(svg_path)], capsys)
        assert code == 0
        circles = minidom.parse(str(svg_path)).getElementsByTagName("circle")
        xs = [float(c.getAttribute("cx")) for c in circles]
        ys = [float(c.getAttribute("cy")) for c in circles]
        margin = 56.0
        assert all(margin <= x <= cli.SVG_WIDTH - margin for x in xs)
        assert all(margin <= y <= cli.SVG_HEIGHT - margin for y in ys)
        assert (min(ys), max(ys)) == (margin, cli.SVG_HEIGHT - margin)
        assert circles[2].getAttribute("cy") == mid

    @pytest.mark.parametrize("source, cost", [
        ("depth_width_scaling", "params"),
        ("depth_width_scaling", "flops"),
        ("depth_width_scaling", "latency"),
        # the one column every tie-heavy row carries
        ("tie_heavy", "energy"),
        # equal-cost frontier rows out of name order (z before a, y before b),
        # and under throughput a -0 and a 0 that tie
        ("equal_cost", "params"),
        ("equal_cost", "throughput"),
    ])
    def test_golden_stdout_and_svg(self, records_csv, tmp_path, capsys, source, cost):
        path = {"depth_width_scaling": records_csv,
                "tie_heavy": str(GOLDEN / "compare_tie_heavy.csv"),
                "equal_cost": str(GOLDEN / "pareto_equal_cost.csv")}[source]
        svg_path = tmp_path / "scatter.svg"
        code, out, err = run_cli(
            ["pareto", path, "--cost", cost, "--svg", str(svg_path)], capsys)
        golden = GOLDEN / f"pareto_{source}_{cost}"
        assert (code, out, err) == (
            0, golden.with_suffix(".txt").read_text(encoding="utf-8"), "")
        assert svg_path.read_bytes() == golden.with_suffix(".svg").read_bytes()

    def test_tie_heavy_rows_without_the_cost_are_named(self, tmp_path, capsys):
        svg_path = tmp_path / "scatter.svg"
        code, out, err = run_cli(
            ["pareto", str(GOLDEN / "compare_tie_heavy.csv"), "--cost", "params",
             "--svg", str(svg_path)], capsys)
        assert (code, out, err) == (
            2, "", '{"error": "records missing cost indicator \'params\': m39, m46"}\n')
        assert not svg_path.exists()

    # A lone surrogate or a null byte reaches only a library caller of main.
    @pytest.mark.parametrize("where", ["missing/scatter.svg", ".", "x\ud800.svg",
                                       "x\x00.svg"])
    def test_unwritable_svg_path_exits_2(self, records_csv, tmp_path, capsys, where):
        target = str(tmp_path / where)
        code, out, err = run_cli(
            ["pareto", records_csv, "--cost", "flops", "--svg", target], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["file"] == target
        assert payload["error"].startswith(f"cannot write {target}: ")


class TestLibraryReader:
    def test_cli_reads_records_with_the_library_reader(self):
        assert cli.read_records_csv is analysis.read_records is read_records

    @pytest.mark.parametrize("content", [
        "name,quality,params,flops\na,-1.0,2,-0.5\nb,2.0,3,1\n",
        "name,quality,params\na,1.0,nan\nb,2.0,3\n",
        "name,quality,params\na,1.0,1e400\nb,2.0,3\n",
        "name,quality,params\n\na,1.0,2\nb,2.0,3\na,3.0,4\n",
        "name,quality,params\na,1.0,fast\nb,2.0,3\n",
        None,
    ], ids=["negative", "nan", "overflow", "duplicate", "not_numeric", "missing"])
    def test_refusal_is_the_cli_payload(self, tmp_path, capsys, content):
        p = tmp_path / "r.csv"
        if content is not None:
            p.write_text(content)
        with pytest.raises(InputFileError) as info:
            read_records(str(p))
        assert isinstance(info.value, ValueError)
        code, out, err = run_cli(["compare", "--records", str(p)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": str(info.value), **info.value.detail}

    def test_every_bad_cell_names_its_column(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("name,quality,params\na,1.0,fast\nb,2.0,3\n")
        with pytest.raises(InputFileError) as info:
            read_records(str(p))
        assert info.value.detail == {"file": str(p), "line": 2, "column": "params"}


class TestUnwritableStdout:
    """A stdout that refuses the output ends in exit 2 and one JSON line."""

    @pytest.fixture(params=["profile", "compare", "pareto"])
    def argv(self, request, vit16, records_csv):
        # No hardware, so a run that succeeds also warns on stderr.
        return {"profile": ["profile", vit16],
                "compare": ["compare", "--records", records_csv],
                "pareto": ["pareto", records_csv, "--cost", "flops"]}[request.param]

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    def test_broken_pipe_in_process(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", self.ClosedPipe())
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err) == {"error": "cannot write stdout: [Errno 32] Broken pipe"}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self, argv):
        # Buffered, as by default: the write then fails only when flushed.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "costlens", *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env={**env, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr) == {
            "error": "cannot write stdout: [Errno 28] No space left on device"}

    @pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX shell")
    def test_closed_before_start_up(self, argv):
        # Python then sets sys.stdout to None.
        command = shlex.join([sys.executable, "-m", "costlens", *argv])
        proc = subprocess.run(["sh", "-c", command + " >&-"], stderr=subprocess.PIPE,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr) == {
            "error": "cannot write stdout: [Errno 9] Bad file descriptor"}


class TestUnwritableStderr:
    """A stderr that cannot be written loses its lines; the run keeps its
    exit code and its stdout."""

    @pytest.fixture(params=["refusal", "warned_success", "too_few_models"])
    def run(self, request, vit16, tmp_path):
        """The arguments and exit code of a run that writes to stderr."""
        return {"refusal": (["profile", str(tmp_path / "missing.json")], 2),
                "warned_success": (["profile", vit16, "--format", "json"], 0),  # no hardware
                "too_few_models": (["compare", vit16], 1)}[request.param]

    @pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX shell")
    # Closed before start-up, so Python sets sys.stderr to None; or open
    # read-only, so every write fails.
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])
    def test_exit_code_and_stdout_kept(self, run, redirect, capsys):
        argv, code = run
        assert main(argv) == code
        out = capsys.readouterr().out
        command = shlex.join([sys.executable, "-m", "costlens", *argv])
        proc = subprocess.run(["sh", "-c", f"{command} {redirect}"],
                              stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert (proc.returncode, proc.stdout) == (code, out)


class TestUnencodableStdout:
    """Output that the stdout encoding cannot hold ends in exit 2, an empty
    stdout and one JSON line, as any other stdout that refuses it."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        (tmp_path / "u.csv").write_text("name,quality,params\ncafé,1,1\nb,2,2\n",
                                        encoding="utf-8")
        with data_file("specs/vit_b16.json") as p:
            doc = json.loads(Path(p).read_text(encoding="utf-8"))
        (tmp_path / "cafe.json").write_text(json.dumps({**doc, "name": "café"}))
        # a lone surrogate, legal as a JSON escape, encodes in no codec
        (tmp_path / "surrogate.json").write_text(json.dumps({**doc, "name": "x\ud800"}))
        return tmp_path

    def run(self, argv, cwd, encoding):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": encoding}
        return subprocess.run([sys.executable, "-m", "costlens", *argv], cwd=cwd,
                              capture_output=True, env=env)

    @pytest.mark.parametrize("encoding, argv", [
        ("ascii", ["compare", "--records", "u.csv"]),
        ("ascii", ["pareto", "u.csv", "--cost", "params"]),
        ("ascii", ["profile", "cafe.json"]),
        ("utf-8", ["profile", "surrogate.json"]),
        ("utf-8", ["profile", "surrogate.json", "--format", "csv"]),
        ("utf-8", ["compare", "surrogate.json", "cafe.json"]),
    ])
    def test_exit_2_with_one_json_line(self, inputs, encoding, argv):
        proc = self.run(argv, inputs, encoding)
        assert (proc.returncode, proc.stdout) == (2, b"")
        error = json.loads(proc.stderr)["error"]
        assert len(proc.stderr.splitlines()) == 1
        assert error.startswith(f"cannot write stdout: '{encoding}' codec can't encode")


INDICATORS = ("params", "flops", "latency", "throughput", "activation", "mac",
              "memory", "carbon", "cost")


def distinct_records_csv(path: Path, n: int) -> str:
    """``n`` records whose nine indicator columns are independent
    permutations of 1..n, so about half of all pairs are inverted under
    every indicator pair."""
    rng = random.Random(n)
    columns = [rng.sample(range(1, n + 1), n) for _ in INDICATORS]
    path.write_text("name,quality," + ",".join(INDICATORS) + "\n" + "".join(
        f"m{i:04d},{i % 7},{','.join(str(c[i]) for c in columns)}\n" for i in range(n)))
    return str(path)


def awkward_records_csv(path: Path, n: int) -> str:
    """``distinct_records_csv``'s values under names and indicator names that
    hold runs of NULs, every code point to U+00FF, format markers, quotes
    and line breaks, quoted by the csv module where they need it."""
    latin1 = "".join(map(chr, range(1, 0x100)))
    pieces = ["\0", "\0\0\0", "%s", "{}", '"', "'", "\n", "\r\n", latin1, " on "]
    rng = random.Random(n)
    columns = [f"{pieces[k]}c{k}{pieces[-1 - k]}" for k in range(4)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "quality", *columns])
        order = [rng.sample(range(n), n) for _ in columns]
        writer.writerows([f"{pieces[i % 10]}m{i}{pieces[i * 3 % 10]}", i % 5,
                          *(c[i] for c in order)] for i in range(n))
    return str(path)


#: Runs the command line on its arguments and prints its own peak RSS
#: (VmHWM, in kB) on stderr. The child reads it itself because a child's
#: ``ru_maxrss`` also counts the parent's pages it held until ``exec``.
PEAK_RSS_CHILD = """
import sys
from costlens.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(l.split()[1] for l in fh if l.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


class TestStreamedCompare:
    """``compare`` writes its report one listed row per write; a stdout cut
    short ends in exit 2 and one JSON line, and memory follows the records."""

    class PipeClosedAfter(io.StringIO):
        """A stdout that takes ``accepted`` writes, then refuses every one."""

        def __init__(self, accepted):
            super().__init__()
            self.accepted = accepted

        def write(self, text):
            if self.accepted == 0:
                raise BrokenPipeError(32, "Broken pipe")
            self.accepted -= 1
            return super().write(text)

    def test_writes_are_bounded_slices(self, tmp_path, monkeypatch):
        """Head, then each listed row in one write of 1 to n - 1 lines for
        n records, then tail; on distinct values, and on names and
        indicators holding NULs, every code point to U+00FF, format
        markers, quotes and line breaks."""

        def listing_writes(path):
            writes = []
            monkeypatch.setattr(sys, "stdout", io.StringIO())
            monkeypatch.setattr(sys.stdout, "write", writes.append)
            assert main(["compare", "--records", path]) == 0
            head, *listing, tail = writes
            assert head.startswith("name ") and head.endswith("costlier under the second):\n")
            assert tail.startswith("pareto instability")
            report = misnomer_report(read_records(path))
            lines = iter(f"  {a} < {b} on {x} but {a} > {b} on {y}\n"
                         for a, b, x, y in report.inverted_pairs)
            assert listing == ["".join(islice(lines, row[3]))
                               for l in report._listings for row in l.rows]
            assert next(lines, None) is None
            return listing

        n = 40
        assert all(0 < len(w.splitlines()) < n
                   for w in listing_writes(distinct_records_csv(tmp_path / "r.csv", n)))
        listing_writes(awkward_records_csv(tmp_path / "awkward.csv", n))

    def test_broken_pipe_after_some_writes(self, tmp_path, monkeypatch, capsys):
        path = distinct_records_csv(tmp_path / "r.csv", 60)
        code, full, _ = run_cli(["compare", "--records", path], capsys)
        assert code == 0
        stdout = self.PipeClosedAfter(3)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["compare", "--records", path])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "cannot write stdout: [Errno 32] Broken pipe"}
        assert 0 < len(stdout.getvalue()) < len(full)
        assert full.startswith(stdout.getvalue())

    def test_reader_closes_early(self, tmp_path):
        path = distinct_records_csv(tmp_path / "r.csv", 120)  # about 5 MB of stdout
        proc = subprocess.Popen([sys.executable, "-m", "costlens", "compare", "--records",
                                 path], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": str(SRC)})
        try:
            assert proc.stdout.read(4096).startswith(b"name ")
            proc.stdout.close()
            err = proc.stderr.read().decode()
        finally:
            proc.stderr.close()
            code = proc.wait(timeout=60)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "cannot write stdout: [Errno 32] Broken pipe"}

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_memory_follows_records_not_pairs(self, tmp_path):
        """600 records list about 3.2M inverted pairs, 176 MB of text; the
        report held whole took about 730 MB of peak RSS."""
        path = distinct_records_csv(tmp_path / "r.csv", 600)
        out = tmp_path / "out.txt"
        try:
            with open(out, "wb") as fh:
                proc = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, "compare",
                                       "--records", path], stdout=fh, stderr=subprocess.PIPE,
                                      text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
            assert proc.returncode == 0
            assert out.stat().st_size > 150e6
            with open(out, "rb") as fh:
                assert fh.read(5) == b"name "
                fh.seek(-65536, os.SEEK_END)
                tail = fh.read()
            assert tail.endswith(b"\n") and b"\npareto instability (" in tail
        finally:
            out.unlink(missing_ok=True)
        assert int(proc.stderr) < 64 * 1024  # kB: the child's peak RSS under 64 MB


def builder_flags() -> dict:
    """Option string -> action of each builder flag of ``costlens profile``."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    group = next(g for g in sub.choices["profile"]._action_groups
                 if g.title.startswith("builder flags"))
    return {a.option_strings[0]: a for a in group._group_actions}


class TestParser:
    def test_builder_flags_are_the_builder_arguments(self):
        flags = builder_flags()
        family = flags.pop("--family")
        assert family.choices == list(BUILDER_ARGS)
        assert {a.dest for a in flags.values()} \
            == {name for args in BUILDER_ARGS.values() for name in args}
        for flag, action in flags.items():
            assert flag == ("--layers" if action.dest == "layers_per_stack"
                            else "--" + action.dest.replace("_", "-"))
        assert tuple(flags["--arrangement"].choices) == ARRANGEMENTS
        # The spellings and their order are the command line's public surface.
        assert list(flags) == [
            "--patch", "--depth", "--model-dim", "--num-heads", "--ffn-dim",
            "--image", "--classes", "--steps", "--num-experts",
            "--experts-per-token", "--moe-every", "--arrangement", "--layers",
            "--heads", "--vocab", "--input-len", "--output-len"]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv, message", [
        (["profile", "--family", "vit", "--patch", "x"],
         "costlens profile: argument --patch: invalid int value: 'x'"),
        (["compare", "--max-pairs", "x"],
         "costlens compare: argument --max-pairs: invalid int value: 'x'"),
        ([], "costlens: the following arguments are required: command"),
    ], ids=["profile-flag", "compare-flag", "no-command"])
    def test_usage_errors_are_one_json_line(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": message}

    def test_one_parse_per_call(self, vit16, records_csv, monkeypatch, capsys):
        """A line naming a command is parsed by that command's sub-parser
        alone, not by the full parser and then the sub-parser."""
        parsed = []
        real = argparse.ArgumentParser.parse_known_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda self, *a, **k: parsed.append(self.prog) or real(self, *a, **k))
        for argv in (["profile", vit16], ["compare", "--records", records_csv],
                     ["pareto", records_csv, "--cost", "flops"]):
            parsed.clear()
            assert run_cli(argv, capsys)[0] == 0
            assert parsed == [f"costlens {argv[0]}"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: costlens profile")

    def test_commands_are_looked_up_at_call_time(self, vit16, monkeypatch, capsys):
        assert run_cli(["profile", vit16], capsys)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_profile", lambda args: seen.append(args.spec) or 7)
        assert main(["profile", vit16]) == 7
        assert seen == [vit16]

    def test_in_process_calls_repeat_byte_for_byte(self, vit16, capsys):
        argv = ["profile", vit16, "--hw", "tpu_like", "--format", "json"]
        first = run_cli(argv, capsys)
        assert run_cli(["profile", "--family", "vit", "--patch", "16", "--depth", "1",
                        "--model-dim", "64", "--num-heads", "4", "--ffn-dim", "128",
                        "--batch", "7"], capsys)[0] == 0
        assert run_cli(argv, capsys) == first


class TestErrorLine:
    """The error line is ``str(exc)`` joined by ``exc.detail``, which only
    ``InputFileError`` and ``InvalidSpecError`` carry."""

    def test_invalid_spec_error_prints_its_violations(self, monkeypatch, capsys):
        def refuse(args):
            ensure_valid(ArchSpec("x", TokenSequence(4, 10), (Repeat((), times=2),)))

        monkeypatch.setattr(cli, "cmd_profile", refuse)
        code, out, err = run_cli(["profile", "x.json"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "invalid architecture: layers[0]: Repeat body is empty",
            "violations": [["layers[0]", "Repeat body is empty"]]}

    def test_value_errors_are_the_two_refusals(self):
        """The package's ``ValueError`` classes; of them, only the two file and
        architecture refusals carry a ``detail``."""
        found = set()
        for info in pkgutil.iter_modules(costlens.__path__, "costlens."):
            if info.name == "costlens.__main__":  # runs main() when imported
                continue
            module = importlib.import_module(info.name)
            found |= {obj for obj in vars(module).values() if isinstance(obj, type)
                      and issubclass(obj, ValueError) and obj.__module__ == info.name}
        assert found == {InputFileError, InvalidSpecError, CoverageError}
        examples = [InputFileError("x"), InvalidSpecError([]), CoverageError("x")]
        assert [type(e) for e in examples if hasattr(e, "detail")] == [InputFileError,
                                                                       InvalidSpecError]


class TestDeterminism:
    def run_twice(self, argv):
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "costlens", *argv],
                capture_output=True,
            )
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        return runs

    def test_profile_byte_identical(self, vit16):
        a, b = self.run_twice(["profile", vit16, "--hw", "default",
                               "--format", "json"])
        assert a == b
        assert a[0] == 0

    def test_compare_byte_identical(self, records_csv):
        a, b = self.run_twice(["compare", "--records", records_csv])
        assert a == b

    def test_pareto_and_svg_byte_identical(self, records_csv, tmp_path):
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        a = self.run_twice(["pareto", records_csv, "--cost", "flops",
                            "--svg", str(svg1)])[0]
        b = self.run_twice(["pareto", records_csv, "--cost", "flops",
                            "--svg", str(svg2)])[0]
        assert a == b
        assert svg1.read_bytes() == svg2.read_bytes()
