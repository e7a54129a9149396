"""Refused inputs and analysis-level refusals, pinned byte for byte.

``tests/golden/refusals.txt`` holds the exit code, stdout and stderr of
``costlens`` on each command line below, run from a directory holding the
files below, so every path in the output is relative. The library's spec
file reader refuses each spec file here with the same payload.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import costlens
from costlens import cli

from support import data_file

GOLDEN = Path(__file__).resolve().parent / "golden" / "refusals.txt"

_VIT = {"family": "vit", "patch": 16, "depth": 2, "model_dim": 64, "num_heads": 4,
        "ffn_dim": 128, "image": [64, 64, 3], "classes": 10}
_TOKENS = {"kind": "token_sequence", "length": 8, "vocab": 10}
_DENSE = {"kind": "dense", "in_dim": 8, "out_dim": 8}


def spec(**fields) -> str:
    return json.dumps({"schema_version": 1, **fields})


def nested_repeats(depth: int) -> dict:
    layer = _DENSE
    for _ in range(depth):
        layer = {"kind": "repeat", "times": 1, "body": [layer]}
    return {"input": _TOKENS, "layers": [layer]}


#: File name -> content of each refused spec file; ``None`` is not written.
REFUSED_SPECS = {
    "missing.json": None,
    "malformed_crlf.json": b'{"schema_version": 1,\r\n "name": }\r\n',
    "malformed_utf8.json": '{"name": "\u00e9\u00e9\u00e9", "x": }',
    "nested_json.json": "[" * 100_000 + "]" * 100_000,
    "latin1.json": b'{"schema_version": 1, "name": "caf\xe9"}',
    "list.json": "[1, 2]",
    "version.json": json.dumps({"schema_version": 2, "builder": _VIT}),
    "both.json": spec(builder=_VIT, arch=nested_repeats(0)),
    "neither.json": spec(name="n"),
    "unknown_keys.json": spec(builder=_VIT, hw="tpu_like", extra=1),
    "batch.json": spec(builder=_VIT, batch=0),
    "batch_null.json": spec(builder=_VIT, batch=None),
    "name.json": spec(builder=_VIT, name=5),
    "no_family.json": spec(builder={k: v for k, v in _VIT.items() if k != "family"}),
    "bad_family.json": spec(builder={**_VIT, "family": "resnet"}),
    "bad_argument.json": spec(builder={**_VIT, "depth": 0}),
    "unknown_argument.json": spec(builder={**_VIT, "steps": 7, "moe_every": 2}),
    "missing_argument.json": spec(builder={"family": "moe", "patch": 16, "steps": 7}),
    "image_text.json": spec(builder={**_VIT, "image": "abc"}),
    "image_int.json": spec(builder={**_VIT, "image": 5}),
    "image_pair.json": spec(builder={**_VIT, "image": [1, 2]}),
    "bad_layer.json": spec(arch={"input": _TOKENS, "layers": [{"kind": "conv"}]}),
    "nested_arch.json": spec(arch=nested_repeats(400)),
    "invalid.json": spec(arch={
        "input": {"kind": "image", "height": 8, "width": 8, "channels": 3},
        "layers": [{"kind": "patch_embed", "patch": 3, "in_channels": 4, "embed_dim": 8,
                    "add_cls_token": True, "positional": True}]}),
    "inner_name.json": spec(name="ok", arch={**nested_repeats(0), "name": 5}),
    "preset.json": spec(builder=_VIT, hardware="warp_drive"),
    "inline_hw.json": spec(builder=_VIT, hardware={
        "peak_flops_per_sec": -1, "mem_bandwidth_bytes_per_sec": 1e11,
        "per_op_overhead_sec": 1e-6, "num_devices": 1}),
    "beside_hw.json": spec(builder=_VIT, hardware="hw_malformed.json"),
    "hardware_null.json": spec(builder=_VIT, hardware=None),
}

#: Spec files refused for their bytes, profiled after every other command.
BYTE_REFUSED_SPECS = {
    # 0xE9 at byte 10,007, past the first 8,192 bytes a buffered read takes.
    "late_latin1.json": b'{"schema_version": 1, "notes": "' + b"x" * 9960
                        + b'", "name": "caf\xe9"}',
    "empty.json": b"",
}

#: The other files the command lines read.
FILES = {
    "ok.json": spec(builder=_VIT),
    "hw_malformed.json": '{"name": "x",',
    "hw_neg.json": json.dumps({"peak_flops_per_sec": -1, "mem_bandwidth_bytes_per_sec": 1e11,
                               "per_op_overhead_sec": 1e-6, "num_devices": 1}),
    "energy_malformed.json": '{"ee_train_kwh": 1,\n',
    "energy_list.json": "[1]",
    "energy_negative.json": json.dumps({"ee_train_kwh": -1, "ee_inference_kwh": 0,
                                        "queries": 0, "co2e_per_kwh": 0.4}),
    "pricing_missing_field.json": json.dumps({"total_train_hours": 1, "num_chips": 1}),
    "two.csv": "name,quality,params,flops\na,1,1,\nb,2,,2\n",
    "nocost.csv": "name,quality,params,flops\na,1,1,1\nb,2,2,\n",
    "malformed_bom.json": b'\xef\xbb\xbf{"a": }',
}

#: A complete builder command line for the vit family.
_VIT_FLAGS = ["profile", "--family", "vit", "--patch", "16", "--depth", "2",
              "--model-dim", "64", "--num-heads", "4", "--ffn-dim", "128"]

#: A batch past the 64-bit range of the indicator arithmetic.
_HUGE_BATCH = str(10 ** 30)

COMMANDS = [
    *(["profile", name] for name in REFUSED_SPECS),
    ["profile", "."],
    ["profile", "ok.json", "--batch", "0"],
    ["profile", "ok.json", "--hw", "warp_drive"],
    ["profile", "ok.json", "--hw", "hw_malformed.json"],
    ["profile", "ok.json", "--hw", "hw_neg.json"],
    ["profile", "ok.json", "--energy", "energy_missing.json"],
    ["profile", "ok.json", "--energy", "energy_malformed.json"],
    ["profile", "ok.json", "--energy", "energy_list.json"],
    ["profile", "ok.json", "--energy", "energy_negative.json"],
    ["profile", "ok.json", "--pricing", "pricing_missing_field.json"],
    ["profile"],
    ["profile", "--family", "vit", "--patch", "5", "--depth", "2", "--model-dim", "64",
     "--num-heads", "4", "--ffn-dim", "128"],
    ["profile", "--family", "lm", "--layers", "2"],
    ["compare", "ok.json", "invalid.json"],
    ["compare", "ok.json", "ok.json", "--hw", "warp_drive"],
    ["compare", "ok.json"],
    ["compare", "--records", "two.csv", "--indicators", "params"],
    ["pareto", "nocost.csv", "--cost", "flops"],
    ["profile", "ok.json", "--batch", _HUGE_BATCH, "--hw", "tpu_like"],
    ["compare", "ok.json", "ok.json", "--batch", _HUGE_BATCH],
    ["profile", "--family", "moe", "--patch", "16"],
    ["profile", "ok.json", "--depth", "40"],
    ["profile", "ok.json", "--family", "lm", "--layers", "2"],
    [*_VIT_FLAGS, "--steps", "7"],
    [*_VIT_FLAGS, "--num-experts", "4", "--steps", "7"],
    ["profile", "--family", "universal_transformer", "--vocab", "7", "--layers", "9"],
    # Integer flags read a numeral as a records cell does: no 1_0, no "８".
    ["profile", "ok.json", "--batch", "1_0"],
    ["profile", "ok.json", "--batch", "\uff18"],
    ["compare", "ok.json", "ok.json", "--batch", "\uff18"],
    ["compare", "--records", "two.csv", "--max-pairs", "1_0"],
    ["profile", "--family", "vit", "--depth", "\uff12"],
    [*_VIT_FLAGS, "--image", "64", "6_4", "3"],
    # Usage errors, on the full parse and on a command's own sub-parser.
    [],
    ["bogus"],
    ["PROFILE", "ok.json"],
    ["profile", "ok.json", "extra"],
    ["profile", "ok.json", "a", "b"],
    ["--", "profile", "ok.json"],
    ["pareto"],
    ["compare", "--records"],
    ["profile", "ok.json", "--format", "json", "-x"],
    ["profile", "--he"],
    # The byte-order mark is skipped, and the offset still counts its 3 bytes.
    ["profile", "malformed_bom.json"],
    *(["profile", name] for name in BYTE_REFUSED_SPECS),
]


@pytest.fixture()
def fixture_dir(tmp_path, monkeypatch):
    for name, content in {**REFUSED_SPECS, **BYTE_REFUSED_SPECS, **FILES}.items():
        if isinstance(content, str):
            (tmp_path / name).write_text(content, encoding="utf-8")
        elif content is not None:
            (tmp_path / name).write_bytes(content)
    monkeypatch.chdir(tmp_path)


def refusals(capsys) -> str:
    """Exit code, stdout and stderr of each command, under a ``== <argv> ==`` line."""
    out = []
    for argv in COMMANDS:
        code = cli.main(argv)
        captured = capsys.readouterr()
        out.append(f"== {' '.join(argv)} ==\nexit {code}\n"
                   f"stdout:\n{captured.out}stderr:\n{captured.err}")
    return "".join(out)


def test_golden_refusals(fixture_dir, capsys):
    assert refusals(capsys) == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", [*REFUSED_SPECS, *BYTE_REFUSED_SPECS])
def test_library_reader_refuses_as_the_cli(fixture_dir, capsys, name):
    with pytest.raises(costlens.InputFileError) as info:
        costlens.read_spec_file(name)
    assert isinstance(info.value, ValueError)
    assert cli.main(["profile", name]) == 2
    assert json.loads(capsys.readouterr().err) \
        == {"error": str(info.value), **info.value.detail}


@pytest.mark.parametrize("name", ["vit_b8", "vit_b16", "vit_b32", "vit_b64"])
def test_library_reader_reads_shipped_specs(name):
    assert cli.load_spec_file is costlens.read_spec_file
    with data_file(f"specs/{name}.json") as path:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        read = costlens.read_spec_file(path)
    builder = dict(doc["builder"])
    built = costlens.build_from_reference(builder.pop("family"), builder)
    assert read == (dataclasses.replace(built, name=doc["name"]), None, None)
