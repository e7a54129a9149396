"""The input contract, end to end through ``costlens.cli.main``.

Every input the command line reads (spec files with a builder reference
or an inline architecture, records CSV, hardware, energy and pricing
JSON, ``--batch``) ends one of two ways: exit 0 with only finite numbers
on stdout, or exit 2 with exactly one JSON line on stderr. Never a
traceback, and always within a time bound. Valid documents are mutated:
a value replaced by one of the wrong kind or out of range, a key or an
element dropped. Each input the contract once let through, or that once
ended in a traceback, is an explicit example.

The drift guard at the end sets every number and flag field of every
input dataclass to a value of the wrong kind and expects a refusal, so a
field added later cannot bypass the field rule. A library caller is held
to the same rule: an argument of the wrong kind is a ``ValueError`` that
names it, never Python's own ``AttributeError`` or ``TypeError``.
"""

import argparse
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import re
import sys
import time
import typing
from itertools import chain

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import costlens
from costlens import (
    ArchSpec,
    Attention,
    ClassifierHead,
    Dense,
    EnergyProfile,
    FeedForward,
    HardwareModel,
    Image,
    LayerNorm,
    LmConfig,
    MoE,
    ModelRecord,
    Parallel,
    PatchEmbed,
    PricingProfile,
    Repeat,
    TokenEmbedding,
    TokenSequence,
    VitConfig,
    carbon_footprint,
    compute_profile,
    derive_sequence_length,
    estimate_latency,
    build_from_reference,
    build_lm,
    build_moe_transformer,
    build_universal_transformer,
    build_vit,
    from_json,
    load_hardware,
    misnomer_report,
    monetary_cost,
    pareto_frontier,
    rank_disagreement,
    read_records,
    read_spec_file,
    record_from_profile,
    spec_from_dict,
    spec_to_dict,
    to_json,
    validate,
)
from costlens import cli
from costlens.archlib import MoeConfig, UtConfig
from costlens.archspec import _reading, field_errors, from_document
from costlens.cli import main
from costlens.trace import evaluate

from support import LEAF_KINDS, document_required_fields, oracle_validate

# Fixed profile: the same examples on every run, so Tier-1 stays
# deterministic.
CONTRACT = settings(max_examples=150, derandomize=True, deadline=None,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Wall-clock bound for one command, far above the milliseconds a valid
#: small input takes.
TIME_BOUND_S = 10.0

# Values a mutation puts in place of a valid one: wrong kinds, out of
# range, non-finite, past the 64-bit and the float range.
ODD_VALUES = [
    True, False, None, 0, -1, 1, 2, 1.9, 2.0, -0.0, 1e308, 5e-324,
    math.nan, math.inf, -math.inf, 2**64, 10**400, "x", "2", "1e12", "NaN",
    "Infinity", "", [], [1], {}, {"kind": "dense"},
]

# Cell texts for records CSV mutations.
ODD_CELLS = ["", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "1_0",
             "0x10", " 5 ", "True", "1e-320", "1,2"]
NAMES = ["", "a", "D6", "W768", "b c", "Q"]

_VIT = {"family": "vit", "patch": 16, "depth": 2, "model_dim": 64, "num_heads": 4,
        "ffn_dim": 128, "image": [64, 64, 3], "classes": 10}
_DENSE = {"kind": "dense", "in_dim": 8, "out_dim": 8}
_TOKENS = {"kind": "token_sequence", "length": 8, "vocab": 10}
_FFN = {"kind": "feed_forward", "model_dim": 8, "hidden_dim": 16}
_MOE = {"kind": "moe", "expert": _FFN, "num_experts": 2, "experts_per_token": 1,
        "router_dim": 8}
_HW = {"peak_flops_per_sec": 1e12, "mem_bandwidth_bytes_per_sec": 1e11,
       "per_op_overhead_sec": 1e-6, "num_devices": 1, "length_pad_multiple": 8}


def tokens(layers, batch=None, **input_fields):
    doc = {"schema_version": 1,
           "arch": {"input": {**_TOKENS, **input_fields}, "layers": layers}}
    if batch is not None:
        doc["batch"] = batch
    return doc


SPECS = [
    {"schema_version": 1, "name": "v", "builder": _VIT, "hardware": "tpu_like",
     "batch": 2},
    {"schema_version": 1, "builder": {**_VIT, "family": "universal_transformer",
                                      "steps": 3}},
    {"schema_version": 1, "builder": {**_VIT, "family": "moe", "num_experts": 4,
                                      "experts_per_token": 2, "moe_every": 1}},
    {"schema_version": 1, "builder": {
        "family": "lm", "arrangement": "encoder_decoder", "layers_per_stack": 2,
        "model_dim": 64, "ffn_dim": 128, "heads": 4, "vocab": 100,
        "input_len": 16, "output_len": 16}},
    {"schema_version": 1, "hardware": _HW, "batch": 3, "arch": {
        "name": "t", "element_bytes": 2, "input": _TOKENS, "layers": [
            {"kind": "token_embedding", "vocab": 10, "embed_dim": 8,
             "tied_output": False},
            {"kind": "repeat", "times": 3, "share_params": True, "body": [
                {"kind": "layer_norm", "model_dim": 8},
                {"kind": "attention", "model_dim": 8, "qkv_dim": 8, "num_heads": 2,
                 "is_causal": True, "cross_attention": False},
                {"kind": "parallel", "branches": [[_FFN], [_DENSE]]},
                {**_MOE, "expert": {"kind": "repeat", "times": 2, "body": [_FFN]}},
            ]},
            {"kind": "classifier_head", "model_dim": 8, "classes": 4}]}},
    {"schema_version": 1, "arch": {
        "input": {"kind": "image", "height": 8, "width": 8, "channels": 3},
        "layers": [{"kind": "patch_embed", "patch": 4, "in_channels": 3,
                    "embed_dim": 8, "add_cls_token": True, "positional": True},
                   {**_DENSE, "bias": False}]}},
]

NESTED_700 = ('{"schema_version": 1, "arch": {"input": ' + json.dumps(_TOKENS)
              + ', "layers": [' + '{"kind": "repeat", "times": 1, "body": [' * 700
              + json.dumps(_DENSE) + "]}" * 700 + "]}}")
OVERFLOWING = tokens([{"kind": "repeat", "times": 2**63 - 1, "body": [
    {"kind": "dense", "in_dim": 100_000, "out_dim": 100_000}]}])


def _slots(doc):
    """(container, key) of every value inside ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in list(items):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated(draw, bases):
    """A deep copy of one base document with one to three values replaced
    by odd ones or dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.integers(0, 4)) == 0:
            del container[key]
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < TIME_BOUND_S, argv
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"non-finite {name} on stdout")


def _assert_finite(value):
    if isinstance(value, dict):
        for v in value.values():
            _assert_finite(v)
    elif isinstance(value, float):
        assert math.isfinite(value)


# Python prints a non-finite float as inf, -inf or nan. Names in these
# tests never spell those words in lower case.
NON_FINITE_TEXT = re.compile(r"(?<![\w.])-?(inf|nan)(?![\w.])")


def assert_contract(code, out, err, *, json_out=False, insufficiency_ok=False):
    """Exit 0 with only finite numbers on stdout, or exit 2 (1 where the
    command reports too few comparable models) with one JSON line on
    stderr and nothing on stdout."""
    assert "Traceback" not in err
    if code == 0:
        if json_out:
            _assert_finite(json.loads(out, parse_constant=_refuse_constant))
        else:
            assert not NON_FINITE_TEXT.search(out), out
        return
    assert code == 2 or (insufficiency_ok and code == 1), (code, err)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert isinstance(json.loads(lines[0])["error"], str)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def write_json(path, doc):
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# Spec files, profiled and compared


@CONTRACT
@given(doc=mutated(SPECS),
       command=st.sampled_from(["profile", "compare"]),
       batch=st.sampled_from([None, "0", "-3", "1", "7", str(2**64)]))
@example(doc=tokens([_DENSE], length=True), command="profile", batch=None)
@example(doc=tokens([_DENSE], vocab=True), command="profile", batch=None)
@example(doc={"schema_version": 1, "arch": {
    "input": {"kind": "image", "height": True, "width": 8, "channels": 3},
    "layers": [{"kind": "patch_embed", "patch": 1, "in_channels": 3,
                "embed_dim": 8}]}}, command="profile", batch=None)
@example(doc={"schema_version": 1, "arch": {
    "input": _TOKENS, "layers": [_DENSE], "element_bytes": True}},
    command="profile", batch=None)
@example(doc=tokens([{**_MOE, "num_experts": True}]), command="profile", batch=None)
@example(doc=tokens([{**_MOE, "router_dim": True}]), command="profile", batch=None)
@example(doc=tokens([{**_DENSE, "bias": "no"}]), command="profile", batch=None)
@example(doc=tokens([{**_DENSE, "bias": 0}]), command="profile", batch=None)
@example(doc=tokens([_DENSE], batch=True), command="profile", batch=None)
@example(doc=SPECS[0], command="profile", batch="0")
@example(doc=SPECS[0], command="compare", batch="0")
@example(doc={"schema_version": 1, "arch": {"input": [1], "layers": []}},
         command="profile", batch=None)
@example(doc=tokens([{"kind": "patch_embed", "patch": 2, "in_channels": 3,
                      "embed_dim": 8}]), command="profile", batch=None)
@example(doc=tokens([{**_MOE, "expert": {"kind": "parallel", "branches": [[]]}}]),
         command="profile", batch=None)
@example(doc=NESTED_700, command="profile", batch=None)
@example(doc='{"schema_version":1,"arch":' + "[" * 100_000, command="profile",
         batch=None)
@example(doc=OVERFLOWING, command="compare", batch=None)
@example(doc=SPECS[0], command="compare", batch="-3")
@example(doc=tokens([]), command="profile", batch=None)
@example(doc={"schema_version": 1, "arch": {
    "input": _TOKENS, "layers": [_DENSE], "elment_bytes": 2}},
    command="profile", batch=None)
@example(doc=tokens([_DENSE], lenght=4096), command="profile", batch=None)
@example(doc={**SPECS[0], "name": 5}, command="profile", batch=None)
@example(doc={"schema_version": 1, "arch": {
    "name": 5, "input": _TOKENS, "layers": [_DENSE]}}, command="compare", batch=None)
@example(doc={"schema_version": 1, "builder": {**_VIT, "family": "moe",
                                               "depth": 2**64, "num_experts": 2,
                                               "experts_per_token": 1}},
         command="profile", batch=None)
def test_spec_file_meets_contract(workdir, doc, command, batch):
    path = write_json(workdir / "spec.json", doc)
    argv = ["profile", path, "--format", "json"] if command == "profile" \
        else ["compare", path, path]
    if batch is not None:
        argv += ["--batch", batch]
    code, out, err = run(argv)
    assert_contract(code, out, err, json_out=command == "profile")


def test_named_inputs_are_refused(workdir):
    """The inputs above that older versions accepted or crashed on are
    refused, not merely free of a traceback."""
    refused = [
        tokens([_DENSE], length=True), tokens([{**_DENSE, "bias": "no"}]),
        tokens([{**_MOE, "num_experts": True}]), tokens([_DENSE], batch=True),
        tokens([{"kind": "patch_embed", "patch": 2, "in_channels": 3,
                 "embed_dim": 8}]),
        tokens([{**_MOE, "expert": {"kind": "parallel", "branches": [[]]}}]),
        NESTED_700,
    ]
    for i, doc in enumerate(refused):
        path = write_json(workdir / f"refused{i}.json", doc)
        assert run(["profile", path])[0] == 2, doc
    vit = write_json(workdir / "vit.json", SPECS[0])
    assert run(["profile", vit, "--batch", "0"])[0] == 2
    assert run(["compare", vit, vit, "--batch", "0"])[0] == 2


# ---------------------------------------------------------------------------
# Hardware, energy and pricing documents

ENERGY = {"ee_train_kwh": 100.0, "ee_inference_kwh": 0.001, "queries": 1e6,
          "co2e_per_kwh": 0.4}
PRICING = {"total_train_hours": 100, "num_chips": 64, "price_per_chip_hour": 2.0}
RATE_DOCS = [
    {"hw": _HW, "energy": ENERGY, "pricing": PRICING},
    {"hw": {**_HW, "length_pad_multiple": None, "name": "x", "notes": "n"},
     "energy": {"ee_train_kwh": 1, "co2e_per_kwh": 0}, "pricing": PRICING},
]


# A misspelled key used to be dropped: no inference term, no padding.
QUERIE = {"ee_train_kwh": 1.0, "ee_inference_kwh": 1e-3, "querie": 1e9,
          "co2e_per_kwh": 0.5}
PAD_MULTPLE = {**{k: v for k, v in _HW.items() if k != "length_pad_multiple"},
               "length_pad_multple": 8}


def rates(**changes):
    return {"hw": dict(_HW), "energy": dict(ENERGY), "pricing": dict(PRICING),
            **changes}


@CONTRACT
@given(docs=mutated(RATE_DOCS))
@example(docs=rates(hw={**_HW, "num_devices": 1.9}))
@example(docs=rates(hw={**_HW, "num_devices": "2"}))
@example(docs=rates(hw={**_HW, "length_pad_multiple": -5}))
@example(docs=rates(hw={**_HW, "length_pad_multiple": True}))
@example(docs=rates(hw={**_HW, "peak_flops_per_sec": True}))
@example(docs=rates(hw={**_HW, "peak_flops_per_sec": None}))
@example(docs=rates(hw=[1]))
@example(docs=rates(energy=[1]))
@example(docs=rates(pricing=[1]))
@example(docs=rates(energy={"ee_train_kwh": None, "co2e_per_kwh": None}))
@example(docs=rates(hw={**_HW, "peak_flops_per_sec": 5e-324}))
@example(docs=rates(energy={**ENERGY, "queries": 1e308, "ee_inference_kwh": 1e308}))
@example(docs=rates(energy=QUERIE))
@example(docs=rates(hw=PAD_MULTPLE))
@example(docs=rates(hw={**_HW, "name": 5}))
def test_rate_files_meet_contract(workdir, docs):
    spec = write_json(workdir / "rates_spec.json", SPECS[0])
    argv = ["profile", spec, "--format", "json"]
    for flag in ("hw", "energy", "pricing"):
        if flag in docs:
            argv += [f"--{flag}", write_json(workdir / f"{flag}.json", docs[flag])]
    code, out, err = run(argv)
    assert_contract(code, out, err, json_out=True)


def test_named_rate_inputs_are_refused(workdir):
    spec = write_json(workdir / "rates_spec.json", SPECS[0])
    for flag, doc in [("hw", {**_HW, "num_devices": 1.9}),
                      ("hw", {**_HW, "length_pad_multiple": -5}),
                      ("hw", {**_HW, "peak_flops_per_sec": True}),
                      ("hw", [1]), ("energy", [1]), ("pricing", [1]),
                      ("energy", {"ee_train_kwh": None, "co2e_per_kwh": None})]:
        path = write_json(workdir / "refused_rates.json", doc)
        assert run(["profile", spec, f"--{flag}", path])[0] == 2, (flag, doc)


@pytest.mark.parametrize("flag, doc, field", [("hw", _HW, "peak_flops_per_sec"),
                                              ("energy", ENERGY, "ee_train_kwh"),
                                              ("pricing", PRICING, "total_train_hours"),
                                              ("inline", _HW, "peak_flops_per_sec")],
                         ids=["hw", "energy", "pricing", "inline_hw"])
def test_deeply_nested_rate_value_is_refused(workdir, flag, doc, field):
    """A value nested just short of the parser's limit is read, and the repr
    in its refusal once ran out of stack: a traceback, or an error naming
    no file. Each depth around the recursion limit names the file and
    echoes the value at most once; an inline hardware object (``inline``:
    the spec file's own ``hardware``) is named, not echoed."""
    spec = write_json(workdir / "rates_spec.json", SPECS[0])
    template = json.dumps({**doc, field: "@"})
    if flag == "inline":
        template = json.dumps({**SPECS[0], "hardware": "@"}).replace('"@"', template)
    limit = sys.getrecursionlimit()
    for depth in range(limit - 150, limit + 11):
        path = write_json(workdir / f"nested_{flag}.json",
                          template.replace('"@"', "[" * depth + "]" * depth))
        argv = ["profile", path] if flag == "inline" else ["profile", spec, f"--{flag}", path]
        code, out, err = run(argv)
        assert_contract(code, out, err)
        error = json.loads(err)
        assert code == 2 and error["file"] == path, depth
        assert "recursion" not in error["error"], depth
        assert error["error"].count("[" * depth) <= 1, depth


# ---------------------------------------------------------------------------
# Records CSV

RECORDS = [
    ["name", "family", "quality", "params", "flops", "latency"],
    ["D6", "depth", "37.5", "18.89", "0.61", "0.09"],
    ["D8", "depth", "42.4", "22.44", "", "0.11"],
    ["W768", "width", "34.4", "9.47", "0.31", "0.11"],
    ["W1024", "width", "45.2", "24.81", "0.92", "0.16"],
]


@st.composite
def records_text(draw):
    rows = [list(r) for r in RECORDS]
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        action = draw(st.integers(0, 5))
        if action == 0 and len(rows) > 1:
            del rows[r]
        elif action == 1 and rows[r]:
            del rows[r][draw(st.integers(0, len(rows[r]) - 1))]
        elif action == 2:
            rows.append(list(rows[r]))
        elif rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            column = RECORDS[0][c] if c < len(RECORDS[0]) else ""
            pool = NAMES if column in ("name", "family") or r == 0 else ODD_CELLS
            rows[r][c] = draw(st.sampled_from(pool))
    return "".join(",".join(row) + "\n" for row in rows)


@CONTRACT
@given(text=records_text(), command=st.sampled_from(["compare", "pareto"]))
@example(text="name,quality,params\na,1.0,inf\nb,2.0,3\n", command="compare")
@example(text="name,quality,params\na,nan,1\nb,2.0,3\n", command="pareto")
@example(text="name,quality,params\na,1,1e400\nb,2.0,3\n", command="compare")
@example(text="name,quality,params\na,1.0,1_0\nb,2.0,3\n", command="compare")
@example(text="name,quality,params,params\na,1.0,2,30\nb,2.0,3,4\n", command="compare")
@example(text="name,quality,params,\na,1.0,2,\nb,2.0,3,\n", command="compare")
@example(text="name,quality,params\na,1.0,\udcff\udcfe\nb,2.0,3\n", command="compare")
@example(text="name,quality,params\n\na,1.0,x\nb,2.0,3\n", command="compare")
@example(text="name,quality,params\na,1.0,-2\nb,2.0,3\n", command="pareto")
def test_records_file_meets_contract(workdir, text, command):
    path = workdir / "records.csv"
    # Lone surrogates stand for bytes that are not UTF-8.
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = ["compare", "--records", str(path)] if command == "compare" \
        else ["pareto", str(path), "--cost", "params"]
    code, out, err = run(argv)
    assert_contract(code, out, err, insufficiency_ok=True)


# ---------------------------------------------------------------------------
# The document rule: every key of a document is a field of its class, every
# field without a default is present, and every name is a string

_IMAGE = {"kind": "image", "height": 8, "width": 8, "channels": 3}
_PATCH = {"kind": "patch_embed", "patch": 4, "in_channels": 3, "embed_dim": 8,
          "add_cls_token": True, "positional": True}
LAYER_DOCS = {
    PatchEmbed: _PATCH,
    Attention: {"kind": "attention", "model_dim": 8, "qkv_dim": 8, "num_heads": 2,
                "is_causal": False, "cross_attention": False},
    FeedForward: _FFN,
    LayerNorm: {"kind": "layer_norm", "model_dim": 8},
    Dense: {**_DENSE, "bias": True},
    TokenEmbedding: {"kind": "token_embedding", "vocab": 10, "embed_dim": 8,
                     "tied_output": True},
    ClassifierHead: {"kind": "classifier_head", "model_dim": 8, "classes": 4},
    MoE: _MOE,
    Repeat: {"kind": "repeat", "body": [_DENSE], "times": 2, "share_params": False},
    Parallel: {"kind": "parallel", "branches": [[_DENSE], [_FFN]]},
}


def _arch(layer):
    inp = _IMAGE if layer["kind"] == "patch_embed" else _TOKENS
    return {"schema_version": 1, "arch": {"input": inp, "layers": [layer]}}


# (class, a complete valid document, where it goes: a spec file built
# around it, or the CLI flag that reads it next to SPECS[0])
DOCUMENTS = [
    (ArchSpec, {"name": "a", "input": _TOKENS, "layers": [_DENSE], "metadata": {},
                "element_bytes": 4}, lambda doc: {"schema_version": 1, "arch": doc}),
    (Image, _IMAGE, lambda doc: {"schema_version": 1, "arch": {
        "input": doc, "layers": [_PATCH]}}),
    (TokenSequence, _TOKENS, lambda doc: {"schema_version": 1, "arch": {
        "input": doc, "layers": [_DENSE]}}),
    *[(cls, doc, _arch) for cls, doc in LAYER_DOCS.items()],
    (HardwareModel, {**_HW, "name": "h", "notes": "n"}, "--hw"),
    (EnergyProfile, ENERGY, "--energy"),
    (PricingProfile, PRICING, "--pricing"),
]


def _str_fields(cls):
    hints = typing.get_type_hints(cls)
    return [f.name for f in dataclasses.fields(cls) if RULED.get(hints[f.name]) is str]


def run_document(workdir, place, doc):
    if isinstance(place, str):
        argv = ["profile", write_json(workdir / "doc_spec.json", SPECS[0]),
                place, write_json(workdir / "doc.json", doc)]
    else:
        argv = ["profile", write_json(workdir / "doc_spec.json", place(doc))]
    return run(argv + ["--format", "json"])


def assert_refused(result, *named):
    code, out, err = result
    assert_contract(code, out, err)
    assert code == 2, err
    error = json.loads(err)["error"]
    assert all(name in error for name in named), (named, error)
    return error


def test_every_document_class_is_covered():
    covered = {cls for cls, _, _ in DOCUMENTS}
    assert set(LEAF_KINDS) | {MoE, Repeat, Parallel} <= covered
    assert {Image, TokenSequence, ArchSpec, HardwareModel, EnergyProfile,
            PricingProfile} <= covered
    for cls, doc, _ in DOCUMENTS:
        assert set(doc) - {"kind"} == {f.name for f in dataclasses.fields(cls)}, cls


@pytest.mark.parametrize("cls, doc, place", DOCUMENTS,
                         ids=[cls.__name__ for cls, _, _ in DOCUMENTS])
def test_document_rule(workdir, cls, doc, place):
    code, _, err = run_document(workdir, place, doc)
    assert code == 0, err
    assert_refused(run_document(workdir, place, {**doc, "zz_unknown": 1}),
                   "unknown field 'zz_unknown'")
    for name in sorted(document_required_fields(cls)):
        dropped = {k: v for k, v in doc.items() if k != name}
        assert_refused(run_document(workdir, place, dropped), f"missing field {name!r}")
    for name in _str_fields(cls):
        assert_refused(run_document(workdir, place, {**doc, name: 5}),
                       f"{name} must be a string")


def test_named_document_inputs_are_refused(workdir):
    """Each of these once exited 0 with a wrong answer."""
    spec = write_json(workdir / "named_spec.json", SPECS[0])
    for flag, doc, key in [("--energy", QUERIE, "'querie'"),
                           ("--hw", PAD_MULTPLE, "'length_pad_multple'"),
                           ("--hw", {**_HW, "name": 5}, "name must be a string")]:
        path = write_json(workdir / "named.json", doc)
        assert_refused(run(["profile", spec, flag, path]), key)
    for doc, key in [
        ({"schema_version": 1, "arch": {"input": _TOKENS, "layers": [_DENSE],
                                        "elment_bytes": 2}}, "'elment_bytes'"),
        (tokens([_DENSE], lenght=4096), "'lenght'"),
        (tokens([{"kind": "repeat", "times": 2, "body": [{**_DENSE, "bais": False}]}]),
         "'bais'"),
        ({**SPECS[0], "name": 5}, "name must be a string"),
        ({**SPECS[0], "hardwre": "tpu_like"}, "'hardwre'"),
        ({**SPECS[0], "builder": [list(item) for item in _VIT.items()]},
         "builder must be an object"),
        ({**SPECS[0], "schema_version": True}, "unsupported schema_version True"),
        ({**SPECS[0], "schema_version": 1.0}, "unsupported schema_version 1.0"),
        ({**SPECS[4], "arch": {**SPECS[4]["arch"], "schema_version": True}},
         "unsupported schema_version True"),
    ]:
        path = write_json(workdir / "named.json", doc)
        assert_refused(run(["profile", path]), key)
    assert_refused(run(["profile", spec, "--hw", "../specs/vit_b16"]),
                   "no hardware preset or file named '../specs/vit_b16'")
    records = workdir / "named.csv"
    records.write_text("name,quality,params\na,1.0,1_0\nb,2.0,3\n")
    assert_refused(run(["compare", "--records", str(records)]),
                   "named.csv:2:", "'1_0'")


# ---------------------------------------------------------------------------
# Bounded refusals: a refused value is echoed cut short

#: A 1 MB refused value: one byte per character, and characters that the
#: JSON error line escapes to 12 bytes each.
HUGE_VALUES = ["x" * 10**6, "\U0001F600" * 250_000]

#: Where the value goes: (the spec file, or the flag and its document, holding
#: it; the field its refusal names).
ECHOED = {
    "spec_batch": (lambda v: {**SPECS[0], "batch": v}, None, "batch"),
    "spec_schema_version": (lambda v: {**SPECS[0], "schema_version": v}, None,
                            "schema_version"),
    "builder_depth": (lambda v: {**SPECS[0], "builder": {**_VIT, "depth": v}}, None,
                      "depth"),
    "dense_in_dim": (lambda v: tokens([{**_DENSE, "in_dim": v}]), None, "in_dim"),
    "hardware": (lambda v: {**_HW, "peak_flops_per_sec": v}, "--hw", "peak_flops_per_sec"),
    "energy": (lambda v: {**ENERGY, "ee_train_kwh": v}, "--energy", "ee_train_kwh"),
    "pricing": (lambda v: {**PRICING, "total_train_hours": v}, "--pricing",
                "total_train_hours"),
}


@pytest.mark.parametrize("value", HUGE_VALUES, ids=["ascii", "escaped"])
@pytest.mark.parametrize("place", ECHOED)
def test_huge_refused_value_gives_a_short_error_line(workdir, place, value):
    """Each refusal once echoed the whole value: a 1 MB string gave an
    error line of 1 MB or more (2 MB for a layer field, which is in
    ``error`` and in ``violations``)."""
    make, flag, name = ECHOED[place]
    argv = ["profile", write_json(workdir / "huge.json", make(value))]
    if flag is not None:
        argv[1:] = [write_json(workdir / "huge_spec.json", SPECS[0]), flag, argv[1]]
    code, out, err = run(argv)
    error = assert_refused((code, out, err), name)
    assert len(err.encode()) < 4096, len(err.encode())
    assert error.endswith("...")
    assert all(name in message for _, message in json.loads(err).get("violations", []))


#: Flags that argparse refuses before costlens reads them: (the command
#: line, what the refusal says). Each once echoed the whole value: 100,071
#: bytes for a 100,000-character ``--depth``, 6,146 for a 5,000-digit
#: ``--max-pairs`` (past Python's digit limit, so read as no integer).
FLAG_VALUES = {
    "depth": (["profile", "--family", "vit", "--depth", "x" * 100_000],
              "argument --depth: invalid int value: 'xxx"),
    "batch": (["profile", "--batch", "x" * 100_000], "argument --batch: invalid int value"),
    "family": (["profile", "--family", "x" * 100_000],
               "argument --family: invalid choice: 'xxx"),
    "max_pairs": (["compare", "--max-pairs", "1" * 5_000],
                  "argument --max-pairs: invalid int value: '111"),
    "command": (["x" * 100_000], "argument command: invalid choice: 'xxx"),
}


@pytest.mark.parametrize("place", FLAG_VALUES)
def test_huge_flag_value_gives_a_short_error_line(place):
    argv, says = FLAG_VALUES[place]
    code, out, err = run(argv)
    error = assert_refused((code, out, err), says)
    assert len(err.encode()) < 4096, len(err.encode())
    assert error.count("...") == 1


#: Text that costlens does not format, echoed whole before ``main`` cut
#: ``error``: (the command line after the spec file, if one comes first;
#: the path that ``file`` keeps exact, or None). Argparse's list of
#: unrecognized arguments gave an error line of 100,048 bytes; a path too
#: long for the file system, echoed by ``cannot read`` and again by
#: ``OSError``, 300,073 bytes for a spec and 15,073 for a records file.
UNFORMATTED = {
    "unrecognized_argument": (True, ["x" * 100_000], None),
    "spec_path": (False, ["profile", "y" * 100_000], "y" * 100_000),
    "records_path": (False, ["compare", "--records", "z" * 5_000], "z" * 5_000),
}


@pytest.mark.parametrize("place", UNFORMATTED)
def test_long_unformatted_text_gives_a_short_error(workdir, place):
    after_spec, argv, kept = UNFORMATTED[place]
    if after_spec:
        argv = ["profile", write_json(workdir / "spec.json", SPECS[0]), *argv]
    code, out, err = run(argv)
    error = assert_refused((code, out, err))
    assert len(error) < 4096 and error.endswith("..."), len(error)
    assert json.loads(err).get("file") == kept


#: A valid command line of each command, with file names in the work
#: directory: (argv, the index of each file argument, by its name).
COMMAND_LINES = {
    "profile": (["profile", "spec.json", "--hw", "hw.json", "--energy", "energy.json",
                 "--pricing", "pricing.json", "--batch", "2", "--format", "json"],
                {"spec": 1, "--hw": 3, "--energy": 5, "--pricing": 7}),
    "compare": (["compare", "spec.json", "spec2.json", "--hw", "hw.json", "--max-pairs", "3"],
                {"spec": 2, "--hw": 4}),
    "compare_records": (["compare", "--records", "records.csv", "--indicators",
                         "params,flops"], {"records": 2}),
    "pareto": (["pareto", "records.csv", "--cost", "params", "--svg", "out.svg"],
               {"records": 1, "--svg": 5}),
}


@pytest.fixture(scope="module")
def command_lines(workdir):
    """``COMMAND_LINES`` with each file written and named by its full path."""
    for name, doc in {"spec.json": SPECS[0], "spec2.json": SPECS[1], "hw.json": _HW,
                      "energy.json": ENERGY, "pricing.json": PRICING}.items():
        write_json(workdir / name, doc)
    (workdir / "records.csv").write_text("".join(",".join(r) + "\n" for r in RECORDS))
    return {command: ([str(workdir / a) if a.endswith((".json", ".csv", ".svg")) else a
                       for a in argv], places)
            for command, (argv, places) in COMMAND_LINES.items()}


def assert_short_refusal(result):
    error = assert_refused(result)
    assert len(error.encode()) < 4096, len(error.encode())


@pytest.mark.parametrize("command", COMMAND_LINES)
def test_command_lines_run(command_lines, command):
    assert run(command_lines[command][0])[0] == 0


@CONTRACT
@given(command=st.sampled_from(list(COMMAND_LINES)), position=st.integers(0, 12),
       char=st.sampled_from(["x", "-", "0", "\u00e9", "/"]))
def test_long_token_anywhere_gives_a_short_error(command_lines, command, position, char):
    argv = list(command_lines[command][0])
    argv.insert(position % (len(argv) + 1), char * 100_000)
    assert_short_refusal(run(argv))


@CONTRACT
@given(place=st.sampled_from([(c, f) for c, (_, files) in COMMAND_LINES.items()
                              for f in files]),
       unit=st.sampled_from(["y", "y/"]), chars=st.sampled_from([300, 5_000, 100_000]))
def test_long_path_in_each_file_argument_gives_a_short_error(workdir, command_lines, place,
                                                             unit, chars):
    command, argument = place
    argv, places = command_lines[command]
    argv = list(argv)
    argv[places[argument]] = str(workdir / (unit * chars)[:chars])
    assert_short_refusal(run(argv))


#: Tokens that no option takes as they stand: help, an unknown option, a
#: prefix of two options, an option with its value after ``=``, ``--``,
#: unknown commands, numbers and paths.
STRAY_TOKENS = ["-h", "-x", "--he", "--batch=2", "--", "bogus", "PROFILE", "", "7", "-3",
                "1_0", "x.json"]


def _segments(parser) -> list[list[str]]:
    """Each stray token alone, and each option of ``parser`` followed by a
    value it takes: every choice, else an integer or a path."""
    segments = [[token] for token in STRAY_TOKENS]
    for action in parser._actions:
        values = action.choices or (["2"] if action.type is not None else ["x.json"])
        count = action.nargs if isinstance(action.nargs, int) else 1
        for option in action.option_strings:
            segments += [[option]] if count == 0 else [[option, *[v] * count] for v in values]
    return segments


#: Command lines: stray tokens alone, or a command followed by its own
#: options, values and stray tokens.
ARGV = st.one_of(
    st.lists(st.sampled_from(STRAY_TOKENS), max_size=3),
    *(st.lists(st.sampled_from(_segments(sub)), max_size=6).map(
        lambda segments, name=name: [name, *chain.from_iterable(segments)])
      for name, sub in cli.build_parser().commands.items()),
)


def _well_formed(name, sub):
    """Lines of ``name`` made of its options with their values, in any order
    and with repeats, and one run of positionals that the positional takes,
    before, between or after them; every required option is given. Each
    line comes with whether ``main`` reads it from the command's option
    table: when every option takes one value, at most one token is
    positional and no option is required."""
    options = [segment for segment in _segments(sub) if len(segment) > 1]
    required = [a.option_strings for a in sub._actions if a.required and a.option_strings]
    (positional,) = (a for a in sub._actions if not a.option_strings)
    least, most = {None: (1, 1), "?": (0, 1), "*": (0, 3)}[positional.nargs]
    return st.builds(
        lambda segments, run, at: ([name, *chain.from_iterable(segments[:at]), *run,
                                    *chain.from_iterable(segments[at:])],
                                   not required and len(run) <= 1
                                   and all(len(s) == 2 for s in segments)),
        st.lists(st.sampled_from(options), max_size=6).filter(
            lambda segments: all(any(s[0] in flags for s in segments) for flags in required)),
        st.lists(st.sampled_from(["a.json", "b.json", "r.csv"]), min_size=least, max_size=most),
        st.integers(0, 6),
    )


#: Command lines that ``main`` reads as the full parser does, each with
#: whether it is read from the command's option table.
WELL_FORMED = st.one_of(*(_well_formed(name, sub)
                          for name, sub in cli.build_parser().commands.items()))


def _ending(call):
    """How ``call()`` ends: its value, the ``ValueError`` it raises, or the
    exit code and stdout of the help it prints."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "value", call()
    except ValueError as exc:
        return "refused", str(exc)
    except SystemExit as exc:
        return "exited", exc.code, out.getvalue()


@CONTRACT
@given(line=st.one_of(ARGV.map(lambda argv: (argv, None)),
                      WELL_FORMED))
@example(line=(["profile", "ok.json", "--", "-x"], False))
@example(line=(["compare", "--max-pairs", "3", "a.json", "b.json", "--", "--hw"], False))
@example(line=(["compare", "a.json", "--hw", "x", "b.json"], False))
@example(line=(["profile", "a.json", "--batch", "-3"], False))
@example(line=(["profile", "a.json", "--batch=2"], False))
@example(line=(["profile", "a.json", "--form", "json"], False))
@example(line=(["profile", "--family", "vit", "--image", "1", "2"], False))
@example(line=(["pareto", "r.csv"], False))
@example(line=(["compare", "", "--records", "r.csv"], False))
@example(line=(["profile", "a.json", "-h"], False))
@example(line=(["profile", "a.json", "--format", "xml"], False))
@example(line=(["compare", "--records", "r.csv", "--max-pairs", "x"], False))
@example(line=(["profile", "--image", "8", "8", "3", "--family", "vit", "--image", "4", "4", "1"],
               False))
@example(line=(["compare", "--hw", "tpu_like", "a.json", "b.json", "--batch", "2"], False))
@example(line=(["pareto", "r.csv", "--cost", "flops"], False))
def test_main_parses_as_the_full_parser(line):
    """The namespace ``main`` hands to ``cmd_<name>`` has the ``vars`` of the
    full parse of the same line; where the full parse refuses the line or
    prints help, ``main`` does the same with the same text. A well-formed
    line (``True``) is read with no argparse parse, and a line that only
    argparse reads (``False``) is parsed by it."""
    argv, direct = line
    handed, parsed, err = [], [], io.StringIO()
    real = argparse.ArgumentParser.parse_known_args
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        for name in cli.build_parser().commands:
            mp.setattr(cli, f"cmd_{name}", lambda args: handed.append(vars(args)) or 0)
        mp.setattr(argparse.ArgumentParser, "parse_known_args",
                   lambda self, *a, **k: parsed.append(self.prog) or real(self, *a, **k))
        ending = _ending(lambda: main(argv))
    if ending[0] == "value":  # 0 once a namespace is handed on, else 2 and the error line
        ending = ("value", handed[0]) if ending[1] == 0 else (
            "refused", json.loads(err.getvalue())["error"])
    assert ending == _ending(lambda: vars(cli.build_parser().parse_args(argv)))
    if direct is not None:
        assert parsed == ([] if direct else ["costlens", f"costlens {argv[0]}"])


#: Where the value sits mid-message: (the input holding it, a spec file's
#: document or a records CSV's text; what the refusal says; the ``detail``
#: key that keeps the whole value, or None).
ECHOED_WITHIN = {
    "layer_kind": (lambda v: tokens([{"kind": v}]), "unknown layer kind", None),
    "arch_unknown_key": (lambda v: {"schema_version": 1, "arch": {**SPECS[4]["arch"], v: 1}},
                         "unknown field", None),
    "spec_file_unknown_key": (lambda v: {**SPECS[0], v: 1}, "unknown field", None),
    "builder_family": (lambda v: {**SPECS[0], "builder": {**_VIT, "family": v}},
                       "unknown builder family", None),
    "builder_image": (lambda v: {**SPECS[0], "builder": {**_VIT, "image": v}},
                      "image must be three integers >= 1", None),
    "builder_arrangement": (lambda v: {**SPECS[3], "builder": {**SPECS[3]["builder"],
                                                               "arrangement": v}},
                            "arrangement must be", None),
    "hardware_name": (lambda v: {**SPECS[0], "hardware": v},
                      "no hardware preset or file named", None),
    "records_cell": (lambda v: f"name,quality,params\na,1,{v}\nb,2,3\n",
                     "is not numeric", None),
    "records_duplicate_name": (lambda v: f"name,quality,params\n{v},1,2\n{v},2,3\n",
                               "duplicate model name", "model"),
    "records_duplicate_column": (lambda v: f"name,quality,{v},{v}\na,1,2,3\n",
                                 "column names must be unique", "column"),
}

#: Characters of a records CSV's huge value: under the csv module's field
#: limit of 131,072, so the reader hands the cell on.
CELL_CHARS = 131_000


@pytest.mark.parametrize("value", HUGE_VALUES, ids=["ascii", "escaped"])
@pytest.mark.parametrize("place", ECHOED_WITHIN)
def test_huge_value_within_a_refusal_gives_a_short_error(workdir, place, value):
    """Each refusal once echoed the whole value: about 1 MB (2 MB for a
    hardware name, echoed twice) and, in a records file, a line of 131 KB
    or, with the duplicate name also in ``model``, 262 KB. ``detail`` keeps
    the exact text, as programs read it."""
    make, says, kept = ECHOED_WITHIN[place]
    if place.startswith("records"):
        value = value[:CELL_CHARS]
        path = workdir / "huge.csv"
        path.write_text(make(value), encoding="utf-8")
        argv = ["compare", "--records", str(path)]
    else:
        argv = ["profile", write_json(workdir / "huge.json", make(value))]
    result = run(argv)
    error = assert_refused(result, says)
    assert len(json.dumps(error).encode()) < 4096, len(json.dumps(error).encode())
    assert value not in error and "..." in error
    if kept is not None:
        assert json.loads(result[2])[kept] == value


# ---------------------------------------------------------------------------
# Drift guard: every number and flag field of every input dataclass


def _node_spec(node):
    if isinstance(node, PatchEmbed):
        return ArchSpec("x", Image(8, 8, 3), (node,))
    return ArchSpec("x", TokenSequence(4, 10), (node,))


SPEC_NODES = [
    PatchEmbed(2, 3, 8), Attention(8, 8, 2), FeedForward(8, 16), LayerNorm(8),
    Dense(8, 8), TokenEmbedding(10, 8), ClassifierHead(8, 4),
    MoE(FeedForward(8, 16), 2, 1, 8), Repeat((LayerNorm(8),), 2),
    Parallel(((LayerNorm(8),),)),
]
# Each as a valid, minimal instance.
CHECKED_ON_BUILD = [
    HardwareModel(1e12, 1e11, 1e-6, length_pad_multiple=8),
    EnergyProfile(1.0, 0.1, 2.0, 0.5),
    PricingProfile(1.0, 2.0, 3.0),
    VitConfig(16, 2, 64, 4, 128, image=(64, 64, 3)),
    LmConfig("decoder_only", 2, 64, 128, 4, 100),
    UtConfig(16, 2, 64, 4, 128, image=(64, 64, 3), steps=3),
    MoeConfig(16, 2, 64, 4, 128, image=(64, 64, 3), num_experts=4, experts_per_token=2),
]
RULED = {int: int, float: float, bool: bool, str: str,
         int | None: int, float | None: float, bool | None: bool, str | None: str}


def _ruled_fields(cls):
    """(name, kind, optional) of every int, float and bool field, read from
    the annotations independently of the library's own reading."""
    hints = typing.get_type_hints(cls)
    return [(f.name, RULED[hints[f.name]], type(None) in typing.get_args(hints[f.name]))
            for f in dataclasses.fields(cls) if hints[f.name] in RULED]


def _wrong_values(kind, optional):
    values = [True if kind is not bool else 1, "x" if kind is not str else 5]
    return values if optional else values + [None]


#: Exported dataclasses that are results, never read from a document; a
#: ``ModelRecord`` checks its own values (``LIBRARY_LEAKS``).
NOT_DOCUMENTS = {"CostProfile", "FlopCount", "MemoryEstimate", "MisnomerReport",
                 "ModelRecord", "ParamCount", "SpeedEstimate", "ValidationResult",
                 "Violation"}


def test_every_input_class_is_guarded():
    guarded = {type(n) for n in SPEC_NODES} | {type(o) for o in CHECKED_ON_BUILD}
    guarded |= {Image, TokenSequence, ArchSpec}
    assert set(LEAF_KINDS) | {MoE, Repeat, Parallel} <= guarded
    exported = {obj for name, obj in vars(costlens).items() if isinstance(obj, type)
                and dataclasses.is_dataclass(obj) and name not in NOT_DOCUMENTS}
    assert {EnergyProfile, HardwareModel, PricingProfile, VitConfig} <= exported <= guarded


def test_spec_number_and_flag_fields_follow_the_rule():
    holders = [(node, _node_spec) for node in SPEC_NODES] + [
        (Image(8, 8, 3), lambda inp: ArchSpec("x", inp, (PatchEmbed(2, 3, 8),))),
        (TokenSequence(4, 10), lambda inp: ArchSpec("x", inp, ())),
        (ArchSpec("x", TokenSequence(4, 10), ()), lambda spec: spec),
    ]
    checked = 0
    for obj, spec_of in holders:
        assert validate(spec_of(obj)).ok, obj
        for name, kind, optional in _ruled_fields(type(obj)):
            for bad in _wrong_values(kind, optional):
                broken = dataclasses.replace(obj, **{name: bad})
                assert any(name in m for m in field_errors(broken)), (obj, name, bad)
                result = validate(spec_of(broken))
                assert any(name in v.message for v in result.violations), (obj, name, bad)
                assert result.violations == oracle_validate(spec_of(broken))
                checked += 1
    assert checked > 60


class _Count(int):
    pass


#: Values at the edges of the field rule: None, a bool for an int, a float
#: for an int, counts below 1, non-finite and signed-zero floats, an int
#: past 64 bits and an int subclass.
EDGE_VALUES = [None, True, 1, 0, -1, 1.0, math.nan, math.inf, -0.0, 2**64, _Count(3)]


def test_compiled_check_agrees_with_field_errors():
    """Each class's compiled pass/fail check says exactly what the rule
    loop of ``field_errors`` says, field by field, on the edge values."""
    holders = [*SPEC_NODES, *CHECKED_ON_BUILD, Image(8, 8, 3), TokenSequence(4, 10),
               ArchSpec("x", TokenSequence(4, 10), ())]
    checked = 0
    for obj in holders:
        check = _reading(type(obj)).check
        assert check(obj) and not field_errors(obj), obj
        for name, kind, optional in _ruled_fields(type(obj)):
            for value in EDGE_VALUES + _wrong_values(kind, optional):
                odd = copy.copy(obj)
                object.__setattr__(odd, name, value)  # past any __post_init__ check
                assert check(odd) == (not field_errors(odd)), (obj, name, value)
                checked += 1
    assert checked > 300


def test_built_number_and_flag_fields_follow_the_rule():
    for obj in CHECKED_ON_BUILD:
        fields = _ruled_fields(type(obj))
        assert fields, obj
        for name, kind, optional in fields:
            for bad in _wrong_values(kind, optional):
                with pytest.raises(ValueError, match=name):
                    dataclasses.replace(obj, **{name: bad})


def test_integers_are_stored_as_floats_and_huge_ones_refused():
    hw = from_document(HardwareModel, {"peak_flops_per_sec": 10**12,
                                       "mem_bandwidth_bytes_per_sec": 10**11,
                                       "per_op_overhead_sec": 0})
    assert [type(v) for v in (hw.peak_flops_per_sec, hw.per_op_overhead_sec)] \
        == [float, float]
    assert str(PricingProfile(168, 64, 2).num_chips) == "64.0"
    with pytest.raises(ValueError, match="finite"):
        PricingProfile(10**400, 1, 1)
    with pytest.raises(ValueError, match="finite"):
        from_document(HardwareModel, {"peak_flops_per_sec": "1e12",
                                      "mem_bandwidth_bytes_per_sec": 1e11,
                                      "per_op_overhead_sec": 0})


_SMALL = ArchSpec("t", TokenSequence(4, 10), (Dense(8, 8),))
_HW_DOC = {"peak_flops_per_sec": 1}  # a document, not a HardwareModel
_RECORDS = [ModelRecord("a", {"params": 1.0, "flops": 2.0}),
            ModelRecord("b", {"params": 2.0, "flops": 1.0})]


def _nested_arch(levels):
    """An architecture document whose one layer is ``levels`` Repeats deep,
    built without recursion. The reader recurses about five frames a level,
    so from a fresh interpreter 198 levels already pass the stack."""
    layer = _DENSE
    for _ in range(levels):
        layer = {"kind": "repeat", "times": 1, "body": [layer]}
    return {"schema_version": 1, "input": _TOKENS, "layers": [layer]}


def _nested_arch_text(levels):
    """``_nested_arch(levels)`` as JSON text, written without recursion."""
    return ('{"schema_version": 1, "input": ' + json.dumps(_TOKENS) + ', "layers": ['
            + '{"kind": "repeat", "times": 1, "body": [' * levels + json.dumps(_DENSE)
            + "]}" * levels + "]}")


def _repeat_chain(levels):
    layer = Dense(8, 8)
    for _ in range(levels):
        layer = Repeat((layer,), times=1)
    return ArchSpec("deep", TokenSequence(4, 10), (layer,))


#: Library calls with one argument of the wrong kind: (call, the name, or
#: the whole message, the refusal must carry).
LIBRARY_LEAKS = {
    "profile_hardware": (lambda: compute_profile(_SMALL, 1, _HW_DOC),
                         "hardware must be a HardwareModel, got {'peak_flops_per_sec': 1}"),
    "latency_hardware": (lambda: estimate_latency(_SMALL, _HW_DOC),
                         "hardware must be a HardwareModel, got {'peak_flops_per_sec': 1}"),
    "latency_spec": (lambda: estimate_latency(5, load_hardware("default")), "not an ArchSpec"),
    "profile_spec_with_hardware": (lambda: compute_profile(5, 1, load_hardware("default")),
                                   "not an ArchSpec"),
    "profile_energy":(lambda: compute_profile(_SMALL, 1, load_hardware("default"),
                                               energy={}),
                       "energy must be an EnergyProfile, got {}"),
    "profile_pricing": (lambda: compute_profile(_SMALL, 1, pricing={}),
                        "pricing must be a PricingProfile, got {}"),
    "carbon_energy": (lambda: carbon_footprint({}), "energy must be an EnergyProfile, got {}"),
    "monetary_pricing": (lambda: monetary_cost({}), "pricing must be a PricingProfile, got {}"),
    "profile_optimizer": (lambda: compute_profile(_SMALL, 1, None, "adam"),
                          "optimizer must be an OptimizerKind, got 'adam'"),
    "record_quality": (lambda: ModelRecord("a", {"params": 1.0}, quality="x"), "quality"),
    "record_indicator": (lambda: ModelRecord("a", {"params": "1"}), "'params'"),
    "record_bool_quality": (lambda: ModelRecord("a", {"params": 1.0}, quality=False),
                            "record 'a': quality must be finite"),
    "record_bool_indicator": (lambda: ModelRecord("a", {"params": True}),
                              "record 'a': indicator 'params' must be finite"),
    "record_huge_quality": (lambda: ModelRecord("a", {"params": 1.0}, quality=10**400),
                            "record 'a': quality must be finite"),
    "record_huge_indicator": (lambda: ModelRecord("a", {"params": 10**400}),
                              "record 'a': indicator 'params' must be finite"),
    "record_indicators_str": (lambda: ModelRecord("a", "params"),
                              "indicators must be an object, got 'params'"),
    "record_indicator_name": (lambda: ModelRecord("a", {1: 1.0}),
                              "record 'a': indicator name must be a string, got 1"),
    "build_vit_cfg": (lambda: build_vit({}), "cfg must be a VitConfig, got {}"),
    "build_ut_cfg": (lambda: build_universal_transformer({}),
                     "cfg must be an UtConfig, got {}"),
    "build_moe_cfg": (lambda: build_moe_transformer(None),
                      "cfg must be a MoeConfig, got None"),
    "build_lm_cfg": (lambda: build_lm({}), "cfg must be a LmConfig, got {}"),
    "sequence_length_input": (lambda: derive_sequence_length({}, 16, True),
                              "inp must be an Image or a TokenSequence, got {}"),
    "sequence_length_str_height": (lambda: derive_sequence_length(Image("a", 224, 3), 16, True),
                                   "inp.height must be an integer >= 1, got 'a'"),
    "sequence_length_float_height": (
        lambda: derive_sequence_length(Image(224.0, 224, 3), 16, True),
        "inp.height must be an integer >= 1, got 224.0"),
    "sequence_length_zero_extent": (lambda: derive_sequence_length(Image(0, 0, 3), 16, True),
                                    "inp.height must be an integer >= 1, got 0"),
    "sequence_length_str_length": (lambda: derive_sequence_length(TokenSequence("x", 5), 16,
                                                                  True),
                                   "inp.length must be an integer >= 1, got 'x'"),
    "sequence_length_str_add_cls": (
        lambda: derive_sequence_length(Image(224, 224, 3), 16, "yes"),
        "add_cls must be true or false, got 'yes'"),
    "spec_to_dict_spec": (lambda: spec_to_dict(5), "spec must be an ArchSpec, got 5"),
    "to_json_spec": (lambda: to_json(5), "spec must be an ArchSpec, got 5"),
    "to_json_metadata": (lambda: to_json(ArchSpec("x", TokenSequence(4, 10), (),
                                                  metadata={"a": {1, 2}})),
                         "metadata cannot be written as JSON"),
    "spec_to_dict_metadata": (lambda: spec_to_dict(ArchSpec("x", TokenSequence(4, 10), (),
                                                            metadata={"a": {1, 2}})),
                              "metadata cannot be written as JSON"),
    "to_json_nan_metadata": (
        lambda: to_json(ArchSpec("x", TokenSequence(4, 4), (Dense(4, 4),),
                                 metadata={"a": float("nan")})),
        "spec cannot be written as JSON: it holds a NaN or an infinity"),
    "to_json_nan_field": (lambda: to_json(ArchSpec("x", TokenSequence(4, 4),
                                                   (Dense(float("nan"), 4),))),
                          "spec cannot be written as JSON: it holds a NaN or an infinity"),
    "from_json_text": (lambda: from_json(5), "text must be a str"),
    "record_from_profile_dict": (lambda: record_from_profile(5),
                                 "profile_dict must be an object, got 5"),
    "record_from_profile_no_name": (lambda: record_from_profile({}),
                                    "profile_dict: missing field 'name'"),
    "from_json_too_deep": (lambda: from_json("[" * 100000 + "]" * 100000),
                           "JSON nested too deeply"),
    "reference_not_object": (lambda: build_from_reference("vit", 5),
                             "bad arguments for builder 'vit': expected a JSON object, got int"),
    "evaluate_pad_str": (lambda: evaluate(_SMALL, "x"),
                         "pad_multiple must be an integer >= 1, got 'x'"),
    "evaluate_pad_fraction": (lambda: evaluate(_SMALL, 2.5, lambda s: s.seq_len),
                              "pad_multiple must be an integer >= 1, got 2.5"),
    "evaluate_pad_bool": (lambda: evaluate(_SMALL, True),
                          "pad_multiple must be an integer >= 1, got True"),
    "evaluate_pad_zero": (lambda: evaluate(_SMALL, 0),
                          "pad_multiple must be an integer >= 1, got 0"),
    "report_max_pairs": (lambda: misnomer_report(_RECORDS, max_pairs="x"),
                         "max_pairs must be an integer >= 0, got 'x'"),
    "report_bool_max_pairs": (lambda: misnomer_report(_RECORDS, max_pairs=True),
                              "max_pairs must be an integer >= 0, got True"),
    "report_records_int": (lambda: misnomer_report(5),
                           "records must be an iterable of ModelRecord"),
    "report_records_ints": (lambda: misnomer_report([1, 2]),
                            "records must be an iterable of ModelRecord"),
    "disagreement_records_int": (lambda: rank_disagreement(5, "a", "b"),
                                 "records must be an iterable of ModelRecord"),
    "frontier_records_int": (lambda: pareto_frontier(5),
                             "records must be an iterable of ModelRecord"),
    "frontier_records_ints": (lambda: pareto_frontier([1]),
                              "records must be an iterable of ModelRecord"),
    "spec_from_dict_300_deep": (lambda: spec_from_dict(_nested_arch(300)),
                                "architecture nested too deeply"),
    "spec_from_dict_600_deep": (lambda: spec_from_dict(_nested_arch(600)),
                                "architecture nested too deeply"),
    "from_json_300_deep": (lambda: from_json(_nested_arch_text(300)), "nested too deeply"),
    "from_json_600_deep": (lambda: from_json(_nested_arch_text(600)), "nested too deeply"),
    "to_json_2000_deep": (lambda: to_json(_repeat_chain(2000)),
                          "architecture nested too deeply"),
    "profile_batch_past_the_digit_limit": (lambda: compute_profile(_SMALL, batch=-10**5000),
                                           "batch must be an integer >= 1, got <int>"),
    "report_max_pairs_past_the_digit_limit": (
        lambda: misnomer_report(_RECORDS, max_pairs=-10**5000),
        "max_pairs must be an integer >= 0, got <int>"),
    "frontier_cost_key_list": (lambda: pareto_frontier(_RECORDS, cost_key=[]),
                               "cost_key must be a string, got []"),
    "disagreement_indicator_list": (lambda: rank_disagreement(_RECORDS, [], "flops"),
                                    "indicator_a must be a string, got []"),
    "disagreement_indicator_int": (lambda: rank_disagreement(_RECORDS, 5, "flops"),
                                   "indicator_a must be a string, got 5"),
    "disagreement_indicator_b_none": (lambda: rank_disagreement(_RECORDS, "params", None),
                                      "indicator_b must be a string, got None"),
    "record_name_int": (lambda: ModelRecord(5, {"params": 1.0}),
                        "name must be a string, got 5"),
    "record_name_list": (lambda: ModelRecord([], {"params": 1.0}),
                         "name must be a string, got []"),
    "record_from_profile_str_value": (
        lambda: record_from_profile({"name": "x", "params": "a"}),
        "record 'x': indicator 'params' must be finite"),
    "record_from_profile_list_value": (
        lambda: record_from_profile({"name": "x", "params": [1]}),
        "record 'x': indicator 'params' must be finite"),
    "record_from_profile_bool_value": (
        lambda: record_from_profile({"name": "x", "flops": True}),
        "record 'x': indicator 'flops' must be finite"),
    "record_from_profile_name": (lambda: record_from_profile({"name": 5, "params": 1}),
                                 "name must be a string, got 5"),
}


@pytest.mark.parametrize("call, name", LIBRARY_LEAKS.values(), ids=LIBRARY_LEAKS.keys())
def test_library_refuses_arguments_of_the_wrong_kind(call, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        call()


def test_file_readers_refuse_what_is_not_a_path(tmp_path):
    """An integer or a bool would be opened as a file descriptor, and closed."""
    fd = os.open(tmp_path / "held", os.O_RDONLY | os.O_CREAT)
    try:
        for reader, name in ((read_records, "path"), (read_spec_file, "path"),
                             (load_hardware, "name_or_path")):
            for value in (fd, True, None):
                with pytest.raises(ValueError, match=f"^{name} must be a str or a "
                                                     f"PathLike, got {value!r}$"):
                    reader(value)
        os.fstat(fd)
    finally:
        os.close(fd)
    doc = {"peak_flops_per_sec": 1e12, "mem_bandwidth_bytes_per_sec": 1e11,
           "per_op_overhead_sec": 0, "name": "file"}
    (tmp_path / "hw.json").write_text(json.dumps(doc))
    assert load_hardware(tmp_path / "hw.json").name == "file"
