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
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, NamedTuple, Union, get_args, get_origin, get_type_hints

UINT64_MAX = 2**64 - 1

#: Repeat/Parallel nesting deeper than this is rejected by validate().
#: Keeps every recursive walker comfortably inside the interpreter stack.
MAX_NESTING = 32

SCHEMA_VERSION = 1


class InvalidSpecError(ValueError):
    """Raised by cost operations when handed a spec that fails validation;
    ``detail`` holds its ``violations`` as ``[path, message]`` lists."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        pairs = [[v.path, v.message] for v in self.violations]
        super().__init__("invalid architecture: " + "; ".join(f"{p}: {m}" for p, m in pairs))
        self.detail = {"violations": pairs}


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


_LAYER_TAGS = {  # every layer kind: the ``kind`` tag of its JSON document
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

LayerSpec = Union[tuple(_LAYER_TAGS)]


@dataclass(frozen=True)
class ArchSpec:
    """A named architecture: input signature plus an ordered layer tree.

    ``element_bytes`` is the activation/parameter element width used by
    every byte-denominated estimate (default 4, i.e. 32-bit values).
    """

    name: str = field(metadata={"document_default": "unnamed"})
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


# One rule for every number, flag and name of an input dataclass, read
# from the field annotations: ``int`` is a count (an integer >= 1),
# ``float`` a rate (a finite number >= 0, integers admitted), ``bool`` a
# flag, ``str`` a name, ``dict`` an object; a bool is never a number and
# a string never either. ``X | None`` also admits None. Each test is an
# expression over ``v``, compiled into check_value's test and, as
# dataclasses builds __init__, into one conjunction per class, so a clean
# object costs one call and builds no list.
_FLOAT_MAX = sys.float_info.max
_RULES = {  # kind: (test of v, what the message asks for)
    int: ("type(v) is int and v >= 1", "an integer >= 1"),
    float: ("(type(v) is float or type(v) is int) and 0 <= v <= _FLOAT_MAX",
            "finite, a number >= 0"),
    bool: ("type(v) is bool", "true or false"),
    str: ("type(v) is str", "a string"),
    dict: ("type(v) is dict", "an object"),
}
_OPTIONAL = {kind | None: kind for kind in _RULES}
_TESTS = {kind: eval(f"lambda v: {test}") for kind, (test, _) in _RULES.items()}


class _Reading(NamedTuple):
    """What the annotations of one dataclass say, read once per class
    because validate() runs inside every cost operation. A field whose
    metadata holds ``document_default`` is required by the constructor
    but may be left out of a JSON document."""

    names: dict             # every field name, in declaration order
    rules: tuple            # (name, test, kind, optional) of each ruled field
    required: frozenset     # fields a document must carry
    defaults: tuple         # (name, value) of each document_default field
    readers: tuple          # (name, read) of fields holding layers or an input
    check: Callable         # compiled: True when field_errors(obj) is empty


_READINGS: dict[type, _Reading] = {}


def _reading(cls: type) -> _Reading:
    reading = _READINGS.get(cls)
    if reading is None:
        hints = get_type_hints(cls)
        rules, required, defaults, readers = [], [], [], []
        for f in fields(cls):
            hint = hints[f.name]
            kind = _OPTIONAL.get(hint, hint)
            if kind in _RULES:
                rules.append((f.name, _TESTS[kind], kind, kind is not hint))
            if "document_default" in f.metadata:
                defaults.append((f.name, f.metadata["document_default"]))
            elif f.default is MISSING and f.default_factory is MISSING:
                required.append(f.name)
            read = _value_reader(f.name, hint)
            if read is not None:
                readers.append((f.name, read))
        source = "def check(o):\n" + "".join(
            f"    v = o.{name}\n    if not ({'v is None or ' if optional else ''}"
            f"{_RULES[kind][0]}): return False\n" for name, _, kind, optional in rules)
        scope: dict = {}
        exec(source + "    return True\n", globals(), scope)
        reading = _READINGS[cls] = _Reading(
            dict.fromkeys(f.name for f in fields(cls)), tuple(rules),
            frozenset(required), tuple(defaults), tuple(readers), scope["check"])
    return reading


_ECHO_CHARS = 100  # of a refused value's repr: an error line stays short for any input


def _echo(value) -> str:
    """The repr of a refused value, cut after ``_ECHO_CHARS`` characters; every
    message that quotes a value renders it here. A value whose repr cannot
    be made (nested past the stack, an int past 4,300 digits) is ``<type>``."""
    try:
        text = repr(value)
    except (RecursionError, ValueError):
        return f"<{type(value).__name__}>"
    return _cut(text, _ECHO_CHARS)


def _cut(text: str, chars: int) -> str:
    """``text`` cut after ``chars`` characters, marked by ``...``."""
    return text if len(text) <= chars else text[:chars] + "..."


def _wrong(name: str, kind, optional: bool, value) -> str:
    what = _RULES[kind][1] if kind in _RULES else " or ".join(
        f"{'an' if k.__name__[0] in 'AEIOU' else 'a'} {k.__name__}"
        for k in (kind if isinstance(kind, tuple) else (kind,)))
    return f"{name} must be {what}{' or null' if optional else ''}, got {_echo(value)}"


def field_errors(obj) -> list[str]:
    """One message per number, flag or name field of the dataclass ``obj``
    that breaks the rule its annotation names."""
    reading = _READINGS.get(type(obj)) or _reading(type(obj))
    errors = []
    for name, admits, kind, optional in reading.rules:
        value = getattr(obj, name)
        if not admits(value) and not (optional and value is None):
            errors.append(_wrong(name, kind, optional, value))
    return errors


def check_fields(obj) -> None:
    """Raise ValueError with the first of ``field_errors(obj)``; store the
    integer values of ``float`` fields as floats."""
    reading = _reading(type(obj))
    if not reading.check(obj):
        raise ValueError(field_errors(obj)[0])
    for name, _, kind, _ in reading.rules:
        if kind is float and type(getattr(obj, name)) is int:
            object.__setattr__(obj, name, float(getattr(obj, name)))


def check_value(name: str, value, kind=int) -> None:
    """Raise ValueError unless ``value`` passes the field rule for ``kind``; a
    class with no rule, or a tuple of classes, admits its instances."""
    admits = _TESTS.get(kind)  # one lookup: read_records checks each CSV cell
    if not (isinstance(value, kind) if admits is None else admits(value)):
        raise ValueError(_wrong(name, kind, False, value))


def validate(spec: ArchSpec) -> ValidationResult:
    """Report every invariant violation in ``spec``.

    Total over any tree of layer objects: violations are returned as
    values, never raised. A spec with an empty violation list is safe for
    every downstream cost operation.
    """

    if not isinstance(spec, ArchSpec):
        return ValidationResult((Violation("", "not an ArchSpec"),))
    out = [] if _reading(ArchSpec).check(spec) else [
        Violation("spec", m) for m in field_errors(spec)]

    inp = spec.input
    if isinstance(inp, (Image, TokenSequence)):
        if not _reading(type(inp)).check(inp):
            out += [Violation("input", m) for m in field_errors(inp)]
    else:
        out.append(Violation("input", f"unknown input signature {type(inp).__name__}"))
    if isinstance(inp, Image) and not isinstance(next(iter(spec.layers), None), PatchEmbed):
        out.append(Violation("layers[0]", "image input requires a leading PatchEmbed"))

    _walk(spec.layers, "layers[{}]", 0, spec, out)
    return ValidationResult(tuple(out))


def _walk(layers, at: str, depth: int, spec: ArchSpec, out: list) -> None:
    """Append the violations of ``layers`` at ``depth`` to ``out``. The path
    ``at.format(i)`` of ``layers[i]`` is built only for a container or a
    violation. Depth is checked on entry: at most MAX_NESTING + 2 frames."""
    if depth > MAX_NESTING:
        out += [Violation(at.format(i), f"nesting depth exceeds {MAX_NESTING}")
                for i in range(len(layers))]
        return
    for i, layer in enumerate(layers):
        kind = type(layer)
        if kind not in _LAYER_TAGS:
            out.append(Violation(at.format(i), f"unknown layer kind {kind.__name__}"))
            continue
        clean = (_READINGS.get(kind) or _reading(kind)).check(layer)
        if not clean:
            out += [Violation(at.format(i), m) for m in field_errors(layer)]
        if kind is Repeat:
            path = at.format(i)
            if not layer.body:
                out.append(Violation(path, "Repeat body is empty"))
            _walk(layer.body, path + ".body[{}]", depth + 1, spec, out)
        elif kind is Parallel:
            path = at.format(i)
            if not layer.branches:
                out.append(Violation(path, "Parallel has no branches"))
            out += [Violation(f"{path}.branches[{b}]", "Parallel branch is empty")
                    for b in reversed(range(len(layer.branches))) if not layer.branches[b]]
            for b, branch in enumerate(layer.branches):
                _walk(branch, f"{path}.branches[{b}][{{}}]", depth + 1, spec, out)
        elif kind is MoE:
            if clean and layer.experts_per_token > layer.num_experts:
                out.append(Violation(at.format(i), "experts_per_token must be <= num_experts"))
            _walk((layer.expert,), at.format(i) + ".expert", depth + 1, spec, out)
        elif kind is Attention:
            if clean and layer.qkv_dim % layer.num_heads:
                out.append(Violation(at.format(i), "num_heads must divide qkv_dim"))
        elif kind is PatchEmbed:
            path, inp = at.format(i), spec.input
            if path != "layers[0]":
                out.append(Violation(path, "PatchEmbed is only valid as the first layer"))
            elif not isinstance(inp, Image):
                out.append(Violation(path, "PatchEmbed requires an image input"))
            elif clean and _reading(type(inp)).check(inp):
                if layer.in_channels != inp.channels:
                    out.append(Violation(path, f"in_channels {layer.in_channels} does not "
                                               f"match image channels {inp.channels}"))
                try:
                    _sequence_length(inp, layer.patch, layer.add_cls_token)
                except ValueError as exc:
                    out.append(Violation(path, str(exc)))


def ensure_valid(spec: ArchSpec) -> None:
    """Raise :class:`InvalidSpecError` unless ``spec`` validates cleanly."""
    result = validate(spec)
    if not result.ok:
        raise InvalidSpecError(result.violations)


# ---------------------------------------------------------------------------
# Derived shapes


def derive_sequence_length(inp: InputSignature, patch: int, add_cls: bool) -> int:
    """Tokens ``inp`` feeds a layer stack: a ``TokenSequence``'s own
    ``length``, or an ``Image``'s patch grid ``(H/patch) * (W/patch)``, plus
    1 when ``add_cls``. The patch size must divide both spatial extents."""
    check_value("inp", inp, (Image, TokenSequence))
    errors = field_errors(inp)
    if errors:
        raise ValueError(f"inp.{errors[0]}")
    check_value("patch", patch)
    check_value("add_cls", add_cls, bool)
    return _sequence_length(inp, patch, add_cls)


def _sequence_length(inp, patch: int, add_cls: bool) -> int:
    """:func:`derive_sequence_length` of arguments already checked; ``inp`` may
    be a subclass of an input kind, which ``validate`` admits."""
    if isinstance(inp, TokenSequence):
        return inp.length
    if inp.height % patch or inp.width % patch:
        raise ValueError(
            f"patch {patch} does not divide input extent {inp.height}x{inp.width}"
        )
    return (inp.height // patch) * (inp.width // patch) + (1 if add_cls else 0)


# ---------------------------------------------------------------------------
# JSON documents and files: one reader and one writer for every input dataclass

_INPUT_TAGS = {Image: "image", TokenSequence: "token_sequence"}
_TAGS = {**_LAYER_TAGS, **_INPUT_TAGS}
#: A union is read by the ``kind`` tag of its document:
#: (what, {tag: (class, the prefix of its field errors)}).
_UNIONS = {union: (what, {tag: (cls, f"bad fields for {what} kind {_echo(tag)}: ")
                          for cls, tag in tags.items()})
           for union, what, tags in ((LayerSpec, "layer", _LAYER_TAGS),
                                     (InputSignature, "input", _INPUT_TAGS))}


def _value_reader(name: str, hint):
    """How a field annotated ``hint`` is read from JSON: a layer or an
    input by its ``kind``, a tuple of them from an array; None for a value
    taken as it is."""
    union = _UNIONS.get(hint)
    if union is not None:
        return lambda value: _read_tagged(union, value)
    if get_origin(hint) is tuple:
        item = _value_reader(name, get_args(hint)[0])
        if item is not None:
            def read(value):
                if type(value) is not list:
                    raise ValueError(
                        f"{name} must be an array, got {type(value).__name__}")
                return tuple(item(v) for v in value)
            return read
    return None


def from_document(cls, value, prefix: str = ""):
    """Build the dataclass ``cls`` (or the member of the union ``cls``
    that the document's ``kind`` names) from the JSON value.

    A key that is not a field is refused, as is a field left out that has
    no default; fields holding layers or an input are read recursively.
    Values are not coerced: the field rule and :func:`validate` judge them.
    A refusal of the document's keys or type starts with ``prefix``."""
    union = _UNIONS.get(cls)
    if union is not None:
        return _read_tagged(union, value)
    if type(value) is not dict:
        raise ValueError(f"{prefix}expected a JSON object, got {type(value).__name__}")
    return _build(cls, dict(value), prefix)


def _read_tagged(union, value):
    what, classes = union
    kind = value.get("kind") if type(value) is dict else None
    if kind is None:
        raise ValueError(f"{what} must be a JSON object with a 'kind' field")
    tagged = classes.get(kind) if type(kind) is str else None
    if tagged is None:
        raise ValueError(f"unknown {what} kind {_echo(kind)}")
    cls, prefix = tagged
    args = dict(value)
    del args["kind"]
    return _build(cls, args, prefix)


def _build(cls, args: dict, prefix: str = ""):
    reading = _READINGS.get(cls) or _reading(cls)
    if not (reading.names.keys() >= args.keys() >= reading.required):
        errors = [f"unknown field {_echo(k)}"
                  for k in sorted(args.keys() - reading.names, key=str)]
        errors += [f"missing field {_echo(k)}" for k in reading.names
                   if k in reading.required and k not in args]
        raise ValueError(prefix + "; ".join(errors))
    for name, default in reading.defaults:
        args.setdefault(name, default)
    for name, read in reading.readers:
        if name in args:
            args[name] = read(args[name])
    return cls(**args)


class InputFileError(ValueError):
    """A file that cannot be read or written, or an input file that breaks its
    format; ``detail`` holds what is known of the ``file``, ``line``, ``column``,
    ``model``, ``offset`` and ``violations``."""

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


def _load_json(path: str):
    """The JSON document of an input file, a leading byte-order mark skipped,
    or ``InputFileError`` naming it; an offset counts the bytes as stored."""
    try:
        with open(path, "rb", buffering=0) as fh:  # one read, one decode
            text = fh.read().decode("utf-8")
        mark = text.startswith("\ufeff")
        return json.loads(text[mark:])
    except FileNotFoundError:
        raise InputFileError(f"no such file: {path}", file=path)
    except json.JSONDecodeError as exc:
        offset = len(text[:mark + exc.pos].encode("utf-8"))
        raise InputFileError(
            f"malformed JSON in {path}: {exc.msg} (byte offset {offset})",
            file=path, offset=offset,
        )
    except RecursionError:
        raise InputFileError(f"{path}: JSON nested too deeply", file=path)
    except (OSError, ValueError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}", file=path)


def _read_document(cls, path: str, prefix: str = ""):
    """The dataclass ``cls`` read by ``from_document`` from the JSON file
    ``path``; a refusal is an ``InputFileError`` naming the file, and a
    refusal of the document's keys or values starts with ``prefix``."""
    doc = _load_json(path)  # outside the try, so its refusal keeps file and offset
    try:
        return from_document(cls, doc)
    except ValueError as exc:
        raise InputFileError(prefix + str(exc), file=path)


#: Field types that ``to_document`` stores as they are.
_PLAIN = frozenset({int, float, str, bool})


def to_document(obj) -> dict:
    """The JSON object of a dataclass: the ``kind`` tag of a layer or an
    input, then every field that is not None."""
    tag = _TAGS.get(type(obj))
    doc = {} if tag is None else {"kind": tag}
    for name in _reading(type(obj)).names:
        value = getattr(obj, name)
        if value is not None:
            doc[name] = value if type(value) in _PLAIN else _to_json(value)
    return doc


def _to_json(value):
    if type(value) in _TAGS:
        return to_document(value)
    if type(value) is tuple:
        return [_to_json(v) for v in value]
    return dict(value) if type(value) is dict else value


def spec_to_dict(spec: ArchSpec) -> dict:
    check_value("spec", spec, ArchSpec)
    try:  # metadata may hold any value in Python; validate() leaves it unchecked
        json.dumps(spec.metadata)
    except (TypeError, ValueError, RecursionError) as exc:  # ValueError: a cycle
        raise ValueError(f"metadata cannot be written as JSON: {exc}") from None
    try:  # validate() bounds nesting, but a spec built in Python need not be valid
        return {"schema_version": SCHEMA_VERSION, **to_document(spec)}
    except RecursionError:
        raise ValueError("architecture nested too deeply") from None


def check_schema_version(version) -> None:
    """Raise ValueError unless ``version`` is the integer SCHEMA_VERSION."""
    if type(version) is not int or version != SCHEMA_VERSION:  # not true, not 1.0
        raise ValueError(f"unsupported schema_version {_echo(version)}")


def spec_from_dict(d: dict) -> ArchSpec:
    if not isinstance(d, dict):
        raise ValueError("architecture document must be a JSON object")
    check_schema_version(d.get("schema_version", SCHEMA_VERSION))
    try:  # the reader recurses on every level, before validate() can bound the nesting
        return _build(ArchSpec, {k: v for k, v in d.items() if k != "schema_version"})
    except RecursionError:
        raise ValueError("architecture nested too deeply") from None


def to_json(spec: ArchSpec) -> str:
    """Canonical JSON text; serialize -> parse -> serialize is an identity."""
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


def from_json(text: str) -> ArchSpec:
    check_value("text", text, (str, bytes, bytearray))
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return spec_from_dict(doc)
