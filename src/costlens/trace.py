"""One-pass evaluator: per-node costs folded over the spec tree.

:func:`evaluate` visits every *spec* node once and returns a :class:`Step`
for every leaf layer and every ``MoE`` node, in spec order; the step, a
named tuple, is the only record it builds per node. A step holds
the costs of one execution plus two multiplicities: ``count``, how many
times the node executes (the product of the enclosing ``Repeat.times``),
and ``copies``, how many parameter sets it stores (the same product, with
a ``share_params`` repeat contributing 1). Every indicator is a fold over
these steps, so cost grows with the size of the spec, not with the number
of layers it executes. :func:`_sums` is the one summation path over a step
list: the indicators read their totals from it, and an ``MoE`` node is
costed from the sums of its expert's steps. :func:`evaluate` and the
indicators both fold through :func:`_evaluate`, which validates its spec
first: it is the one spec check between a spec and its steps. Only
:func:`evaluate` asks for the path of each step; the indicators and an
``MoE`` node's expert fold leave it None, because sums never read it. A
node's kind is its exact type, as ``validate`` admits it: a subclass of a
layer kind is refused there, so the fold tests ``type(layer) is Dense`` and
never ``isinstance``.

``PatchEmbed`` is only valid as the first layer, so the sequence length is
the same at every node and every iteration of a ``Repeat`` is identical:
a repeat costs ``times`` x its body, and a ``Parallel`` costs the sum of
its branches for counts and the slowest branch for time. Steps are at
the true length; a hardware pad changes only the steps ``seconds`` times.

FLOP conventions (shared by everything downstream):

* one fused multiply-add counts as 2 FLOPs; ``matmul_macs`` carries the
  exact multiply-accumulate count of the matmul terms, so
  ``flops >= 2 * matmul_macs`` always holds;
* softmax and layer normalization cost 5 FLOPs per element, GELU-like
  activations 4, plain adds (biases, residuals, positional) 1;
* attention charges both quadratic terms (logits and value mixing) in
  full, causal or not;
* the classifier head runs once per example on a pooled token.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .archspec import (
    ArchSpec,
    Attention,
    ClassifierHead,
    Dense,
    FeedForward,
    LayerNorm,
    LayerSpec,
    MoE,
    Parallel,
    PatchEmbed,
    Repeat,
    TokenEmbedding,
    _sequence_length,
    check_value,
    ensure_valid,
)

SOFTMAX_FLOPS_PER_ELEMENT = 5
LAYERNORM_FLOPS_PER_ELEMENT = 5
ACTIVATION_FLOPS_PER_ELEMENT = 4
ADD_FLOPS_PER_ELEMENT = 1


class Step(NamedTuple):
    """One leaf or ``MoE`` node: per-example costs of one execution.

    ``params`` are the weights one execution reads; ``unique_params`` the
    weights one copy stores. They differ only for an ``MoE`` whose expert
    holds a shared repeat. A named tuple: immutable, and cheap to build,
    as every fold builds one per node.
    """

    path: str | None      # None in a fold whose steps are only summed
    layer: LayerSpec
    seq_len: int          # true token count; only ``seconds`` sees a padded one
    params: int
    unique_params: int
    matmul_macs: int      # per example
    flops: int            # per example, includes 2 * matmul_macs
    in_elements: int      # per example
    out_elements: int     # per example
    count: int            # executions
    copies: int           # stored parameter sets


class _Sums(NamedTuple):
    """Per-example totals of a step list, before any range check."""

    params: int          # stored: unique params x copies
    unrolled: int        # executed: params x count
    flops: int
    macs: int
    out_elements: int    # every building-block output
    moved_elements: int  # params and inputs read, outputs written
    largest_out: int     # the largest single output


def _sums(steps: list[Step]) -> _Sums:
    """Every total of ``steps`` in one pass; callers check the range."""
    params = unrolled = flops = macs = out = moved = largest = 0
    for _, _, _, p, unique, m, f, n_in, n_out, n, copies in steps:
        params += unique * copies
        unrolled += p * n
        flops += f * n
        macs += m * n
        out += n_out * n
        moved += (p + n_in + n_out) * n
        if n_out > largest:  # repetition does not change the largest output
            largest = n_out
    return _Sums(params, unrolled, flops, macs, out, moved, largest)


def _leaf_costs(layer, kind, L: int, tokens: int):
    """(params, matmul_macs, flops, in_elements, out_elements) of one
    primitive layer, of type ``kind``, at length ``L`` of ``tokens`` true tokens."""
    if kind is PatchEmbed:
        # The patches, their input and the positional table are unpadded.
        patches = tokens - (1 if layer.add_cls_token else 0)
        d = layer.embed_dim
        patch_in = layer.patch * layer.patch * layer.in_channels
        params = patch_in * d + d
        if layer.add_cls_token:
            params += d
        macs = patches * patch_in * d
        flops = 2 * macs + patches * d * ADD_FLOPS_PER_ELEMENT  # projection bias
        if layer.positional:
            params += tokens * d
            flops += L * d * ADD_FLOPS_PER_ELEMENT
        return params, macs, flops, patches * patch_in, L * d

    if kind is Attention:
        d, dq = layer.model_dim, layer.qkv_dim
        proj_macs = 4 * L * d * dq                 # Q, K, V, output
        quad_macs = 2 * L * L * dq                 # logits + value mixing
        macs = proj_macs + quad_macs
        flops = 2 * macs
        flops += SOFTMAX_FLOPS_PER_ELEMENT * layer.num_heads * L * L
        flops += (3 * L * dq + L * d) * ADD_FLOPS_PER_ELEMENT   # biases
        flops += L * d * ADD_FLOPS_PER_ELEMENT                  # residual
        return 4 * d * dq + 4 * dq, macs, flops, L * d, L * d

    if kind is FeedForward:
        d, h = layer.model_dim, layer.hidden_dim
        macs = 2 * L * d * h
        flops = 2 * macs
        flops += (L * h + L * d) * ADD_FLOPS_PER_ELEMENT        # biases
        flops += ACTIVATION_FLOPS_PER_ELEMENT * L * h
        flops += L * d * ADD_FLOPS_PER_ELEMENT                  # residual
        return d * h + h + h * d + d, macs, flops, L * d, L * d

    if kind is LayerNorm:
        d = layer.model_dim
        return 2 * d, 0, LAYERNORM_FLOPS_PER_ELEMENT * L * d, L * d, L * d

    if kind is Dense:
        a, b = layer.in_dim, layer.out_dim
        macs = L * a * b
        flops = 2 * macs + (L * b * ADD_FLOPS_PER_ELEMENT if layer.bias else 0)
        return a * b + (b if layer.bias else 0), macs, flops, L * a, L * b

    if kind is TokenEmbedding:
        v, d = layer.vocab, layer.embed_dim
        macs = L * d * v                        # output logit projection
        # The lookup itself is free. Two output tensors: the embedded
        # sequence and the logits.
        params = v * d if layer.tied_output else 2 * v * d
        return params, macs, 2 * macs, L, L * d + L * v

    if kind is ClassifierHead:
        d, k = layer.model_dim, layer.classes
        macs = d * k
        return d * k + k, macs, 2 * macs + k * ADD_FLOPS_PER_ELEMENT, d, k

    raise TypeError(f"unexpected layer type {kind.__name__}")


def _fold(layers, prefix, L, P, count, copies, seconds, out) -> float:
    """Append a step per leaf and ``MoE`` node of ``layers`` at length ``L``
    to ``out``; return the time of one pass over ``layers`` (0.0 without
    ``seconds``), which ``seconds`` gives of each node's step at length ``P``.
    Paths are built under ``prefix``; without one, each step's path is None."""
    total = 0.0
    for i, layer in enumerate(layers):
        path = prefix and f"{prefix}[{i}]"
        kind = type(layer)
        if kind is Repeat:
            n = layer.times
            body = _fold(layer.body, path and f"{path}.body", L, P, count * n,
                         copies if layer.share_params else copies * n,
                         seconds, out)
            total += n * body
            continue
        if kind is Parallel:
            slowest = 0.0
            for b, branch in enumerate(layer.branches):
                slowest = max(slowest, _fold(branch, path and f"{path}.branches[{b}]", L, P,
                                             count, copies, seconds, out))
            total += slowest
            continue
        step = _node_step(layer, kind, path, L, L, count, copies)
        out.append(step)
        if seconds is not None:
            total += seconds(step if P == L else
                             _node_step(layer, kind, path, P, L, count, copies))
    return total


def _node_step(layer, kind, path, L, tokens, count, copies) -> Step:
    """The step of a leaf or ``MoE`` node of type ``kind`` at length ``L`` of
    ``tokens`` true tokens; either skips the named tuple's ``__new__`` frame."""
    if kind is MoE:
        # One composite op: the router plus K of E experts per token.
        expert: list[Step] = []
        _fold([layer.expert], None, L, L, 1, 1, None, expert)  # only summed
        s = _sums(expert)
        dr, E, K = layer.router_dim, layer.num_experts, layer.experts_per_token
        router_macs = L * dr * E
        flops = 2 * router_macs + SOFTMAX_FLOPS_PER_ELEMENT * L * E + K * s.flops
        return tuple.__new__(Step, (path, layer, L, dr * E + E * s.unrolled,
                                    dr * E + E * s.params, router_macs + K * s.macs, flops,
                                    expert[0].in_elements, expert[-1].out_elements,
                                    count, copies))
    params, macs, flops, n_in, n_out = _leaf_costs(layer, kind, L, tokens)
    return tuple.__new__(Step, (path, layer, L, params, params, macs, flops, n_in, n_out,
                                count, copies))


def evaluate(spec: ArchSpec, pad_multiple: int | None = None,
             seconds: Callable[[Step], float] | None = None
             ) -> tuple[list[Step], float | None]:
    """Steps of every leaf and ``MoE`` node of ``spec``, validated first, at
    the true sequence length, plus the folded time.

    ``seconds`` gives the time of one execution of a step; the returned
    time sums it over a sequence, takes ``times`` x the body of a repeat
    and the slowest branch of a parallel block. Without ``seconds`` the
    time is ``None``. ``pad_multiple`` (hardware length padding: None or
    an integer >= 1) rounds the length ``seconds`` sees up to the next
    multiple; in the same fold, a node it changes is costed again there."""
    return _evaluate(spec, pad_multiple, seconds, "layers")


def _evaluate(spec, pad_multiple, seconds, prefix):
    """:func:`evaluate` with the steps' paths built under ``prefix``, or left
    None with ``prefix`` None, for callers that only sum the steps."""
    ensure_valid(spec)
    if pad_multiple is not None:
        check_value("pad_multiple", pad_multiple)
    steps: list[Step] = []
    # A valid spec's first layer is a PatchEmbed exactly when its input is an image.
    first = next(iter(spec.layers), None)
    length = (_sequence_length(spec.input, first.patch, first.add_cls_token)
              if type(first) is PatchEmbed else spec.input.length)
    pad = pad_multiple or 1
    total = _fold(spec.layers, prefix, length, -(-length // pad) * pad, 1, 1, seconds, steps)
    return steps, (total if seconds is not None else None)
