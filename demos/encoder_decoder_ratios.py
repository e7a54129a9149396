"""Derivation script: encoder-decoder versus decoder-only cost ratios.

An encoder-decoder with L+L layers and a decoder-only model with 2L
layers are near parameter twins (the cross-attention blocks add 7-14
percent here), yet the split architecture does roughly half the work per
generated token: the encoder runs once over the input instead of every
layer attending over input+output jointly.

The exact ratios printed here are the values frozen into the acceptance
suite's tolerance check ([0.9, 1.15] for params, [0.45, 0.6] for FLOPs
per generated token, at equal input/output lengths of 512).

Run: python demos/encoder_decoder_ratios.py
"""

from costlens import LmConfig, build_lm, count_flops, count_params

CFG = dict(model_dim=512, ffn_dim=2048, heads=8, vocab=32000,
           input_len=512, output_len=512)

print(f"{'L':>3} {'params enc-dec (M)':>19} {'params dec-only (M)':>20} "
      f"{'ratio':>7} {'flops ratio/token':>18}")
flop_ratios = []
for L in (2, 6, 12):
    encdec = build_lm(LmConfig("encoder_decoder", L, **CFG))
    deconly = build_lm(LmConfig("decoder_only", L, **CFG))
    p_ed = count_params(encdec).total
    p_do = count_params(deconly).total
    # both arrangements generate output_len tokens, so the total-FLOPs
    # ratio is already the per-generated-token ratio
    f_ratio = count_flops(encdec).flops / count_flops(deconly).flops
    flop_ratios.append(f_ratio)
    print(f"{L:>3} {p_ed / 1e6:>19.2f} {p_do / 1e6:>20.2f} "
          f"{p_ed / p_do:>7.4f} {f_ratio:>18.4f}")
assert max(flop_ratios) < 1, "the split architecture no longer does less work"

print()
print("Parameter-matched comparisons between these arrangements hide a")
print(f"{1 / max(flop_ratios):.2f}-{1 / min(flop_ratios):.2f}x compute difference "
      "in the split architecture's favor.")
