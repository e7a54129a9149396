"""Patch size sweep: parameters rise while FLOPs collapse.

A base-size vision transformer keeps the same 12-block stack as the patch
grows, but the patch-embedding matrix scales with patch^2 while the token
count scales with 1/patch^2. The result is the classic ranking reversal:
the "biggest" model by parameter count is the cheapest to run.

Run: python demos/patch_size_tradeoff.py
"""

from costlens import VitConfig, build_vit, count_flops, count_params, derive_sequence_length

# 64 does not divide 224, so the 64-pixel point uses a 192x192 input
# (the published numbers for that configuration correspond to a 3x3 grid;
# see src/costlens/data/specs/vit_b64.json for the full story).
SWEEP = [(8, 224), (16, 224), (32, 224), (64, 192)]

print(f"{'patch':>5} {'tokens':>7} {'params (M)':>11} {'GFLOPs':>8} "
      f"{'params/GFLOP (M)':>17}")
rows = []
for patch, image in SWEEP:
    spec = build_vit(VitConfig(patch=patch, depth=12, model_dim=768,
                               num_heads=12, ffn_dim=3072,
                               image=(image, image, 3)))
    params = count_params(spec)
    flops = count_flops(spec)
    rows.append((params.millions, flops.gflops))
    print(f"{patch:>5} {derive_sequence_length(spec.input, patch, True):>7} "
          f"{params.millions:>11.2f} {flops.gflops:>8.2f} "
          f"{params.millions / flops.gflops:>17.1f}")
(_, gflops_8), (params_64, gflops_64) = rows[0], rows[-1]
assert params_64 == max(p for p, _ in rows) and gflops_64 == min(f for _, f in rows), \
    "the 64-pixel model is no longer the largest and the cheapest"

print()
print("Parameter count says the 64-pixel model is the largest; FLOPs say")
print(f"it is {gflops_8 / gflops_64:.0f}x cheaper than the 8-pixel one. Comparing "
      "these models on")
print("parameter count alone inverts the actual compute ordering.")
