"""Two ways parameter count and compute decouple.

1) Depth-wise parameter sharing: one block reused k times has the
   parameters of a 1-block model and the FLOPs of a k-block model. It is
   tiny at inference but its training activations are as large as the
   unshared stack's, since every iteration's outputs are kept for the
   backward pass.

2) Expert routing: E parallel expert blocks with K active per token grow
   parameters linearly in E while FLOPs track only K (plus a router term
   well under 1%).

Run: python demos/sharing_and_experts.py
"""

from costlens import (
    MoeConfig,
    OptimizerKind,
    UtConfig,
    VitConfig,
    build_moe_transformer,
    build_universal_transformer,
    build_vit,
    count_flops,
    count_params,
    inference_memory,
    training_memory,
)

shape = dict(patch=16, depth=12, model_dim=768, num_heads=12, ffn_dim=3072)

print("-- depth-wise parameter sharing ------------------------------")
vanilla = build_vit(VitConfig(**shape))
shared = build_universal_transformer(UtConfig(**shape, steps=12))
rows = []
for name, spec in [("vanilla 12-block", vanilla), ("shared block x12", shared)]:
    p = count_params(spec)
    f = count_flops(spec)
    tm = training_memory(spec, batch=8, optimizer=OptimizerKind.ADAM)
    im = inference_memory(spec, batch=8)
    rows.append((p.total, im.peak_inference_bytes, f, tm.activation_bytes))
    print(f"{name:>18}: params {p.millions:6.1f}M  GFLOPs {f.gflops:6.2f}  "
          f"train peak {tm.peak_training_bytes / 2**30:5.2f} GiB  "
          f"(activations {tm.activation_bytes / 2**30:4.2f} GiB)  "
          f"infer peak {im.peak_inference_bytes / 2**20:6.1f} MiB")
(p_vanilla, im_vanilla, *unmoved), (p_shared, im_shared, *as_shared) = rows
assert unmoved == as_shared, "sharing moved FLOPs or training activations"
print(f"Sharing drops parameters {p_vanilla / p_shared:.2f}x and peak inference")
print(f"memory {im_vanilla / im_shared:.2f}x, but FLOPs and training activations")
print("do not move at all.")
print()

print("-- expert routing (K=1 active) -------------------------------")
print(f"{'experts':>8} {'params (M)':>11} {'GFLOPs':>8}")
for experts in (1, 8, 32, 128):
    moe = build_moe_transformer(MoeConfig(**shape, num_experts=experts, experts_per_token=1))
    print(f"{experts:>8} {count_params(moe).millions:>11.1f} "
          f"{count_flops(moe).gflops:>8.2f}")
print("Parameters grow ~linearly in E; compute is flat. Judging this model")
print("by parameter count alone makes it look far costlier than it runs.")
