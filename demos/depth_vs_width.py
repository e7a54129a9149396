"""Depth versus width at matched FLOPs: the speed axis can flip.

A 48-block narrow stack and a 12-block wide stack are tuned here to the
same total FLOPs (within ~0.3%). A pure FLOP comparison calls them equal
and parameter count favors the deep one, yet the deep stack dispatches
four times as many sequential ops, so every hardware preset with a
nonzero per-op overhead runs the wide model faster.

Run: python demos/depth_vs_width.py
"""

from costlens import (
    count_flops,
    count_params,
    depth_width_pair,
    estimate_latency,
    load_hardware,
    preset_names,
)

deep, wide = depth_width_pair()
fd, fw = count_flops(deep), count_flops(wide)
pd, pw = count_params(deep), count_params(wide)
print(f"deep : 48 blocks x width 384  params {pd.millions:5.1f}M  GFLOPs {fd.gflops:.2f}")
print(f"wide : 12 blocks x width 768  params {pw.millions:5.1f}M  GFLOPs {fw.gflops:.2f}")
print(f"FLOP ratio deep/wide: {fd.flops / fw.flops:.4f}")
print()
assert abs(fd.flops / fw.flops - 1) < 0.003 and pd.total < pw.total, \
    "the deep stack no longer matches the wide one's FLOPs with fewer parameters"

print(f"{'preset':>9} {'deep (ms)':>10} {'wide (ms)':>10} {'deep/wide':>10}")
for name in preset_names():
    hw = load_hardware(name)
    td = estimate_latency(deep, hw).latency_sec * 1e3
    tw = estimate_latency(wide, hw).latency_sec * 1e3
    print(f"{name:>9} {td:>10.3f} {tw:>10.3f} {td / tw:>10.2f}")
    assert td > tw, f"the deep stack is not slower on {name}"

print()
print("Same FLOPs, fewer parameters, and still slower everywhere: depth is")
print("a sequential-dependency cost that neither count can see.")
