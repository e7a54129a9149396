"""Full disagreement report on the shipped depth/width scaling records.

The packaged CSV holds eleven published (cost, quality) rows for one
model family scaled in depth (D6..D48) versus width (W768..W4096). Even
within a single family, parameter ordering and speed ordering disagree:
D48 and W3072 are FLOP-twins, D48 is 8% smaller, W3072 is 1.8x faster.

Run: python demos/ranking_disagreements.py [output.svg]
"""

import sys
from importlib import resources

from costlens import misnomer_report, pareto_frontier, read_records
from costlens.cli import svg_scatter

csv_path = resources.files("costlens").joinpath(
    "data/records/depth_width_scaling.csv")
records = read_records(str(csv_path))

report = misnomer_report(records)
print("pairwise rank agreement (kendall tau-b):")
for pair, tau in report.kendall_tau.items():
    print(f"  {pair[0]:>8} vs {pair[1]:<8} tau = {tau:+.3f}")

print("\nordering reversals:")
for p in report.inverted_pairs:
    print(f"  {p.model_a} beats {p.model_b} on {p.indicator_a}, "
          f"loses on {p.indicator_b}")

print("\nmodels whose efficiency story depends on the indicator:")
for entry in report.pareto_instability:
    print(f"  {entry.name}: frontier under {', '.join(entry.frontier_under)}; "
          f"dominated under {', '.join(entry.dominated_under)}")

frontier = pareto_frontier(records, "flops")
print(f"\naccuracy-vs-GFLOPs frontier: "
      f"{', '.join(r.name for r in frontier)}")

if len(sys.argv) > 1:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        fh.write(svg_scatter(records, "flops", frontier))
    print(f"wrote scatter with frontier polyline to {sys.argv[1]}")
