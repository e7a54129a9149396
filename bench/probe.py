"""Opt-in scaling probe: informational, not a workload.

    python3 bench/probe.py

Reproduces the scaling rows of the ROADMAP's baseline: ``compute_profile``
on a d=64 ViT at depth 1e3, 1e4 and 1e5; ``costlens profile`` on a spec
holding ``Repeat(times=10**12)`` of one LayerNorm; ``misnomer_report``
on 200 and 1000 random 9-indicator records. Each case runs in its own
child process with its address space capped at ``MEM_MB`` by
``RLIMIT_AS`` and is killed after ``TIMEOUT_S`` seconds, so a case that
would hang or exhaust memory is recorded as ``timeout`` or ``error``
instead. Prints one JSON line per case, then a JSON object of all cases.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

TIMEOUT_S = 60
MEM_MB = 1536
CASES = {
    "vit_d64_depth_1e3": ("vit", 10**3),
    "vit_d64_depth_1e4": ("vit", 10**4),
    "vit_d64_depth_1e5": ("vit", 10**5),
    "repeat_1e12_layernorm": ("repeat", 10**12),
    "misnomer_200_records": ("records", 200),
    "misnomer_1000_records": ("records", 1000),
}
INDICATORS = ("params", "flops", "latency", "throughput", "activation", "mac",
              "memory", "carbon", "cost")


def child(name: str, scratch: Path) -> dict:
    """Run one case in this process and return what it measured."""
    run.use_source()
    import costlens
    from workloads import run_cli

    kind, size = CASES[name]
    if kind == "vit":
        spec = costlens.build_vit(costlens.VitConfig(16, size, 64, 1, 256))
        hw = costlens.load_hardware("default")
        start = time.perf_counter()
        costlens.compute_profile(spec, batch=1, hardware=hw)
        return {"seconds": time.perf_counter() - start, "executed_layers": 4 * size + 3}
    if kind == "repeat":
        path = scratch / "repeat.json"
        path.write_text(json.dumps({"schema_version": 1, "arch": {
            "input": {"kind": "token_sequence", "length": 128, "vocab": 1000},
            "layers": [{"kind": "token_embedding", "vocab": 1000, "embed_dim": 64},
                       {"kind": "repeat", "times": size,
                        "body": [{"kind": "layer_norm", "model_dim": 64}]}]}}))
        start = time.perf_counter()
        result = run_cli(["profile", str(path), "--format", "json"])
        return {"seconds": time.perf_counter() - start, "exit_code": result.code}
    rng = random.Random(0)
    records = [costlens.ModelRecord(f"m{i}", {k: rng.random() for k in INDICATORS},
                                    quality=rng.random()) for i in range(size)]
    start = time.perf_counter()
    report = costlens.misnomer_report(records)
    return {"seconds": time.perf_counter() - start,
            "inverted_pairs": len(report.inverted_pairs)}


def probe(name: str) -> dict:
    with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
        argv = [sys.executable, __file__, "--child", name, "--scratch", scratch]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"status": "timeout", "timeout_s": TIMEOUT_S}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"status": "error", "detail": tail[0]}
    return {"status": "ok", **json.loads(proc.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", choices=list(CASES), help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        limit = MEM_MB * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        print(json.dumps(child(args.child, Path(args.scratch))))
        return 0
    run.OUT.mkdir(exist_ok=True)
    results = {}
    for name in CASES:
        results[name] = probe(name)
        print(json.dumps({name: results[name]}), flush=True)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
