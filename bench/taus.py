"""Reference rank statistics for records CSV files, from scipy.

Run as a child process so that scipy and numpy never load into the
measured process (they would inflate its peak RSS):

    python3 bench/taus.py a.csv b.csv ...

Prints one JSON list with, per file: the row count, the number of empty
indicator cells, the tau-b of every indicator pair that at least two
rows carry (``scipy.stats.kendalltau``), and the total of discordant
pairs over those indicator pairs. ``throughput`` is higher-is-better and
is negated, as the records format specifies.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np
from scipy.stats import kendalltau

HIGHER_BETTER = {"throughput"}


def file_reference(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = [c for c in header if c not in ("name", "family", "quality")]
    values = {}
    empty = 0
    for col in cols:
        j = header.index(col)
        sign = -1.0 if col in HIGHER_BETTER else 1.0
        cells = [r[j] for r in body]
        empty += sum(1 for c in cells if c == "")
        values[col] = [sign * float(c) if c != "" else None for c in cells]
    taus = []
    discordant = 0
    for i, a in enumerate(cols):
        for b in cols[i + 1:]:
            keep = [k for k in range(len(body))
                    if values[a][k] is not None and values[b][k] is not None]
            if len(keep) < 2:
                continue
            x = np.array([values[a][k] for k in keep])
            y = np.array([values[b][k] for k in keep])
            taus.append([a, b, float(kendalltau(x, y).statistic)])
            sx = np.sign(x[:, None] - x[None, :])
            sy = np.sign(y[:, None] - y[None, :])
            discordant += int((sx * sy < 0).sum()) // 2
    return {"rows": len(body), "empty": empty, "taus": taus,
            "discordant": discordant}


if __name__ == "__main__":
    json.dump([file_reference(p) for p in sys.argv[1:]], sys.stdout)
