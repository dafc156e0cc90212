"""Summarize saved benchmark outputs into one trajectory point.

    python3 -m perfbench.summarize OUT.json RUN.txt [RUN.txt ...]

Each RUN.txt is the stdout of one single-workload run.  For every workload
and metric the summary gives the values and their median and, for more
than one run, the quartiles (as ``statistics.quantiles(values, n=4)``) and
the quartile spread as a share of the median; plus the run metadata and
failure counts.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def parse(text: str) -> tuple[str, dict, dict]:
    """(workload, meta, result) of one run's stdout; traced runs get their own key."""
    lines = text.strip().splitlines()
    head = next(line.split() for line in lines if line.startswith("# workload "))
    workload = head[2] + (" (traced)" if head[-1] == "trace=1" else "")
    meta = next(json.loads(line[len("# meta "):]) for line in lines
                if line.startswith("# meta "))
    return workload, meta, json.loads(lines[-1])


def summarize(texts: list[str]) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(list)
    for text in texts:
        workload, meta, result = parse(text)
        runs[workload].append({"seed": meta["seed"], "correct": result["correct"],
                               "attempted": result["attempted"], "failed": result["failed"],
                               "loadavg_start": meta["loadavg_start"],
                               "loadavg_end": meta["loadavg_end"]})
        for name, m in result["metrics"].items():
            values[workload][name].append(m["value"])
    first = parse(texts[0])[1]
    out = {"meta": {k: first[k] for k in ("python", "numpy", "nproc", "git_sha")},
           "workloads": {}}
    for workload, metrics in values.items():
        summary = {}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            entry = {"median": med, "values": vals}
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            summary[name] = entry
        out["workloads"][workload] = {"runs": runs[workload], "metrics": summary}
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    texts = []
    for path in argv[1:]:
        with open(path) as f:
            texts.append(f.read())
    with open(argv[0], "w") as f:
        json.dump(summarize(texts), f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
