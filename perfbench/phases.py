"""Self time per phase and function from a trace file written by run.py.

    python3 perfbench/phases.py .perfbench_out/trace-serve-long.jsonl.gz

Prints, for each phase of the first traced round (train, stream,
ckpt_save, ckpt_load, mc, certify) and of the set-up, its wall time per
call and the functions with the most self time in it, also per call.
A stream call serves one deletion request. The per-layer metrics of a
traced run add these self times up over all phases, by layer.
"""

import gzip
import json
import sys
from collections import defaultdict

TOP = 8


def main(path: str) -> None:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    child = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    phase_of: list[str] = []
    wall = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        name = span["name"]
        duration = span["end"] - span["start"]
        if name.startswith("phase."):
            phase = name.split(".", 1)[1]
            wall[phase] += duration
            calls[phase] += 1
        else:
            phase = phase_of[span["parent"]]
        phase_of.append(phase)
        self_time[phase][name] += duration - child[index]
    for phase, seconds in wall.items():
        count = calls[phase]
        top = sorted(self_time[phase].items(), key=lambda item: -item[1])[:TOP]
        print(f"{phase}: {count} call(s), {seconds / count:.6f} s per call; self s per call:")
        for name, amount in top:
            print(f"    {amount / count:.6f}  {name}")


if __name__ == "__main__":
    main(sys.argv[1])
