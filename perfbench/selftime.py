"""Self time per span name from a Chrome trace-event file.

A span's self time is its duration minus the part of its interval that its
child spans cover. Spans nest per thread (the tracer keeps one stack per
thread), so a span's children are the spans on the same thread that start
inside it and are not inside one of its other children. Spans on other
threads are never children, even when their intervals overlap.

    python3 perfbench/selftime.py trace.json
"""

import json
import sys
from collections import defaultdict

# Timestamps are rounded independently at begin and end, so a child may end
# a fraction of a microsecond after its parent (tools/trace_report uses the
# same slack for its nesting check).
NEST_EPS_US = 0.5


def self_times(events):
    """Returns {span name: total self time in seconds} for the "X" events."""
    by_thread = defaultdict(list)
    for event in events:
        if event.get("ph") == "X":
            by_thread[(event.get("pid", 0), event["tid"])].append(event)
    totals = defaultdict(float)
    for spans in by_thread.values():
        # Parents before children: earlier start first, longer first on ties.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, name, dur_us, covered_us]

        def close(frame):
            totals[frame[1]] += max(0.0, frame[2] - frame[3]) * 1e-6

        for span in spans:
            start, dur = span["ts"], span["dur"]
            # Pop every open span this one does not fit inside. A span that
            # starts within the slack of the top's end is its sibling: only a
            # child shorter than twice the slack could be misread that way,
            # while the opposite error would misfile a whole sibling.
            while stack and (start >= stack[-1][0] - NEST_EPS_US
                             or start + dur > stack[-1][0] + NEST_EPS_US):
                close(stack.pop())
            if stack:
                parent = stack[-1]
                # Clip to the parent, which absorbs the rounding slack.
                parent[3] += max(0.0, min(start + dur, parent[0]) - start)
            stack.append([start + dur, span["name"], dur, 0.0])
        while stack:
            close(stack.pop())
    return dict(totals)


def load_events(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["traceEvents"]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    for name, seconds in sorted(self_times(load_events(argv[1])).items(),
                                key=lambda item: -item[1]):
        print(f"{seconds:12.6f} s  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
