#!/usr/bin/env python3
"""Validate a PCNNA Chrome trace and reconcile it against the report.

Usage: trace_summary.py TRACE.json [TRACE2.json ...]

Two jobs:

 1. Validate the Chrome trace-event JSON shape (the "JSON object format"
    Perfetto and chrome://tracing load): a top-level "traceEvents" list of
    events whose phases, track ids, timestamps, and categories are
    well-formed.

 2. When the trace carries the fleet telemetry's "otherData" section (the
    OpenLoopReport per-PCU totals the C++ exporter embeds), recompute every
    per-PCU breakdown — requests, busy/warmup/swap time, swap count, lost
    attempts and lost time — from the events' exact simulated-seconds args
    and reconcile them against the embedded report totals. The C++ side
    prints doubles with %.17g, json parses them back to the identical
    IEEE-754 values, and both sides accumulate in schedule order, so the
    comparison is exact equality (a tiny relative tolerance is kept as a
    fallback and reported as non-exact if used). Device-level layer traces
    (core::write_chrome_trace) have no otherData and are validated only.

Exit status 0 when every file validates (and reconciles, where
applicable); 1 otherwise. Stdlib only.
"""

from __future__ import annotations

import json
import sys

KNOWN_PHASES = {"M", "X", "i", "C"}
KNOWN_CATEGORIES = {"", "service", "stage", "overhead", "fault", "queue",
                    "shed", "device"}
# Relative tolerance fallback; exact equality is the expectation.
REL_TOL = 1e-12


class TraceError(Exception):
    pass


def fail(msg):
    raise TraceError(msg)


def validate_events(events):
    """Shape-check every trace event; returns counts per phase."""
    if not isinstance(events, list):
        fail("traceEvents is not a list")
    counts = {}
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            fail(f"{where} is not an object")
        ph = e.get("ph")
        if ph not in KNOWN_PHASES:
            fail(f"{where} has unknown phase {ph!r}")
        counts[ph] = counts.get(ph, 0) + 1
        if not isinstance(e.get("pid"), int) or not isinstance(
                e.get("tid"), int):
            fail(f"{where} pid/tid must be integers")
        if not isinstance(e.get("name"), str) or not e["name"]:
            fail(f"{where} needs a non-empty name")
        if ph != "M":
            ts = e.get("ts")
            if not isinstance(ts, (int, float)):
                fail(f"{where} needs a numeric ts")
            cat = e.get("cat", "")
            if cat not in KNOWN_CATEGORIES:
                fail(f"{where} has unknown category {cat!r}")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"{where} complete event needs dur >= 0")
        if ph == "C":
            args = e.get("args")
            if not isinstance(args, dict) or not args:
                fail(f"{where} counter event needs a non-empty args object")
            for k, v in args.items():
                if not isinstance(v, (int, float)):
                    fail(f"{where} counter series {k!r} is not numeric")
    return counts


def fleet_pid(events):
    """pid of the 'pcnna fleet' process, or None for device traces."""
    for e in events:
        if (e.get("ph") == "M" and e.get("name") == "process_name"
                and e.get("args", {}).get("name") == "pcnna fleet"):
            return e["pid"]
    return None


def arg(e, key, where):
    args = e.get("args", {})
    v = args.get(key)
    if not isinstance(v, (int, float)):
        fail(f"{where} ({e.get('cat')}/{e.get('name')}) missing "
             f"numeric arg {key!r}")
    return v


def recompute_per_pcu(events, pid, num_pcus):
    """Per-PCU totals from the exact simulated-seconds event args.

    Accumulation runs in file order, which is schedule order — the same
    order the admission loop's report columns accumulate in — so the
    floating-point sums are bit-identical to the report's, not merely
    close.
    """
    pcus = [{"requests": 0, "busy_time": 0.0, "warmup_time": 0.0,
             "swap_time": 0.0, "swaps": 0, "lost_attempts": 0,
             "lost_time": 0.0} for _ in range(num_pcus)]
    for i, e in enumerate(events):
        if e.get("ph") != "X" or e.get("pid") != pid:
            continue
        where = f"traceEvents[{i}]"
        cat = e.get("cat", "")
        tid = e["tid"]
        if cat in ("service", "stage", "fault") and not tid < num_pcus:
            fail(f"{where} names PCU {tid} but the fleet has {num_pcus}")
        b = pcus[tid] if tid < num_pcus else None
        if cat == "service":
            start, end = arg(e, "start", where), arg(e, "end", where)
            b["requests"] += 1
            b["busy_time"] += end - start
            b["warmup_time"] += arg(e, "warmup", where)
            b["swap_time"] += arg(e, "swap", where)
            b["swaps"] += int(arg(e, "swapped", where))
        elif cat == "stage":
            start, end = arg(e, "start", where), arg(e, "end", where)
            if arg(e, "stage", where) == 0:
                b["requests"] += 1
            b["busy_time"] += end - start
            b["warmup_time"] += arg(e, "pin", where)
        elif cat == "fault" and e.get("name") == "lost attempt":
            start, end = arg(e, "start", where), arg(e, "end", where)
            b["lost_attempts"] += 1
            b["lost_time"] += end - start
    return pcus


def check_value(name, got, want, problems):
    """Exact match preferred; tolerance fallback is reported, not fatal."""
    if got == want:
        return True
    scale = max(1.0, abs(want))
    if abs(got - want) <= REL_TOL * scale:
        problems.append(
            f"  note: {name} matched only within tolerance "
            f"(got {got!r}, report {want!r})")
        return True
    problems.append(f"  MISMATCH {name}: trace {got!r} vs report {want!r}")
    return False


def reconcile(events, other):
    """Cross-check recomputed per-PCU totals against otherData.per_pcu."""
    pid = fleet_pid(events)
    if pid is None:
        fail("otherData present but no 'pcnna fleet' process track")
    per_pcu = other.get("per_pcu")
    if not isinstance(per_pcu, list):
        fail("otherData.per_pcu missing or not a list")
    if len(per_pcu) != other.get("pcus"):
        fail(f"otherData.per_pcu has {len(per_pcu)} entries for "
             f"{other.get('pcus')} PCUs")
    got = recompute_per_pcu(events, pid, len(per_pcu))
    problems = []
    ok = True
    for p, want in enumerate(per_pcu):
        for key in ("requests", "busy_time", "warmup_time", "swap_time",
                    "swaps", "lost_attempts", "lost_time"):
            if not check_value(f"pcu {p} {key}", got[p][key], want[key],
                               problems):
                ok = False
    # The report makespan covers every span (post-drain health timers can
    # push it past the last completion, never before it).
    makespan = other.get("makespan", 0.0)
    last_end = 0.0
    for e in events:
        if e.get("ph") == "X" and e.get("pid") == pid and \
                e.get("cat") in ("service", "stage"):
            last_end = max(last_end, e["args"]["end"])
    if makespan < last_end:
        problems.append(
            f"  MISMATCH makespan {makespan!r} < last span end {last_end!r}")
        ok = False
    return got, problems, ok


def summarize(path):
    with open(path) as f:
        trace = json.load(f)
    if not isinstance(trace, dict):
        fail("top level is not an object")
    counts = validate_events(trace.get("traceEvents"))
    print(f"{path}: {sum(counts.values())} events "
          f"({', '.join(f'{v} {k}' for k, v in sorted(counts.items()))})")

    other = trace.get("otherData")
    if other is None:
        print("  no otherData section (device trace): validated only")
        return True

    got, problems, ok = reconcile(trace["traceEvents"], other)
    for line in problems:
        print(line)
    print(f"  policy={other.get('policy')} pcus={other.get('pcus')} "
          f"spans={other.get('spans')} makespan={other.get('makespan')}")
    header = (f"  {'pcu':>4} {'requests':>9} {'busy [s]':>14} "
              f"{'warmup [s]':>14} {'swap [s]':>12} {'swaps':>6} "
              f"{'lost':>5}")
    print(header)
    for p, b in enumerate(got):
        print(f"  {p:>4} {b['requests']:>9} {b['busy_time']:>14.6g} "
              f"{b['warmup_time']:>14.6g} {b['swap_time']:>12.6g} "
              f"{b['swaps']:>6} {b['lost_attempts']:>5}")
    print("  reconciliation: " + ("OK (exact)" if ok and not problems
                                  else "OK" if ok else "FAILED"))
    return ok


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2])
        return 2
    ok = True
    for path in argv[1:]:
        try:
            if not summarize(path):
                ok = False
        except (TraceError, OSError, json.JSONDecodeError, KeyError) as e:
            print(f"{path}: INVALID — {e}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
