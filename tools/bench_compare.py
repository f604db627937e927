#!/usr/bin/env python3
"""Compare a fresh BENCH_*.json record with the committed one.

    python3 tools/bench_compare.py [--subset] NEW COMMITTED

Exact counts gate: every `*_events` and `*_channel_msgs` key, and every
`events_*` cell of a sweep record (BENCH_scaleout.json), that COMMITTED holds
must be present in NEW with the same value, because the simulated work of a
bench is deterministic and a changed count means the model or the protocol
changed.  A count only NEW holds is one the bench has just started to
record: it is printed as NEW and passes, so the change that adds it can
refresh the record.  With --subset, NEW may be a capped run that produces
only some of the committed cells (bench_scaleout --max-n=100): a count key
NEW lacks is skipped, not missing, but NEW must share at least one count
with COMMITTED.
Times do not gate: every `*_seconds` key is printed as NEW/COMMITTED with the
direction that is better, for a reader to judge (shared CI runners are too
noisy for a time threshold).

Exits 0 when every count matches, 1 when one differs or is missing, and 2 on
unreadable input.
"""

import json
import sys

COUNT_SUFFIXES = ("_events", "_channel_msgs")
COUNT_PREFIXES = ("events_",)
TIME_SUFFIX = "_seconds"


def is_count(key):
    return key.endswith(COUNT_SUFFIXES) or key.startswith(COUNT_PREFIXES)


def load(path):
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(record, dict):
        print(f"bench_compare: {path} is not a JSON object", file=sys.stderr)
        sys.exit(2)
    return record


def compare(new, committed, subset=False):
    """Prints the comparison; returns the number of count mismatches."""
    mismatches = 0
    shared = 0
    for key in sorted(k for k in set(new) | set(committed) if is_count(k)):
        if subset and key not in new:
            continue
        if key not in committed:
            print(f"NEW  {key}: {new[key]} (not in the committed record)")
        elif key not in new:
            print(f"FAIL {key}: missing from the new record")
            mismatches += 1
        elif new[key] != committed[key]:
            print(f"FAIL {key}: {committed[key]} -> {new[key]} (exact count)")
            mismatches += 1
        else:
            print(f"ok   {key}: {new[key]}")
            shared += 1
    if subset and shared == 0:
        print("FAIL no exact count in common with the committed record")
        mismatches += 1

    for key in sorted(k for k in new if k.endswith(TIME_SUFFIX)):
        if key not in committed or not committed[key]:
            print(f"info {key}: {new[key]:.6g} s (no committed value)")
            continue
        ratio = new[key] / committed[key]
        print(f"info {key}: {committed[key]:.6g} -> {new[key]:.6g} s, "
              f"x{ratio:.3f} (lower is better)")
    return mismatches


def main(argv):
    args = argv[1:]
    subset = "--subset" in args
    if subset:
        args.remove("--subset")
    if len(args) != 2:
        print("usage: bench_compare.py [--subset] NEW COMMITTED",
              file=sys.stderr)
        return 2
    mismatches = compare(load(args[0]), load(args[1]), subset)
    if mismatches:
        print(f"bench_compare: {mismatches} exact count(s) differ")
        return 1
    print("bench_compare: every exact count matches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
