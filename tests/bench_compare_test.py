#!/usr/bin/env python3
"""Checks tools/bench_compare.py's exact-count gate on fixture records.

    python3 tests/bench_compare_test.py

A record with one changed `*_events` count must exit 1 and name the key; the
committed record against itself, and a record whose only changes are times,
must exit 0.  A count only the new record holds is printed as NEW and
passes; a count only the committed record holds fails unless --subset is
given.  On a scale-out sweep record the `events_*` cells gate too: a
capped run (only the N <= 100 cells) passes with --subset and fails without
it, and a changed cell fails either way.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")
DATA = os.path.join(ROOT, "tests", "data")
COMMITTED = os.path.join(DATA, "bench_compare_committed.json")
CHANGED_COUNT = os.path.join(DATA, "bench_compare_changed_count.json")
SCALEOUT = os.path.join(DATA, "bench_compare_scaleout_committed.json")


def run(new, committed, *flags):
    result = subprocess.run([sys.executable, TOOL, *flags, new, committed],
                            capture_output=True, text=True)
    return result.returncode, result.stdout + result.stderr


def write(tmp, name, record):
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        json.dump(record, f)
    return path


def check_sweep(tmp, failures):
    """The events_* cells of a sweep record, with and without --subset."""
    with open(SCALEOUT) as f:
        sweep = json.load(f)
    capped = {k: v for k, v in sweep.items() if "n1000_" not in k}
    capped["max_n"] = 100
    path = write(tmp, "capped.json", capped)
    code, out = run(path, SCALEOUT, "--subset")
    if code != 0 or "ok   events_n10_s1_w1_per" not in out:
        failures.append(f"capped sweep, --subset: exit {code}, expected 0\n{out}")
    code, out = run(path, SCALEOUT)
    if code != 1 or "FAIL events_n1000_s1_w1_per" not in out:
        failures.append(f"capped sweep, strict: exit {code}, expected 1\n{out}")

    capped["events_n10_s1_w1_agg"] += 1
    path = write(tmp, "capped_changed.json", capped)
    code, out = run(path, SCALEOUT, "--subset")
    if code != 1 or "FAIL events_n10_s1_w1_agg" not in out:
        failures.append(f"changed sweep cell: exit {code}, expected 1\n{out}")

    path = write(tmp, "unrelated.json", {"bench": "scaleout", "max_n": 1})
    code, out = run(path, SCALEOUT, "--subset")
    if code != 1 or "no exact count in common" not in out:
        failures.append(f"no shared cell: exit {code}, expected 1\n{out}")


def main():
    failures = []

    code, out = run(CHANGED_COUNT, COMMITTED)
    if code != 1 or "FAIL remote_word_events" not in out:
        failures.append(f"changed count: exit {code}, expected 1\n{out}")

    code, out = run(COMMITTED, COMMITTED)
    if code != 0:
        failures.append(f"identical records: exit {code}, expected 0\n{out}")

    with open(COMMITTED) as f:
        record = json.load(f)
    record = {k: v * 3 if k.endswith("_seconds") else v
              for k, v in record.items()}
    with tempfile.TemporaryDirectory() as tmp:
        slower = os.path.join(tmp, "slower.json")
        with open(slower, "w") as f:
            json.dump(record, f)
        code, out = run(slower, COMMITTED)
        if code != 0 or "x3.000" not in out:
            failures.append(f"times only: exit {code}, expected 0\n{out}")

        del record["remote_packet_channel_msgs"]
        missing = os.path.join(tmp, "missing.json")
        with open(missing, "w") as f:
            json.dump(record, f)
        code, out = run(missing, COMMITTED)
        if code != 1 or "FAIL remote_packet_channel_msgs" not in out:
            failures.append(f"missing count: exit {code}, expected 1\n{out}")

        with open(COMMITTED) as f:
            gained = json.load(f)
        gained["local_word_events"] = 17096
        path = write(tmp, "gained.json", gained)
        code, out = run(path, COMMITTED)
        if code != 0 or "NEW  local_word_events: 17096" not in out:
            failures.append(f"new-only count: exit {code}, expected 0\n{out}")

        code, out = run(missing, COMMITTED, "--subset")
        if code != 0 or "remote_packet_channel_msgs" in out:
            failures.append(
                f"committed-only count, --subset: exit {code}, expected 0\n{out}")

        check_sweep(tmp, failures)

    for failure in failures:
        print(failure)
    print("bench_compare_test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
