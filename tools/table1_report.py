#!/usr/bin/env python3
"""Render EXPERIMENTS.md's Table 1 from the committed bench record.

    python3 tools/table1_report.py [--record BENCH_table1_wubbleu.json]
                                   [--check | --write] [EXPERIMENTS.md]

Prints the two Table 1 tables (the five rows, and each paper ratio next to
the measured one with the measured/paper factor) built from the record
that bench_table1_wubbleu writes.  With --write it replaces the block
between the `<!-- table1:begin -->` and `<!-- table1:end -->` markers of
the markdown file; with --check it exits 1 when that block differs from
what the record gives, so the document cannot drift from the record.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BEGIN = "<!-- table1:begin -->"
END = "<!-- table1:end -->"

# The paper's Table 1 (seconds, Java 1.1 on a Pentium Pro 200).
PAPER = {
    "native": 0.54,
    "local_word": 175.6,
    "local_packet": 43.1,
    "remote_word": 604.0,
    "remote_packet": 80.3,
}
ROWS = [
    ("n/a", 'native reference ("HotJava")', "native"),
    ("local", "word passage", "local_word"),
    ("local", "packet passage", "local_packet"),
    ("remote", "word passage", "remote_word"),
    ("remote", "packet passage", "remote_packet"),
]
RATIOS = [
    ("local word / local packet", "local_word", "local_packet"),
    ("remote word / remote packet", "remote_word", "remote_packet"),
    ("remote word / local word", "remote_word", "local_word"),
    ("remote packet / local packet", "remote_packet", "local_packet"),
    ("local packet / native", "local_packet", "native"),
    ("remote packet / native", "remote_packet", "native"),
]


def seconds(value):
    return f"{value:.2g}" if value < 0.01 else f"{value:.3g}"


def count(record, key):
    value = record.get(key)
    return "–" if value is None else f"{value:,}".replace(",", " ")


def render(record):
    measured = {key: record[key + "_seconds"] for _, _, key in ROWS}
    lines = [
        "| Location | Detail | paper (s) | measured (s) | measured events "
        "| channel msgs |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for location, detail, key in ROWS:
        lines.append(
            f"| {location} | {detail} | {PAPER[key]:g} | "
            f"{seconds(measured[key])} | {count(record, key + '_events')} | "
            f"{count(record, key + '_channel_msgs')} |")
    lines += [
        "",
        "| Ratio | paper | measured | measured / paper |",
        "|---|---:|---:|---:|",
    ]
    for name, top, bottom in RATIOS:
        paper = PAPER[top] / PAPER[bottom]
        ours = measured[top] / measured[bottom]
        lines.append(f"| {name} | {paper:.1f}× | {ours:.1f}× | "
                     f"{ours / paper:.2f} |")
    return "\n".join(lines) + "\n"


def splice(text, block):
    begin = text.find(BEGIN)
    end = text.find(END)
    if begin < 0 or end < begin:
        sys.exit(f"table1_report: no {BEGIN} ... {END} block")
    return text[:begin + len(BEGIN)] + "\n" + block + text[end:]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--record",
                        default=os.path.join(ROOT, "BENCH_table1_wubbleu.json"))
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    parser.add_argument("markdown", nargs="?",
                        default=os.path.join(ROOT, "EXPERIMENTS.md"))
    args = parser.parse_args()
    with open(args.record) as f:
        block = render(json.load(f))
    if not (args.check or args.write):
        print(block, end="")
        return 0
    with open(args.markdown) as f:
        text = f.read()
    updated = splice(text, block)
    if args.write:
        with open(args.markdown, "w") as f:
            f.write(updated)
        return 0
    if updated != text:
        print(f"table1_report: {args.markdown}'s Table 1 differs from "
              f"{args.record}; run tools/table1_report.py --write")
        return 1
    print("table1_report: Table 1 matches the record")
    return 0


if __name__ == "__main__":
    sys.exit(main())
