#!/usr/bin/env python3
"""One SHA-256 per record of the output of ``tools/reports.py``.

Reads that output on standard input and prints one line per record, the
SHA-256 of the record's text and its label, in the order of the output:

    python3 tools/reports.py | python3 tools/golden.py > tools/reports.golden
    python3 tools/reports.py | python3 tools/golden.py | diff tools/reports.golden -

The first line writes the committed digests; the second compares with
them, and each record whose text changed, or that is missing or new,
shows as a line of the diff that names it.  A record is one input of a
workload (``pipeline-n4 seed 1 #0``: its two reports, its derived system
and its reality), one transported model (``transform n=2``) or the
implicit solution (``implicit``): the lines that begin with its label,
with the indented lines that follow them.  A line that is neither
indented nor labelled stops the script with exit status 2.

It needs only the standard library.
"""

from __future__ import annotations

import hashlib
import re
import sys

LABEL = re.compile(r"\S+ seed \d+ #\d+|transform n=\d+|implicit")


def records(lines):
    """[(label, text)] of the records of the report lines, in order."""
    out = []
    for line in lines:
        match = None if line.startswith(" ") else LABEL.match(line)
        if match:
            if not out or out[-1][0] != match.group():
                out.append((match.group(), []))
        elif not line.startswith(" ") or not out:
            raise ValueError(f"line without a record label: {line!r}")
        out[-1][1].append(line)
    return [(label, "".join(text)) for label, text in out]


def main() -> int:
    try:
        found = records(sys.stdin)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    for label, text in found:
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
