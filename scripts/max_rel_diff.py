"""Print the largest relative difference between two numeric text or CSV files.

    python3 scripts/max_rel_diff.py OLD NEW

Fields are split on whitespace and on the characters ,;="() so the
key=value notes of an estimate table compare too.  Each column's
difference is max |old - new| over max |old| in that column (inf where
only the old column is all zero); a row that starts with a label, such
as an estimate table's method, has columns of its own.  The largest
over the columns is printed.  Exits 1 if the files differ in shape or
in a field that is not a number.
"""

import math
import re
import sys


def fields(path):
    with open(path) as fh:
        return [re.split(r"[\s,;=\"()]+", line.strip()) for line in fh if line.strip()]


def number(text):
    try:
        return float(text)
    except ValueError:
        return None


old, new = (fields(p) for p in sys.argv[1:3])
if [len(r) for r in old] != [len(r) for r in new]:
    sys.exit(f"{sys.argv[1]} and {sys.argv[2]} differ in shape")
diff, scale = {}, {}
for i, (a_row, b_row) in enumerate(zip(old, new), start=1):
    label = a_row[0] if number(a_row[0]) is None else None
    for j, (a, b) in enumerate(zip(a_row, b_row)):
        x, y = number(a), number(b)
        if x is None or y is None:
            if a != b:
                sys.exit(f"line {i}, field {j + 1}: {a!r} != {b!r}")
            continue
        col = (label, j)
        diff[col] = max(diff.get(col, 0.0), abs(x - y))
        scale[col] = max(scale.get(col, 0.0), abs(x))
print(max((d / scale[col] if scale[col] else (math.inf if d else 0.0) for col, d in diff.items()), default=0.0))
