"""Compare two trees written by `tools/golden_outputs.py`, file by file.

Run from the repo root:  python tools/golden_diff.py OLD NEW [--rel R]

Each file of either tree gets one line, in path order:

    identical  PATH
    numeric    PATH  NAME n=COUNT max_rel=X, ...
    differs    PATH  line N: OLD-LINE | NEW-LINE

`numeric` means the file differs only in numbers within relative
tolerance R (default 1e-12): fields of the JSON objects of a `.jsonl`
file, named by their key and, for an event log line, its rule
(`severity[qss_validity]`), or cells of a `.csv` file, named by their
column header. Each comes with the number of lines where it moved and its
largest relative difference. Any other difference is `differs`, shown at
its first line: a file in one tree only, another line count, a changed
key, text or header, or a number further apart than R. Other files are compared as bytes. The
exit code is 1 when a file differs, else 0.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path


class Differs(Exception):
    """The first line of a file that differs otherwise than in numbers
    within tolerance."""


def _number(x) -> float | None:
    """x as a float if it is a JSON number, else None."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    return None


def _close(a: float, b: float, rel: float, moved: dict, name: str) -> bool:
    """Whether a and b agree within `rel`; a move is counted under `name`
    (a field or column moves at most once per line)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    d = abs(a - b) / max(abs(a), abs(b))
    if d > rel:
        return False
    count, worst = moved.get(name, (0, 0.0))
    moved[name] = (count + 1, max(worst, d))
    return True


def _cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _jsonl_line(a: str, b: str, rel: float, moved: dict) -> bool:
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return False
    if not (isinstance(x, dict) and isinstance(y, dict)) or list(x) != list(y):
        return False
    for key in x:
        if x[key] != y[key]:
            u, v = _number(x[key]), _number(y[key])
            name = f"{key}[{x['rule']}]" if "rule" in x else key
            if u is None or v is None or not _close(u, v, rel, moved, name):
                return False
    return True


def _csv_line(a: str, b: str, header: list[str], rel: float, moved: dict) -> bool:
    x, y = next(csv.reader([a])), next(csv.reader([b]))
    if len(x) != len(y) or len(x) != len(header):
        return False
    for name, u, v in zip(header, x, y):
        if u != v:
            p, q = _cell(u), _cell(v)
            if p is None or q is None or not _close(p, q, rel, moved, name):
                return False
    return True


def compare(old: bytes, new: bytes, kind: str, rel: float) -> dict[str, tuple[int, float]]:
    """The numbers that moved, by field or column: (lines, largest relative
    difference); empty when the files are identical. Raises `Differs`."""
    if old == new:
        return {}
    if kind not in (".jsonl", ".csv"):
        raise Differs("the bytes differ")
    a = old.decode().split("\n")
    b = new.decode().split("\n")
    if len(a) != len(b):
        raise Differs(f"{len(a)} against {len(b)} lines")
    header = next(csv.reader(io.StringIO(a[0]))) if kind == ".csv" and a[0] == b[0] else None
    moved: dict[str, tuple[int, float]] = {}
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if x == y:
            continue
        ok = (_jsonl_line(x, y, rel, moved) if kind == ".jsonl"
              else header is not None and n > 1 and _csv_line(x, y, header, rel, moved))
        if not ok:
            raise Differs(f"line {n}: {x} | {y}")
    return moved


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="golden_diff.py", description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--rel", type=float, default=1e-12,
                    help="relative tolerance for numbers (default 1e-12)")
    args = ap.parse_args(argv)
    differs = 0
    for path in sorted(_files(args.old) | _files(args.new)):
        a, b = args.old / path, args.new / path
        try:
            if not (a.is_file() and b.is_file()):
                raise Differs(f"only in {args.old if a.is_file() else args.new}")
            moved = compare(a.read_bytes(), b.read_bytes(), a.suffix, args.rel)
        except (Differs, UnicodeDecodeError) as e:
            differs += 1
            print(f"differs    {path}  {e}")
            continue
        if moved:
            names = ", ".join(f"{name} n={count} max_rel={worst:.2g}"
                              for name, (count, worst) in sorted(moved.items()))
            print(f"numeric    {path}  {names}")
        else:
            print(f"identical  {path}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
