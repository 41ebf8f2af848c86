"""`tools/golden_diff.py` sorts the files of two output trees into identical
ones, ones whose numbers moved within tolerance, and ones that differ."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import golden_diff  # noqa: E402

LOG = '{"rule": "qss_validity", "severity": %r, "start_k": %d}\n'
DERIVED = "k,line,qss_residual\n1,6-7,%r\n2,6-7,\n"


def _trees(root: Path, old: dict, new: dict) -> list[str]:
    for side, files in (("old", old), ("new", new)):
        for name, text in files.items():
            path = root / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return [str(root / "old"), str(root / "new")]


def test_numbers_within_tolerance_are_named_with_counts(tmp_path, capsys):
    old = {"out/eventlog.jsonl": LOG % (1.0, 5) + LOG % (2.0, 9),
           "out/derived_bus7.csv": DERIVED % 3.0, "out/stdout.txt": "ok\n"}
    new = {"out/eventlog.jsonl": LOG % (1.0 + 2e-16, 5) + LOG % (2.0, 9),
           "out/derived_bus7.csv": DERIVED % (3.0 * (1 + 1e-9)), "out/stdout.txt": "ok\n"}
    assert golden_diff.main(_trees(tmp_path, old, new) + ["--rel", "1e-8"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "numeric    out/derived_bus7.csv  qss_residual n=1 max_rel=1e-09",
        "numeric    out/eventlog.jsonl  severity[qss_validity] n=1 max_rel=2.2e-16",
        "identical  out/stdout.txt"]


def test_any_other_difference_is_shown_at_its_first_line(tmp_path, capsys):
    old = {"a.jsonl": LOG % (1.0, 5), "b.jsonl": LOG % (1.0, 5), "c.csv": DERIVED % 3.0,
           "d.txt": "x\n", "e.txt": "gone\n"}
    new = {"a.jsonl": LOG % (1.1, 5), "b.jsonl": LOG % (1.0, 6), "c.csv": DERIVED % 3.0 + "3,6-7,\n",
           "d.txt": "y\n"}
    argv = _trees(tmp_path, old, new)
    assert golden_diff.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [["differs", p] for p in
                                                  ("a.jsonl", "b.jsonl", "c.csv", "d.txt", "e.txt")]
    assert out[0].endswith('line 1: {"rule": "qss_validity", "severity": 1.0, "start_k": 5} | '
                           '{"rule": "qss_validity", "severity": 1.1, "start_k": 5}')
    assert out[2].endswith("4 against 5 lines") and out[4].endswith(f"only in {argv[0]}")
