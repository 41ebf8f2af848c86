"""Write the outputs of `simulate` and `analyze --derived` into one tree.

Run from the repo root:  python tools/golden_outputs.py OUTDIR

For every bundled scenario, and for `slgf` with a replay attack on bus 19
over k 300-700 (window 120), OUTDIR/<name>/streams holds what `simulate`
wrote and OUTDIR/<name>/out what `analyze --derived` wrote from it. The
tree uses the gridwatch of the checkout this script sits in, so a change
that must keep every output byte for byte is checked by running the script
on both checkouts and comparing the trees with `diff -r`.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridwatch import cli  # noqa: E402

REPLAY = {"kind": "replay_attack", "bus": 19, "start_k": 300, "end_k": 700,
          "magnitude": 120}


def run(outdir: Path, name: str, scenario: Path) -> None:
    streams, out = outdir / name / "streams", outdir / name / "out"
    for argv in (["simulate", "--scenario", str(scenario), "--out", str(streams)],
                 ["analyze", "--streams", str(streams), "--out", str(out), "--derived"]):
        code = cli.main(argv)
        if code:
            sys.exit(f"{name}: gridwatch {argv[0]} exited {code}")


def main(argv: list[str]) -> None:
    if len(argv) != 1 or argv[0].startswith("-"):
        sys.exit("usage: python tools/golden_outputs.py OUTDIR")
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    for scenario in sorted((cli.DATA_DIR / "scenarios").glob("*.json")):
        run(outdir, scenario.stem, scenario)
    doc = json.loads((cli.DATA_DIR / "scenarios" / "slgf.json").read_text())
    doc["events"] = sorted(doc["events"] + [REPLAY], key=lambda e: e["start_k"])
    scenario = outdir / "slgf_replay.json"
    scenario.write_text(json.dumps(doc))
    run(outdir, "slgf_replay", scenario)


if __name__ == "__main__":
    main(sys.argv[1:])
