"""Shared plumbing: find the program's source, run children, report the box.

The benchmark runs gridwatch from the `src/` directory of the checkout it
sits in, never from an installed copy, so that it measures the code next to
it. Without that directory it stops with exit code 2.
"""
from __future__ import annotations

import ctypes
import glob
import importlib
import json
import os
import platform
import signal
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"

EXIT_NO_PROGRAM = 2

MODULES = ("model", "synth", "analytics", "central", "transport", "placement",
           "pipeline", "cli")


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def load_gridwatch() -> types.SimpleNamespace:
    """Import every gridwatch module from this checkout's src/ or exit 2."""
    if not (SRC / "gridwatch" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'gridwatch'}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"gridwatch.{m}") for m in MODULES}
    where = Path(mods["model"].__file__).resolve()
    if SRC not in where.parents:
        print(f"perfbench: gridwatch imported from {where}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return types.SimpleNamespace(**mods)


def x_csv(xs) -> str:
    """`central_x.csv` as `gridwatch analyze` and `serve-central` write it."""
    return "\n".join(["k,x"] + [f"{k},{x!r}" for k, x in xs]) + "\n"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def launch(cmd: list[str], result_json: Path) -> subprocess.Popen:
    """Start `cmd` under spawn.py, in a session of its own, stdout piped."""
    return subprocess.Popen([sys.executable, str(BENCH / "spawn.py"), str(result_json), *cmd],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            start_new_session=True)


def finish(proc: subprocess.Popen, result_json: Path) -> tuple[str, int, float]:
    """Read a launched command's stdout to its end and reap it.

    Returns (stdout, exit code, the command's own peak RSS in MB).
    """
    try:
        out = proc.stdout.read().decode()
        proc.wait()
    finally:
        stop(proc)
    r = json.loads(result_json.read_text())
    return out, r["code"], r["maxrss_kb"] / 1024.0


def stop(proc: subprocess.Popen) -> None:
    """Kill a launched command and everything it started, if still running."""
    proc.stdout.close()
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def run_worker(args: list[str], result_json: Path) -> tuple[dict, float]:
    """Run perfbench/worker.py; return its JSON result and its peak RSS in MB."""
    proc = launch([sys.executable, str(BENCH / "worker.py"), *args], result_json)
    out, code, rss_mb = finish(proc, result_json)
    if code != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {code}")
    return json.loads(out.strip().splitlines()[-1]), rss_mb


def blas_threads() -> int | None:
    """OpenBLAS's thread count as numpy's bundled OpenBLAS reports it."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "blas": blas_name, "blas_threads": blas_threads(),
            "numpy": np.__version__, "python": platform.python_version()}

