"""Run experiment configs under two source trees and compare what they write.

    python tools/compare_outputs.py BASE_SRC NEW_SRC [CONFIG ...]
    python tools/compare_outputs.py BASE_SRC NEW_SRC --workload NAME [--seed N]

Each config (default: every ``configs/*.json`` of this checkout; with
``--workload``, the configs of one pass of that benchmark workload at seed N,
default 0, as ``perfbench/workloads.py`` builds them) runs once per tree as
``python -m carleman_lab.cli run CONFIG --out DIR`` in a fresh subprocess
with that tree's ``src`` directory on ``PYTHONPATH`` and
``CARLEMAN_LAB_SEED`` unset.  For every output file the report says
``identical`` or, where the bytes differ, the largest relative drift
|a - b| / max(|a|, |b|) of each numeric column: CSV columns by header,
``summary.json`` leaves by key path, ``.bin`` grids as one ``values`` column
after their header.  Text that does not parse as numbers is reported as the
count of differing cells or lines.

Exit status: 0 when every file of every config is byte-identical and both
trees exit alike, 1 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BIN_HEADER = struct.Struct("<qqd")


def _workloads():
    """The benchmark's ``perfbench/workloads.py`` module."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_configs(name: str, seed: int, where: Path) -> list[Path]:
    """The configs of one pass of the benchmark workload ``name`` at ``seed``,
    written to ``where`` as ``<name>-<index>-<experiment>.json``."""
    paths = []
    for i, cfg in enumerate(_workloads().configs(name, seed)):
        path = where / f"{name}-{i}-{cfg['experiment']}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths.append(path)
    return paths


def run_config(src: Path, config: Path, out: Path) -> int:
    env = dict(os.environ)
    env.pop("CARLEMAN_LAB_SEED", None)
    env["PYTHONPATH"] = str(src)
    cmd = [sys.executable, "-m", "carleman_lab.cli", "run", str(config), "--out", str(out)]
    done = subprocess.run(cmd, env=env, cwd=out.parent, capture_output=True, text=True)
    return done.returncode


def drift(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def compare_columns(a: dict, b: dict) -> list[str]:
    """One line per column whose values differ: the largest relative drift of
    a numeric column, else the count of differing cells."""
    lines = []
    for name in sorted(set(a) | set(b), key=str):
        ca, cb = a.get(name), b.get(name)
        if ca is None or cb is None:
            lines.append(f"{name}: only in {'base' if cb is None else 'new'}")
            continue
        if len(ca) != len(cb):
            lines.append(f"{name}: {len(ca)} vs {len(cb)} entries")
            continue
        if ca == cb:
            continue
        na, nb = [_number(v) for v in ca], [_number(v) for v in cb]
        if None in na or None in nb:
            lines.append(f"{name}: {sum(x != y for x, y in zip(ca, cb))} cells differ")
        else:
            lines.append(f"{name}: max rel drift {max(map(drift, na, nb)):.3g}")
    return lines


def _csv_columns(data: bytes) -> dict:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {h: [r[i] if i < len(r) else None for r in body] for i, h in enumerate(header)}


def _json_columns(data: bytes) -> dict:
    leaves = {}

    def walk(path, v):
        if isinstance(v, dict):
            for k, x in v.items():
                walk(f"{path}.{k}" if path else k, x)
        elif isinstance(v, list):
            for i, x in enumerate(v):
                walk(f"{path}[{i}]", x)
        else:
            leaves[path] = [v if isinstance(v, (int, float)) and not isinstance(v, bool)
                            else json.dumps(v)]

    walk("", json.loads(data))
    return leaves


def _bin_columns(data: bytes) -> dict:
    import numpy as np

    head = data[: BIN_HEADER.size]
    values = np.frombuffer(data[BIN_HEADER.size :], dtype="<f8")
    return {"header": [repr(BIN_HEADER.unpack(head))], "values": values.tolist()}


def _text_columns(data: bytes) -> dict:
    return {"lines": data.decode("utf-8", errors="replace").splitlines()}


READERS = {".csv": _csv_columns, ".json": _json_columns, ".bin": _bin_columns}


def compare_file(name: str, a: bytes, b: bytes) -> list[str]:
    if a == b:
        return ["identical"]
    read = READERS.get(Path(name).suffix, _text_columns)
    return compare_columns(read(a), read(b)) or ["bytes differ, values equal"]


def compare_dirs(base: Path, new: Path) -> tuple[bool, list[str]]:
    """(all identical, report lines) for two output directories."""
    same = True
    lines = []
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in new.iterdir()})
    for name in names:
        pa, pb = base / name, new / name
        if not (pa.exists() and pb.exists()):
            same = False
            lines.append(f"  {name}: only in {'base' if pa.exists() else 'new'}")
            continue
        found = compare_file(name, pa.read_bytes(), pb.read_bytes())
        same = same and found == ["identical"]
        lines.append(f"  {name}: {found[0]}")
        lines.extend(f"    {line}" for line in found[1:])
    return same, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="src directory of the base tree")
    parser.add_argument("new", type=Path, help="src directory of the new tree")
    parser.add_argument("configs", nargs="*", type=Path,
                        help="JSON configs (default: configs/*.json)")
    parser.add_argument("--workload", choices=sorted(_workloads().WORKLOADS),
                        help="run the configs of one pass of this benchmark workload")
    parser.add_argument("--seed", type=int, help="the workload's seed (default 0)")
    args = parser.parse_args(argv)
    if args.workload and args.configs:
        parser.error("give configs or --workload, not both")
    if args.seed is not None and not args.workload:
        parser.error("--seed needs --workload")
    configs = args.configs or sorted((ROOT / "configs").glob("*.json"))
    for src in (args.base, args.new):
        if not (src / "carleman_lab").is_dir():
            print(f"error: {src} holds no carleman_lab package", file=sys.stderr)
            return 2
    all_same = True
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        if args.workload:
            seed = 0 if args.seed is None else args.seed
            configs = workload_configs(args.workload, seed, Path(tmp))
        for i, config in enumerate(configs):
            outs = [Path(tmp) / f"{i}-{side}" / "out" for side in ("base", "new")]
            codes = []
            for src, out in zip((args.base, args.new), outs):
                out.parent.mkdir()
                codes.append(run_config(src.resolve(), config.resolve(), out))
                out.mkdir(exist_ok=True)
            same, lines = compare_dirs(*outs)
            same = same and codes[0] == codes[1]
            all_same = all_same and same
            print(f"{config.name}: exit {codes[0]} / {codes[1]}, "
                  f"{'identical' if same else 'DIFFERENT'}")
            print("\n".join(lines))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
