"""Output checks run on every job, traced or not.

Each check returns a list of problems; an empty list means the job's
outputs are correct. A job with any problem counts as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

COMPARED_FILES = ("metrics.csv", "summary.json")


def _first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return f"line {i}: {x[:80]!r} != {y[:80]!r}"
    return f"{len(la)} lines != {len(lb)} lines"


def compare_dirs(out_dir: Path, ref_dir: Path, names=COMPARED_FILES) -> list[str]:
    """Byte-for-byte comparison of `names` in two run directories."""
    problems = []
    for name in names:
        ref = ref_dir / name
        if not ref.is_file():
            problems.append(f"reference file {ref} is missing")
            continue
        got, want = (out_dir / name).read_bytes(), ref.read_bytes()
        if got != want:
            problems.append(f"{name} differs from {ref}: {_first_difference(got, want)}")
    return problems


def compare_prefix(out_dir: Path, ref_dir: Path, name: str = "metrics.csv") -> list[str]:
    """`name` in `out_dir` is the first lines of the reference file, byte for byte.

    A run with fewer iterations than the reference run writes a prefix of
    its metrics.csv.
    """
    ref = ref_dir / name
    if not ref.is_file():
        return [f"reference file {ref} is missing"]
    got = (out_dir / name).read_bytes().splitlines(keepends=True)
    want = ref.read_bytes().splitlines(keepends=True)
    if not got or got != want[:len(got)]:
        return [f"{name} is not a prefix of {ref}: "
                f"{_first_difference(b''.join(got), b''.join(want[:len(got)]))}"]
    return []


def corrupt_copy(ref_dir: Path, dest: Path) -> Path:
    """Copy `ref_dir`'s compared files to `dest`, altering one digit of metrics.csv.

    The digit is in the first data row, so checks of a prefix see it too.
    """
    dest.mkdir(parents=True, exist_ok=True)
    for name in COMPARED_FILES:
        data = (ref_dir / name).read_bytes()
        if name == "metrics.csv":
            row_end = data.index(b"\n", data.index(b"\n") + 1)
            pos = max(data.rfind(bytes([d]), 0, row_end) for d in b"123456789")
            data = data[:pos] + b"0" + data[pos + 1:]
        (dest / name).write_bytes(data)
    return dest


def check_record(out_dir: Path, record) -> list[str]:
    """The files a run wrote agree with the record `train` returned."""
    problems = []
    if (out_dir / "metrics.csv").read_text(encoding="utf-8") != record.csv_text():
        problems.append("metrics.csv on disk differs from the returned rows")
    on_disk = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    if on_disk != json.loads(json.dumps(record.summary)):
        problems.append("summary.json on disk differs from the returned summary")
    return problems


def check_checkpoint(state: dict, record, iters: int) -> list[str]:
    """The final checkpoint holds the full run and a consistent target pool."""
    from clusterssl.clustering import TargetPool

    problems = []
    if state["iteration"] != iters:
        problems.append(f"checkpoint iteration {state['iteration']} != {iters}")
    if state["rows"] != json.loads(json.dumps(record.rows)):
        problems.append("checkpoint rows differ from the returned rows")
    if state["pool"] is not None:
        try:
            TargetPool.from_state(state["pool"])
        except AssertionError as exc:
            problems.append(f"checkpoint target pool is inconsistent: {exc}")
    return problems


def check_eval(result: dict, summary: dict) -> list[str]:
    """A re-evaluation of the final checkpoint reproduces the summary."""
    problems = []
    for key in ("test_cls_acc", "test_clu_acc", "best_perm", "topk_curve"):
        if key in result and result[key] != summary.get(key):
            problems.append(f"eval {key} {result[key]!r} != summary {summary.get(key)!r}")
    return problems
