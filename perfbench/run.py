"""clusterssl benchmark: whole training jobs, run one at a time.

Run from the repository root:

    python3 perfbench/run.py --workload gmm_k4 --seed 0 --seconds 36 --trace 0

Every job runs the user pipeline on a config generated from the seed:
load the config and build the dataset and split, train with an output
directory, then evaluate the final checkpoint as `clusterssl eval` does.
`--trace 0` runs a fixed number of short jobs, each on data of its own,
gives each an equal share of `--seconds` and spends what is left of the
share on repeated evals and set-ups; it reports the end-to-end metrics.
`--trace 1` runs one untraced and one traced full-length job, checks that
both wrote the same bytes, and reports per-layer metrics from the traced
job. The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics. See
perfbench/README.md for the workloads and metrics.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS reads these once, when numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

# After training, eval and set-up repeats alternate, at least MIN_REPS
# times each (enough for a tail percentile with ten samples above it). In
# an untraced run they go on until the job's share of the run is used, and
# in a traced run for at least MIN_REPEAT_SECONDS.
MIN_REPS = 11
MAX_REPS = 2000
MIN_REPEAT_SECONDS = 3.0


@dataclass
class Job:
    out_dir: Path
    setup_s: list[float] = field(default_factory=list)
    train_s: float | None = None
    eval_s: list[float] = field(default_factory=list)
    time_to_target_s: float | None = None
    test_clu_acc: float | None = None
    peak_rss_mb: float | None = None
    wall_s: float = 0.0
    problems: list[str] = field(default_factory=list)


def setup(cfg_path: Path):
    """Config load plus dataset build and split; returns (seconds, cfg, ds, split)."""
    from clusterssl import config

    start = time.perf_counter()
    cfg = config.load_config(str(cfg_path))
    ds, split = config.build_experiment(cfg)
    return time.perf_counter() - start, cfg, ds, split


def evaluate_checkpoint(path: Path, ds, split) -> tuple[dict, dict]:
    """What `clusterssl eval --topk K!` computes; returns (checkpoint state, results)."""
    from clusterssl import trainer

    state = trainer.load_checkpoint(str(path))
    model = state["model"]
    model.set_params(state["ema_shadow_arr"])
    test = split.test_idx
    cls_acc, clu_acc, perm = trainer.evaluate(model, ds.features[test], ds.labels[test])
    result = {"test_cls_acc": cls_acc, "test_clu_acc": clu_acc, "best_perm": perm.tolist()}
    if ds.is_image:
        curve = trainer.topk_permutation_accuracy(
            model,
            ds.features[split.labeled_idx], ds.labels[split.labeled_idx],
            ds.features[test], ds.labels[test],
            k=math.factorial(ds.k), temperature=state["config"]["logit_temperature"],
        )
        result["topk_curve"] = curve.tolist()
    return state, result


def _train_with_eval_clock(cfg, ds, split, out_dir: Path):
    """trainer.train, timed, plus the time each evaluation returned."""
    from clusterssl import trainer

    marks: list[float] = []
    evaluate = trainer.evaluate

    def clocked(*args, **kwargs):
        result = evaluate(*args, **kwargs)
        marks.append(time.perf_counter())
        return result

    trainer.evaluate = clocked
    try:
        start = time.perf_counter()
        record = trainer.train(cfg.train, ds, split, out_dir=str(out_dir))
        train_s = time.perf_counter() - start
    finally:
        trainer.evaluate = evaluate
    return record, train_s, [m - start for m in marks]


def _time_to_target(rows: list[dict], marks: list[float], target: float) -> float | None:
    evals = [r for r in rows if r["phase"] == "eval"]
    if len(marks) < len(evals):
        return None
    for row, mark in zip(evals, marks):
        if row["test_clu_acc"] >= target:
            return mark
    return None


def _timed_setup(job: Job, cfg_path: Path, span):
    with span("bench.setup"):
        seconds, cfg, ds, split = setup(cfg_path)
    job.setup_s.append(seconds)
    return cfg, ds, split


def run_job(cfg_path: Path, out_dir: Path, target_acc: float, reference: Path | None,
            prefix_only: bool = False, repeat_until: float | None = None,
            tracer=None) -> Job:
    """One full pipeline; every exception and failed check lands in job.problems.

    The outputs must equal those in `reference`, or with `prefix_only` the
    metrics.csv must be its first lines. Eval and set-up repeats go on
    until `repeat_until`, or for MIN_REPEAT_SECONDS without it.
    """
    from checks import check_checkpoint, check_eval, check_record, compare_dirs, compare_prefix

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    job = Job(out_dir)
    start = time.perf_counter()
    try:
        cfg, ds, split = _timed_setup(job, cfg_path, span)
        gc.collect()
        record, job.train_s, marks = _train_with_eval_clock(cfg, ds, split, out_dir)
        job.test_clu_acc = record.summary.get("test_clu_acc")
        job.time_to_target_s = _time_to_target(record.rows, marks, target_acc)
        job.problems += check_record(out_dir, record)
        if reference is not None:
            job.problems += (compare_prefix(out_dir, reference) if prefix_only
                             else compare_dirs(out_dir, reference))

        if repeat_until is None:
            repeat_until = time.perf_counter() + MIN_REPEAT_SECONDS
        while len(job.eval_s) < MAX_REPS and (
            len(job.eval_s) < MIN_REPS or time.perf_counter() < repeat_until
        ):
            gc.collect()
            with span("bench.eval"):
                t0 = time.perf_counter()
                state, result = evaluate_checkpoint(out_dir / "checkpoint.json", ds, split)
                job.eval_s.append(time.perf_counter() - t0)
            for problem in check_eval(result, record.summary):
                if problem not in job.problems:
                    job.problems.append(problem)
            if job.peak_rss_mb is None:
                # the user pipeline ends here: one set-up, one train, one eval
                job.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                job.problems += check_checkpoint(state, record, cfg.train.iters)
            del state
            gc.collect()
            _timed_setup(job, cfg_path, span)
    except Exception as exc:  # a failed job is reported, not fatal to the run
        job.problems.append(f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    job.wall_s = time.perf_counter() - start
    return job


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def summarize(samples: list[float], unit: str) -> dict:
    entry = {"value": statistics.median(samples), "unit": unit, "n": len(samples)}
    t = tail(samples)
    if t is not None:
        entry["tail_pct"], entry["tail"] = t
    return entry


def run_untraced(wl, seed, work, reference, seconds) -> tuple[list[Job], dict, list[dict]]:
    """jobs_per_run short jobs on config seeds of their own, one share of `seconds` each.

    A median over several jobs, each on other data, varies less from seed
    to seed than one long job: the assignment solve does up to 25% more
    work on some datasets than on others.
    """
    from workloads import generate_config, job_seed, jobs_per_run

    n_jobs = jobs_per_run(wl, seconds)
    jobs: list[Job] = []
    configs: list[dict] = []
    start = time.perf_counter()
    for j in range(n_jobs):
        cfg_seed = job_seed(seed, j, n_jobs)
        cfg_path = generate_config(wl, cfg_seed, ROOT, work / f"job{j}" / "config.json",
                                   work / f"job{j}" / "out", iters=wl.timed_iters)
        configs.append(json.loads(cfg_path.read_text(encoding="utf-8")))
        job = run_job(cfg_path, work / f"job{j}" / "out", wl.target_acc,
                      reference if cfg_seed == 0 else None, prefix_only=True,
                      repeat_until=start + (j + 1) * seconds / n_jobs)
        jobs.append(job)
        if job.problems:
            break
    ok = [j for j in jobs if not j.problems]
    metrics = {}
    if ok:
        metrics["setup_s"] = summarize([s for j in ok for s in j.setup_s], "s")
        metrics["train_s"] = summarize([j.train_s for j in ok], "s")
        metrics["eval_s"] = summarize([s for j in ok for s in j.eval_s], "s")
        metrics["peak_rss_mb"] = {"value": ok[0].peak_rss_mb, "unit": "MB"}
    return jobs, metrics, configs


def run_traced(wl, seed, work, reference, seconds, run_id) -> tuple[list[Job], dict, list[dict], object]:
    """A full-length job on the config seed of the untraced run's first job, twice."""
    from checks import COMPARED_FILES, compare_dirs
    from spans import Tracer, layer_metrics
    from workloads import generate_config, job_seed, jobs_per_run

    cfg_seed = job_seed(seed, 0, jobs_per_run(wl, seconds))
    cfg_path = generate_config(wl, cfg_seed, ROOT, work / "config.json", work / "out")
    out_root = work / "out"
    plain = run_job(cfg_path, out_root / "untraced", wl.target_acc, reference)
    tracer = Tracer(run_id)
    tracer.install()
    try:
        traced = run_job(cfg_path, out_root / "traced", wl.target_acc, reference, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = {}
    if not plain.problems and not traced.problems:
        traced.problems += compare_dirs(traced.out_dir, plain.out_dir,
                                        COMPARED_FILES + ("checkpoint.json",))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_metrics(tracer).items()}
        metrics["trace.overhead_s"] = {"value": traced.train_s - plain.train_s, "unit": "s"}
    generated = json.loads(cfg_path.read_text(encoding="utf-8"))
    return [plain, traced], metrics, [generated, generated], tracer


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_all(args, names: list[str]) -> int:
    """Each workload in a child process of its own; the worst exit code."""
    import subprocess

    codes = []
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="clusterssl end-to-end and per-layer benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="'all' runs every workload in turn, each in its own process")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 reproduces the committed configs")
    p.add_argument("--seconds", type=float, default=36.0,
                   help="length of an untraced run; it sets the number of jobs "
                        "and ends when they and their repeats have used it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one untraced and one traced job, per-layer metrics")
    p.add_argument("--corrupt-reference", action="store_true",
                   help="self-test: check against an altered copy of the committed "
                        "reference; the run must be reported as failed")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.corrupt_reference and args.workload == "all":
        p.error("--corrupt-reference takes a single workload")
    return args


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    from checks import corrupt_copy
    from workloads import WORKLOADS

    package = ROOT / "src" / "clusterssl"
    if not (package / "__init__.py").is_file():
        print(f"error: no clusterssl sources under {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import clusterssl

    if Path(clusterssl.__file__).resolve().parent != package.resolve():
        print(f"error: imported clusterssl from {clusterssl.__file__}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args, sorted(WORKLOADS))
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = BENCH_DIR / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    reference = ROOT / wl.reference_dir if wl.reference_dir and args.seed == 0 else None
    if reference is not None and not reference.is_dir():
        print(f"error: reference run {reference} is missing", file=sys.stderr)
        return 2
    if args.corrupt_reference:
        if reference is None:
            print("error: --corrupt-reference needs a workload with a committed "
                  "reference run and --seed 0", file=sys.stderr)
            return 2
        reference = corrupt_copy(reference, work / "corrupt_reference")
    env = environment(args.seed)

    print(f"clusterssl benchmark: workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            jobs, metrics, configs, tracer = run_traced(wl, args.seed, work, reference,
                                                        args.seconds, tag)
            tracer.write_jsonl(RESULTS_DIR / f"{tag}-spans.jsonl")
        else:
            jobs, metrics, configs = run_untraced(wl, args.seed, work, reference, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for i, (job, cfg) in enumerate(zip(jobs, configs)):
        ttt = "n/a" if job.time_to_target_s is None else f"{job.time_to_target_s:.3f} s"
        print(f"job {i}: config seeds {[cfg[b]['seed'] for b in ('dataset', 'split', 'train')]}, "
              f"{cfg['train']['iters']} iterations, train_s {job.train_s}, test_clu_acc {job.test_clu_acc}, "
              f"time_to_target_s (test_clu_acc >= {wl.target_acc}) {ttt}, "
              f"checks {'ok' if not job.problems else 'FAILED'}")
        for problem in job.problems:
            print(f"  problem: {problem}")
    for name, entry in metrics.items():
        extra = ""
        if "n" in entry:
            extra = f"  median of {entry['n']}"
            if "tail" in entry:
                extra += f", p{entry['tail_pct']:.1f} {entry['tail']:.6g}"
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}{extra}")

    failed = sum(1 for j in jobs if j.problems)
    informational = {
        "time_to_target_s": [j.time_to_target_s for j in jobs],
        "test_clu_acc": [j.test_clu_acc for j in jobs],
        "failed_share": failed / len(jobs),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "configs": configs, "metrics": metrics,
        "informational": informational,
        "jobs": [{**vars(j), "out_dir": str(j.out_dir)} for j in jobs],
    }, indent=2) + "\n", encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": e["value"], "unit": e["unit"]} for name, e in metrics.items()},
    }
    print(json.dumps(result))
    if args.corrupt_reference:
        fired = failed > 0
        print("self-test " + ("passed: the output check fired on the altered reference"
                              if fired else "FAILED: the altered reference went unnoticed"),
              file=sys.stderr)
        return 0 if fired else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
