"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quickstart --seed 7 --seconds 15 --trace 0

Run from anywhere inside a checkout: emsdeploy is imported from the
checkout's ``src/``. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs one unit untraced and the same unit traced, and reports
the per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
environment, output digests and per-unit detail, is written under
``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import os

# Pin BLAS threads the same way on every run, before numpy loads.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Stopwatch  # noqa: E402  (perfbench/ is this script's directory)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_package() -> None:
    package = SRC / "emsdeploy"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no emsdeploy sources at {package}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import emsdeploy

    if Path(emsdeploy.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported emsdeploy from {emsdeploy.__file__}, not {package}")


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    try:
        # stop at the checkout root: a checkout need not be a repository
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "emsdeploy").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "seed": seed,
    }


def _nondeterminism(units) -> list[str]:
    """Units that ran the same inputs must agree on their output digest."""
    by_key: dict[str, set[str]] = {}
    for u in units:
        by_key.setdefault(u.key, set()).add(u.digest)
    return [f"units on inputs {key!r} gave {len(d)} different output digests" for key, d in by_key.items() if len(d) > 1]


def _instance_mean(units, attr: str = "wall_s") -> float:
    """Median unit wall time of each instance, averaged over instances."""
    by_instance: dict[int, list[float]] = {}
    for u in units:
        by_instance.setdefault(u.instance, []).append(getattr(u, attr))
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


def _unit_record(u) -> dict:
    return {"instance": u.instance, "key": u.key, "wall_s": u.wall_s, "raw_wall_s": u.raw_wall_s, "attempted": u.attempted, "failed": u.failed,
            "digest": u.digest, "detail": u.detail, "errors": u.errors}


def run_untraced(wl, seconds: float) -> dict:
    setup_s, setup_raw_s, inputs = [], [], {}
    for rep in range(SETUP_REPS):
        i = rep % wl.INSTANCES
        with Stopwatch() as clock:
            clock.resume()
            wl.setup(i)
            raw, ref = clock.lap(resume=False)
        setup_raw_s.append(raw)
        setup_s.append(ref)
        inputs.setdefault(i, set()).add(wl.inputs_digest(i))
    units = []
    start = time.perf_counter()
    while True:
        gc.collect()  # garbage left by set-up or the last unit is not this unit's cost
        with Stopwatch() as clock:
            units.append(wl.unit(len(units), clock))
        elapsed = time.perf_counter() - start
        # every instance runs once; after that, stop before a unit would overrun
        if len(units) >= wl.INSTANCES and elapsed + elapsed / len(units) > seconds:
            break
    problems = _nondeterminism(units)
    problems += [f"set-ups of instance {i} gave {len(d)} different inputs" for i, d in inputs.items() if len(d) > 1]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "wall_s": _instance_mean(units),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
        "error_rate": failed / attempted,
        "raw_wall_s": _instance_mean(units, "raw_wall_s"),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "inputs_sha256": {i: sorted(d) for i, d in inputs.items()},
        "units": [_unit_record(u) for u in units],
        "problems": problems,
    }


def run_traced(wl, spans_path: Path) -> dict:
    import layers
    from tracing import Tracer

    wl.setup()
    gc.collect()
    with Stopwatch() as clock:
        plain = wl.unit(0, clock)
    tracer = Tracer("emsdeploy")
    layers.install(tracer)
    try:
        wl.setup()
        synth_s = sum(s[2] - s[1] for s in tracer.reset() if s[0] == "synth.synth_calls")
        gc.collect()
        with Stopwatch() as clock:
            tracer.clock = clock.work_clock  # spans leave the host-speed probes out
            traced = wl.unit(0, clock, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    problems = _nondeterminism([plain, traced])
    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    metrics = layers.metrics(tracer, traced.attempted, traced.failed, synth_s, traced.wall_s - plain.wall_s)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in layers.PER_LAYER.items()},
        "error_rate": failed / attempted,
        "units": [_unit_record(plain), _unit_record(traced)],
        "spans": spans_path.name,
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = environment(args.seed)
    print("perfbench environment: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            record = run_traced(wl, OUT / f"{stem}-spans.json")
        else:
            record = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "environment": env, **record}
    with open(OUT / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    for problem in record["problems"] + [e for u in record["units"] for e in u["errors"]]:
        print(f"perfbench {args.workload}: {problem}")
    shown = " | ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in record["metrics"].items())
    if "raw_wall_s" in record:
        shown += f" | raw_wall_s {record['raw_wall_s']:.6g} s (host speed not corrected)"
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {len(record['units'])} unit(s) | {shown} | "
          f"error_rate {record['error_rate']:.6g} ratio ({record['failed']}/{record['attempted']})")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
