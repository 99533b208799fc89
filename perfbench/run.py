"""The spiderveil benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass of the user's path
(``gen -> bootstrap -> train -> crawl -> analyze -> eval``) runs in a fresh
worker process, one thread of load, with its outputs checked against the
results recorded in ``perfbench/expected``.

With ``--trace 0`` the run makes a fixed schedule of rounds, each one pass on
every recorded network in the order the seed gives; ``--seconds`` sets the
number of rounds (one per ``ROUND_SECONDS``, at least one), never the time
elapsed.  Each stage's time is scaled to one host speed by the reference work
the worker times during it (``worker.HostSpeed``).  Each end-to-end metric is
the median over a network's passes, then the mean over the networks.  With
``--trace 1`` it makes one untraced and one traced pass on the first network
and reports the per-layer metrics of the traced one, unscaled;
``trace.overhead_s`` is traced minus untraced ``pipeline_s``, both unscaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (stage invocations) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, gen_seeds_for, spec as workload_spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".perfbench"
ROUND_SECONDS = 30
# The time of the reference work (``worker.HostSpeed``) on the 2-core Xeon the
# benchmark was defined on (the median over 20 runs of the listed workloads of
# each run's median per stage), so that scaled times read close to that
# machine's typical wall times.
HOST_REFERENCE_S = 0.00056
WORKER_TIMEOUT_S = 170
# Load is one process and one thread; BLAS may use every core but no more.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in BLAS_ENV:
        env[name] = str(os.cpu_count() or 1)
    return env


def run_worker(spec: dict, trace: bool = False, record: bool = False) -> dict:
    """One pass in a fresh process; the result, or a failure record."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK_ROOT))
    result_path = work / "result.json"
    out = work / "out"
    out.mkdir()
    command = [sys.executable, str(BENCH / "worker.py"), "--spec", json.dumps(spec),
               "--out-dir", str(out), "--result", str(result_path)]
    if trace:
        command += ["--trace", str(WORK_ROOT / "traces" /
                                   f"{spec['workload']}.{spec['gen_seed']}.json")]
    if record:
        command.append("--record")
    start = time.perf_counter()
    try:
        completed = subprocess.run(command, cwd=ROOT, env=worker_env(),
                                   stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                   text=True, timeout=WORKER_TIMEOUT_S)
        if completed.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
        else:
            result = {"stages": {}, "problems": [
                f"worker exited {completed.returncode}: {completed.stderr[-2000:]}"]}
    except subprocess.TimeoutExpired:
        result = {"stages": {}, "problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["wall_s"] = time.perf_counter() - start
    return result


def pass_times(result: dict, scaled: bool = True) -> dict:
    """End-to-end times of one complete pass, scaled to the reference host speed.

    Each stage's seconds are multiplied by ``HOST_REFERENCE_S`` over the mean
    time the reference work took during that stage (see ``worker.HostSpeed``).
    """
    seconds = {stage: info["seconds"] * (HOST_REFERENCE_S / info["reference_s"]
                                         if scaled else 1.0)
               for stage, info in result["stages"].items()}
    return {
        "pipeline_s": sum(seconds.values()),
        "setup_s": seconds["gen"] + seconds["bootstrap"] + seconds["train"],
        "crawl_s": seconds["crawl"],
        "analyze_s": seconds["analyze"],
        "bloggers_per_s": result["processed"] / seconds["crawl"],
        "peak_rss_mb": result["peak_rss_mb"],
        "f_score": result["f_score"],
    }


def complete(result: dict) -> bool:
    return "f_score" in result


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit, from the benchmark definition."""
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in definition[kind]}


def untraced_run(specs: list[dict], seconds: float, results: list) -> dict:
    """A fixed number of rounds over the networks; per-network medians, meaned."""
    rounds = max(1, round(seconds / ROUND_SECONDS))
    passes: dict[int, list[dict]] = {spec["gen_seed"]: [] for spec in specs}
    for _ in range(rounds):
        for spec in specs:
            result = run_worker(spec)
            results.append(result)
            if not complete(result):
                return {}
            passes[spec["gen_seed"]].append(pass_times(result))
    print(f"passes: {rounds} on each of {len(specs)} networks")
    references = [info["reference_s"] for r in results for info in r["stages"].values()]
    print(f"host reference work: median {statistics.median(references) * 1e3:.3f} ms "
          f"of {len(references)}, nominal {HOST_REFERENCE_S * 1e3:.3f} ms")
    unscaled = [pass_times(r, scaled=False) for r in results]
    print("unscaled: " + ", ".join(
        f"{name} = {statistics.median(p[name] for p in unscaled):.6g} s"
        for name in ("pipeline_s", "setup_s", "crawl_s", "analyze_s")))
    per_network = [{name: statistics.median(p[name] for p in network)
                    for name in network[0]} for network in passes.values()]
    return {name: {"value": statistics.fmean(n[name] for n in per_network),
                   "unit": unit}
            for name, unit in units("end_to_end").items()}


def traced_run(spec: dict, results: list) -> dict:
    plain = run_worker(spec)
    results.append(plain)
    traced = run_worker(spec, trace=True)
    results.append(traced)
    if not (complete(plain) and complete(traced) and "layers" in traced):
        return {}
    values = dict(traced["layers"])
    values["trace.pipeline_s"] = pass_times(traced, scaled=False)["pipeline_s"]
    values["trace.overhead_s"] = (values["trace.pipeline_s"]
                                  - pass_times(plain, scaled=False)["pipeline_s"])
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units("per_layer").items()}


def environment(args, specs: list[dict], results: list) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu_model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                              if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_used": next((r["blas_threads"] for r in results
                                       if "blas_threads" in r), None),
                 "env": {name: worker_env()[name] for name in BLAS_ENV}},
        "seed": args.seed,
        "workload": specs,
        # Every generator and crawl parameter as the passes used them.
        "parameters": {str(r["parameters"]["generator"]["rng_seed"]): r["parameters"]
                       for r in results if "parameters" in r},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spiderveil benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; picks the generator seed")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="run length; sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spiderveil" / "cli.py").is_file():
        print(f"error: no spiderveil source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    specs = [workload_spec(args.workload, args.scale, gen_seed)
             for gen_seed in gen_seeds_for(args.seed)]
    results: list[dict] = []
    if args.trace:
        metrics = traced_run(specs[0], results)
    else:
        metrics = untraced_run(specs, args.seconds, results)

    # A worker that died before reporting its stages counts as one failure.
    attempted = sum(len(r["stages"]) or 1 for r in results)
    failed = sum(sum(not info["ok"] for info in r["stages"].values())
                 if r["stages"] else 1 for r in results)
    for result in results:
        for problem in result["problems"]:
            print(f"check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
          "stage invocations)")
    print("env: " + json.dumps(environment(args, specs, results), sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
