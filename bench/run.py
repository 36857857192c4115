"""whiledt benchmark: four workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a whiledt checkout; it imports the package from
`src/` there and nothing else.  The seed fixes every input (see
`workloads.py`); the program only ever sees the generated inputs.  Each run
starts one fresh single-threaded interpreter (`worker.py`) that imports
`whiledt.cli`, parses the workload's programs, and then drives
`whiledt.cli.main(["run", ..., "--report", "json"])` in whole rounds of
the same operations for S seconds, checking every report.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones (`setup_s`, `ops_per_s`, `op_p50_ms`, `peak_rss_mb`),
their times scaled to a reference host speed by a calibration loop the
worker times alongside (see `worker.py`); with `--trace 1` they are the
per-layer ones from a traced run.  The full result, unscaled figures
included, is also written to `bench/out/`.  See `bench/README.md`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
LAYER_UNITS = (("_per_s", "1/s"), ("_calls", "count"), ("_bytes", "bytes"), ("_s", "s"))
WORKER_TIMEOUT_S = 170


def layer_unit(name):
    """Unit of a per-layer metric, from its name's suffix."""
    return next((unit for suffix, unit in LAYER_UNITS if name.endswith(suffix)), "count")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "whiledt", "cli.py")):
        print("error: run from the root of a whiledt checkout (no src/whiledt/cli.py)",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        ops, programs = workloads.build(args.workload, args.seed, work)
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"ops": ops, "seconds": args.seconds, "trace": bool(args.trace),
                       "trace_out": os.path.join(out_dir, f"trace-{tag}.json")}, fh)
        cmd = [sys.executable, "-P", "-s", "-S", os.path.join(HERE, "worker.py"), src, spec_path,
               *programs]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                              env={"PYTHONHASHSEED": "0"})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        res["wall_setup_s"] = res["ready"] - spawned
        res["setup_s"] = res["wall_setup_s"] / res["setup_slowdown"]
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    for reason, count in sorted(res["failure_reasons"].items()):
        print(f"failed {count}x: {reason}", file=sys.stderr)
    for note, count in sorted(res["notes"].items()):
        print(f"note {count}x: {note}", file=sys.stderr)
    for bad in res["mismatches"]:
        print(f"wrong output: {bad}", file=sys.stderr)
    line = {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    res["workload"], res["seed"], res["metrics"] = args.workload, args.seed, metrics
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
