#!/usr/bin/env python3
"""End-to-end BrowserFlow benchmark (see e2ebench/README.md).

Builds the bf_e2e harness from the repository's sources, runs one workload
and passes its report through. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

    python3 e2ebench/run.py --workload docs_edit --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 e2ebench/run.py --selftest

Run it from the root of the repository. The build goes to $CARGO_TARGET_DIR
when set, else .bench_build/; run state lives in a temporary directory
inside the build directory and is removed afterwards.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ["docs_edit", "paste_lookup", "durable_ingest"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds bf_e2e; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("e2ebench: no BrowserFlow sources under ./src; run from the repository root")
        return None
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "bf_e2e", "-j", jobs])
    # Compiler temporaries stay inside the build tree too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("e2ebench: build failed: " + " ".join(cmd))
            return None
    return out / "bf_e2e"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over src/ (paths and contents), so a result names its code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_bench(binary, workload, seed, seconds, trace, scale="full",
               plant="none", echo=True):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    state = build_dir() / f"run-state-{os.getpid()}-{workload}"
    shutil.rmtree(state, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--state-dir", str(state), "--scale", scale, "--plant", plant,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, [], None
    finally:
        shutil.rmtree(state, ignore_errors=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        log(f"e2ebench: {workload} produced no result (exit {proc.returncode})")
        return proc.returncode or 1, lines, None
    return 0, lines, result


# Each planted fault and the check it must trip (workload, trace flag).
PLANTS = [
    ("flip_label", "docs_edit", 0, "label_audit"),
    ("drop_upload", "docs_edit", 0, "backend_sync"),
    ("forward_blocked", "paste_lookup", 0, "blocked_text"),
    ("fail_upload", "paste_lookup", 0, "failed_actions"),
    ("torn_state", "durable_ingest", 0, "recovery_probe"),
    ("skew_probe", "paste_lookup", 1, "reconcile"),
]


def selftest(binary):
    """Smoke-size run of every workload (must pass), then every planted
    fault (its check must trip and the result must read correct=false)."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, res = run_bench(binary, workload, 7, 1, trace,
                                      scale="smoke", echo=False)
            good = code == 0 and res is not None and res["correct"] \
                and res["failed"] == 0
            ok &= good
            print(f"selftest {workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'}")
    for plant, workload, trace, check in PLANTS:
        code, lines, res = run_bench(binary, workload, 7, 1, trace,
                                      scale="smoke", plant=plant, echo=False)
        tripped = any(line.startswith(f"check {check} tripped") for line in lines)
        good = code == 0 and res is not None and not res["correct"] and tripped
        ok &= good
        print(f"selftest plant {plant} -> {check}: "
              f"{'tripped' if good else 'NOT TRIPPED'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="smoke-size runs plus planted faults")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return 0 if selftest(binary) else 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, _, res = run_bench(binary, workload, args.seed, args.seconds,
                                  args.trace)
        if res is None:
            return code
        if len(workloads) == 1:
            print(json.dumps(res))
            return 0
        print(f"{workload} " + json.dumps(res))
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
