#!/usr/bin/env python3
"""Entry point of the SLAMPRED end-to-end benchmark.

Run one workload (from the root of a source checkout):

    python3 perfbench/run.py --workload scaleout-topk-skewed --seed 1 \\
        --seconds 20 --trace 0

builds the library and the driver into .bench_build/ (first run only;
later runs rebuild incrementally), runs perfbench/slampred_bench, passes
its output through (the last line is the result object), and stores the
result with its provenance under .bench_out/results/.

Compare two result sets (directories of result files):

    python3 perfbench/run.py compare BASE_DIR NEW_DIR

prints, per workload and metric, each side's median and quartiles. A
metric whose quartile spread on either side exceeds BENCHMARK.json's
bound is reported as unresolved (a REGRESSION only when, besides, every
new run is worse than every base run); otherwise a median worse by more
than the bound is flagged as a REGRESSION.

Test the benchmark's own helpers:

    python3 perfbench/run.py selftest
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def check_source_tree():
    """The benchmark builds the library from the checkout it runs in."""
    for path in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                 os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.isfile(path):
            log(f"{path} not found: run from the root of a source checkout")
            sys.exit(2)


def build(target):
    """Configures once, then builds `target` incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, target)


def source_digest():
    """SHA-256 over the library and benchmark sources (the commit stand-in
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in ("src", BENCH_DIR):
        for dirpath, _, names in os.walk(top):
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def git_commit():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def build_provenance():
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as handle:
        for line in handle:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    flags = None
    commands = os.path.join(BUILD_DIR, "compile_commands.json")
    if os.path.isfile(commands):
        with open(commands) as handle:
            for entry in json.load(handle):
                if entry["file"].endswith(os.path.join("src", "core",
                                                       "slampred.cc")):
                    flags = [a for a in entry.get("command", "").split()
                             if a.startswith(("-O", "-f", "-m", "-W", "-D",
                                              "-std", "-g"))]
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": version or compiler,
        "library_compile_flags": flags,
        "nproc": os.cpu_count(),
    }


def run(args):
    check_source_tree()
    binary = build("slampred_bench")
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    record = os.path.join(OUT_DIR, f"{name}.record.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--record", record]
    if args.trace:
        command += ["--spans", os.path.join(OUT_DIR, f"{name}.spans.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0 or not os.path.isfile(record):
        log(f"slampred_bench exited with {result.returncode}")
        return result.returncode or 1
    with open(record) as handle:
        data = json.load(handle)
    os.remove(record)
    data["provenance"].update(build_provenance())
    with open(os.path.join(OUT_DIR, "results", f"{name}.json"), "w") as out:
        json.dump(data, out, indent=1)
    return 0


# ---------------------------------------------------------------------------
# Compare mode.

def load_results(directory):
    """{(workload, trace): {metric: [values]}} of every result file."""
    table = {}
    for dirpath, _, names in os.walk(directory):
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(dirpath, name)) as handle:
                try:
                    data = json.load(handle)
                except json.JSONDecodeError:
                    continue
            if not isinstance(data, dict) or "metrics" not in data:
                continue
            key = (data["workload"], data.get("trace", 0))
            for metric, entry in data["metrics"].items():
                if entry.get("value") is not None:
                    table.setdefault(key, {}).setdefault(metric, []).append(
                        entry["value"])
    return table


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def judge(base, new, spec):
    """Verdict on one metric. A side that spreads wider than the bound
    cannot resolve a change of that size, so the metric is unresolved,
    unless every new value is worse than every base value."""
    lower = spec["better"] == "lower"
    if lower:
        all_worse = min(new) > max(base)
    else:
        all_worse = max(new) < min(base)
    ma, mb = quartiles(base)[1], quartiles(new)[1]
    worse = ((mb - ma) if lower else (ma - mb)) / abs(ma)
    past_bound = worse > spec["bound"]
    if max(spread(base), spread(new)) > spec["bound"]:
        if past_bound and all_worse:
            return "REGRESSION"
        return "unresolved (spread exceeds bound)"
    return "REGRESSION" if past_bound else "ok"


def compare(base_dir, new_dir, bench_path):
    with open(bench_path) as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load_results(base_dir), load_results(new_dir)
    regressions = 0
    header = (f"{'workload':24} {'metric':30} {'base median [q1, q3]':34} "
              f"{'new median [q1, q3]':34} {'change':>8}  verdict")
    print(header)
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        metrics = sorted(set(base.get(key, {})) | set(new.get(key, {})))
        for metric in metrics:
            a = base.get(key, {}).get(metric, [])
            b = new.get(key, {}).get(metric, [])
            cells = []
            for values in (a, b):
                if values:
                    q1, med, q3 = quartiles(values)
                    cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
                else:
                    cells.append("-")
            verdict, change = "", ""
            if a and b:
                ma, mb = quartiles(a)[1], quartiles(b)[1]
                if ma:
                    change = f"{100.0 * (mb - ma) / abs(ma):+.1f}%"
                spec = bounds.get(metric) if trace == 0 else None
                if spec is not None and ma:
                    verdict = judge(a, b, spec)
                    regressions += verdict == "REGRESSION"
            print(f"{workload:24} {metric:30} {cells[0]:34} {cells[1]:34} "
                  f"{change:>8}  {verdict}")
    return 1 if regressions else 0


def selftest():
    check_source_tree()
    return subprocess.run([build("perfbench_test")]).returncode


def main(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        parser.add_argument("--bench", default="BENCHMARK.json")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new, args.bench)
    if argv and argv[0] == "selftest":
        return selftest()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
