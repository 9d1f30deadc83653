#!/usr/bin/env python3
"""Campaign benchmark for the `alfi` CLI.

Runs the real `alfi run-*` command on four workloads drawn from the
paper's use cases and reports what a user of a fault-injection campaign
sees: wall time of the whole process, its set-up share, campaign
throughput, CPU time and peak memory.  Every timed run's outputs are
compared byte for byte with a serial reference run of the same campaign.

Run it from the root of a source checkout; it builds `alfi` and its own
tracer under `.bench_build/` (or $CARGO_TARGET_DIR) first:

    python3 perfbench/run.py --workload resnet-neuron-packed --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced in-process run instead (see perfbench/README.md).
The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
ALFI_BUILD = os.path.join(BUILD, "alfi")
TRACE_BUILD = os.path.join(BUILD, "trace")
ALFI = os.path.join(ALFI_BUILD, "tools", "alfi")
TRACER = os.path.join(TRACE_BUILD, "alfi_trace")
# alfi caches trained models under ./alfi_cache of its working directory.
WORK = os.path.join(BUILD, "work")
RUNS = os.path.join(BUILD, "runs")
BUILD_TYPE = "RelWithDebInfo"

NPROC = os.cpu_count() or 1
JOBS = min(4, NPROC)
FLEET_WORKERS = max(1, JOBS - 1)  # plus the coordinator: JOBS processes

# A hung alfi process is killed after this long, so a run always ends
# well inside its 180 s limit.  Cold training (warm-up, first run in a
# checkout only) takes about 2 minutes for resnet.
INVOCATION_TIMEOUT_S = 120.0
TRAINING_TIMEOUT_S = 600.0

# Each workload: the alfi subcommand and model, flags shared by the
# timed runs and the serial oracle (they define the campaign), flags
# only the timed runs get (they define how it executes), the quality
# floor below which the model counts as untrained, how many units the
# traced in-process run executes, and the leaves reported one by one as
# nn.leaf_ms.top1..top5.  The leaves are the five slowest of a traced run
# when the benchmark was defined; they stay fixed so that each key names
# the same layer in every commit.  {out} and {ckpt} are replaced by the
# invocation's fresh output and checkpoint directories.
WORKLOADS = {
    "resnet-neuron-packed": {
        "command": ["run-imgclass", "--model", "resnet"],
        "campaign": ["--backend", "auto"],
        "execution": ["--jobs", str(JOBS), "--unit-batch", "16"],
        "min_quality": 0.2,  # top-1 accuracy; chance is 0.1 (10 classes)
        "trace_units": 2048,
        "leaves": ["3.main.3", "3.main.0", "4.main.3", "4.main.0", "5.main.3"],
    },
    "lenet-weight-fleet": {
        "command": ["run-imgclass", "--model", "lenet"],
        "campaign": ["--mitigation", "ranger"],
        "execution": ["--fleet-workers", str(FLEET_WORKERS), "--checkpoint", "{ckpt}"],
        "min_quality": 0.2,
        "trace_units": 1024,
        "leaves": ["3", "7", "0", "1", "4"],
    },
    "transformer-per-epoch": {
        "command": ["run-imgclass", "--model", "transformer"],
        "campaign": [],
        "execution": ["--jobs", str(JOBS)],
        "min_quality": 0.5,  # chance is 0.25 (4 classes)
        "trace_units": 0,  # traced through the harness's run(): all units
        "leaves": ["3.fc1", "3.fc2", "3.mha.out_proj", "2.fc1", "2.fc2"],
    },
    "yolo-steered": {
        "command": ["run-objdet", "--family", "yolo"],
        # --budget is appended: half the campaign's units.
        "campaign": ["--steer", "--vuln-map", "{out}/vulnerability_map.json"],
        "execution": ["--jobs", str(JOBS)],
        "min_quality": 0.2,  # recall at IoU 0.5; an untrained head finds ~0
        "trace_units": 480,
        "leaves": ["3", "6", "0", "2", "1"],
    },
}

# The smoke mode shrinks every campaign to this geometry.
SMOKE_GEOMETRY = {"dataset_size": 16, "num_runs": 4}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("units_per_s", "units/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]

# Every backend op the graded workloads run (tensor::Backend methods).
# Other ops (the transformer's, yolo's leaky_relu) print with the stamp.
TRACED_OPS = [
    "conv2d_planned", "linear_forward", "relu", "maxpool2d",
    "global_avgpool2d", "batchnorm2d_eval", "add",
]


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def run_quiet(argv, log_path, cwd=None):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(argv) + "\n")
        out.flush()
        result = subprocess.run(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        raise BenchError(f"command failed ({result.returncode}): {' '.join(argv)}\n{tail}")


# ---- build --------------------------------------------------------------------

def build():
    """Builds the alfi CLI (only its target) and the tracer (perfbench/trace)."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "alfi_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{ROOT} is not a source checkout (no {needed}); "
                             "run from the repository root")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    jobs = str(NPROC)
    if not os.path.isfile(os.path.join(ALFI_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", ALFI_BUILD,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], build_log)
    run_quiet(["cmake", "--build", ALFI_BUILD, "--target", "alfi", "-j", jobs], build_log)
    if not os.path.isfile(os.path.join(TRACE_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(BENCH_DIR, "trace"), "-B", TRACE_BUILD,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                   f"-DALFI_SOURCE_DIR={ROOT}", f"-DALFI_BUILD_DIR={ALFI_BUILD}"],
                  build_log)
    run_quiet(["cmake", "--build", TRACE_BUILD, "-j", jobs], build_log)


# ---- scenarios ------------------------------------------------------------------

def read_geometry(name):
    with open(os.path.join(BENCH_DIR, "workloads", name + ".yml")) as f:
        text = f.read()
    geometry = {}
    for key in ("dataset_size", "num_runs", "batch_size"):
        match = re.search(rf"(?m)^\s*{key}:\s*(\d+)\s*$", text)
        geometry[key] = int(match.group(1))
    return text, geometry


def write_scenario(name, seed, path, geometry=None):
    """The workload's scenario with its seed (and optionally a smaller
    geometry) filled in; returns the geometry it describes."""
    text, base = read_geometry(name)
    geometry = dict(base, **(geometry or {}))
    text = re.sub(r"(?m)^(\s*rnd_seed:).*$", rf"\g<1> {seed}", text)
    for key, value in geometry.items():
        text = re.sub(rf"(?m)^(\s*{key}:).*$", rf"\g<1> {value}", text)
    with open(path, "w") as f:
        f.write(text)
    return geometry


def campaign_args(name, scenario_path, geometry):
    spec = WORKLOADS[name]
    args = list(spec["command"]) + ["--scenario", scenario_path] + spec["campaign"]
    if name == "yolo-steered":
        budget = geometry["dataset_size"] * geometry["num_runs"] // 2
        args += ["--budget", str(budget)]
    return args


# ---- one alfi invocation ----------------------------------------------------------

QUALITY_RE = re.compile(r"(?:fault-free accuracy|recall@0\.5IoU) ([0-9.]+)")
IMAGES_RE = re.compile(r"campaign done: (\d+) images")


def digest_tree(root):
    digests = {}
    for dirpath, _, files in os.walk(root):
        for file in files:
            path = os.path.join(dirpath, file)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def tree_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs)


def invoke(args, run_dir, timeout=INVOCATION_TIMEOUT_S):
    """Spawns `alfi <args>` in a fresh run directory and waits for it.
    Wall time covers spawn to exit; CPU time and peak RSS come from
    wait4's rusage, which includes every descendant the process reaped
    (the fleet's forked workers)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    out = os.path.join(run_dir, "out")
    ckpt = os.path.join(run_dir, "ckpt")
    metrics_path = os.path.join(run_dir, "metrics.json")
    argv = [ALFI] + [a.replace("{out}", out).replace("{ckpt}", ckpt) for a in args]
    argv += ["--output", out, "--metrics", metrics_path]
    with open(os.path.join(run_dir, "stdout"), "wb") as so, \
            open(os.path.join(run_dir, "stderr"), "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, stdout=so, stderr=se,
                                start_new_session=True)
        timer = threading.Timer(timeout, kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc.pid)  # nothing of the campaign may outlive it
    with open(os.path.join(run_dir, "stdout")) as f:
        stdout = f.read()
    record = {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "metrics": None,
        "quality": None,
        "images": None,
        "out": out,
    }
    quality = QUALITY_RE.search(stdout)
    if quality:
        record["quality"] = float(quality.group(1))
    images = IMAGES_RE.search(stdout)
    if images:
        record["images"] = int(images.group(1))
    if os.path.isfile(metrics_path):
        with open(metrics_path) as f:
            record["metrics"] = json.load(f)
    if proc.returncode != 0:
        with open(os.path.join(run_dir, "stderr")) as f:
            record["error"] = f.read()[-2000:]
    return record


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def campaign_seconds(record):
    return float(record["metrics"]["timing"]["wall_seconds"])


def units_computed(record):
    return int(record["metrics"]["counters"].get("units.computed", 0))


def check_quality(name, record):
    spec = WORKLOADS[name]
    if record["quality"] is None or record["quality"] < spec["min_quality"]:
        raise BenchError(
            f"{name}: model quality {record['quality']} is below "
            f"{spec['min_quality']} (at chance); refusing to time it")


# ---- warm caches ------------------------------------------------------------------

def warm(names):
    """Trains (or loads) each named workload's model once, outside any
    timing.  The warm-up campaign keeps the workload's dataset size, so the
    model is trained on exactly the data a cold timed run would train on."""
    os.makedirs(WORK, exist_ok=True)
    for name in names:
        spec = WORKLOADS[name]
        model = spec["command"][2]
        if os.path.isfile(os.path.join(WORK, "alfi_cache", f"cli_{model}.params")):
            continue
        log(f"training the {model} model for {name} (once per checkout)")
        run_dir = os.path.join(RUNS, "warm")
        os.makedirs(run_dir, exist_ok=True)
        scenario = os.path.join(run_dir, "scenario.yml")
        geometry = write_scenario(name, 1, scenario, {"num_runs": 1})
        record = invoke(campaign_args(name, scenario, geometry) + ["--jobs", str(JOBS)],
                        os.path.join(run_dir, "run"), TRAINING_TIMEOUT_S)
        if record["returncode"] != 0:
            raise BenchError(f"warm-up of {name} failed:\n{record.get('error', '')}")
        check_quality(name, record)
        shutil.rmtree(run_dir, ignore_errors=True)


# ---- oracle and timed runs --------------------------------------------------------

def run_oracle(name, args, run_dir):
    """The serial reference run: one job, one unit per pass, full
    recompute, no fleet, no checkpoint."""
    record = invoke(args + ["--jobs", "1", "--unit-batch", "1", "--no-diff"], run_dir)
    if record["returncode"] != 0 or record["metrics"] is None or record["images"] is None:
        raise BenchError(f"{name}: oracle run failed:\n{record.get('error', '')}")
    check_quality(name, record)
    record["digests"] = digest_tree(record["out"])
    return record


def judge(record, oracle):
    """Reasons the invocation's campaign was not delivered correctly."""
    reasons = []
    if record["returncode"] != 0:
        reasons.append(f"exit code {record['returncode']}: {record.get('error', '')[-300:]}")
        return reasons
    if record["metrics"] is None:
        reasons.append("no metrics file")
        return reasons
    if units_computed(record) != units_computed(oracle):
        reasons.append(f"completed {units_computed(record)} units, "
                       f"planned {units_computed(oracle)}")
    if record["images"] != oracle["images"]:
        reasons.append(f"evaluated {record['images']} images, oracle {oracle['images']}")
    digests = digest_tree(record["out"])
    if digests != oracle["digests"]:
        differing = sorted(k for k in set(digests) | set(oracle["digests"])
                           if digests.get(k) != oracle["digests"].get(k))
        reasons.append("outputs differ from the serial oracle: " + ", ".join(differing))
    if record["quality"] is None or record["quality"] != oracle["quality"]:
        reasons.append("fault-free quality differs from the oracle")
    return reasons


def measure(name, seed, seconds, run_root, geometry=None):
    """Timed runs of one workload for `seconds`; returns the result."""
    scenario = os.path.join(run_root, "scenario.yml")
    geometry = write_scenario(name, seed, scenario, geometry)
    args = campaign_args(name, scenario, geometry)
    oracle = run_oracle(name, args, os.path.join(run_root, "oracle"))
    timed_args = args + WORKLOADS[name]["execution"]

    records = []
    attempted = failed = 0
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        record = invoke(timed_args, os.path.join(run_root, f"timed{len(records)}"))
        reasons = judge(record, oracle)
        attempted += oracle["images"]
        if reasons:
            failed += oracle["images"]
            log(f"{name}: run {len(records)} failed: " + "; ".join(reasons))
        records.append(record)
        if record["metrics"] is not None:
            log(f"{name}: run {len(records) - 1}: wall {record['wall_s']:.3f} s, "
                f"campaign {campaign_seconds(record):.3f} s, cpu {record['cpu_s']:.2f} s")
        shutil.rmtree(os.path.join(run_root, f"timed{len(records) - 1}", "out"),
                      ignore_errors=True)

    usable = [r for r in records if r["metrics"] is not None]
    if not usable:
        raise BenchError(f"{name}: no run produced a metrics file")
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in usable),
        "setup_s": statistics.median(r["wall_s"] - campaign_seconds(r) for r in usable),
        "units_per_s": statistics.median(oracle["images"] / campaign_seconds(r)
                                         for r in usable),
        "cpu_s": statistics.median(r["cpu_s"] for r in usable),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in usable),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "invocations": len(records),
        "units": oracle["images"],
        "backend": usable[0]["metrics"]["inference"]["backend"],
        "quality": oracle["quality"],
    }


# ---- traced run ---------------------------------------------------------------------

def tracer_args(name, scenario, run_dir, units):
    spec = WORKLOADS[name]
    args = [TRACER, spec["command"][0], spec["command"][1], spec["command"][2],
            "--scenario", scenario, "--output", os.path.join(run_dir, "out"),
            "--units", str(units)]
    for flag in ("--backend", "--mitigation", "--unit-batch"):
        for group in (spec["campaign"], spec["execution"]):
            if flag in group:
                args += [flag, group[group.index(flag) + 1]]
    return args


def run_tracer(name, scenario, run_dir, units):
    os.makedirs(run_dir, exist_ok=True)
    argv = tracer_args(name, scenario, run_dir, units)
    result_path = os.path.join(run_dir, "trace.json")
    try:
        with open(os.path.join(run_dir, "trace.log"), "wb") as out:
            proc = subprocess.run(argv + ["--json", result_path], cwd=WORK, stdout=out,
                                  stderr=subprocess.STDOUT, timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: traced run exceeded {INVOCATION_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        with open(os.path.join(run_dir, "trace.log")) as f:
            raise BenchError(f"{name}: traced run failed:\n{f.read()[-3000:]}")
    with open(result_path) as f:
        return json.load(f)


def histogram_stat(metrics, name, stat):
    histogram = metrics["timing"]["histograms"].get(name)
    return float(histogram[stat]) if histogram else 0.0


def per_layer(name, seed, run_root, geometry=None):
    """Per-layer metrics: one CLI run of the timed configuration (its
    metrics file gives the io and fleet counters), the oracle's campaign
    counters, and the in-process traced run."""
    scenario = os.path.join(run_root, "scenario.yml")
    geometry = write_scenario(name, seed, scenario, geometry)
    args = campaign_args(name, scenario, geometry)
    oracle = run_oracle(name, args, os.path.join(run_root, "oracle"))
    record = invoke(args + WORKLOADS[name]["execution"], os.path.join(run_root, "cli"))
    reasons = judge(record, oracle)
    if reasons:
        log(f"{name}: CLI run failed: " + "; ".join(reasons))
    if record["metrics"] is None:
        raise BenchError(f"{name}: CLI run produced no metrics file")
    # At most half the campaign, so the smoke geometry traces a subset too.
    units = min(WORKLOADS[name]["trace_units"],
                geometry["dataset_size"] * geometry["num_runs"] // 2)
    trace = run_tracer(name, scenario, os.path.join(run_root, "trace"), units)

    cli = record["metrics"]
    counters = cli["counters"]
    oracle_counters = oracle["metrics"]["counters"]
    values = {}
    for span in ("data.render_ms", "models.load_ms", "models.eval_ms", "core.build_ms",
                 "core.prepare_ms", "core.absorb_ms", "core.finalize_ms"):
        values[span] = trace["spans"][span]
    values["core.unit_ms.p50"] = trace["unit_ms"]["p50"]
    values["core.unit_ms.p99"] = trace["unit_ms"]["p99"]
    values["core.units_executed"] = units_computed(record)

    leaf_ms = {leaf["path"]: leaf["ms"] for leaf in trace["leaves"]}
    fixed = WORKLOADS[name]["leaves"]
    for rank, path in enumerate(fixed):
        values[f"nn.leaf_ms.top{rank + 1}"] = leaf_ms.get(path, 0.0)
    values["nn.leaf_ms.rest"] = sum(ms for path, ms in leaf_ms.items() if path not in fixed)
    values["nn.leaf_runs"] = trace["leaf_runs"]
    slots = trace["passes"] * len(leaf_ms)
    values["nn.recompute_ratio"] = (
        (slots - trace["diff_layers_skipped"]) / slots if slots else 0.0)
    values["nn.diff_layers_skipped"] = trace["diff_layers_skipped"]
    values["nn.arena_high_water_mb"] = trace["arena_high_water_bytes"] / (1024.0 * 1024.0)
    values["nn.leaf_coverage"] = trace["leaf_coverage"]

    for op in TRACED_OPS:
        entry = trace["ops"].get(op, {"ms": 0.0, "calls": 0})
        values[f"tensor.op_ms.{op}"] = entry["ms"]
        values[f"tensor.op_calls.{op}"] = entry["calls"]
    op_total = sum(entry["ms"] for entry in trace["ops"].values())
    values["tensor.op_share"] = op_total / trace["traced_ms"] if trace["traced_ms"] else 0.0
    conv_ms = trace["ops"].get("conv2d_planned", {"ms": 0.0})["ms"]
    values["tensor.conv2d_gflops"] = (
        trace["conv2d_flops"] / (conv_ms * 1e6) if conv_ms > 0 else 0.0)

    values["io.journal_append_ms.p50"] = histogram_stat(cli, "journal.append_ms", "p50")
    values["io.checkpoint_write_ms.mean"] = histogram_stat(cli, "checkpoint.write_ms", "mean")
    values["io.checkpoint_writes"] = counters.get("checkpoint.writes", 0)
    values["io.journal_bytes"] = counters.get("journal.payload_bytes", 0)
    values["io.output_bytes"] = tree_bytes(record["out"])
    for counter in ("workers_joined", "leases_granted"):
        values[f"fleet.{counter}"] = counters.get(f"fleet.{counter}", 0)
    values["trace_overhead"] = (trace["traced_ms"] / trace["untraced_ms"]
                                if trace["untraced_ms"] else 0.0)

    absent = [c for c in ("injections.applied", "campaign.diff.layers_skipped")
              if c not in counters]
    notes = {
        # Counts a faster tree must leave unchanged, so they have no
        # better direction and are printed rather than graded.
        "core.injections_applied": (oracle_counters.get("injections.applied", 0) +
                                    oracle_counters.get("injections.weight_applied", 0)),
        "fleet.duplicate_units": counters.get("fleet.duplicate_units", 0),
        "top_leaves": fixed,
        "leaves_missing": [path for path in fixed if path not in leaf_ms],
        "ops_outside_list": {op: stats for op, stats in sorted(trace["ops"].items())
                             if op not in TRACED_OPS},
        "cli_metrics_absent": absent,
        "leaf_coverage_ok": abs(trace["leaf_coverage"] - 1.0) <= 0.10,
        "trace_payloads_identical": trace["payloads_identical"],
        "backend": cli["inference"]["backend"],
    }
    correct = not reasons and trace["payloads_identical"]
    if name == "resnet-neuron-packed":
        correct = correct and notes["leaf_coverage_ok"]
    return {
        "correct": correct,
        "attempted": oracle["images"],
        "failed": 0 if not reasons else oracle["images"],
        "values": values,
        "notes": notes,
    }


# ---- reporting ----------------------------------------------------------------------

def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(name, seed, backend):
    return {
        "workload": name,
        "seed": seed,
        "nproc": NPROC,
        "cpu": cpu_model(),
        "backend": backend,
        "build_type": BUILD_TYPE,
        "git_commit": git_commit(),
    }


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_end_to_end(name, seed, result):
    print(f"# {json.dumps(stamp(name, seed, result['backend']))}")
    print(f"{name}: {result['invocations']} runs of {result['units']} units, "
          f"model quality {result['quality']}")
    for metric, unit in END_TO_END:
        print(f"  {metric:<12} {fmt(result['values'][metric]):>12} {unit}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<12} {fmt(failed_frac):>12} ratio")


def report_per_layer(name, seed, result):
    print(f"# {json.dumps(stamp(name, seed, result['notes']['backend']))}")
    print(f"{name} (traced): {json.dumps(result['notes'])}")
    for metric, value in result["values"].items():
        print(f"  {metric:<40} {fmt(value)}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def units_of(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def fresh_run_root(label):
    root = os.path.join(RUNS, label)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    return root


def smoke():
    """Every workload at a tiny size, both modes: checks that every
    metric BENCHMARK.json names is emitted and that the oracle passes."""
    spec = load_spec()
    per_layer_units, end_to_end_units = units_of(spec["per_layer"]), units_of(spec["end_to_end"])
    problems = []
    for name in WORKLOADS:
        root = fresh_run_root("smoke")
        result = measure(name, 7, 0.0, root, SMOKE_GEOMETRY)
        report_end_to_end(name, 7, result)
        if not result["correct"]:
            problems.append(f"{name}: timed run disagrees with the oracle")
        problems += [f"{name}: missing {m}" for m in end_to_end_units
                     if m not in result["values"]]
        traced = per_layer(name, 7, fresh_run_root("smoke"), SMOKE_GEOMETRY)
        report_per_layer(name, 7, traced)
        if not traced["correct"]:
            problems.append(f"{name}: traced run failed its checks")
        problems += [f"{name}: missing {m}" for m in per_layer_units
                     if m not in traced["values"]]
        problems += [f"{name}: {m} is not in BENCHMARK.json" for m in traced["values"]
                     if m not in per_layer_units]
    shutil.rmtree(os.path.join(RUNS, "smoke"), ignore_errors=True)
    for problem in problems:
        log(problem)
    print(f"smoke: {'ok' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny size; checks the metric set")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    try:
        build()
        spec = load_spec()
        # The first run in a checkout trains every graded workload's model,
        # so no later run pays for training.
        graded = [w["name"] for w in spec["workloads"]]
        warm(list(WORKLOADS) if args.smoke else dict.fromkeys(graded + [args.workload]))
        if args.smoke:
            return smoke()
        root = fresh_run_root("current")
        if args.trace:
            result = per_layer(args.workload, args.seed, root)
            report_per_layer(args.workload, args.seed, result)
            metrics = {m: {"value": result["values"][m], "unit": unit}
                       for m, unit in units_of(spec["per_layer"]).items()}
        else:
            seconds = spec["run_seconds"] if args.seconds is None else args.seconds
            result = measure(args.workload, args.seed, seconds, root)
            report_end_to_end(args.workload, args.seed, result)
            metrics = {m: {"value": result["values"][m], "unit": unit}
                       for m, unit in END_TO_END}
        shutil.rmtree(root, ignore_errors=True)
        print(result_line(result["correct"], result["attempted"], result["failed"],
                          metrics), flush=True)
        return 0
    except BenchError as error:
        log(str(error))
        return 2


if __name__ == "__main__":
    sys.exit(main())
