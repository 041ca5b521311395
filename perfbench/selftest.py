"""Fast self-test of the benchmark itself, at tiny input sizes.

    python3 perfbench/selftest.py          # from the repository root, ~1 min

It checks that:
- BENCHMARK.json has the documented keys and limits, and names the same
  metrics with the same units as run.py reports;
- every workload, untraced and traced, prints a last line with exactly the
  keys correct/attempted/failed/metrics, is correct with no failed
  operation, and reports each metric once, named by [A-Za-z0-9_.-]+, with a
  unit and a finite number;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
Exits 1 and lists the problems if any check fails.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIMEOUT_S = 300


def check_spec(spec, problems) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
        return
    if not (1 <= len(spec["paths"]) <= 16 and all(
            re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", p) and not p.startswith("/")
            and ".." not in p.split("/") for p in spec["paths"])):
        problems.append(f"bad paths {spec['paths']}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append(f"bad run_seconds {spec['run_seconds']}")
    if not (2 <= len(spec["workloads"]) <= 8):
        problems.append("need 2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        names.append(w.get("name"))
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w}")
    for m in spec["end_to_end"]:
        names.append(m.get("name"))
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"bad end_to_end entry {m}")
    for m in spec["per_layer"]:
        names.append(m.get("name"))
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"bad per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(str(m.get("unit"))) or m.get("better") not in ("lower", "higher"):
            problems.append(f"bad unit or direction in {m}")
    for n in names:
        if not NAME.fullmatch(str(n)):
            problems.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end_to_end metric in s, lower is better")


def check_result(label, line, expected_units, problems) -> None:
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        problems.append(f"{label}: last line is not JSON: {line[:200]!r}")
        return
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(res)}")
        return
    if res["correct"] is not True or res["failed"] != 0:
        problems.append(f"{label}: correct={res['correct']} failed={res['failed']}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)):
        problems.append(f"{label}: attempted/failed must be whole numbers, attempted >= 1")
    metrics = res["metrics"]
    if set(metrics) != set(expected_units):
        problems.append(f"{label}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected_units))}")
    for name, m in metrics.items():
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            problems.append(f"{label}: metric name {name!r}")
        if set(m) != {"value", "unit"} or not UNIT.fullmatch(str(m.get("unit"))):
            problems.append(f"{label}: metric {name} is {m}")
        elif m["unit"] != expected_units.get(name, m["unit"]):
            problems.append(f"{label}: {name} unit {m['unit']} != {expected_units[name]}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{label}: {name} value {m['value']!r}")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_bare_directory(problems) -> None:
    import run

    bare = os.path.join(run.OUT_DIR, f"selftest-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        p = run_bench(bare, "beam_generate", 0)
        if p.returncode == 0 or p.stdout.strip():
            problems.append(f"bare directory: exit {p.returncode}, stdout {p.stdout[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    import run

    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec, problems)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared[0] != run.END_TO_END or declared[1] != run.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from run.END_TO_END/PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")

    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            p = run_bench(ROOT, workload, trace)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append(f"{label}: exit {p.returncode}: {p.stderr[-500:]}")
                continue
            check_result(label, lines[-1], declared[trace], problems)
            print(f"selftest: {label} ok", file=sys.stderr)
    check_bare_directory(problems)

    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
