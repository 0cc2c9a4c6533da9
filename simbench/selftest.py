#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

Run from the checkout root:

    python3 simbench/selftest.py

It checks that
  1. a tiny run of each workload prints every metric BENCHMARK.json
     names, with its unit, in both modes, and no job fails;
  2. the traced runs prove their layer bypasses: no compressor probe
     on cold_raw, only result-cache hits and no simulation on
     warm_replay;
  3. a corrupted reference fingerprint makes the run report failed
     jobs, so the correctness gate can fail;
  4. kagura_speedup_pct on cold_compressed at seed 1 equals the
     ACC+Kagura average fig13_main_speedup prints at --repeats 1;
  5. in a directory holding only BENCHMARK.json and the benchmark's
     files, the benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)

TINY_APPS = "crc32,sha"


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def bench(args, cwd=ROOT, expect_rc=0):
    """Run the benchmark; returns (stdout lines, parsed last line)."""
    proc = subprocess.run(
        ["python3", os.path.join(cwd, "simbench", "run.py")] + args,
        cwd=cwd, capture_output=True, text=True, timeout=900)
    if proc.returncode != expect_rc:
        fail("%s exited %d (wanted %d):\n%s" % (
            " ".join(args), proc.returncode, expect_rc, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return lines, result


def check_metrics(result, wanted, what):
    if result is None or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail(what + ": last line is not the result object")
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        fail(what + ": metrics %s, wanted %s" % (
            sorted(got), sorted(m["name"] for m in wanted)))
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s has unit %s, wanted %s" % (
                what, m["name"], got[m["name"]]["unit"], m["unit"]))
    if result["failed"] != 0 or not result["correct"]:
        fail(what + ": %d of %d jobs failed" % (
            result["failed"], result["attempted"]))


def tiny_runs(spec):
    for w in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w["name"], "--seed", "0", "--seconds", "1",
                    "--trace", trace, "--apps", TINY_APPS]
            _, result = bench(args)
            check_metrics(result, spec[key], " ".join(args))
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == "1" and w["name"] == "cold_raw":
                for alg in ("bdi", "fpc", "cpack"):
                    if m["compress.%s.probes_per_kop" % alg] != 0:
                        fail("cold_raw probed the %s compressor" % alg)
            if trace == "1" and w["name"] == "warm_replay":
                if m["runner.cache_store.hit_ratio"] != 1.0:
                    fail("warm_replay missed the result cache")
                if m["sim.run_calls"] != 0:
                    fail("warm_replay ran the simulator")
            if trace == "1" and w["name"] == "cold_compressed":
                if m["runner.cache_store.hit_ratio"] != 0.0:
                    fail("cold_compressed hit the result cache")
                if m["compress.bdi.probes_per_kop"] <= 0:
                    fail("cold_compressed never probed BDI")
            print("selftest: ok %s --trace %s" % (w["name"], trace))


def corrupted_reference():
    rows = open(os.path.join(HERE, "reference.txt")).read().splitlines()
    for i, row in enumerate(rows):
        fields = row.split()
        if not row.startswith("#") and fields[2] == "crc32":
            flipped = "%016x" % (int(fields[1], 16) ^ 1)
            rows[i] = " ".join([fields[0], flipped] + fields[2:])
            break
    path = os.path.join(run.build_dir(), "corrupt_reference.txt")
    with open(path, "w") as f:
        f.write("\n".join(rows) + "\n")
    _, result = bench(["--workload", "cold_compressed", "--seed", "0",
                       "--seconds", "1", "--trace", "0", "--apps", TINY_APPS,
                       "--reference", path])
    os.remove(path)
    if result is None or result["failed"] == 0 or result["correct"]:
        fail("a corrupted reference fingerprint went unnoticed")
    print("selftest: ok corrupted reference -> %d failed jobs"
          % result["failed"])


def fig13_cross_check():
    binary = run.build("fig13_main_speedup")
    if binary is None:
        fail("could not build fig13_main_speedup")
    metrics_out = os.path.join(run.build_dir(), "fig13_metrics.jsonl")
    proc = subprocess.run(
        [binary, "--repeats", "1", "--no-cache", "--daemon", "off",
         "--jobs", "4", "--metrics-out", metrics_out],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        fail("fig13_main_speedup exited %d" % proc.returncode)
    fig13 = None
    with open(metrics_out) as f:
        for line in f:
            rec = json.loads(line)
            if (rec.get("name") == "bench/speedup_avg_pct" and
                    rec.get("labels", {}).get("config") == "ACC+Kagura"):
                fig13 = rec["value"]
    os.remove(metrics_out)
    if fig13 is None:
        fail("fig13_main_speedup reported no ACC+Kagura average")
    lines, _ = bench(["--workload", "cold_compressed", "--seed", "1",
                      "--seconds", "1", "--trace", "0"])
    ours = [l for l in lines if l.startswith("kagura_speedup_pct ")]
    if not ours:
        fail("cold_compressed printed no kagura_speedup_pct")
    value = float(ours[0].split()[1])
    if abs(value - fig13) > 1e-6:
        fail("kagura_speedup_pct %.9f != fig13 ACC+Kagura %.9f"
             % (value, fig13))
    print("selftest: ok kagura_speedup_pct %.6f matches fig13 (%s)"
          % (value, ours[0]))


def stripped_checkout(spec):
    bare = os.path.join(run.build_dir(), "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    w = spec["workloads"][0]["name"]
    proc = subprocess.run(
        spec["command"] + ["--workload", w, "--seed", "0", "--seconds",
                           str(spec["run_seconds"]), "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("a checkout without the simulator sources produced a result")
    print("selftest: ok stripped checkout exits %d with no result"
          % proc.returncode)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    tiny_runs(spec)
    corrupted_reference()
    fig13_cross_check()
    stripped_checkout(spec)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
