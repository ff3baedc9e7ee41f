#!/usr/bin/env python3
"""GROPHECY++ benchmark: build the probe, run one workload, report.

    python3 perfbench/run.py --workload paper-cold|zoo-crossval|serve-mix
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Builds perfbench/probe.exe with dune,
runs it with a clean environment (no OCAMLRUNPARAM, no GPP_*
variables, one domain), prints every metric by name with its unit, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones.  Exits 1 when an output check
fails, 2 when the probe cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
PROBE = "_build/default/perfbench/probe.exe"
# The goldens' seed, also the program's default noise seed.
DEFAULT_SEED = "0x1B0A20136CA155AA"
PROBE_TIMEOUT_S = 170


def clean_env():
    """The caller's environment minus anything that changes the
    program's GC, configuration or build flags."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("GPP_") and k not in ("OCAMLRUNPARAM", "OCAMLPARAM")
    }
    # Keep dune's shared cache out of the picture: every file a build
    # writes stays under _build in the checkout.
    env["DUNE_CACHE"] = "disabled"
    return env


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    if not (ROOT / "dune-project").is_file():
        fail("no dune-project at the checkout root; run from a GROPHECY++ checkout")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/probe.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        fail(f"building the probe failed (dune exit {r.returncode})")


def run_probe(env, args):
    cmd = [
        str(ROOT / PROBE),
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        r = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"probe exceeded {PROBE_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"probe exited {r.returncode}")
    out = r.stdout.strip().splitlines()
    if not out:
        fail("probe printed nothing")
    return json.loads(out[-1])


def end_to_end(raw):
    lat = raw["latency_ms"]
    p50, p50_ok = stats.latency(lat, 50)
    p99, p99_ok = stats.latency(lat, 99)
    notes = {
        "setup_s": f"median of {len(raw['setup_s'])} set-ups",
        "wall_s": f"mean of {len(raw['round_wall_s'])} rounds",
        "ops_per_s": f"{raw['ops']} ops",
    }
    for name, ok in (("latency_p50_ms", p50_ok), ("latency_p99_ms", p99_ok)):
        notes[name] = f"{len(lat)} samples" + ("" if ok else ", too few beyond it: largest sample")
    walls = raw["round_wall_s"]
    values = {
        "setup_s": stats.median(raw["setup_s"]),
        # Host noise here is seconds-scale, so the mean over the whole
        # timed part repeats better across runs than a median of rounds.
        "wall_s": sum(walls) / len(walls),
        "ops_per_s": raw["ops"] / sum(walls),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "pred_err_pct": raw["pred_err_pct"],
    }
    return values, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["paper-cold", "zoo-crossval", "serve-mix"])
    ap.add_argument("--seed", default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        int(args.seed, 0)
    except ValueError:
        fail(f"--seed {args.seed!r} is not an integer")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("no BENCHMARK.json at the checkout root")
    spec = json.loads(spec_path.read_text())

    env = clean_env()
    build(env)
    raw = run_probe(env, args)

    attempted, failed = raw["attempted"], raw["failed"]

    if args.trace:
        declared = spec["per_layer"]
        names = {m["name"] for m in declared}
        unknown = sorted(set(raw["per_layer"]) - names)
        if unknown:
            fail(f"probe reported undeclared per-layer metrics: {', '.join(unknown)}")
        # A layer the workload does not exercise reads 0.
        values = {name: raw["per_layer"].get(name, 0.0) for name in names}
        notes = {}
    else:
        declared = spec["end_to_end"]
        values, notes = end_to_end(raw)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            fail(f"probe reported no value for {m['name']}")
        v = values[m["name"]]
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:<28} {v:.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':<28} {stats.fail_ratio(attempted, failed):.6g}  ({failed} of {attempted} ops)")
    for line in raw["failures"]:
        print(f"  FAIL {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
