#!/usr/bin/env python3
"""The repository benchmark: builds `nds-perfbench`, runs one workload,
checks its outputs and prints the result line.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
    python3 perfbench/run.py spread --workload <name> --seeds 1,2,3 [--seconds <s>]
    python3 perfbench/run.py compare <parent-results-dir> <change-results-dir>

A run prints the program's per-layer table and checks, then, as its last
line, one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the `end_to_end` metrics of BENCHMARK.json with `--trace 0`,
its `per_layer` metrics with `--trace 1`. The full result document
(machine record, phases, checks, every metric) is saved under
`.perfbench_out/results/`; `compare` reads two such directories.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_TIMEOUT_S = 170
# Bound `compare` applies to metrics BENCHMARK.json does not bound.
DEFAULT_BOUND = 0.1


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the repository root", 2)
    return json.loads(path.read_text())


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Builds the measuring program from source; returns its path."""
    if not (ROOT / "crates").is_dir():
        fail("the repository's crates/ directory is missing; nothing to build", 2)
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed", 1)
    return target / "release" / "nds-perfbench"


def git_revision():
    """The checked-out commit, read from .git without leaving the tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so runs of a
    checkout without git history still identify their code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "crates").rglob("*.rs")) + sorted((BENCH_DIR / "src").rglob("*.rs"))
    files += [p for p in (ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH_DIR / "Cargo.toml") if p.is_file()]
    files += sorted((ROOT / "crates").rglob("Cargo.toml"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True, text=True, cwd=ROOT).stdout.strip()
    except OSError:
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, smoke, echo=True):
    """Runs the program once; returns its result document."""
    env = dict(os.environ)
    env["NDS_THREADS"] = str(nproc())
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--out", str(OUT_DIR / "spans")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    doc = json.loads(lines[-1])
    doc["machine"]["rustc"] = rustc_version()
    doc["machine"]["git_revision"] = git_revision()
    doc["machine"]["source_digest"] = source_digest()
    doc["machine"]["NDS_THREADS"] = env["NDS_THREADS"]
    return doc


def save(doc):
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{doc['workload']}-trace{doc['trace']}-seed{doc['seed']}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(doc, indent=1, sort_keys=True))


def contract_line(doc, spec, trace):
    """Reduces a result document to the benchmark's result line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    pool = dict(doc["metrics"])
    pool.update(doc["layers"])
    metrics = {}
    for m in wanted:
        got = pool.get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            fail(f"metric {m['name']} was not measured on {doc['workload']}")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }


def cmd_run(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args(argv)
    spec = load_spec()
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload}", 2)
    binary = build()
    doc = run_once(binary, a.workload, a.seed, a.seconds, a.trace, a.smoke)
    save(doc)
    m = doc["machine"]
    print(f"machine: nproc {m['nproc']}, NDS_THREADS {m['NDS_THREADS']}, {m['cpu_model']}, "
          f"{m['rustc']}, revision {m['git_revision']}, sources {m['source_digest']}")
    for ph in doc["phases"]:
        print(f"phase {ph['name']}: sent {ph['sent']}, succeeded {ph['succeeded']}, failed {ph['failed']}")
    print(json.dumps(contract_line(doc, spec, a.trace)))


def quartiles(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q[0], q[1], q[2]


def cmd_spread(argv):
    """Runs a workload on several seeds and prints each end-to-end
    metric's quartile spread against its bound."""
    p = argparse.ArgumentParser(prog="run.py spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--seconds", type=float)
    a = p.parse_args(argv)
    spec = load_spec()
    seconds = a.seconds or spec["run_seconds"]
    binary = build()
    seeds = [int(s) for s in a.seeds.split(",")]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        doc = run_once(binary, a.workload, seed, seconds, 0, False, echo=False)
        save(doc)
        line = contract_line(doc, spec, 0)
        print(f"seed {seed}: correct {line['correct']} " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
        for k, v in line["metrics"].items():
            values[k].append(v["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = quartiles(v)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
        print(f"{a.workload} {m['name']:18s} median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
              f"spread {spread:.3f} bound {m['bound']} -> {flag}")


def load_dir(path):
    docs = []
    for f in sorted(Path(path).glob("*.json")):
        try:
            docs.append(json.loads(f.read_text()))
        except (OSError, ValueError):
            print(f"skipping unreadable {f}", file=sys.stderr)
    return docs


def direction(name, unit, declared):
    if name in declared:
        return declared[name]["better"]
    if unit in ("1/s", "GFLOP/s") or name.endswith("_per_s") or name.endswith("max_rps"):
        return "higher"
    if unit in ("ms", "s", "us"):
        return "lower"
    return None


def cmd_compare(argv):
    """Compares two sets of runs (parent, change) per (metric, workload)
    by the pair rule: a gain needs the change to win at least nine tenths
    of the pairs and a median shift beyond the parent's quartile spread;
    a metric whose spread exceeds its bound is unresolved unless every
    change run beats every parent run."""
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("parent")
    p.add_argument("change")
    a = p.parse_args(argv)
    spec = load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_dir(a.parent), load_dir(a.change)
    groups = {}
    for side, docs in (("a", parent), ("b", change)):
        for d in docs:
            key = (d["workload"], d["trace"])
            pool = dict(d["metrics"])
            pool.update(d["layers"])
            for name, v in pool.items():
                if v["value"] is None:
                    continue
                g = groups.setdefault((key, name), {"unit": v["unit"], "a": {}, "b": {}})
                g[side].setdefault(d["seed"], []).append(v["value"])
    print(f"{'workload':24s} {'metric':36s} {'parent median [q1,q3]':>30s} {'change median [q1,q3]':>30s} "
          f"{'wins':>6s}  verdict")
    for ((workload, trace), name), g in sorted(groups.items()):
        if not g["a"] or not g["b"]:
            continue
        av = [x for xs in g["a"].values() for x in xs]
        bv = [x for xs in g["b"].values() for x in xs]
        a1, am, a3 = quartiles(av)
        b1, bm, b3 = quartiles(bv)
        better = direction(name, g["unit"], declared)
        verdict, wins_txt = "n/a", "-"
        if better and am != 0:
            sign = 1.0 if better == "higher" else -1.0
            # Pairs: runs of the same seed, in order; unmatched runs pair by position.
            pairs = []
            for seed in sorted(set(g["a"]) & set(g["b"])):
                pairs += list(zip(g["a"][seed], g["b"][seed]))
            if not pairs:
                pairs = list(zip(av, bv))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            share = wins / len(pairs)
            wins_txt = f"{share:.2f}"
            bound = declared.get(name, {}).get("bound", DEFAULT_BOUND)
            spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm) if bm else 0.0)
            worse_by = -sign * (bm - am) / abs(am)
            all_better = min(sign * y for y in bv) > max(sign * x for x in av)
            if share >= 0.9 and abs(bm - am) > (a3 - a1):
                verdict = "improved"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            else:
                verdict = "no worse"
        print(f"{workload:24s} {name:36s} {am:12.5g} [{a1:.4g},{a3:.4g}] {bm:12.5g} [{b1:.4g},{b3:.4g}] "
              f"{wins_txt:>6s}  {verdict}{' (traced)' if trace else ''}")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        cmd_compare(argv[1:])
    elif argv and argv[0] == "spread":
        cmd_spread(argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
