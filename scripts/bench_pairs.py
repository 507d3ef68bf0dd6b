#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed-base S
                           [--workdir DIR]

Checks PARENT and CHANGE (any git revisions) out into two git worktrees
under DIR (default: a fresh temporary directory), each building into its
own CARGO_TARGET_DIR, and refuses to run if `perfbench/` or
`BENCHMARK.json` differ between them. Pair i runs BENCHMARK.json's
command at its `run_seconds` on seed S + i for both sides: the parent
first on even pairs, the change first on odd pairs. Every run's output is
kept under DIR/runs.

For each end-to-end metric it prints each side's median and quartiles,
how many pairs the change won (by the metric's `better`), whether the
median gap in the change's favour exceeds the parent's interquartile
range, and a verdict, the first of these that holds:

  gain          the change won at least 9 in 10 pairs and the median gap
                in its favour exceeds the parent's IQR;
  worse         the change's median is worse than the parent's by more
                than the metric's `bound`;
  unresolved    the parent's IQR exceeds `bound` times its median, and
                not every change run is better than every parent run;
  within bound  anything else.

It then lists every metric whose verdict is `worse`.

Exit status: 0 when every run is `correct`, 1 when any run is not (or
printed no result), 2 when the two revisions' benchmarks differ.
Standard library only; no network.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def quartiles(values):
    """(q1, median, q3), inclusive method; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(p, c, lower, bound):
    """The verdict for one metric's parent runs `p` and change runs `c`."""
    (p1, pm, p3), (_, cm, _) = quartiles(p), quartiles(c)
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    gain = (pm - cm) if lower else (cm - pm)
    delta = (cm - pm) / pm if pm else 0.0
    if 10 * wins >= 9 * len(p) and gain > p3 - p1:
        return "gain"
    if (delta if lower else -delta) > bound:
        return "worse"
    separated = max(c) < min(p) if lower else min(c) > max(p)
    if pm and (p3 - p1) / abs(pm) > bound and not separated:
        return "unresolved"
    return "within bound"


def result_line(stdout):
    """The JSON object perfbench prints as its last stdout line, or None."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed-base", type=int, required=True)
    ap.add_argument("--workdir", help="worktrees, builds and run outputs (default: a temp dir)")
    args = ap.parse_args()

    repo = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    revs = {
        "parent": git(repo, "rev-parse", "--verify", args.parent + "^{commit}"),
        "change": git(repo, "rev-parse", "--verify", args.change + "^{commit}"),
    }
    differs = subprocess.run(
        ["git", "-C", str(repo), "diff", "--quiet", revs["parent"], revs["change"],
         "--", "perfbench", "BENCHMARK.json"]
    ).returncode
    if differs:
        print("refusing: perfbench/ or BENCHMARK.json differ between the revisions",
              file=sys.stderr)
        sys.exit(2)
    bench = json.loads(git(repo, "show", revs["parent"] + ":BENCHMARK.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    command = bench["command"]
    run_args = ["--workload", args.workload, "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]

    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench_pairs-")).resolve()
    (workdir / "runs").mkdir(parents=True, exist_ok=True)
    trees = {side: workdir / side for side in revs}
    envs = {}
    try:
        for side, rev in revs.items():
            git(repo, "worktree", "add", "--detach", str(trees[side]), rev)
            # Inside the worktree, so perfbench's socket paths stay short
            # and relative; `.bench_build` is ignored by the repository.
            envs[side] = dict(os.environ, CARGO_TARGET_DIR=str(trees[side] / ".bench_build"))
            if command[:2] == ["cargo", "run"]:
                build = ["cargo", "build"] + command[2:command.index("--")]
                print(f"building {side} {rev[:10]}", flush=True)
                subprocess.run(build, cwd=trees[side], env=envs[side], check=True)

        results = {side: [] for side in revs}
        incorrect = 0
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                cmd = command + run_args + ["--seed", str(seed)]
                run = subprocess.run(cmd, cwd=trees[side], env=envs[side],
                                     capture_output=True, text=True)
                out = workdir / "runs" / f"pair{i:02d}-{side}.txt"
                out.write_text(run.stdout + "\n--- stderr ---\n" + run.stderr)
                result = result_line(run.stdout)
                if result is None or result.get("correct") is not True:
                    incorrect += 1
                    print(f"pair {i} {side} seed {seed}: NOT CORRECT (see {out})", flush=True)
                    result = None
                else:
                    shown = ", ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                      for m in bench["end_to_end"])
                    print(f"pair {i} {side} seed {seed}: {shown}", flush=True)
                results[side].append(result)
    finally:
        for tree in trees.values():
            if tree.exists():
                subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                                str(tree)], check=False)

    pairs = [(p, c) for p, c in zip(results["parent"], results["change"]) if p and c]
    print(f"\n{args.workload}: {len(pairs)} complete pairs of {args.pairs}, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}, "
          f"{bench['run_seconds']} s per run; outputs in {workdir / 'runs'}")
    worse = []
    if pairs:
        print(f"{'metric':<20} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34}"
              f" {'wins':>6} {'gap>IQR':>8} {'delta':>8}  verdict")
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            p = [r["metrics"][name]["value"] for r, _ in pairs]
            c = [r["metrics"][name]["value"] for _, r in pairs]
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
            gain = (pm - cm) if lower else (cm - pm)
            delta = (cm - pm) / pm if pm else 0.0
            judged = verdict(p, c, lower, metric["bound"])
            print(f"{name:<20} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<34}"
                  f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<34} {f'{wins}/{len(pairs)}':>6}"
                  f" {'yes' if gain > p3 - p1 else 'no':>8} {delta:>+8.1%}  {judged}")
            if judged == "worse":
                worse.append(f"{name} ({delta:+.1%}, bound {metric['bound']:.0%})")
    print("worse than bound: " + (", ".join(worse) if worse else "none"))
    if incorrect:
        print(f"{incorrect} run(s) not correct")
        sys.exit(1)


if __name__ == "__main__":
    main()
