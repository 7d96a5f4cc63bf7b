"""Alternating parent/change pairs of the benchmark, summarised as one
BENCH_<workload>.json entry.

    python3 tools/pairs.py --parent REV --workload NAME --seeds 501-510 \\
        --seconds 30 [--claim METRIC] [--change TEXT]

Both sides run from fresh copies in a temporary directory, never from the
checkout itself, so that where a side lies cannot bias it: the parent
revision is exported with `git archive`, and the change is the checkout as
it is on disk, its tracked files and its untracked files that git does not
ignore, uncommitted edits included.  For each seed, `perfbench/run.py
--trace 0` runs in both copies, the side that runs first alternating from
seed to seed.
The entry, printed on stdout in the layout of the files' "entries" list,
gives, for each end-to-end metric of BENCHMARK.json, each side's median
and inclusive quartiles over its runs, and the pairs in which the change
reads better.
Each end-to-end metric also gets a no-regression verdict on stderr
(see no_regression), and the exit status is 1 when one regressed.
A named claim meets the rule when the change wins at least 9 pairs in 10
and its median is better than the parent's by more than the parent's
interquartile range; the verdict goes to stderr, and the exit status is 1
when a claim misses.  A run that reports "correct": false, or fails, also
exits 1, with no entry printed.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def end_to_end(root: Path = ROOT, key: str = "better") -> dict:
    """Each end-to-end metric of BENCHMARK.json: "higher" or "lower", or
    its field named key, such as "bound"."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m[key] for m in spec["end_to_end"]}


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6),
            "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's spread over its runs, and wins, the pairs
    (runs of one seed) in which the change reads strictly better."""
    seeds = sorted({r["seed"] for r in runs})
    by_side = {(r["side"], r["seed"]): r for r in runs}
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (by_side["change", s][name] - by_side["parent", s][name]) > 0
                   for s in seeds)
        out[name] = {side: spread([by_side[side, s][name] for s in seeds])
                     for side in ("parent", "change")}
        out[name]["wins"] = f"{wins}/{len(seeds)}"
    return out


def meets_claim(metric: dict, direction: str) -> bool:
    """At least 9 wins in 10, and the medians further apart, in the
    change's favour, than the parent's quartiles."""
    wins, pairs = map(int, metric["wins"].split("/"))
    parent, change = metric["parent"], metric["change"]
    gap = change["median"] - parent["median"]
    if direction == "lower":
        gap = -gap
    return 10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"]


def no_regression(runs: list[dict], name: str, direction: str, bound: float) -> str:
    """One metric's verdict: "regressed" when the change's median is worse
    than the parent's by more than bound times the parent's median; else
    "unresolved" when the parent's interquartile range is wider than that
    margin, unless every change run reads better than every parent run;
    else "ok"."""
    sign = 1 if direction == "higher" else -1
    parent = [sign * r[name] for r in runs if r["side"] == "parent"]
    change = [sign * r[name] for r in runs if r["side"] == "change"]
    margin = bound * abs(statistics.median(parent))
    if statistics.median(parent) - statistics.median(change) > margin:
        return "regressed"
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    if q3 - q1 > margin and min(change) <= max(parent):
        return "unresolved"
    return "ok"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(stamp line, result line) of one perfbench/run.py run in root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    stamp, result = map(json.loads, proc.stdout.splitlines()[-2:])
    return stamp, result


def commit_sha(rev: str) -> str | None:
    """The sha of the commit rev names, or None when it names none."""
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def export(sha: str, into: Path) -> None:
    """Extract the commit's committed files into the directory."""
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def copy_checkout(into: Path) -> None:
    """Copy the checkout's tracked files, and its untracked files that git
    does not ignore, as they are on disk into the directory."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=ROOT, check=True,
                           capture_output=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        if (ROOT / name).is_file():  # a tracked file deleted on disk is left out
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def format_entry(entry: dict) -> str:
    """The entry as the BENCH files lay it out, indented for their entries
    list: a line per field, per metric and per run."""
    def one(value) -> str:
        return json.dumps(value, ensure_ascii=False)

    def block(name: str, lines: list[str], close: str) -> str:
        return f'      "{name}": {close[0]}\n' + ",\n".join(
            "        " + line for line in lines) + f"\n      {close[1]}"

    fields = [f'      "{k}": {one(v)}' for k, v in entry.items() if k not in ("metrics", "runs")]
    fields.append(block("metrics", [f'"{k}": {one(v)}' for k, v in entry["metrics"].items()],
                        "{}"))
    fields.append(block("runs", [one(r) for r in entry["runs"]], "[]"))
    return "    {\n" + ",\n".join(fields) + "\n    }"


def workloads(root: Path = ROOT) -> list[str]:
    """The names of the workloads BENCHMARK.json declares."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def parse_seeds(text: str) -> list[int]:
    """The seeds of an inclusive range first-last, or of one seed; a
    ValueError for other text or an empty range."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if match is None:
        raise ValueError(f"{text!r} is not a seed or a range first-last")
    first, last = int(match[1]), int(match[2] or match[1])
    if last < first:
        raise ValueError(f"range {text} is empty")
    return list(range(first, last + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--workload", required=True, choices=workloads())
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 501-510")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", help="the metric the change claims to improve")
    parser.add_argument("--change", help="one line naming the change")
    args = parser.parse_args(argv)
    better = end_to_end()
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim must be one of {', '.join(better)}")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as e:
        parser.error(f"--seeds: {e}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    parent_sha = commit_sha(args.parent)
    if parent_sha is None:
        parser.error(f"--parent: {args.parent!r} names no commit")
    runs, first_stamp = [], None
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        export(parent_sha, sides["parent"])
        copy_checkout(sides["change"])
        for i, seed in enumerate(seeds):
            for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
                stamp, result = run_once(sides[side], args.workload, seed, args.seconds)
                if not result["correct"]:
                    sys.exit(f"{side} seed {seed}: run not correct; no entry printed")
                if side == "parent" and first_stamp is None:
                    first_stamp = stamp
                    if stamp["stamp"]["git_sha"] == "unknown":  # an export has no .git
                        stamp["stamp"]["git_sha"] = parent_sha
                runs.append({"seed": seed, "side": side,
                             **{k: round(result["metrics"][k]["value"], 6) for k in better},
                             "slowdown": round(stamp["slowdown"], 6)})
                print(f"{side} seed {seed}: " + ", ".join(
                    f"{k} {runs[-1][k]}" for k in better), file=sys.stderr)
    info = first_stamp["stamp"]
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    entry = {"change": args.change, "parent_sha": parent_sha, "sha": None,
             "pairs": len(seeds), "seeds": args.seeds, "seconds": seconds,
             "claim": args.claim,
             "host": f"{info['nproc']}-core host, Python {info['python']}",
             "stamp": first_stamp, "metrics": summarize(runs, better), "runs": runs}
    bounds, regressed = end_to_end(key="bound"), False
    for name, direction in better.items():
        verdict = no_regression(runs, name, direction, bounds[name])
        regressed |= verdict == "regressed"
        m = entry["metrics"][name]
        print(f"no-regression {name}: {verdict} (median {m['parent']['median']} -> "
              f"{m['change']['median']}, bound {bounds[name]})", file=sys.stderr)
    met = True
    if args.claim is not None:
        met = meets_claim(entry["metrics"][args.claim], better[args.claim])
        print(f"claim {args.claim}: {'meets' if met else 'misses'} the rule "
              f"(wins {entry['metrics'][args.claim]['wins']})", file=sys.stderr)
    print(format_entry(entry))
    return 0 if met and not regressed else 1


if __name__ == "__main__":
    sys.exit(main())
