"""graphinv benchmark: CLI workloads, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; NAME is one of WORKLOADS or ``all``.  Every
timed repetition spawns ``python3 -m graphinv.cli ...`` with ``src`` on
PYTHONPATH, from this one process, because CLI users pay for corpus generation
on every run: the cached generator levels are never warm.  Repetitions run one
after another (a closed loop with one client) until the next would overrun
``--seconds``.  Every repetition's stdout must hash to the recorded SHA-256
and its exit code must be 0; a repetition that fails either counts in
``failed``, and any failure makes the benchmark exit 1 after printing its
result.

Each repetition is preceded by two fresh-interpreter imports of
``graphinv.cli`` and followed by one timing of the reference kernel
(reference.py).  Every time is scaled by ``REFERENCE_S`` over the kernel time
measured next to it (for a repetition, the mean of the kernel times just
before and just after it), so a time is in seconds at the kernel's nominal
host speed: on a shared host the raw times of identical runs drift by up to
40 % over tens of minutes, which no run length averages away.  The raw
medians are printed too.

With ``--trace 0`` it prints the end-to-end metrics: ``wall_s``, the median
scaled spawn-to-exit time of the command; ``graphs_per_s``, the workload's
corpus size over ``wall_s``; ``peak_rss_mb``, the median peak RSS of the
child (from ``os.wait4`` in spawner.py, so each child reports its own peak);
and
``setup_s``, the median scaled time to start an interpreter and import
``graphinv.cli``, after one discarded warm-up import.  With ``--trace 1`` it
also runs the command once through ``tracer.py`` and prints the per-layer
metrics, the raw median ``raw.wall_s``, the median kernel time
``host.reference_s`` and ``trace.overhead_s``, the raw traced wall time minus
``raw.wall_s``.  The last line of stdout is the JSON result.

README.md beside this file says why each workload is there and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import corpus
import reference
from tracer import environment

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SPAWNER = Path(__file__).resolve().parent / "spawner.py"
ALL_KINDS = "A,L,Q,D,DL,DQ,Atr,AtrPlus,Ddeg,DdegPlus"
DEFAULT_SEED = 1
SETUP_PER_REP = 2
IMPORT_ARGV = [sys.executable, "-c", "import graphinv.cli"]
CORPUS_ARG = "{corpus}"
# SHA-256 of the g6-snf-n16 corpus that DEFAULT_SEED produces.
DEFAULT_CORPUS_SHA256 = "0ae6556ecf0443c85bbdcff0979d72142e425369ae7fb0e3919f24c310352374"

# name -> (CLI arguments, graphs in the corpus, SHA-256 of the expected stdout).
# Every command passes --jobs 1: the CLI default is os.cpu_count(), and on a
# shared two-core machine a pool measures the scheduler (README.md).
WORKLOADS = {
    "census-n7": (
        ["census", "--n", "7", "--matrices", ALL_KINDS, "--modes", "spectral,invariant", "--jobs", "1"],
        853,
        "8f9e12899f0a44d4acae63be562a707f17eb6fe94b1f848acb8649c256d2d8af",
    ),
    "trees-n12": (
        ["trees", "--n", "12", "--matrices", "Atr,AtrPlus,Ddeg,DdegPlus", "--modes", "spectral,invariant",
         "--jobs", "1"],
        551,
        "ab2820aec5706366b8ed635afdf35f57108439b79a3225b52bb361656dbb4a22",
    ),
    "g6-snf-n16": (
        ["census", "--input", CORPUS_ARG, "--matrices", ALL_KINDS, "--modes", "invariant", "--jobs", "1"],
        corpus.MASTER_SIZE,
        "222e2c8c163ee97b09ed40c5c28df61354bfd3da8455baf8bef45c47d0fa7e52",
    ),
    # Corpus size: the connected graphs on 1..7 vertices that the suites walk.
    "verify-n7": (["verify", "--n-max", "7"], 996, "5f3af4826319ec029f2acf033a3a13d37c94c416520733e1b0c3bc5d693c6c56"),
    # The paper's table sizes.  One repetition takes about a minute and half a
    # minute, too long to take a median within one run, so BENCHMARK.json
    # lists the census-n7 and trees-n12 versions; these run by name or in all.
    "census-n8": (
        ["census", "--n", "8", "--matrices", ALL_KINDS, "--modes", "spectral,invariant", "--jobs", "1"],
        11117,
        "35607bb4e3f55d032f0616b4339af0df8944acd52fd08e7183ee910f76d48d1f",
    ),
    "trees-n14": (
        ["trees", "--n", "14", "--matrices", "Atr,AtrPlus,Ddeg,DdegPlus", "--modes", "spectral,invariant",
         "--jobs", "1"],
        3159,
        "de8feba0c3d8ecc7cf1b78d83f8ebec44f1dd85e51342e0ee2ac8003dcfd220d",
    ),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], stdout: Path) -> tuple[float, float, int]:
    """Run argv from the checkout root through spawner.py.

    Returns (wall s, peak RSS MB, exit code) as the spawner measured them.
    """
    stderr = OUT / "stderr.txt"
    done = subprocess.run([sys.executable, str(SPAWNER), str(stdout), str(stderr), *argv],
                          cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, check=True)
    report = json.loads(done.stdout)
    if report["exit"] != 0:
        sys.stderr.write(stderr.read_text(errors="replace")[-2000:])
    return report["wall_s"], report["peak_rss_mb"], report["exit"]


def import_time() -> float:
    wall, _, code = spawn(IMPORT_ARGV, OUT / "setup.txt")
    if code != 0:
        raise RuntimeError("cannot import graphinv.cli from src/")
    return wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    args, graphs, expected = WORKLOADS[name]
    env = environment()
    print(f"{name}: seed={seed} rev={env['git_rev']} python={env['python']} "
          f"nproc={env['nproc']} load1={env['load1']:.2f}")
    if CORPUS_ARG in args:
        path = OUT / f"{name}.g6"
        digest = corpus.write_corpus(seed, path)
        if seed == DEFAULT_SEED and digest != DEFAULT_CORPUS_SHA256:
            raise ValueError(f"{path.name}: SHA-256 {digest} differs from the recorded one")
        print(f"{name}: corpus {path.relative_to(ROOT)} sha256={digest}")
        args = [str(path.relative_to(ROOT)) if a == CORPUS_ARG else a for a in args]
    stdout = OUT / f"{name}.stdout"

    def attempt(argv):
        wall, rss, code = spawn(argv, stdout)
        ok = code == 0 and corpus.sha256(stdout.read_bytes()) == expected
        if not ok:
            print(f"{name}: FAILED exit={code} stdout sha256={corpus.sha256(stdout.read_bytes())}",
                  file=sys.stderr)
        return wall, rss, ok

    # Warm-ups, discarded: the first import in a checkout compiles bytecode,
    # and the first kernel run is slower than the rest.
    import_time()
    reference.measure()
    refs, walls, scaled_walls, setups, scaled_setups, rsses, oks, rounds = [], [], [], [], [], [], [], []
    argv = [sys.executable, "-m", "graphinv.cli", *args]
    start = perf_counter()
    before = reference.measure()
    while not rounds or perf_counter() - start + median(rounds) <= seconds:
        round_start = perf_counter()
        for _ in range(SETUP_PER_REP):
            setups.append(import_time())
            scaled_setups.append(setups[-1] * reference.REFERENCE_S / before)
        wall, rss, ok = attempt(argv)
        # The host's speed changes within a repetition, so the repetition is
        # scaled by the mean of the kernel times on either side of it.
        after = reference.measure()
        refs.append(after)
        walls.append(wall)
        scaled_walls.append(wall * reference.REFERENCE_S / ((before + after) / 2))
        rsses.append(rss)
        oks.append(ok)
        rounds.append(perf_counter() - round_start)
        before = after
    wall_s = median(scaled_walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "graphs_per_s": (graphs / wall_s, "1/s"),
        "peak_rss_mb": (median(rsses), "MB"),
        "setup_s": (median(scaled_setups), "s"),
    }
    if trace:
        spans = OUT / f"{name}-spans.json"
        spans.unlink(missing_ok=True)
        traced_wall, _, ok = attempt([sys.executable, str(SPAWNER.with_name("tracer.py")), str(spans), *args])
        oks.append(ok)
        record = json.loads(spans.read_text())
        if record["missing"]:
            print(f"{name}: not traced, missing from graphinv: {', '.join(record['missing'])}", file=sys.stderr)
        metrics = {k: (v["value"], v["unit"]) for k, v in record["metrics"].items()}
        metrics["raw.wall_s"] = (median(walls), "s")
        metrics["host.reference_s"] = (median(refs), "s")
        metrics["trace.overhead_s"] = (traced_wall - median(walls), "s")
    failed = oks.count(False)
    print(f"{name}: {len(walls)} timed runs; raw wall_s median {median(walls):.3f} min {min(walls):.3f} "
          f"max {max(walls):.3f}; raw setup_s median {median(setups):.4f}; reference kernel median {median(refs):.3f} s; "
          f"fail_frac {failed}/{len(oks)} = {failed / len(oks):.3f}")
    for key, (value, unit) in metrics.items():
        print(f"{name}\t{key}\t{value:.6g}\t{unit}")
    return {
        "correct": failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (ROOT / "src" / "graphinv" / "cli.py").is_file():
        print(f"error: no graphinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    try:
        results = {n: run_workload(n, opts.seed, opts.seconds, bool(opts.trace)) for n in names}
    except (OSError, ValueError, RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if opts.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[opts.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
