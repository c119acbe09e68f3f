"""qkfmag benchmark: runs the CLI as a user would and checks every output.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is run from ``src/``
with no install step.  Each workload is a batch job run as a closed loop of
one: the next CLI run starts when the previous one exits, and another is
started while its predicted end stays within ``--seconds`` (at least one).

``--trace 0`` reports the end-to-end metrics, medians over the run:
``wall_s``, ``cpu_s`` (user + system of the process tree, pool workers
included), ``peak_rss_mb`` (largest process in the tree), ``traj_steps_per_s``
and ``setup_s`` (median over fresh set-up processes, see probe.py; half of
them run before the workload's iterations and half after, so that they
sample the host over the whole run).

``--trace 1`` runs the workload once untraced, then replays each command in a
traced process (probe.py), replays ensembles that use a pool again with one
worker, and repeats one block's Philox draws alone.  It reports the
per-layer metrics, plus the span self-time table on stderr.

Every run writes a record (seed, exact CLI arguments, commit, versions, BLAS,
thread settings, per-process measurements, check failures, spans) to
``.bench_work/results/`` and prints the result as the last stdout line:
``{"correct", "attempted", "failed", "metrics"}``.  Every program process the
benchmark starts is one attempt; it fails when it exits non-zero or its
outputs fail a check.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170          # the whole invocation; children are killed past it
SETUP_REPEATS = 10
# checkpoints per estimator: 30 per decade from 1 us to t_total
CHECKPOINTS = {"perfbench/fig2-2048.json": 101, "perfbench/fig2-identity.json": 41}
THRESHOLD_SOURCES = {"riccati_numeric", "riccati_analytic", "asymptotic", "shotnoise"}

# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "fig2-ensemble": {
        "commands": [["ensemble", "--config", "perfbench/fig2-2048.json", "--workers", "2"]],
        # worker-count identity on every timed run: a 2,000-step version of the
        # ensemble with two workers and one; the traced run reruns the full one
        "identity": ["ensemble", "--config", "perfbench/fig2-identity.json"],
    },
    "scaling-sweep": {
        "commands": [["scaling", "--preset", "scaling", "--n-traj", "1024", "--workers", "1"]],
    },
    "single-record": {
        "commands": [["simulate", "--preset", "fig1"], ["oracle-check", "--preset", "oracle"]],
    },
}

# Metric names and units come from BENCHMARK.json, next to which the benchmark runs.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline(f"benchmark exceeded {DEADLINE_S} s")


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed = workload, seed
        self.dir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.procs: list = []      # one record per process started
        self.failures: list = []
        self._n = 0

    def commands(self, out: Path) -> list:
        """The workload's CLI argument lists, with the seed and an output dir per command."""
        return [cmd + ["--seed", str(self.seed), "--out", str(out / f"cmd{i}")]
                for i, cmd in enumerate(WORKLOADS[self.workload]["commands"])]

    def spawn(self, kind: str, argv: list) -> dict:
        """Run one process to completion; wall from spawn to reap, rusage of its tree."""
        self._n += 1
        log = self.dir / f"{self._n:03d}-{kind}.log"
        with open(log, "wb") as logf:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(argv, stdout=logf, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT, start_new_session=True)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            t1 = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"kind": kind, "argv": argv, "rc": proc.returncode, "t0": t0,
               "wall_s": (t1 - t0) / 1e9, "cpu_s": ru.ru_utime + ru.ru_stime,
               "peak_rss_mb": ru.ru_maxrss / 1024.0, "log": log.name}
        self.procs.append(rec)
        return rec

    def fail(self, rec: dict, reason: str) -> None:
        if "failures" not in rec:
            rec["log_tail"] = (self.dir / rec["log"]).read_text(errors="replace")[-2000:]
        rec.setdefault("failures", []).append(reason)
        self.failures.append(f"{rec['kind']}: {reason}")

    def cli(self, kind: str, argv: list) -> dict:
        return self.spawn(kind, [sys.executable, "-m", "qkfmag.cli"] + argv)

    def probe(self, mode: str, given, kind: str | None = None) -> tuple:
        """Run probe.py in ``mode`` on the JSON input ``given``; returns (process, its JSON)."""
        kind = kind or mode
        out = self.dir / f"{self._n + 1:03d}-{kind}.json"
        t0 = time.monotonic_ns()
        rec = self.spawn(kind, [sys.executable, str(PROBE), mode, "--t0", str(t0),
                                "--out", str(out), "--input", json.dumps(given)])
        doc = json.loads(out.read_text()) if out.exists() else None
        if doc is None:
            self.fail(rec, f"probe wrote no output (exit {rec['rc']})")
        elif mode == "setup":
            doc["setup_s"] = (doc["end_ns"] - t0) / 1e9
        return rec, doc

    # -- one iteration of the workload -------------------------------------

    def iteration(self, kind: str, out: Path) -> dict:
        """Run the workload's commands back to back; check each command's outputs."""
        shutil.rmtree(out, ignore_errors=True)
        argvs = self.commands(out)
        recs = [self.cli(kind, argv) for argv in argvs]
        it = {"wall_s": (recs[-1]["t0"] + recs[-1]["wall_s"] * 1e9 - recs[0]["t0"]) / 1e9,
              "cpu_s": sum(r["cpu_s"] for r in recs),
              "peak_rss_mb": max(r["peak_rss_mb"] for r in recs)}
        for rec, argv in zip(recs, argvs):
            self.check(rec, argv)
        return it

    def check(self, rec: dict, argv: list) -> None:
        """Check the outputs that the CLI command ``argv`` run by ``rec`` wrote."""
        out = Path(argv[argv.index("--out") + 1])
        try:
            for reason in check_outputs(argv, rec["rc"], out):
                self.fail(rec, reason)
        except (OSError, ValueError, KeyError) as exc:
            self.fail(rec, f"unreadable outputs: {exc!r}")

    def same_csv(self, rec: dict, a: Path, b: Path) -> None:
        a, b = a / "ensemble.csv", b / "ensemble.csv"
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            self.fail(rec, f"{b} differs from {a}")

    # -- the two modes -------------------------------------------------------

    def setups(self, n: int) -> list:
        """``n`` fresh set-up processes: their docs, each with spawn-to-set-up-done in setup_s."""
        docs = [self.probe("setup", self.commands(self.dir / "setup"))[1] for _ in range(n)]
        return [d for d in docs if d]

    def timed(self, seconds: float) -> tuple:
        setups = self.setups(SETUP_REPEATS // 2)
        iters = []
        start = time.monotonic()
        while True:
            iters.append(self.iteration("timed", self.dir / "timed"))
            predicted = statistics.median(i["wall_s"] for i in iters)
            if time.monotonic() - start + predicted > seconds:
                break
        small = WORKLOADS[self.workload].get("identity")
        if small:
            runs = []
            for workers in ("2", "1"):
                out = self.dir / f"identity{workers}"
                argv = small + ["--workers", workers, "--seed", str(self.seed), "--out", str(out)]
                rec = self.cli("identity", argv)
                self.check(rec, argv)
                runs.append(out)
            self.same_csv(rec, *runs)
        setups += self.setups(SETUP_REPEATS - SETUP_REPEATS // 2)
        wall = statistics.median(i["wall_s"] for i in iters)
        work = setups[-1]["traj_steps"] if setups else 0
        setup_s = [d["setup_s"] for d in setups]
        return {
            "wall_s": wall,
            "cpu_s": statistics.median(i["cpu_s"] for i in iters),
            "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in iters),
            "traj_steps_per_s": work / wall,
            "setup_s": statistics.median(setup_s) if setup_s else 0.0,
        }, {"iterations": iters, "setup_s": setup_s, "traj_steps": work}

    def replay(self, kind: str, out: Path, workers: str | None = None) -> list:
        """Traced replay of each command into ``out``, checked against the untraced run.

        ``workers`` overrides the commands' ``--workers``.  Returns the span documents.
        """
        shutil.rmtree(out, ignore_errors=True)
        docs = []
        for i, argv in enumerate(self.commands(out)):
            if workers and "--workers" in argv:
                argv = argv.copy()
                argv[argv.index("--workers") + 1] = workers
            rec, doc = self.probe("replay", [argv], kind)
            self.check(rec, argv)
            if argv[0] == "ensemble":
                # worker-count identity when ``workers`` differs from the untraced run
                self.same_csv(rec, self.dir / "untraced" / f"cmd{i}", out / f"cmd{i}")
            if doc:
                docs.append(doc)
        return docs

    def traced(self) -> tuple:
        untraced = self.iteration("untraced", self.dir / "untraced")
        out = self.dir / "replay"
        replays = self.replay("replay", out)
        checks_failed = sum(len(json.loads(p.read_text())["failures"])
                            for p in out.glob("cmd*/summary.json"))
        argvs = self.commands(out)
        workers = max(int(a[a.index("--workers") + 1]) if "--workers" in a else 1 for a in argvs)
        # block timings need the blocks run one after another in the traced process
        one_worker = self.replay("one-worker", self.dir / "one-worker", "1") if workers > 1 else []
        block = last_block(one_worker or replays)
        draws = self.probe("draws", block[1]["attrs"]["block"])[1] if block else None
        metrics, table = layer_metrics(replays, one_worker, draws, block, workers)
        metrics["cli.checks_failed"] = checks_failed
        replay_walls = sum(p["wall_s"] for p in self.procs if p["kind"] == "replay")
        return metrics, {"untraced": untraced, "self_times": table,
                         "replay_wall_minus_untraced_s": replay_walls - untraced["wall_s"],
                         "spans": replays + one_worker + ([draws] if draws else [])}


def check_outputs(argv: list, rc: int, out: Path) -> list:
    """Reasons the outputs of one CLI command are wrong; empty when they are right."""
    cmd = argv[0]
    bad = [] if rc == 0 else [f"exit code {rc}"]
    summary = json.loads((out / "summary.json").read_text())
    checks = {c["name"]: c["passed"] for c in summary["checks"]}
    bad += [f"check {name} failed" for name, ok in checks.items() if not ok]
    if cmd == "ensemble":
        rows = _csv_rows(out / "ensemble.csv")
        by_est: dict = {}
        for r in rows:
            by_est.setdefault(r["estimator"], []).append(r)
            if not all(math.isfinite(float(r[k])) for k in ("t", "mse", "stderr", "mean_b",
                                                             "predicted_v22")):
                bad.append(f"non-finite value in ensemble.csv at t={r['t']}")
        want = CHECKPOINTS[argv[argv.index("--config") + 1]]
        for est in ("qkf", "regression"):
            n = len({r["t"] for r in by_est.get(est, [])})
            if n != want:
                bad.append(f"ensemble.csv has {n} {est} checkpoints, expected {want}")
        lo, hi = summary["config"]["ensemble"]["mse_ratio_window"]
        ratios = [float(r["mse"]) / float(r["predicted_v22"]) for r in by_est.get("qkf", [])]
        if not ratios or not all(lo <= x <= hi for x in ratios):
            bad.append(f"qkf mse/predicted_v22 outside [{lo}, {hi}]")
        sources = {r["source"] for r in _csv_rows(out / "thresholds.csv")}
        if sources != THRESHOLD_SOURCES:
            bad.append(f"thresholds.csv sources {sorted(sources)}")
    elif cmd == "scaling":
        if len(checks) != 3:
            bad.append(f"{len(checks)} scaling checks, expected 3")
        n = len(_csv_rows(out / "scaling.csv"))
        if n != 12:
            bad.append(f"scaling.csv has {n} rows, expected 12")
    elif cmd == "simulate":
        if not checks.get("record_consistency"):
            bad.append("record_consistency missing")
        with open(out / "trajectory.csv", "rb") as f:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b""))
        if lines != summary["n_grid_points"] + 1:
            bad.append(f"trajectory.csv has {lines} lines for {summary['n_grid_points']} points")
    elif cmd == "oracle-check":
        for name in ("gaussian_mean_agreement", "dephasing_rates"):
            if not checks.get(name):
                bad.append(f"{name} missing")
    return bad


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _self_times(doc: dict) -> tuple:
    """Per span: duration, self time (duration minus what its children cover), outermost flag."""
    spans = doc["spans"]
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        dur = (s["end"] - s["start"]) / 1e9
        covered = 0
        last = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], last), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                last = hi
        outer = True
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                outer = False
            p = by_id[p]["parent"]
        out.append((s, dur, dur - covered / 1e9, outer))
    return out


def last_block(docs: list) -> tuple | None:
    """(document, span) of the last ``montecarlo.run_ensemble`` span in ``docs``."""
    spans = [(doc, s) for doc in docs for s in doc["spans"]
             if s["name"] == "montecarlo.run_ensemble" and "block" in s["attrs"]]
    if not spans:
        return None
    doc, span = spans[-1]
    return doc, span


def layer_metrics(replays: list, one_worker: list, draws: dict | None, block: tuple | None,
                  workers: int) -> tuple:
    """Per-layer metrics from the replay spans, the one-worker replay and the block draws.

    A metric ``X_s`` is the time in outermost replay spans named ``X``; a
    count is the sum of the counts the spans recorded under the metric's
    name.  The block metrics come from ``block``, the last one-worker
    ``run_ensemble`` span, and from ``draws``.
    """
    m = {name: 0 if unit in ("count", "B") else 0.0 for name, unit in PER_LAYER.items()}
    table: dict = {}
    imports = []
    docs = ([("", d) for d in replays] + [("one-worker:", d) for d in one_worker]
            + ([("draws:", draws)] if draws else []))
    for prefix, doc in docs:
        for s, dur, self_s, outer in _self_times(doc):
            row = table.setdefault(prefix + s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += self_s
            if prefix or not outer:
                continue
            if s["name"] == "replay":
                m["trace.unattributed_s"] += self_s
            elif s["name"] == "setup.import":
                imports.append(dur)
            elif s["name"] + "_s" in m:
                m[s["name"] + "_s"] += dur
            for k, v in s["attrs"].items():
                if k in m:
                    m[k] += v
    m["setup.import_s"] = statistics.median(imports) if imports else 0.0
    m["trace.overhead_s"] = sum(d["trace_cost_ns"] for d in replays) / 1e9

    if block:
        doc, span = block
        blocks = span["attrs"]["montecarlo.blocks"]
        block_s = (span["end"] - span["start"]) / 1e9 / blocks
        # schedule and checkpoint Riccati run once per ensemble: share them out
        inside = sum((s["end"] - s["start"]) / 1e9 for s in doc["spans"]
                     if s["parent"] == span["id"] and s["name"] in
                     ("estimators.kalman_schedule", "estimators.riccati_integrate")) / blocks
        b = span["attrs"]["block"]
        m["montecarlo.block_s"] = block_s
        m["montecarlo.traj_steps"] = b["n_traj"] * b["n_steps"]
        m["montecarlo.ns_per_traj_step"] = block_s / m["montecarlo.traj_steps"] * 1e9
        m["montecarlo.engine_self_s"] = block_s - inside
        if draws:
            (d,) = [s for s in draws["spans"] if s["name"] == "rng.normals"]
            m["rng.normals"] = d["attrs"]["rng.normals"]
            m["rng.normals_s"] = (d["end"] - d["start"]) / 1e9
            m["rng.ns_per_normal"] = m["rng.normals_s"] / m["rng.normals"] * 1e9
            m["montecarlo.engine_self_s"] -= m["rng.normals_s"]
    if workers > 1 and m["montecarlo.run_ensemble_s"]:
        m["montecarlo.parallel_efficiency"] = (m["montecarlo.blocks"] * m["montecarlo.block_s"]
                                               / (workers * m["montecarlo.run_ensemble_s"]))
    return m, table


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((SRC / "qkfmag").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "workload": workload, "seed": seed,
        "commands": [c + ["--seed", str(seed)] for c in WORKLOADS[workload]["commands"]],
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "python": sys.version.split()[0],
        "numpy": np.__version__, "mpmath": importlib.metadata.version("mpmath"),
        "blas": {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                 for k, v in deps.items() if k in ("blas", "lapack")},
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qkfmag benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args(argv)
    if not (SRC / "qkfmag" / "cli.py").is_file():
        print(f"error: no qkfmag sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(a.workload, a.seed, bool(a.trace))
    bench.dir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        metrics, detail = bench.traced() if a.trace else bench.timed(a.seconds)
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(bench.dir, ignore_errors=True)
    units = PER_LAYER if a.trace else END_TO_END
    result = {"correct": not bench.failures, "attempted": len(bench.procs),
              "failed": sum(1 for p in bench.procs if p.get("failures")),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"environment": environment(a.workload, a.seed), "trace": a.trace,
              "seconds": a.seconds, "failures": bench.failures, "processes": bench.procs,
              **detail, "result": result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(record, indent=1))
    for reason in bench.failures:
        print(f"FAIL {reason}", file=sys.stderr)
    if a.trace:
        print(f"{'span':40s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s}", file=sys.stderr)
        for name, row in sorted(detail["self_times"].items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"{name:40s} {row['calls']:6d} {row['total_s']:10.4f} {row['self_s']:10.4f}",
                  file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
