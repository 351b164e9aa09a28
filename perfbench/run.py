"""simflow benchmark: closed-loop CLI workloads with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sbc-loop --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

One client runs one `python -m simflow.cli` process at a time, with
PYTHONPATH=src and the CLI's default --threads. --trace 0 measures the
end-to-end metrics with tracing off; --trace 1 runs the same commands
in-process through simflow.cli.main with spans around each layer and
reports the per-layer metrics. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5        # --dry-run wall times per run; setup_s is their median
COMMAND_TIMEOUT = 150.0  # seconds before a hung simflow process is killed
RUN_BUDGET = 165.0       # seconds per workload run; later commands are not started
TRACED_MODULES = ("rng", "models", "approximators", "calibration",
                  "predictive", "simtest", "diagnostics", "compare", "elicitation",
                  "report", "figures", "cli")


# ---------------------------------------------------------------------------
# Machine block


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine() -> dict:
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{idx}/level"), _read(f"{idx}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(f"{idx}/size")
    versions = {}
    for mod in ("numpy", "scipy"):
        try:
            versions[mod] = importlib.import_module(mod).__version__
        except ImportError:
            versions[mod] = None
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "l2": caches.get("l2"), "l3": caches.get("l3"),
        "python": platform.python_version(), **versions,
    }


# ---------------------------------------------------------------------------
# Host speed
#
# The speed of a shared host drifts by 10-30% over tens of seconds, the
# length of a whole pass, so raw times of the same code scatter from run to
# run. Every simflow process is therefore timed between two probes of the
# host's speed, and its times are scaled to a host on which the probes take
# their nominal times. A probe times three fixed tasks that stand for what
# simflow spends its time on: a pure-Python loop (interpreter speed), a
# numpy pass over 32 MB (memory bandwidth) and starting a Python process
# that imports numpy (process start and module loading). The scale is the
# geometric mean of nominal / measured over the three. The probes run only
# while no simflow process does and use nothing from src, so the code under
# test cannot change them; a slower simflow reads proportionally slower.

PROBE_LOOP_N = 400_000           # iterations of the pure-Python loop
PROBE_ARRAY_N = 4_000_000        # float64 elements of the numpy pass
# Nominal probe times: their medians on the 2-vCPU Xeon the bounds were set on.
PROBE_NOMINAL_S = {"loop": 0.040, "array": 0.011, "spawn": 0.196}


def _probe_loop() -> int:
    acc = 0
    for i in range(PROBE_LOOP_N):
        acc += i * i
    return acc


def _timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Runs commands between host-speed probes and sets each one's scale."""

    def __init__(self):
        import numpy as np
        array = np.ones(PROBE_ARRAY_N)
        spawn = [sys.executable, "-c", "import numpy"]
        self._probes = {
            "loop": lambda: _timed(_probe_loop, 5),
            "array": lambda: _timed(lambda: (array * 1.0001).sum(), 5),
            "spawn": lambda: _timed(lambda: subprocess.run(
                spawn, stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT, check=True), 1),
        }
        self.speeds: list[float] = []
        self.last = self.probe()

    def probe(self) -> float:
        """Host speed now: geometric mean of nominal / measured probe times."""
        logs = [math.log(PROBE_NOMINAL_S[k] / fn()) for k, fn in self._probes.items()]
        speed = math.exp(sum(logs) / len(logs))
        self.speeds.append(speed)
        return speed

    def run(self, fn) -> Outcome:
        before = self.last
        out = fn()
        self.last = self.probe()
        out.scale = (before + self.last) / 2
        return out


# ---------------------------------------------------------------------------
# Report digests


def digest(report_bytes: bytes) -> str:
    """sha256 of a report.json without its timing_seconds line."""
    body = re.sub(rb'\n[ ]*"timing_seconds": [^\n]*', b"", report_bytes)
    return hashlib.sha256(body).hexdigest()


def stored_digests(workload: str, seed: int) -> dict | None:
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def record_digests(workload: str, seed: int, digests: dict) -> None:
    path = HERE / "digests.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    data.setdefault(workload, {})[str(seed)] = digests
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def digest_changes(workload: str, seed: int, digests: dict) -> int | None:
    known = stored_digests(workload, seed)
    if known is None:
        return None
    return sum(known.get(label) != d for label, d in digests.items())


# ---------------------------------------------------------------------------
# Running commands


class Outcome:
    """Result of one command: exit code, timings, check problems, digest."""

    def __init__(self, label, code, wall, rss_kb=0):
        self.label, self.code, self.wall, self.rss_kb = label, code, wall, rss_kb
        self.compute = None
        self.scale = 1.0     # host speed around the run; times * scale are reported
        self.problems: list[str] = []
        self.digest = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def check(cmd: workloads.Command, out: Outcome, workdir: Path) -> Outcome:
    """Exit code, report presence and the command's closed-form check."""
    path = workdir / cmd.label / "report.json"
    if out.code != 0:
        out.problems.append(f"exit code {out.code}")
    if not path.is_file():
        out.problems.append("no report.json")
        return out
    raw = path.read_bytes()
    out.digest = digest(raw)
    try:
        rep = json.loads(raw)
        out.compute = float(rep["timing_seconds"])
        out.problems += cmd.check(rep, workdir / cmd.label)
    except Exception as exc:  # noqa: BLE001 - a report the check cannot read fails it
        out.problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
    return out


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SIMFLOW_SEED")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list[str], cwd: Path, env: dict, log: Path, timeout: float
          ) -> tuple[int, float, int]:
    """Run one process to exit; return (exit code, wall seconds, peak RSS KiB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def run_cli(cmd, workdir: Path, env: dict, deadline: float, dry: bool = False) -> Outcome:
    left = deadline - time.monotonic()
    if left <= 0:
        out = Outcome(cmd.label, None, 0.0)
        out.problems.append("not started: run budget spent")
        return out
    shutil.rmtree(workdir / cmd.label, ignore_errors=True)
    argv = [sys.executable, "-m", "simflow.cli", *cmd.argv] + (["--dry-run"] if dry else [])
    code, wall, rss = spawn(argv, workdir, env, workdir / f"{cmd.label}.log",
                            min(COMMAND_TIMEOUT, left))
    out = Outcome(cmd.label, code, wall, rss)
    if dry:
        if code != 0:
            out.problems.append(f"dry run exit code {code}")
        return out
    return check(cmd, out, workdir)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def measure(cmds, workdir: Path, root: Path, seconds: float
            ) -> tuple[dict, dict, list[Outcome]]:
    """Set-up timings, then whole passes over the commands until the budget.

    Returns the end-to-end metrics (times scaled to the reference host),
    the same times unscaled, and every outcome.
    """
    env = child_env(root)
    deadline = time.monotonic() + RUN_BUDGET
    clock = HostClock()
    dry = [clock.run(lambda c=cmds[i % len(cmds)]: run_cli(c, workdir, env, deadline, dry=True))
           for i in range(SETUP_REPEATS)]
    passes: list[list[Outcome]] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append([clock.run(lambda c=c: run_cli(c, workdir, env, deadline))
                       for c in cmds])
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    walls = [sum(o.wall * o.scale for o in p) for p in passes]
    computes = [sum((o.compute or 0.0) * o.scale for o in p) for p in passes]
    rss = [max(o.rss_kb for o in p) / 1024.0 for p in passes]
    metrics = {
        "wall_s": summarize(walls, "s"),
        "compute_s": summarize(computes, "s"),
        "setup_s": summarize([o.wall * o.scale for o in dry], "s"),
        "peak_rss_mb": summarize(rss, "MB"),
    }
    raw = {
        "raw.wall_s": summarize([sum(o.wall for o in p) for p in passes], "s"),
        "raw.compute_s": summarize([sum(o.compute or 0.0 for o in p) for p in passes], "s"),
        "raw.setup_s": summarize([o.wall for o in dry], "s"),
        "host.speed": summarize(clock.speeds, "ratio"),
    }
    outcomes = [o for p in passes for o in p] + dry
    return metrics, raw, outcomes


# ---------------------------------------------------------------------------
# Traced run


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative seconds of the top-level simflow imports and of scipy.stats.

    scipy loads scipy.stats lazily, so the package itself has no line; its
    cost is the sum of the outermost scipy.stats.* lines.
    """
    lines = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            try:
                cumulative = float(parts[1]) / 1e6
            except ValueError:
                continue
            name = parts[2].rstrip()[1:]
            lines.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    simflow = stats = 0.0
    stack: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(lines):    # parents precede children
        while stack and stack[-1][0] >= level:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        stack.append((level, name))
        if level == 0 and name.split(".")[0] == "simflow":
            simflow += cumulative
        if name.startswith("scipy.stats") and not parent.startswith("scipy.stats"):
            stats += cumulative
    return simflow, stats


def import_times(root: Path, repeats: int = 3) -> tuple[float, float]:
    """Medians over `python -X importtime -c "import simflow.cli"` runs."""
    runs = [parse_importtime(subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import simflow.cli"],
        env=child_env(root), capture_output=True, text=True,
        timeout=COMMAND_TIMEOUT).stderr) for _ in range(repeats)]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def load_simflow(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    mods = {}
    for name in TRACED_MODULES:
        try:
            mods[name] = importlib.import_module(f"simflow.{name}")
        except ImportError:
            pass
    return mods


def band_clear(mods: dict):
    """cache_clear of the ECDF band cache, taken before tracing wraps the band."""
    return getattr(getattr(mods.get("diagnostics"), "_calibrated_band", None),
                   "cache_clear", None)


def run_inprocess(cmds, workdir: Path, mods: dict, clear, trace=None
                  ) -> tuple[float, list[Outcome]]:
    """One pass through simflow.cli.main in this process; returns (wall, outcomes).

    clear() empties the band cache before each command, as each CLI process
    starts without it.
    """
    main = mods["cli"].main
    outcomes, total = [], 0.0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for cmd in cmds:
            shutil.rmtree(cmd.label, ignore_errors=True)
            if clear is not None:
                clear()
            call = main if trace is None else trace.wrap("cli.main", main)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = call(list(cmd.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # noqa: BLE001 - a crash is a failed command
                    code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            total += wall
            outcomes.append(check(cmd, Outcome(cmd.label, code, wall), workdir))
    finally:
        os.chdir(cwd)
    return total, outcomes


def traced_run(cmds, workdir: Path, root: Path, spans_path: Path) -> tuple[dict, list[Outcome]]:
    import_s, scipy_stats_s = import_times(root)
    mods = load_simflow(root)
    if "cli" not in mods:
        raise SystemExit("error: cannot import simflow.cli from src")
    clear = band_clear(mods)
    _, warm = run_inprocess(cmds, workdir, mods, clear)     # untimed
    tr = tracing.Tracer()
    plain = traced = 0.0
    plain_out, traced_out = [], []
    for cmd in cmds:   # plain and traced alternate per command, so drift cancels
        wall, out = run_inprocess([cmd], workdir, mods, clear)
        plain += wall
        plain_out += out
        tracing.install(tr, mods)
        try:
            wall, out = run_inprocess([cmd], workdir, mods, clear, trace=tr)
        finally:
            tr.restore()
        traced += wall
        traced_out += out
    tr.write(spans_path)
    values = tracing.layer_metrics(tr.spans)
    values["cli.import_s"] = import_s
    values["cli.import_scipy_stats_s"] = scipy_stats_s
    values["trace.overhead_s"] = traced - plain
    metrics = {k: {"value": values.get(k, 0.0), "unit": unit}
               for k, unit in tracing.PER_LAYER.items()}
    return metrics, traced_out + warm + plain_out


# ---------------------------------------------------------------------------
# Entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    base = root / ".bench_work"
    workdir = base / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    raw = {}
    try:
        cmds = workloads.build(name, seed, workdir)
        if trace:
            metrics, outcomes = traced_run(cmds, workdir, root,
                                           base / "spans" / f"{name}-seed{seed}.jsonl")
        else:
            metrics, raw, outcomes = measure(cmds, workdir, root, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    changed = digest_changes(name, seed, {o.label: o.digest for o in outcomes[:len(cmds)]})
    if trace:
        metrics["report.digest_changed"]["value"] = changed or 0
    failed = [o for o in outcomes if o.failed]
    for o in failed:
        print(f"FAILED {name}/{o.label}: {'; '.join(o.problems)}", file=sys.stderr)
    return {"workload": name, "seed": seed, "trace": int(trace), "metrics": metrics,
            "raw": raw, "attempted": len(outcomes), "failed": len(failed),
            "error_rate": len(failed) / len(outcomes), "digest_changed": changed,
            "commands": {o.label: [o.wall, o.compute, o.scale] for o in outcomes[:len(cmds)]}}


def record_run(names, seed: int, root: Path) -> int:
    """Store report digests of one in-process pass per workload; 1 on a failed check."""
    mods = load_simflow(root)
    bad = 0
    for name in names:
        workdir = root / ".bench_work" / f"{name}-seed{seed}-record-{os.getpid()}"
        try:
            cmds = workloads.build(name, seed, workdir)
            _, outcomes = run_inprocess(cmds, workdir, mods, band_clear(mods))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for o in outcomes:
            if o.failed:
                bad = 1
                print(f"FAILED {name}/{o.label}: {'; '.join(o.problems)}", file=sys.stderr)
        record_digests(name, seed, {o.label: o.digest for o in outcomes})
        print(f"recorded {len(outcomes)} digests for {name} seed {seed}")
    return bad


def print_result(res: dict) -> None:
    for key, m in {**res["metrics"], **res["raw"]}.items():
        spread = (f" q1={m['q1']:.4f} q3={m['q3']:.4f} n={m['n']}" if "n" in m else "")
        print(f"{res['workload']:<10} {key:<40} {m['value']:>14.6g} {m['unit']:<6}{spread}")
    print(f"{res['workload']:<10} {'error_rate':<40} {res['error_rate']:>14.6g} ratio  "
          f"({res['failed']} of {res['attempted']} commands)")
    if "report.digest_changed" not in res["metrics"]:
        changed = res["digest_changed"]
        print(f"{res['workload']:<10} {'report.digest_changed':<40} "
              f"{'no stored digests' if changed is None else changed:>14}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, default=HERE.parent,
                    help="checkout under test (default: the one holding this script)")
    ap.add_argument("--results", type=Path, help="append a JSON record of the run here")
    ap.add_argument("--record-digests", action="store_true",
                    help="only store report digests for --seed in perfbench/digests.json")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "simflow" / "cli.py").is_file():
        print(f"error: no simflow sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record_digests:
        return record_run(names, args.seed, root)
    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        print_result(res)
        results.append(res)
        if args.results:
            with open(args.results, "a") as fh:
                fh.write(json.dumps({**res, "machine": info, "root": str(root),
                                     "seconds": args.seconds}) + "\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
