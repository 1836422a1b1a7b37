"""Engine benchmark: one command, seeded inputs, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload motifs --seed 0 --seconds 20 --trace 0

Each run builds the workload's input graphs from ``--seed``, computes
the expected answers without the engine (cached, untimed), sets the
engine up three times (Spark session start, input generation,
``SparkGraph.load``), runs the query list untimed to warm up, and then
issues the workload's fixed query list through ``repro.core``: one
client, one query at a time.

Every run of a workload makes the same number of passes over the list:
``WARMUP_S`` and ``--seconds`` are turned into pass counts with the
workload's nominal pass time. Pass times keep falling for a minute or
more after the JVM starts, so a run that made more passes because it
happened to be faster would report an even faster median.

``--trace 0`` makes the measured passes and prints the end-to-end
metrics.
``--trace 1`` runs the list once with tracing and prints the per-layer
metrics. The last
line of standard output is the result object; the run manifest and,
for traced runs, the spans are written under ``perfbench/out/runs``.
See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter

import inputs
from workloads import NOMINAL_PASS_S, WORKLOADS, graphs_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: The benchmark's own Spark settings (not the repo's session helpers):
#: local[4] with one driver, broadcast joins off so join DAGs shuffle,
#: 32 shuffle partitions and AQE on. The driver heap is fixed at start
#: (-Xms): a heap that grows during the run made pass times spread more.
MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SQL_CONF = {
    "spark.sql.shuffle.partitions": "32",
    "spark.sql.adaptive.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
}
SETUPS = 3
WARMUP_S = 10.0
MAX_STEAL_FRAC = 0.1
QUERY_DEADLINE_S = 60.0
RUN_DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "query_s.p50": "s",
    "query_s.max": "s",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro.core.mining  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}/src: {e}",
              file=sys.stderr)
        return 2
    _configure_environment()
    watchdog = threading.Timer(RUN_DEADLINE_S, _abort)
    watchdog.daemon = True
    watchdog.start()
    try:
        result, record = Run(args).execute()
    finally:
        watchdog.cancel()
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "runs", name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"manifest": record["manifest"]}))
    print(json.dumps(result))
    return 0


def _configure_environment() -> None:
    """Keep every file Spark and Python write inside ``perfbench/out``."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ.pop("SPARK_LOCAL_DIRS", None)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -Xms{DRIVER_MEMORY}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {MASTER}",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(os.path.join(tmp, 'spark'))}",
        f"--conf spark.sql.warehouse.dir={shlex.quote(os.path.join(tmp, 'warehouse'))}",
        "pyspark-shell",
    ])


def _abort() -> None:
    """A run that would overstay its deadline stops without a result."""
    print(f"perfbench: run exceeded {RUN_DEADLINE_S:.0f} s, aborting",
          file=sys.stderr, flush=True)
    _stop_jvm()
    os._exit(3)


class Run:
    def __init__(self, args):
        from engine import run_query

        self.run_query = run_query
        self.args = args
        self.workload = args.workload
        self.queries = WORKLOADS[args.workload]
        self.failures: list[dict] = []
        self.attempted = 0

    # -- phases -------------------------------------------------------------
    def execute(self) -> tuple[dict, dict]:
        answers = self._answers()
        setups = [self._setup(i) for i in range(SETUPS)]
        # untimed passes first: code generation and JIT compilation for the
        # workload's own plans are set-up, not query time
        t0 = time.perf_counter()
        for _ in range(self._pass_count(WARMUP_S)):
            for q in self.queries:
                try:
                    self.run_query(q, self.graphs)
                except Exception:  # counted when a measured pass repeats it
                    traceback.print_exc()
        warmup_s = time.perf_counter() - t0

        if self.args.trace:
            traced, tracer = self._traced_pass(answers)
            passes = [traced]
        else:
            passes, tracer = self._passes(answers), None
        manifest = self._manifest()
        rss_mb = _peak_rss_mb(self._jvm_pid)
        self._stop()

        setup = {k: statistics.median(s[k] for s in setups) for k in setups[0]}
        common = {"setup": setup, "setup.cold_s": setups[0]["total"],
                  "warmup_s": warmup_s, "peak_rss_mb": rss_mb}
        if self.args.trace:
            metrics = self._per_layer(common, traced, tracer)
        else:
            metrics = self._end_to_end(common, passes)
        failed = len(self.failures)
        result = {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": metrics,
        }
        record = {
            "manifest": manifest,
            "result": result,
            "setups": setups,
            "warmup_s": warmup_s,
            "passes": passes,
            "failures": self.failures,
        }
        if tracer is not None:
            record["queries"] = [
                {"name": q.name, "seconds": q.seconds, "self_s": q.self_s,
                 "layer_s": dict(q.layer_s), "counts": dict(q.counts),
                 "plan_max_s": q.plan_max_s}
                for q in tracer.queries
            ]
            record["spans"] = [s.__dict__ for s in tracer.spans]
        return result, record

    def _answers(self) -> dict:
        """Expected answers from ``oracle.py``, in a child process."""
        cmd = [sys.executable, os.path.join(HERE, "oracle.py"),
               "--workload", self.workload, "--seed", str(self.args.seed)]
        if self.args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=RUN_DEADLINE_S)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def _setup(self, i: int) -> dict:
        """Session start + input generation + load; earlier set-ups are
        torn down, the last one is kept for the measured passes."""
        from pyspark.sql import SparkSession

        from repro.harness import SparkGraph

        t0 = time.perf_counter()
        builder = SparkSession.builder.appName(f"perfbench-{self.workload}")
        for k, v in SQL_CONF.items():
            builder = builder.config(k, v)
        spark = builder.getOrCreate()
        spark.sparkContext.setLogLevel("ERROR")
        t1 = time.perf_counter()
        graphs = {
            name: inputs.generate(name, self.args.seed, self.args.smoke)
            for name in graphs_of(self.workload)
        }
        t2 = time.perf_counter()
        loaded = {name: SparkGraph.load(spark, g) for name, g in graphs.items()}
        t3 = time.perf_counter()
        if i < SETUPS - 1:
            for sg in loaded.values():
                sg.unload()
            spark.stop()
        else:
            self.spark, self.graphs = spark, loaded
            self._jvm_pid = int(
                spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
            )
        return {
            "total": t3 - t0,
            "session_s": t1 - t0,
            "generate_s": t2 - t1,
            "load_s": t3 - t2,
            "edge_rows": sum(len(g.edges_pdf) for g in graphs.values()),
        }

    def _pass_count(self, seconds: float) -> int:
        """Passes that take about ``seconds`` on a 4-core box."""
        return max(1, round(seconds / NOMINAL_PASS_S[self.workload]))

    def _passes(self, answers: dict) -> list[dict]:
        return [self._pass(answers) for _ in range(self._pass_count(self.args.seconds))]

    def _pass(self, answers: dict, tracer=None) -> dict:
        samples = []
        steal0, t0 = _cpu_steal_s(), time.perf_counter()
        for q in self.queries:
            samples.append(self._query(q, answers[q.name], tracer))
        seconds = time.perf_counter() - t0
        # share of the pass's CPU time the hypervisor gave to other guests
        steal_frac = (_cpu_steal_s() - steal0) / (seconds * os.cpu_count())
        return {"seconds": seconds, "steal_frac": steal_frac, "queries": samples}

    def _traced_pass(self, answers: dict):
        from tracing import Tracer

        tracer = Tracer(self.spark, type(next(iter(self.graphs.values())).edges))
        tracer.install()
        try:
            return self._pass(answers, tracer), tracer
        finally:
            tracer.uninstall()

    def _query(self, q, expected, tracer) -> dict:
        self.attempted += 1
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                got = self.run_query(q, self.graphs)
            else:
                with tracer.query(q.name):
                    got = self.run_query(q, self.graphs)
            if got != expected:
                error = f"wrong answer: got {got!r}, expected {expected!r}"
        except Exception:  # a failed query is counted, the run goes on
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if tracer is not None:
            seconds = tracer.queries[-1].seconds
        if error is None and seconds > QUERY_DEADLINE_S:
            error = f"exceeded the {QUERY_DEADLINE_S:.0f} s deadline"
        if error is not None:
            self.failures.append({"query": q.name, "error": error})
            print(f"perfbench: {q.name} failed: {error}", file=sys.stderr)
        return {"name": q.name, "seconds": seconds, "ok": error is None}

    def _stop(self) -> None:
        self.spark.stop()
        _stop_jvm()

    # -- reporting ------------------------------------------------------------
    def _end_to_end(self, common: dict, passes: list[dict]) -> dict:
        """Medians over the passes the host left alone: a pass that lost
        more than ``MAX_STEAL_FRAC`` of its CPU time to other guests is
        left out, unless every pass did."""
        for p in passes:
            p["used"] = p["steal_frac"] <= MAX_STEAL_FRAC
        if not any(p["used"] for p in passes):
            for p in passes:
                p["used"] = True
        passes = [p for p in passes if p["used"]]
        times: dict[str, list[float]] = {}
        for p in passes:
            for s in p["queries"]:
                times.setdefault(s["name"], []).append(s["seconds"])
        values = {
            "setup_s": common["setup"]["total"],
            "run_s": statistics.median(p["seconds"] for p in passes),
            "query_s.p50": statistics.median(t for ts in times.values() for t in ts),
            "query_s.max": max(statistics.median(ts) for ts in times.values()),
        }
        return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    def _per_layer(self, common: dict, traced: dict, tracer) -> dict:
        from tracing import LAYERS

        qs = tracer.queries
        counts = sum((q.counts for q in qs), start=Counter())
        layer_s = {layer: sum(q.layer_s[layer] for q in qs) for layer in LAYERS}
        join_rows = counts["execute.join_rows"]
        bookkeeping_s = traced["seconds"] - sum(q.seconds for q in qs)
        setup = common["setup"]
        v = {
            "setup.session_s": (setup["session_s"], "s"),
            "setup.generate_s": (setup["generate_s"], "s"),
            "setup.load_s": (setup["load_s"], "s"),
            "setup.cold_s": (common["setup.cold_s"], "s"),
            "setup.warmup_s": (common["warmup_s"], "s"),
            "graph.edge_rows": (setup["edge_rows"], "count"),
            "peak_rss_mb": (common["peak_rss_mb"], "MB"),
            "queries": (len(traced["queries"]), "count"),
            "failed_frac": (len(self.failures) / self.attempted, "ratio"),
            "plan.s": (layer_s["plan"], "s"),
            "plan.calls": (counts["plan.calls"], "count"),
            "plan.max_s": (max(q.plan_max_s for q in qs), "s"),
            "build.s": (layer_s["build"], "s"),
            "build.calls": (counts["build.calls"], "count"),
            "build.joins": (counts["build.joins"], "count"),
            "optimize.s": (layer_s["optimize"], "s"),
            "optimize.exchanges": (counts["optimize.exchanges"], "count"),
            "execute.s": (layer_s["execute"], "s"),
            "execute.jobs": (counts["execute.jobs"], "count"),
            "execute.stages": (counts["execute.stages"], "count"),
            "execute.tasks": (counts["execute.tasks"], "count"),
            "execute.failed_tasks": (counts["execute.failed_tasks"], "count"),
            "execute.join_rows": (join_rows, "count"),
            "execute.result_rows": (counts["execute.result_rows"], "count"),
            "execute.useful_ratio": (
                counts["execute.result_rows"] / join_rows if join_rows else 0.0, "ratio"),
            "execute.shuffle_bytes": (counts["execute.shuffle_bytes"], "bytes"),
            "execute.shuffle_records": (counts["execute.shuffle_records"], "count"),
            "mining.self_s": (sum(q.self_s for q in qs), "s"),
            "mining.actions": (counts["mining.actions"], "count"),
            "mining.collected_rows": (counts["mining.collected_rows"], "count"),
            "trace.overhead_frac": (
                traced["seconds"] / (traced["seconds"] - bookkeeping_s) - 1.0, "ratio"),
        }
        return {k: {"value": val, "unit": u} for k, (val, u) in v.items()}

    def _manifest(self) -> dict:
        sc = self.spark.sparkContext
        conf = {k: v for k, v in sc.getConf().getAll()
                if "secret" not in k.lower() and "password" not in k.lower()}
        return {
            "workload": self.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "smoke": self.args.smoke,
            "queries": [q.name for q in self.queries],
            "git_commit": _git_commit(),
            "src_digest": _src_digest(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "java": sc._jvm.java.lang.System.getProperty("java.version"),
            "spark": sc.version,
            "spark_conf": dict(sorted(conf.items())),
            "submit_args": os.environ["PYSPARK_SUBMIT_ARGS"],
        }


def _stop_jvm() -> None:
    """Shut the py4j gateway down and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _peak_rss_mb(jvm_pid: int) -> float:
    """VmHWM of the driver JVM plus this Python process, in MiB."""
    total_kb = 0
    for pid in (jvm_pid, "self"):
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _cpu_steal_s() -> float:
    """CPU time stolen by the hypervisor so far, summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """SHA-1 over the engine's sources, for checkouts without git."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
