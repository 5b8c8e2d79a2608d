"""Closed-loop benchmark of cdfdr: the CLI, the library path and the simulation harness.

    python3 bench/run.py --workload cli-fdr-200k --seed 1 --seconds 30 --trace 0

One client issues each operation only after the previous one finished.  Every
input is generated from ``--seed``; the program under test receives only the
generated CSV or arrays.  With ``--trace 0`` the last line of standard output
is the end-to-end result; with ``--trace 1`` untraced and traced operations
alternate and the last line holds the per-layer metrics computed from spans
(see spans.py) plus the tracing overhead.  The line before it is the full
record: environment, sample counts and every metric.  Workload reasons, the
layer-to-metric table and the held-out seed are in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

# Claims made with this benchmark must also hold on this seed, which is kept
# out of tuning (see README.md).
HELD_OUT_SEED = 1308

SETUP_REPS = 7
TRUE_PI0 = 0.9

# Typical seconds of calibrate() and of a fresh `import numpy` on the machine
# the benchmark was defined on (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6).
CAL_REF_S = 0.025
SETUP_REF_S = 0.15


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    """Outcome of one operation: wall seconds, a problem text if it failed,
    and the accuracy figures and output digest of a successful one."""

    seconds: float
    problem: str | None = None
    pi0_err: float | None = None
    fdr_err: float | None = None
    digest: str | None = None
    out_bytes: int | None = None
    rss_kb: int | None = None
    cal_seconds: float | None = None


def _unit_interval_problem(label: str, values) -> str | None:
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values) | (values <= 0.0) | (values > 1.0)
    if values.size == 0:
        return f"{label}: no values"
    if np.any(bad):
        return f"{label}: {int(bad.sum())} values outside (0, 1]"
    return None


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


@contextlib.contextmanager
def _tracing(tracer, index: int):
    if tracer is None:
        yield
        return
    tracer.op = index
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


class CliFdr:
    """`python -m cdfdr.cli fdr` as a fresh process on a 200,000-row CSV."""

    name = "cli-fdr-200k"
    n = 200_000
    cases_per_op = n
    same_input = True
    min_ops = 2
    count_ops = 1

    def __init__(self, seed: int, work: Path, env: dict):
        design = simulate.MixtureNormalDesign(mu=2.0, n=self.n, n_null=180_000,
                                              replicates=1, seed=seed)
        stats = simulate.gen_mixture_normal(design, 0)
        self.csv = work / "input.csv"
        self.csv.write_text("id,stat\n" + "".join(
            f"c{i:06d},{s!r}\n" for i, s in enumerate(stats.tolist())))
        phi0 = TRUE_PI0 * np.exp(-0.5 * stats ** 2)
        phi1 = (1.0 - TRUE_PI0) * np.exp(-0.25 * (stats - 2.0) ** 2) / math.sqrt(2.0)
        self.truth = phi0 / (phi0 + phi1)
        self.report = work / "report.json"
        self.curves = work / "curves.csv"
        self.spans = work / "spans.json"
        self.stderr = work / "cli.stderr"
        self.env = env
        self.results: list[OpResult] = []

    def run_op(self, index: int, tracer) -> OpResult:
        if tracer is None:
            cmd = [sys.executable, "-m", "cdfdr.cli"]
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(self.spans)]
        cmd += ["fdr", "--input", str(self.csv), "--column", "stat", "--null", "std-normal",
                "--transform", "pit", "--out", str(self.report), "--curves", str(self.curves)]
        with open(self.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = self.stderr.read_text(errors="replace").strip()[-300:]
            return OpResult(seconds, f"exit code {proc.returncode}: {tail}")
        if tracer is not None:
            _merge_spans(tracer, json.loads(self.spans.read_text()), index)
        report_bytes = self.report.read_bytes()
        curves_bytes = self.curves.read_bytes()
        result = OpResult(seconds, digest=_digest(report_bytes, curves_bytes),
                          rss_kb=usage.ru_maxrss, out_bytes=len(report_bytes) + len(curves_bytes))
        self.results.append(result)
        if result.digest != self.results[0].digest:
            result.problem = "report.json/curves.csv differ from the first op's"
        return result

    def finish(self) -> list[str]:
        """Check the last op's outputs, which are byte-identical to every op's."""
        if not self.results or self.results[-1].problem is not None:
            return []
        report = json.loads(self.report.read_bytes())
        fdr = np.array(report["cases"]["fdr"], dtype=float)
        pi0 = float(report["pi0"]["pi0_hat"])
        curve_fdr = np.loadtxt(self.curves, delimiter=",", skiprows=1, usecols=4, ndmin=1)
        problems = [
            None if report["n"] == self.n else f"report n = {report['n']}, input rows = {self.n}",
            None if fdr.size == self.n else f"{fdr.size} case fdr values for {self.n} rows",
            _unit_interval_problem("cases.fdr", fdr),
            _unit_interval_problem("discoveries fdr",
                                   [c["fdr"] for c in report["discoveries"]["cases"]] or [1.0]),
            _unit_interval_problem("curves.csv fdr", curve_fdr),
            _unit_interval_problem("pi0_hat", [pi0]),
        ]
        problems = [f"outputs: {p}" for p in problems if p]
        if not problems:
            fdr_err = float(np.max(np.abs(fdr - self.truth)))
            for result in self.results:
                if result.problem is None:
                    result.pi0_err, result.fdr_err = abs(pi0 - TRUE_PI0), fdr_err
        return problems


class LibT:
    """t_to_z, fit_cdfdr (two_sided), local_fdr_many and discoveries in-process."""

    name = "lib-t-500k"
    n = 500_000
    df = 100.0
    shift = 3.0
    cases_per_op = n
    same_input = True
    min_ops = 2
    count_ops = 1

    def __init__(self, seed: int, work: Path, env: dict):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 500_000])))
        t = rng.standard_t(self.df, self.n)
        n_signal = round(self.n * (1.0 - TRUE_PI0))
        t[self.n - n_signal:] += np.where(rng.random(n_signal) < 0.5, -self.shift, self.shift)
        self.t = t
        # The signal is a t_df shifted by +-shift with equal probability, so the
        # marginal is symmetric and the two-sided fdr equals pi0 f0(t) / f(t).
        f0 = self._t_pdf(t)
        f1 = 0.5 * (self._t_pdf(t - self.shift) + self._t_pdf(t + self.shift))
        self.truth = TRUE_PI0 * f0 / (TRUE_PI0 * f0 + (1.0 - TRUE_PI0) * f1)
        self.expected: str | None = None

    def _t_pdf(self, x):
        df = self.df
        log_c = math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
        return np.exp(log_c - 0.5 * (df + 1.0) * np.log1p(x * x / df))

    def run_op(self, index: int, tracer) -> OpResult:
        with _tracing(tracer, index):
            start = time.perf_counter()
            try:
                z = pipeline.t_to_z(self.t, self.df)
                model = pipeline.fit_cdfdr(z, pipeline.NullSpec.standard_normal(), mode="two_sided")
                fdr = pipeline.local_fdr_many(model, z)
                disc = pipeline.discoveries(model, z, 0.2)
            except errors.CdfdrError as exc:
                return OpResult(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        digest = _digest(fdr.tobytes(), repr(model.pi0).encode())
        n_hits = int(np.sum(fdr <= 0.2))
        problems = [
            None if fdr.size == self.n else f"{fdr.size} fdr values for {self.n} cases",
            _unit_interval_problem("fdr", fdr),
            _unit_interval_problem("pi0", [model.pi0]),
            None if disc.n_discoveries == n_hits else
            f"discoveries reports {disc.n_discoveries} cases, fdr <= 0.2 holds for {n_hits}",
            None if self.expected in (None, digest) else "fdr array differs from the first op's",
        ]
        self.expected = self.expected or digest
        return OpResult(seconds, "; ".join(p for p in problems if p) or None, digest=digest,
                        pi0_err=abs(model.pi0 - TRUE_PI0),
                        fdr_err=float(np.max(np.abs(fdr - self.truth))))

    def finish(self) -> list[str]:
        return []


class SimMixunif:
    """run_replicates of a 20 x 5,000 mixture-uniform study with one worker."""

    name = "sim-mixunif-5k"
    n = 5_000
    replicates = 20
    cases_per_op = n * replicates
    same_input = False
    min_ops = 40
    count_ops = 40

    def __init__(self, seed: int, work: Path, env: dict):
        self.seed = seed
        self.first: OpResult | None = None

    def study_seed(self, index: int) -> int:
        return int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])

    def study(self, index: int, tracer=None) -> OpResult:
        design = simulate.MixtureUniformDesign(pi0=TRUE_PI0, a=0.05, n=self.n,
                                               replicates=self.replicates,
                                               seed=self.study_seed(index))
        with _tracing(tracer, index):
            start = time.perf_counter()
            try:
                report = simulate.run_replicates(design, simulate.EstimatorConfig(), workers=1)
            except errors.CdfdrError as exc:
                return OpResult(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        problems = [
            _unit_interval_problem("mean_fdr", report.mean_fdr),
            _unit_interval_problem("pi0_estimates", report.pi0_estimates),
        ]
        return OpResult(seconds, "; ".join(p for p in problems if p) or None,
                        digest=_digest(report.mean_fdr.tobytes(), report.pi0_estimates.tobytes()),
                        pi0_err=float(np.mean(np.abs(report.pi0_estimates - TRUE_PI0))),
                        fdr_err=float(np.max(np.abs(report.mean_fdr - report.true_fdr))))

    def run_op(self, index: int, tracer) -> OpResult:
        result = self.study(index, tracer)
        if index == 0:
            self.first = result
        return result

    def finish(self) -> list[str]:
        """Repeat the first study untimed; its report must not change."""
        if self.first is None or self.first.problem is not None:
            return []
        again = self.study(0)
        if again.digest != self.first.digest:
            return ["repeating study 0 gave a different mean_fdr/pi0_estimates"]
        return []


WORKLOADS = {w.name: w for w in (CliFdr, LibT, SimMixunif)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _merge_spans(tracer, child_spans: list, index: int) -> None:
    offset = len(tracer.spans)
    for span in child_spans:
        if span[spans.PARENT] >= 0:
            span[spans.PARENT] += offset
        span[spans.OP] = index
        tracer.spans.append(span)


def environment() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "blas": blas,
        "blas_threads": {key: os.environ.get(key, "unset") for key in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _fresh_import(module: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=env,
                   check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Wall and calibrated seconds for a fresh interpreter to finish ``import cdfdr.cli``.

    Import time swings with the machine as op time does, but calibrate()
    does not track it; a fresh ``import numpy`` does, so each set-up is
    scaled by SETUP_REF_S over the mean of the numpy imports just before
    and just after it.
    """
    wall, cal = [], []
    before = _fresh_import("numpy", env)
    for _ in range(SETUP_REPS):
        wall.append(_fresh_import("cdfdr.cli", env))
        after = _fresh_import("numpy", env)
        cal.append(wall[-1] * SETUP_REF_S / (0.5 * (before + after)))
        before = after
    return wall, cal


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    CPU throughput on a shared machine swings by up to 2x within seconds.
    Each op's calibrated time scales its wall time by CAL_REF_S over the mean
    of the calibrations just before and just after it.  The arrays are small
    so that calibrating never raises the peak RSS of an in-process workload.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(50_000, 0, -1, dtype=float)
    for _ in range(8):
        np.sort(a)
        float(np.exp(a * 1e-6).sum())
    return time.perf_counter() - start


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten operations beyond it."""
    n = len(values)
    if n < 20:
        return None
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n, "op_count": n}


def run_loop(workload, seconds: float, tracer) -> tuple[list[OpResult], list[bool]]:
    """Issue ops back to back while the next one is expected to end mostly inside ``seconds``.

    With a tracer, untraced and traced ops alternate so that both see the
    same conditions; their medians give the tracing overhead.
    """
    min_ops = workload.min_ops * (2 if tracer else 1)
    ops, traced = [], []
    start = time.perf_counter()
    before = calibrate()
    while True:
        elapsed = time.perf_counter() - start
        estimate = statistics.median(o.seconds for o in ops) if ops else 0.0
        if len(ops) >= min_ops and elapsed + 0.5 * estimate > seconds:
            return ops, traced
        is_traced = tracer is not None and len(ops) % 2 == 1
        op = workload.run_op(len(ops), tracer if is_traced else None)
        after = calibrate()
        op.cal_seconds = op.seconds * CAL_REF_S / (0.5 * (before + after))
        before = after
        ops.append(op)
        traced.append(is_traced)


def end_to_end(workload, ops: list[OpResult], setup: tuple[list[float], list[float]]
               ) -> tuple[dict, dict]:
    """End-to-end metrics, and the exact figures that must repeat for a seed."""
    ok = [o for o in ops if o.problem is None]
    times = [o.seconds for o in ops]
    cal_times = [o.cal_seconds for o in ops]
    first = ok[:workload.count_ops]
    child_rss = [o.rss_kb for o in ops if o.rss_kb]
    rss_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": {"value": statistics.median(setup[1]), "unit": "s", "samples": len(setup[1])},
        "setup_s.wall": {"value": statistics.median(setup[0]), "unit": "s",
                         "samples": len(setup[0])},
        "op_s.p50": {"value": statistics.median(times), "unit": "s", "samples": len(times)},
        "cases_per_s": {"value": len(ok) * workload.cases_per_op / sum(times), "unit": "1/s",
                        "samples": len(times)},
        "op_s.p50.cal": {"value": statistics.median(cal_times), "unit": "s",
                         "samples": len(cal_times)},
        "cases_per_s.cal": {"value": len(ok) * workload.cases_per_op / sum(cal_times),
                            "unit": "1/s", "samples": len(cal_times)},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB", "samples": 1},
        "failed_frac": {"value": (len(ops) - len(ok)) / len(ops), "unit": "ratio",
                        "samples": len(ops)},
    }
    op_tail = tail(times)
    if op_tail is not None:
        metrics["op_s.tail"] = {"value": op_tail["value"], "unit": "s",
                                "samples": op_tail["op_count"],
                                "percentile": op_tail["percentile"]}
    exact = {}
    if first:
        exact["pi0_err"] = statistics.fmean(o.pi0_err for o in first)
        exact["fdr_err.max"] = max(o.fdr_err for o in first)
        metrics["pi0_err"] = {"value": exact["pi0_err"], "unit": "1", "samples": len(first)}
        metrics["fdr_err.max"] = {"value": exact["fdr_err.max"], "unit": "1",
                                  "samples": len(first)}
        if first[0].out_bytes is not None:
            exact["cli.out_bytes"] = first[0].out_bytes
    return metrics, exact


def per_layer(workload, ops: list[OpResult], traced: list[bool], tracer) -> tuple[dict, dict, list]:
    problems = []
    traced_ops = [i for i, t in enumerate(traced) if t]
    untraced_times = [o.cal_seconds for o, t in zip(ops, traced) if not t]
    traced_times = [o.cal_seconds for o, t in zip(ops, traced) if t]
    selfs = spans.self_times(tracer.spans)
    counts = spans.op_counts(tracer.spans)

    names = ["cli.self.s"] + [f"{name}.s" for _, _, name, _ in spans.TRACED if name != "cli.main"]
    metrics = {name: {"value": 0.0, "unit": "s", "samples": len(traced_ops)} for name in names}
    for name in names:
        span = "cli.main" if name == "cli.self.s" else name[:-2]
        metrics[name]["value"] = statistics.median(selfs[i].get(span, 0.0) for i in traced_ops)
    metrics["trace.overhead.s"] = {
        "value": statistics.median(traced_times) - statistics.median(untraced_times),
        "unit": "s", "samples": len(ops),
    }

    # Exact counts over a fixed set of ops: the first count_ops traced ops.
    count_ops = traced_ops[:workload.count_ops]
    if workload.same_input:
        for i in traced_ops[1:]:
            if dict(counts[i]) != dict(counts[traced_ops[0]]):
                problems.append(f"span counts of op {i} differ from op {traced_ops[0]}")

    def per_op(key: str) -> float:
        return sum(counts[i].get(key, 0.0) for i in count_ops) / len(count_ops)

    n = workload.cases_per_op
    fits = per_op("betafit.fit_beta_mle.calls")
    exact = {
        "op.cases": n,
        "betafit.fits": fits,
        "betafit.iterations": per_op("betafit.iterations"),
        "betafit.converged_frac": per_op("betafit.converged") / fits if fits else 0.0,
        "simulate.failed_replicates": per_op("simulate.failed_replicates"),
        "pipeline.null_cdf.per_case": per_op("pipeline.null_cdf.points") / n,
        "special.beta_cdf_many.per_case": per_op("special.beta_cdf_many.points") / n,
        "density.eval_comparison_density_many.per_case":
            per_op("density.eval_comparison_density_many.points") / n,
        "special.normal_cdf.per_case": per_op("special.normal_cdf.calls") / n,
        "special.normal_quantile.per_case": per_op("special.normal_quantile.calls") / n,
        "cli.spans": sum(v for k, v in counts[count_ops[0]].items()
                         if k.startswith("cli.") and k.endswith(".calls")),
        "cli.out_bytes": ops[count_ops[0]].out_bytes or 0,
    }
    units = {"op.cases": "count", "betafit.fits": "count", "betafit.iterations": "count",
             "betafit.converged_frac": "ratio", "simulate.failed_replicates": "count",
             "cli.spans": "count", "cli.out_bytes": "bytes"}
    for key, value in exact.items():
        metrics[key] = {"value": value, "unit": units.get(key, "count/case"),
                        "samples": len(count_ops)}
    return metrics, exact, problems


def check_ledger(workload, seed: int, trace: int, exact: dict) -> list[str]:
    """Compare exact figures with an earlier run of the same code and seed."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("cdfdr/*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    ledger = RESULTS / f"exact-{workload.name}-seed{seed}-trace{trace}-{h.hexdigest()[:12]}.json"
    if ledger.exists():
        before = json.loads(ledger.read_text())
        return [f"{key} = {exact.get(key)!r}, an earlier run gave {value!r}"
                for key, value in before.items() if exact.get(key) != value]
    ledger.write_text(json.dumps(exact, sort_keys=True))
    return []


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=35, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cdfdr" / "__init__.py").is_file():
        print(f"bench: cdfdr sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    global errors, pipeline, simulate
    from cdfdr import errors, pipeline, simulate

    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, env)
        setup = measure_setup(env)
        tracer = spans.Tracer() if args.trace else None
        ops, traced = run_loop(workload, args.seconds, tracer)
        problems = [f"op {i}: {o.problem}" for i, o in enumerate(ops) if o.problem]
        problems += workload.finish()
        e2e, exact = end_to_end(workload, ops, setup)
        if args.trace:
            metrics, exact, layer_problems = per_layer(workload, ops, traced, tracer)
            problems += layer_problems
            (RESULTS / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(tracer.spans))
        else:
            metrics = e2e
        problems += check_ledger(workload, args.seed, args.trace, exact)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    problems += [f"declared metric {name} was not measured" for name in names
                 if name not in metrics]
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in declared["workloads"] if w["name"] == args.workload),
        "seed": args.seed, "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "clients": 1, "loop": "closed",
        "environment": environment(),
        "working_set": {"n": workload.n, "float_array_bytes": 8 * workload.n,
                        "label": "computed"},
        "problems": problems, "metrics": metrics,
        "op_seconds": [o.seconds for o in ops], "setup_seconds": setup[0],
    }
    if args.trace:
        record["end_to_end_untraced_and_traced"] = e2e
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:48s} {m['value']:>14.6g} {m['unit']:10s} "
              f"n={m['samples']}", file=sys.stderr)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(o.problem is not None for o in ops),
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in names if name in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
