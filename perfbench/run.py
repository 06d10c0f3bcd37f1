"""gsteer benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_files --seed 1 --seconds 10 --trace 0

Run from the repository root; gsteer is imported from ./src.  Every workload
is a closed loop with one client in this process, replaying one fixed pass
of ops made from ``--seed`` for ``--seconds``.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-function calls and self time.  The last line
of stdout is the result as JSON; lines before it are a readable report.
"""

import os

# Cap the BLAS thread pools before numpy loads: the matrices are at most
# 12x12, and the set-up probes inherit the same environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cli_files", "montecarlo", "paper_curves", "properties")
SETUP_PROBES = 5


class Tally:
    """Outcomes of the ops run so far.

    ``attempted`` counts the distinct ops of the pass (by key) that ran, and
    ``failed`` those that failed on at least one of their runs, so both are
    fixed by the seed and do not grow with the number of replays.  Every run
    of an op is checked.
    """

    def __init__(self):
        self.runs = 0
        self.keys: set[int] = set()
        self.failed_keys: set[int] = set()
        self.known_keys: set[int] = set()
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.keys)

    @property
    def failed(self) -> int:
        return len(self.failed_keys)

    @property
    def unexpected(self) -> int:
        return len(self.failed_keys - self.known_keys)

    def run(self, op, tracer=None) -> float:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                problems = op.check(result)
            except Exception:
                problems = ["check raised on the output:\n" + traceback.format_exc(limit=3)]
        else:
            problems = ["raised:\n" + error]
        self.runs += 1
        self.keys.add(op.key)
        if problems:
            self.fail(op.key, f"op {op.kind}#{op.key}", problems, op.known_defect)
        return dt

    def fail(self, key: int, what: str, problems: list[str], known_defect=None) -> None:
        if key not in self.failed_keys and len(self.messages) < 5:
            note = f" [known defect: {known_defect}]" if known_defect else ""
            self.messages.append(f"{what}{note}: " + "; ".join(problems))
        self.failed_keys.add(key)
        if known_defect:
            self.known_keys.add(key)


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Value at percentile ``pct`` (nearest rank) and the count above it."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail_pct(n: int) -> float:
    """Highest whole percentile with at least 10 of ``n`` values beyond it."""
    pct = 99.0
    while pct > 1 and nearest_rank(range(n), pct)[1] < 10:
        pct -= 1
    return pct


class SpeedGauge:
    """The machine's speed, from a fixed reference kernel timed between ops.

    This host's speed drifts by up to 1.7x, within a run and between runs,
    with other load on the host.  The kernel is the benchmark's own code,
    small eigensolves and JSON as gsteer's ops are made of, and never
    changes.  An op's wall time over the kernel's time next to it therefore
    measures the program rather than the state the machine was in; it is
    reported at the speed where the kernel takes ``NOMINAL_S``.
    """

    EVERY_S = 0.02  # time the kernel before an op when this much has passed
    NOMINAL_S = 3.6e-4  # about the kernel's median time where BASELINE.md was measured

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((8, 8))
        self.matrix = a + a.T
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.times and now < self.times[-1] + self.EVERY_S:
            return
        for _ in range(10):
            np.linalg.eigvalsh(self.matrix)
            json.dumps({"row": self.matrix[0].tolist()})
        self.times.append(now)
        self.values.append(time.perf_counter() - now)

    def scaled(self, start: float, wall: float) -> float:
        """``wall`` seconds of work started at ``start``, scaled by the mean
        of the kernel times just before and just after it."""
        k = bisect.bisect_left(self.times, start)
        near = self.values[max(k - 1, 0):k + 1]
        return wall * self.NOMINAL_S / (sum(near) / len(near))


def setup_probe(gauge: SpeedGauge, workload: str) -> tuple[float, float]:
    """Start and wall time of one fresh probe process, spawn to exit, with
    the kernel timed just before and just after it."""
    gauge.sample(force=True)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    gauge.sample(force=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return t0, dt


def timed_run(wl, seconds: float) -> tuple[dict, Tally, list[str]]:
    """Replay one fixed pass of ops for ``seconds``.

    Generators are restored before each replay, so every replay runs the
    same inputs.  An op's latency is the median over its replays of its
    wall time scaled by the ``SpeedGauge``.  The set-up probes run between
    replays, spread over the run, and are scaled the same way.  The first
    replay always completes; a later one stops at the deadline.
    """
    tally = Tally()
    gauge = SpeedGauge()
    wl.warmup()
    ops = wl.make_pass()
    start = [g.bit_generator.state for g in wl.generators()]
    runs = [[] for _ in ops]
    setup: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    replays = 0
    while replays == 0 or time.perf_counter() < deadline:
        left = deadline - time.perf_counter()
        while len(setup) < SETUP_PROBES * (1 - max(left, 0) / seconds):
            setup.append(setup_probe(gauge, wl.name))
        for g, state in zip(wl.generators(), start):
            g.bit_generator.state = state  # replay the same draws
        for i, op in enumerate(ops):
            if replays and time.perf_counter() >= deadline:
                break
            gauge.sample()
            t0 = time.perf_counter()
            runs[i].append((t0, tally.run(op)))
        replays += 1
    gauge.sample(force=True)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(gauge, wl.name))
    lat = sorted(statistics.median(gauge.scaled(t, dt) for t, dt in r) for r in runs)
    setup_s = statistics.median(gauge.scaled(t, dt) for t, dt in setup)
    wall = statistics.median(statistics.median(dt for _, dt in r) for r in runs)
    n = len(lat)
    pct = tail_pct(n)
    tail, beyond = nearest_rank(lat, pct)
    busy = sum(lat)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / busy, "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_mib, "MiB"),
        "pass_frac": (1.0 - tally.failed / tally.attempted, "1"),
    }
    report = [
        f"workload {wl.name}, seed {wl.seed}: closed loop, 1 client, a pass of {n} ops "
        f"replayed {replays} times (the last in part) in {seconds:g} s; an op's latency "
        f"is the median of its replays, scaled to the nominal machine speed",
        f"  speed        reference kernel {statistics.median(gauge.values) * 1e3:.4f} ms "
        f"(median of {len(gauge.values)}; nominal {gauge.NOMINAL_S * 1e3:g} ms); "
        f"unscaled op p50 {wall * 1e3:.4f} ms, set-up "
        f"{statistics.median(dt for _, dt in setup):.4f} s",
        f"  setup_s      {metrics['setup_s'][0]:.4f} s      median of {len(setup)} fresh "
        f"processes (import, 4 fixtures, 1 warm-up op)",
        f"  ops_per_s    {metrics['ops_per_s'][0]:.2f} ops/s  {n} ops / {busy:.4f} s",
        f"  op_p50_ms    {metrics['op_p50_ms'][0]:.4f} ms     median of {n} ops",
        f"  op_tail_ms   {metrics['op_tail_ms'][0]:.4f} ms     p{pct:g}, "
        f"{beyond} of {n} ops beyond it",
        f"  peak_rss_mb  {peak_mib:.1f} MiB",
        f"  fail_frac    {tally.failed / tally.attempted:.6f} 1      {tally.failed} of "
        f"{tally.attempted} ops failed ({len(tally.known_keys)} on a known defect) in "
        f"{tally.runs} checked runs; reported as pass_frac = 1 - fail_frac",
    ]
    return metrics, tally, report


def trace_pass(wl, tracer, tally: Tally, traced: bool):
    """One pass over the workload's trace ops from its initial state.

    The patches are installed only for traced passes, so an untraced pass
    runs the unmodified program.  The pass starts by loading the bundled
    fixtures (op id -1); per-op figures use op ids >= 0 only.
    """
    from workloads import load_fixtures

    wl.reset()
    wl.samples = wl.draws = 0
    ops = wl.make_pass()
    busy = 0.0
    if traced:
        tracer.clear()
        tracer.install()
    try:
        tracer.op_id = -1
        tracer.active = traced
        load_fixtures()
        tracer.active = False
        for i, op in enumerate(ops):
            tracer.op_id = i
            busy += tally.run(op, tracer if traced else None)
    finally:
        tracer.uninstall()
    return busy, ops


def traced_run(wl, seconds: float) -> tuple[dict, Tally, list[str]]:
    """Alternate untraced and traced passes over the same inputs.

    Call counts come from the first traced pass (later ones must repeat
    them exactly); self times and pass times are medians over passes.
    """
    import tracing

    tracer = tracing.Tracer()
    tally = Tally()
    wl.warmup()
    trace_pass(wl, tracer, tally, traced=False)  # fills caches; not timed
    pass_time = {False: [], True: []}
    self_times = []
    deadline = time.perf_counter() + seconds
    traced = True
    while time.perf_counter() < deadline or not pass_time[False]:
        busy, ops = trace_pass(wl, tracer, tally, traced)
        pass_time[traced].append(busy)
        if traced:
            calls, self_s = tracer.summary()
            self_times.append(self_s)
            if len(self_times) == 1:
                first_calls = calls
                op_calls = tracer.summary(min_op=0)[0]
                accept = wl.samples / wl.draws if wl.draws else 0.0
                per_kind = kind_table(tracer, ops)
                os.makedirs(OUT, exist_ok=True)
                tracer.write(os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.json"))
            elif calls != first_calls:
                tally.fail(-1, "trace", ["call counts differ between traced passes"])
        traced = not traced

    n_ops = len(ops)
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = (first_calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(s[name] for s in self_times), "s")
    untraced = statistics.median(pass_time[False])
    metrics.update({
        "linalg.eigensolves_per_op": (op_calls["kernel.eigvalsh"] / n_ops, "1"),
        "linalg.symplectic_forms_per_op": (op_calls["linalg.symplectic_form"] / n_ops, "1"),
        "states.validations_per_op": (op_calls["states.validate_state"] / n_ops, "1"),
        "dynamics.gamma_infinity_per_op": (op_calls["dynamics.gamma_infinity"] / n_ops, "1"),
        "channels.sample_verify.accept_ratio": (accept, "1"),
        "trace_overhead_frac": ((statistics.median(pass_time[True]) - untraced) / untraced, "1"),
    })
    report = [f"workload {wl.name}, seed {wl.seed}: trace pass of {n_ops} ops; "
              f"{len(pass_time[False])} untraced and {len(pass_time[True])} traced passes",
              f"  trace overhead {metrics['trace_overhead_frac'][0]:.4f} of "
              f"{untraced:.4f} s untraced", "  per op kind (first traced pass):"]
    report += [f"    {line}" for line in per_kind]
    top = sorted(((metrics[f"{n}.self_s"][0], n) for n in tracer.names), reverse=True)[:12]
    report.append("  largest self time per pass:")
    report += [f"    {name:40s} {t * 1e3:10.3f} ms  {first_calls[name]:8d} calls"
               for t, name in top]
    return metrics, tally, report


def kind_table(tracer, ops) -> list[str]:
    """Eigensolves, Omega builds and validations by op kind, per op and per
    unit of work (sample, trial, time point or r value) where an op has several."""
    func = np.asarray(tracer.func, dtype=np.int_)
    op = np.asarray(tracer.op, dtype=np.int_)
    idx = {name: i for i, name in enumerate(tracer.names)}
    kinds: dict[str, list[int]] = {}
    for i, o in enumerate(ops):
        kinds.setdefault(o.kind, []).append(i)
    lines = []
    for kind, members in kinds.items():
        mask = np.isin(op, members)
        units = sum(ops[i].size for i in members)
        parts = []
        for name in ("kernel.eigvalsh", "linalg.symplectic_form", "states.validate_state",
                     "dynamics.gamma_infinity"):
            count = int(np.count_nonzero(mask & (func == idx[name])))
            part = f"{name.split('.')[1]} {count / len(members):.2f}/op"
            if units > len(members):
                part += f" {count / units:.3f}/unit"
            parts.append(part)
        lines.append(f"{kind:28s} {len(members):3d} ops, {units:6d} units: " + ", ".join(parts))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "gsteer", "__init__.py")):
        print(f"error: no gsteer sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import gsteer
    if not gsteer.__file__.startswith(SRC + os.sep):
        print(f"error: imported gsteer from {gsteer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, tally, report = traced_run(wl, args.seconds)
        else:
            metrics, tally, report = timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = wl.digest()
    if digest is not None:
        report.append(f"  output digest (first pass, sha256): {digest}")
    report += [f"  FAILED {m}" for m in tally.messages]
    print("\n".join(report))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
