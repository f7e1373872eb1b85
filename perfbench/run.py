"""Layered benchmark for defectca: four workloads, one command.

Run from the repository root:

    python3 perfbench/run.py --workload {walk,ballistic,spacetime,cli} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up
time is the median of several fresh interpreters, each timed from its
start until it has imported defectca and built the workload's inputs.
Then the workload's pass runs in a closed loop (one caller, one process)
for ``--seconds``, and every pass's outputs are checked; ``job_s`` is the
fastest pass and ``work_per_s`` the fastest pass's rate.  All times are
reference seconds: wall seconds corrected for the machine's speed, which
is sampled while they run (see ``Speed``).

``--trace 1`` gives the per-layer metrics.  It runs the named workload for
``--seconds``, alternating untraced and traced passes (the ratio of their
fastest passes is ``trace.overhead_frac``), then one traced pass of each
other workload and the scaling and reference probes, so that every
per-layer metric has a value.  Spans go to
``perfbench/out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above it
give provenance, every metric by name with its unit, and the failures with
their reasons; ``perfbench/out/result-*.json`` keeps the same record.

    python3 perfbench/run.py --write-golden

rewrites ``perfbench/golden.json`` from one pass of each workload at the
default seed.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_PROBES = 5        # fresh interpreters timed for setup_s
MIN_PASSES = 3
# Times are reported in reference seconds.  Other tenants of the machine
# slow it by up to 1.8x for seconds to minutes at a time, which a wall clock
# cannot tell from a change in the program.  While an interval is timed, a
# timer signal every SAMPLE_EVERY_S runs one calibration unit (fixed Python
# work that calls nothing in defectca) and records how long it took; the
# interval's wall time is multiplied by REF_UNIT_S / (median unit time).
# REF_UNIT_S is about one undisturbed unit on a 2-CPU Intel Xeon VM, where
# reference and wall seconds therefore roughly agree.
SAMPLE_EVERY_S = 0.02
REF_UNIT_S = 0.00028

# ROADMAP "Recent" figures from an earlier ad-hoc profile: name, value,
# the per-layer metric that measures the same thing, and this run's input.
ROADMAP_FIGURES = (
    ("sample_walks walk-steps/s", 77_000,
     "diffusive.sample_walks.nokernel.steps_per_s",
     "kernel=None, T=2000, n=5"),
    ("sample_kernel_chain steps/s", 190_000,
     "diffusive.sample_kernel_chain.steps_per_s", "T=10000, n=8"),
    ("track ECA#184 steps/s", 23_000, "tracking.track.eca184.steps_per_s",
     "README dislocation, P=3, T=1000"),
    ("classify_junctions ECA#184 s", 0.12,
     "ballistic.classify_junctions.eca184.s", "max_core=1"),
    ("classify_junctions ECA#54 s", 0.20,
     "ballistic.classify_junctions.eca54.s", "max_core=1"),
    ("classify_junctions ECA#110 s", 0.80,
     "ballistic.classify_junctions.eca110.s", "max_core=1"),
    ("spacetime_rows ms/step T=250", 0.42,
     "io.spacetime_rows.ms_per_step.T250", "ECA#184 source, width 300"),
    ("spacetime_rows ms/step T=2000", 1.88,
     "io.spacetime_rows.ms_per_step.T2000", "ECA#184 source, width 300"),
)


def load_library():
    """Import the benchmark's modules against this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "defectca", "__init__.py")):
        sys.exit(f"error: no defectca sources under {SRC}; run the "
                 "benchmark from a checkout of the repository")
    sys.path.insert(0, SRC)
    import tracer
    import workloads
    return tracer, workloads


def provenance(workloads) -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "default_seed": workloads.DEFAULT_SEED}


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Tally:
    """Attempted, failed and known-failure counts over every checked pass."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict = {}
        self.known: dict = {}

    def add(self, workload: str, res) -> None:
        self.attempted += len(res.ops)
        for reason in res.failed.values():
            key = f"{workload}: {reason}"
            self.failed[key] = self.failed.get(key, 0) + 1
        for reason in res.known.values():
            key = f"{workload}: {reason}"
            self.known[key] = self.known.get(key, 0) + 1

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def n_known(self) -> int:
        return sum(self.known.values())


def calibration_unit() -> int:
    """Fixed Python work that calls nothing in defectca, so that no change
    to the library moves it."""
    total = 0
    for i in range(5_000):
        total += i * i % 7
    return total


class Speed:
    """Calibration units sampled by a timer signal while a ``with`` block
    runs; ``scale`` turns the block's wall seconds into reference seconds,
    ``scale_within`` those of a part of the block."""

    def __init__(self):
        self.units: list[float] = []
        self.starts: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_unit()
        self.starts.append(t0)
        self.units.append(time.perf_counter() - t0)

    def __enter__(self) -> "Speed":
        self.units, self.starts = [], []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.units:      # shorter than one period
            self._tick(None, None)
        return False

    @property
    def scale(self) -> float:
        return REF_UNIT_S / median(self.units)

    def scale_within(self, t0: float, t1: float) -> float:
        """The scale from the units sampled between ``perf_counter`` times
        t0 and t1, or from all of them when none fell there."""
        inside = [u for s, u in zip(self.starts, self.units) if t0 <= s <= t1]
        return REF_UNIT_S / median(inside) if inside else self.scale


def time_setup(name: str, seed: int) -> float:
    """Reference seconds from starting a fresh interpreter until it has set
    up; the interpreter samples its own speed and reports the scale."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    word, _, scale = line.partition(" ")
    if word != "ready" or code != 0:
        sys.exit(f"error: set-up probe for {name} failed (exit {code})")
    return dt * float(scale)


def run_passes(w, golden, seconds, tally, tracer=None, traced_units=None):
    """Closed loop of identical passes for ``seconds``; with a tracer, every
    other pass is traced and its calibration units go to ``traced_units``.
    Returns, in reference seconds, the untraced and the traced pass times,
    each untraced pass's rates (``work`` per reference second of its
    ``work_window``, and the workload's ``rates``), and the last pass's
    outputs."""
    plain, traced, rates = [], [], []
    null = w.tr
    deadline = time.perf_counter() + seconds
    i = 0
    while (len(plain) < MIN_PASSES if tracer is None else
           min(len(plain), len(traced)) < 2) or \
            time.perf_counter() < deadline:
        on = tracer is not None and i % 2 == 1
        w.tr = tracer if on else null
        gc.collect()
        with Speed() as speed:
            t0 = time.perf_counter()
            with w.tr.span("bench.job"):
                out = w.job()
            t1 = time.perf_counter()
        if on:
            traced.append((t1 - t0) * speed.scale)
            traced_units.extend(speed.units)
        else:
            plain.append((t1 - t0) * speed.scale)
            work = {"work_per_s": (out["work"], out["work_window"] or (t0, t1)),
                    **out.get("rates", {})}
            rates.append({k: u / ((b - a) * speed.scale_within(a, b))
                          for k, (u, (a, b)) in work.items()})
        tally.add(w.name, w.check(out, golden.get(w.name, {})))
        i += 1
    w.tr = null
    return plain, traced, rates, out


def end_to_end(name, seed, seconds, golden, wl, tr_mod, tally, report):
    setups = [time_setup(name, seed) for _ in range(SETUP_PROBES)]
    w = wl.WORKLOADS[name](seed, tr_mod.NULL_TRACER)
    passes, _, rates, _ = run_passes(w, golden, seconds, tally)
    metrics = {
        "setup_s": (median(setups), "s"),
        "job_s": (min(passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "work_per_s": (max(r["work_per_s"] for r in rates), "1/s"),
    }
    extra = {w.work_metric: metrics["work_per_s"],
             "failed_frac": ((tally.n_failed + tally.n_known)
                             / tally.attempted, "ratio")}
    for key in rates[0]:
        if key != "work_per_s":
            extra[key] = (max(r[key] for r in rates), "1/s")
    extra["job_median_s"] = (median(passes), "s")
    report["pass_s"] = passes
    report["setup_probes_s"] = setups
    report["also"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    print(f"{name}: end-to-end, tracing off, seed {seed}, {len(passes)} "
          f"passes, {SETUP_PROBES} set-up probes; reference seconds")
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"  {k:<24} {v:>14.6g} {u}")
    w.close()
    return metrics


def spans_rate(spans, key):
    busy = sum(s.duration for s in spans)
    return sum(s.attrs[key] for s in spans) / busy if busy else float("nan")


def per_layer(name, seed, seconds, golden, wl, tr_mod, tally, report):
    tracers = {n: tr_mod.Tracer(f"{n}-{seed}-{os.getpid()}")
               for n in wl.WORKLOADS}
    built, outs = {}, {}
    w = built[name] = wl.WORKLOADS[name](seed, tracers[name])
    w.tr = tr_mod.NULL_TRACER
    units = []
    plain, traced, _, outs[name] = run_passes(w, golden, seconds, tally,
                                              tracers[name], units)
    overhead = min(traced) / min(plain) - 1
    probe = tr_mod.Tracer(f"probe-{seed}-{os.getpid()}")
    with Speed() as speed:
        for other, cls in wl.WORKLOADS.items():
            if other == name:
                continue
            tr = tracers[other]
            w = built[other] = cls(seed, tr)
            with tr.span("bench.job"):
                out = w.job()
            tally.add(other, w.check(out, golden.get(other, {})))
            outs[other] = out
        wl.scaling_and_reference(probe, built)
    scale = REF_UNIT_S / median(units + speed.units)

    W, B, S, C = (tracers[n] for n in ("walk", "ballistic", "spacetime",
                                       "cli"))

    def passes(tr):
        return len(tr.named("bench.job"))

    def busy(tr, span, **match):
        return sum(s.duration for s in tr.named(span, **match))

    def med_s(tr, span, **match):
        return median([s.duration for s in tr.named(span, **match)])

    fuzz_ms = sorted(1000 * s.duration
                     for s in B.named("tracking.track", phase="fuzz"))
    q = statistics.quantiles(fuzz_ms, n=10)
    m = {}
    for system in ("eca184", "eca54", "eca110"):
        m[f"rules.normalize.{system}.s"] = busy(B, "rules.normalize",
                                                system=system)
    m.update({
        "tracking.track.steps_per_s": spans_rate(
            B.named("tracking.track", phase="fuzz"), "steps"),
        "lattice.encode_config.s": busy(B, "lattice.encode_config",
                                        phase="fuzz") / passes(B),
        "tracking.track.long.steps_per_s": spans_rate(
            B.named("tracking.track", phase="long"), "steps"),
        "tracking.track.p50_ms": q[4],
        "tracking.track.p90_ms": q[8],
    })
    for system in ("eca184", "eca54", "eca110"):
        m[f"ballistic.classify_junctions.{system}.s"] = med_s(
            B, "ballistic.classify_junctions", system=system)
    m.update({
        "diffusive.sample_walks.steps_per_s": spans_rate(
            W.named("diffusive.sample_walks"), "steps"),
        "diffusive.build_walk_kernel.s": busy(W, "diffusive.build_walk_kernel"),
        "diffusive.stationary_and_drift.s": med_s(
            W, "diffusive.stationary_and_drift"),
        "diffusive.sample_kernel_chain.steps_per_s": spans_rate(
            W.named("diffusive.sample_kernel_chain"), "steps"),
        "diffusive.markov_property_test.s": med_s(
            W, "diffusive.markov_property_test"),
    })
    for steps in (250, 2000):
        m[f"io.spacetime_rows.ms_per_step.T{steps}"] = 1000 * busy(
            probe, "io.spacetime_rows", steps=steps) / steps
    m.update({
        "io.render_spacetime.s": busy(S, "io.render_spacetime") / passes(S),
        "turing.compile.s": busy(S, "turing.classical_to_lr")
        + busy(S, "turing.turing_to_ca"),
        "turing.macro_step.s": busy(S, "turing.macro_step") / passes(S),
        "turing.decode.s": busy(S, "turing.decode") / passes(S),
        "lattice.apply_rule.cells_per_s": spans_rate(
            S.named("lattice.apply_rule"), "cells"),
    })
    for macros in (100, 200):
        m[f"turing.bisim.ms_per_macro.M{macros}"] = 1000 * busy(
            probe, "bench.bisim", macros=macros) / macros
    for mode in ("simulate", "classify", "walk", "compile-tm", "run-tm",
                 "verify"):
        m[f"cli.{mode}.ms"] = 1000 * med_s(C, "cli.main", mode=mode)
    m["diffusive.sample_walks.nokernel.steps_per_s"] = spans_rate(
        probe.named("diffusive.sample_walks"), "steps")
    m["tracking.track.eca184.steps_per_s"] = spans_rate(
        probe.named("tracking.track"), "steps")
    for n, w in built.items():
        m.update(w.layer_counts(outs[n]))
    m["trace.overhead_frac"] = overhead

    units = {".s": "s", "_ms": "ms", ".ms": "ms", "per_s": "1/s",
             "per_step.T250": "ms", "per_step.T2000": "ms",
             "_frac": "ratio", "_ratio": "ratio"}
    metrics = {}
    for k, v in m.items():
        unit = next((u for suffix, u in units.items() if k.endswith(suffix)),
                    "ms" if ".ms_per_" in k else "count")
        metrics[k] = (v * scale if unit in ("s", "ms") else
                      v / scale if unit == "1/s" else v, unit)

    print(f"{name}: per-layer, traced run, seed {seed}; {len(plain)} "
          f"untraced and {len(traced)} traced passes of {name}, one "
          "traced pass of each other workload; reference seconds (scale "
          f"{scale:.4f})")
    for k, (v, u) in metrics.items():
        print(f"  {k:<46} {v:>14.6g} {u}")
    print("self time per pass by layer (s; span time minus child spans):")
    selfs = {}
    for n, tr in tracers.items():
        per = {layer: t / passes(tr) for layer, t in
               sorted(tr.self_times().items())}
        selfs[n] = per
        print(f"  {n:<10} " + "  ".join(f"{k}={v:.4f}" for k, v in
                                       per.items()))
    print("ROADMAP 'Recent' figures (wall) beside this run's, wall and "
          "reference:")
    figures = []
    for label, old, key, inp in ROADMAP_FIGURES:
        wall, ref = m[key], metrics[key][0]
        figures.append({"figure": label, "roadmap": old, "wall": wall,
                        "reference": ref, "metric": key, "input": inp})
        print(f"  {label:<32} roadmap {old:>9.4g}  here {wall:>9.4g} wall "
              f"{ref:>9.4g} ref  ({inp}; roadmap input not recorded)")
    report["self_time_per_pass_s"] = selfs
    report["scale"] = scale
    report["roadmap_figures"] = figures
    report["passes"] = {"untraced_wall_s": plain, "traced_wall_s": traced}

    os.makedirs(wl.OUT, exist_ok=True)
    with open(os.path.join(wl.OUT, f"spans-{name}-{seed}.jsonl"), "w") as fh:
        for tr in (*tracers.values(), probe):
            tr.dump(fh)
    for w in built.values():
        w.close()
    return metrics


def write_golden(wl, tr_mod) -> int:
    golden = {"default_seed": wl.DEFAULT_SEED}
    for name, cls in wl.WORKLOADS.items():
        w = cls(wl.DEFAULT_SEED, tr_mod.NULL_TRACER)
        out = w.job()
        fixed, seeded = w.digests(out)
        res = w.check_outputs(out)
        w.close()
        if res.failed:
            sys.exit(f"error: {name} fails its own checks: "
                     f"{sorted(set(res.failed.values()))}")
        golden[name] = {"fixed": {k: d for k, (d, _) in fixed.items()},
                        "seeded": {k: d for k, (d, _) in seeded.items()}}
        print(f"{name}: {len(fixed)} fixed and {len(seeded)} seeded digests")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("walk", "ballistic",
                                               "spacetime", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.setup_probe:
        with Speed() as speed:
            tr_mod, wl = load_library()
            wl.WORKLOADS[args.workload](args.seed, tr_mod.NULL_TRACER)
        print(f"ready {speed.scale}", flush=True)
        return 0
    tr_mod, wl = load_library()
    if args.write_golden:
        return write_golden(wl, tr_mod)

    prov = provenance(wl)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    golden = load_golden()
    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov}
    measure = per_layer if args.trace else end_to_end
    metrics = measure(args.workload, args.seed, args.seconds, golden, wl,
                      tr_mod, tally, report)
    print(f"checked operations: {tally.attempted} attempted, "
          f"{tally.n_failed} failed, {tally.n_known} known baseline failures")
    for reason, count in {**tally.failed, **tally.known}.items():
        kind = "known" if reason in tally.known else "FAILED"
        print(f"  {kind} x{count}: {reason}")
    result = {"correct": tally.n_failed == 0, "attempted": tally.attempted,
              "failed": tally.n_failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    report.update(result, failures=tally.failed, known_failures=tally.known)
    os.makedirs(wl.OUT, exist_ok=True)
    path = os.path.join(wl.OUT, f"result-{args.workload}-{args.seed}-"
                        f"trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
