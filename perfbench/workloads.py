"""The benchmark's four workloads, each driving defectca from outside.

Every workload sets up from a seed, then runs one fixed-size pass per
``job()`` call; the runner repeats passes for the measured time.  A pass
calls the library's public functions in the order a user or a CLI mode
would, each call inside a span named ``<layer>.<function>``.
``check(out, golden)`` verifies a pass's outputs after the clock stops, and
``digests(out)`` gives the golden digests: ``fixed`` ones hold for every
seed, ``seeded`` ones only for ``DEFAULT_SEED``.

Why these four (each stresses a different layer):

- ``walk``: the cellular walk sampler's per-cell Python loop and the exact
  stationary solve; ``lattice`` and ``tracking`` are never called, so a
  change under ``apply_rule`` must leave it unchanged.
- ``ballistic``: many short tracks through ``tracking``/``lattice`` over
  block alphabets of 8, 16 and 16384 symbols; ``diffusive`` is idle.
- ``spacetime``: whole-core stepping, where ``apply_rule`` never trims the
  core, so the cost per step grows with t; the compiled Turing machine's
  176-symbol alphabet is too large for a dense table.
- ``cli``: short invocations of all six modes, where fixed costs dominate
  (config load, exact algebra, hashing, the manifest).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import time
from fractions import Fraction

from defectca import io as dio
from defectca import zoo
from defectca.ballistic import classify_junctions
from defectca.cli import main as cli_main
from defectca.diffusive import (
    build_walk_kernel,
    markov_property_test,
    sample_kernel_chain,
    sample_walks,
    stationary_and_drift,
)
from defectca.errors import MultipleDefectsError
from defectca.lattice import apply_rule, encode_config, periodic_config
from defectca.rules import from_wolfram_number, normalize, phi_orbit_components
from defectca.shifts import binary_alphabet, full_shift
from defectca.tracking import check_velocity_bounds, locate_defect, track
from defectca.turing import ClassicalTM, classical_to_lr, turing_to_ca

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 0
A2 = binary_alphabet()


def sha(obj) -> str:
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(obj).hexdigest()


def read_json(name: str):
    with open(os.path.join(INPUTS, name)) as fh:
        return json.load(fh)


class Outcome:
    """Checked operations of one pass: each key is one operation, mapped to
    None when it passed or to the reason it failed.  ``known`` holds the
    operations that fail at the baseline for a known, reported reason."""

    def __init__(self):
        self.ops: dict = {}
        self.known: dict = {}

    def add(self, key, reason=None) -> None:
        if self.ops.get(key) is None:
            self.ops[key] = reason

    def fail_all(self, keys, reason) -> None:
        for k in keys:
            self.add(k, reason)

    @property
    def failed(self) -> dict:
        return {k: r for k, r in self.ops.items() if r is not None}


class Workload:
    name = ""
    work_metric = ""    # the name of out["work"] per second of work_window

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tr = tracer
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def job(self) -> dict:
        """One pass; returns its outputs with the ``work`` units it did
        between the ``perf_counter`` times ``work_window`` (None: the whole
        pass) and any further ``rates`` as name -> (units, window)."""
        raise NotImplementedError

    def check(self, out: dict, golden: dict) -> Outcome:
        """Seed-independent checks, then the golden digests of ``golden``
        (``fixed`` always, ``seeded`` at the default seed)."""
        res = self.check_outputs(out)
        fixed, seeded = self.digests(out)
        want = dict(golden.get("fixed", {}))
        if self.seed == DEFAULT_SEED:
            want.update(golden.get("seeded", {}))
        for key, (got, covers) in {**fixed, **seeded}.items():
            if key in want and want[key] != got:
                res.fail_all(covers, f"golden digest {key} differs")
        return res

    def check_outputs(self, out: dict) -> Outcome:
        raise NotImplementedError

    def digests(self, out: dict) -> tuple[dict, dict]:
        """(fixed, seeded): key -> (digest, operation keys it covers)."""
        raise NotImplementedError

    def layer_counts(self, out: dict) -> dict:
        """Per-layer metrics of one pass that are counts, not times."""
        return {}

    def close(self) -> None:
        """Remove what the passes left on disk."""


# ---------------------------------------------------------------------------
# walk: the marked diffusive walker over the mod-2 sea, W=1
# ---------------------------------------------------------------------------

class Walk(Workload):
    """``run_walk``'s call sequence at a long horizon, plus the kernel-chain
    cross-check."""

    name = "walk"
    work_metric = "walk_steps_per_s"
    T = 10_000
    N = 8

    def setup(self):
        self._replicate = None
        self.rule = zoo.diffusive_rule()
        self.sea = zoo.diffusive_background()
        self.delta = {(s,): 0.5 for s in zoo.diffusive_marked_symbols()}
        with self.tr.span("diffusive.build_walk_kernel"):
            self.kernel = build_walk_kernel(self.rule, self.sea, self.sea, 1,
                                            delta_support=list(self.delta))

    def job(self):
        tr, T, n = self.tr, self.T, self.N
        with tr.span("diffusive.sample_walks", steps=n * T):
            trajs, stats = sample_walks(self.rule, self.sea, self.sea,
                                        self.delta, T, n, self.seed,
                                        kernel=self.kernel)
        with tr.span("diffusive.markov_property_test"):
            report = markov_property_test(stats, self.kernel)
        with tr.span("diffusive.stationary_and_drift"):
            classes = stationary_and_drift(self.kernel)
        with tr.span("diffusive.sample_kernel_chain", steps=n * T):
            _, chain_counts = sample_kernel_chain(self.kernel, self.delta, T,
                                                  n, self.seed)
        return {"trajs": trajs, "stats": stats, "report": report,
                "classes": classes, "chain_counts": chain_counts,
                "work": n * T, "work_window": None}

    def check_outputs(self, out):
        res = Outcome()
        samples = [("sample", i) for i in range(self.N)]
        for i, zs in enumerate(out["trajs"]):
            steps_ok = all(abs(b - a) <= 1 for a, b in zip(zs, zs[1:]))
            res.add(samples[i], None if len(zs) == self.T + 1 and zs[0] == 0
                    and steps_ok else "malformed walk trajectory")
        for key in samples[len(out["trajs"]):]:
            res.add(key, "sample excluded (defect vanished or split)")
        classes, stats = out["classes"], out["stats"]
        if not (len(classes) == 1 and classes[0].drift == Fraction(0)
                and stats.theoretical_drifts == [Fraction(0)]):
            res.fail_all(samples, "exact drift is not Fraction(0)")
        if not out["report"].passed and not self.replicate_passes():
            res.fail_all(samples, "Markov property test failed on the pass's "
                         "sample and on an independent replicate")
        rows = self.kernel.rows
        if any(t not in rows[s] for s, row in out["chain_counts"].items()
               for t in row):
            res.fail_all(samples, "kernel chain left the kernel's support")
        return res

    def replicate_passes(self) -> bool:
        """The Markov test on a second sample from a seed derived from the
        run's seed.  The test compares about 1300 entries at 4.5 sigma, so a
        correct sampler fails it on roughly 1% of seeds by chance; a biased
        sampler fails both samples.  Computed once, after the clock stops."""
        if self._replicate is None:
            seed = int(sha(["replicate", self.seed])[:8], 16)
            _, stats = sample_walks(self.rule, self.sea, self.sea, self.delta,
                                    self.T, self.N, seed, kernel=self.kernel)
            self._replicate = markov_property_test(stats, self.kernel).passed
        return self._replicate

    def digests(self, out):
        disp = [zs[-1] - zs[0] for zs in out["trajs"]]
        samples = [("sample", i) for i in range(self.N)]
        return {}, {"displacements": (sha(disp), samples)}

    def layer_counts(self, last):
        return {"diffusive.sample_walks.kept_ratio":
                last["stats"].sample_count / self.N,
                "diffusive.markov_property_test.rows": len(last["report"].rows)}


# ---------------------------------------------------------------------------
# ballistic: classification, a criterion-7-style fuzz, and long #110 tracks
# ---------------------------------------------------------------------------

# the ECA#110 A and B defects: seed phases, period, displacement, max width
ETHER_DEFECTS = {
    "A": dict(left_phase=0, right_phase=8, core=(), period=3, dz=2, width=12),
    "B": dict(left_phase=0, right_phase=6, core=(0,), period=4, dz=-2,
              width=13),
}


def component_words(sys) -> list[tuple]:
    """One source word per sigma-cycle of the rule-orbit components."""
    words = []
    for comp in phi_orbit_components(sys.rule, sys.shift):
        start = min(comp.usable)
        cyc = [start]
        cur = comp.followers(start)[0]
        while cur != start:
            cyc.append(cur)
            cur = comp.followers(cur)[0]
        words.append(tuple(sys.coder.unpack(b)[0] for b in cyc))
    return words


class Ballistic(Workload):
    """Junction classification on ECA#184/#54/#110, random single defects
    tracked 20 steps, and the #110 A and B defects tracked 1000 steps."""

    name = "ballistic"
    work_metric = "defects_per_s"
    FUZZ = 150          # single-defect seeds per system per pass
    FUZZ_T = 20
    LONG_T = 1000
    SYSTEMS = (("eca184", 184, zoo.eca184_background),
               ("eca54", 54, zoo.eca54_background),
               ("eca110", 110, zoo.eca110_ether))

    def setup(self):
        self.systems = {}
        for name, number, background in self.SYSTEMS:
            rule, bg = from_wolfram_number(number), background()
            with self.tr.span("rules.normalize", system=name):
                sys = normalize(rule, bg)
            with self.tr.span("rules.phi_orbit_components", system=name):
                words = component_words(sys)
            self.systems[name] = (rule, bg, sys, words)

    def job(self):
        tr = self.tr
        tables = {}
        for name, (rule, bg, _, _) in self.systems.items():
            with tr.span("ballistic.classify_junctions", system=name):
                tables[name] = classify_junctions(rule, bg, max_core=1)
        t0 = time.perf_counter()
        rng = random.Random(self.seed)
        fuzz = {}
        drawn = 0
        for name, (_, _, sys, words) in self.systems.items():
            found = []
            attempts = 0
            while len(found) < self.FUZZ and attempts < self.FUZZ * 20:
                attempts += 1
                lw, rw = rng.choice(words), rng.choice(words)
                core = tuple(rng.randrange(2)
                             for _ in range(rng.randrange(0, 7)))
                cfg = periodic_config(A2, lw, core, rw,
                                      left_phase=rng.randrange(len(lw)),
                                      right_phase=rng.randrange(len(rw)))
                with tr.span("lattice.encode_config", phase="fuzz"):
                    enc = encode_config(sys.coder, cfg)
                with tr.span("tracking.locate_defect"):
                    try:
                        single = locate_defect(enc, sys.shift) is not None
                    except MultipleDefectsError:
                        single = False
                if not single:
                    continue
                with tr.span("tracking.track", phase="fuzz",
                             steps=self.FUZZ_T):
                    traj = track(sys.rule, sys.shift, enc, self.FUZZ_T,
                                 width_cap=40)
                with tr.span("tracking.check_velocity_bounds"):
                    found.append(check_velocity_bounds(traj))
            drawn += attempts
            fuzz[name] = found
        fuzz_window = (t0, time.perf_counter())
        sys110 = self.systems["eca110"][2]
        long = {}
        for name, g in ETHER_DEFECTS.items():
            cfg = periodic_config(A2, zoo.ETHER, g["core"], zoo.ETHER,
                                  left_phase=g["left_phase"],
                                  right_phase=g["right_phase"])
            with tr.span("lattice.encode_config"):
                enc = encode_config(sys110.coder, cfg)
            with tr.span("tracking.track", phase="long", steps=self.LONG_T):
                long[name] = track(sys110.rule, sys110.shift, enc,
                                   self.LONG_T, width_cap=30)
        accepted = sum(len(v) for v in fuzz.values())
        return {"tables": tables, "fuzz": fuzz, "long": long,
                "drawn": drawn, "work": accepted,
                "work_window": fuzz_window}

    def check_outputs(self, out):
        res = Outcome()
        for name in out["tables"]:
            res.add(("table", name))
        for name, found in out["fuzz"].items():
            for k in range(self.FUZZ):
                if k >= len(found):
                    res.add(("defect", name, k),
                            "too few single-defect seeds drawn")
                elif found[k]:
                    res.add(("defect", name, k), found[k][0])
                else:
                    res.add(("defect", name, k))
        for name, g in ETHER_DEFECTS.items():
            traj, p, dz = out["long"][name], g["period"], g["dz"]
            recs = traj.records
            ok = (traj.verdict.is_particle and traj.verdict.width == g["width"]
                  and len(recs) == self.LONG_T + 1
                  and all(recs[t + p].z - recs[t].z == dz
                          and recs[t + p].word == recs[t].word
                          for t in range(100, self.LONG_T - p)))
            res.add(("long", name), None if ok else
                    f"#110 {name} defect lost period {p} / displacement {dz}")
        return res

    def digests(self, out):
        fixed = {}
        for name, types in out["tables"].items():
            table = sorted([sorted(t.left_vertices), sorted(t.right_vertices),
                            t.period, str(t.velocity), t.width,
                            [list(w) for w in t.defect_words],
                            [[s[0], list(s[1]), s[2]] for s in t.orbit]]
                           for t in types)
            fixed[f"classify.{name}"] = (sha(table), [("table", name)])
        return fixed, {}

    def layer_counts(self, last):
        return {"tracking.locate_defect.accept_ratio":
                last["work"] / last["drawn"]}


# ---------------------------------------------------------------------------
# spacetime: run_simulate's sequence on ECA#184, and a run-tm bisimulation
# ---------------------------------------------------------------------------

def load_tm(spec: dict) -> ClassicalTM:
    """A classical TM from the CLI's table format
    (rules: [state, read, write, move, next])."""
    tau, ups, vel = {}, {}, {}
    for state, read, write, move, nxt in spec["rules"]:
        tau[(read, state)] = write
        vel[(read, state)] = move
        ups[(read, state)] = nxt
    return ClassicalTM(spec["tape_size"], tuple(spec["states"]), tau, ups, vel)


class Spacetime(Workload):
    """A long ``simulate`` run of ECA#184, then a non-halting binary counter
    compiled over binary full shifts and bisimulated macro step by macro
    step, as ``run-tm`` does."""

    name = "spacetime"
    work_metric = "cells_per_s"
    T = 500             # simulate horizon
    WIDTH = 300
    MACROS = 120        # bisimulated macro steps per pass
    WINDOW = 8          # decoded tape cells each side of the head

    def setup(self):
        tr = self.tr
        rng = random.Random(self.seed)
        self.rule = from_wolfram_number(184)
        bg = zoo.eca184_background()
        with tr.span("rules.normalize", system="eca184"):
            self.sys = normalize(self.rule, bg)
        # a random single-defect seed over the three G components
        words = [(0, 1), (0,), (1,)]
        while True:
            lw, rw = rng.choice(words), rng.choice(words)
            core = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 7)))
            cfg = periodic_config(A2, lw, core, rw,
                                  left_phase=rng.randrange(len(lw)),
                                  right_phase=rng.randrange(len(rw)))
            try:
                if locate_defect(encode_config(self.sys.coder, cfg),
                                 self.sys.shift) is not None:
                    break
            except MultipleDefectsError:
                pass
        self.config = cfg
        self.tm = load_tm(read_json("counter-tm.json"))
        with tr.span("shifts.full_shift"):
            full = full_shift(A2)
        with tr.span("turing.classical_to_lr"):
            self.comp = classical_to_lr(self.tm, full, full)
        with tr.span("turing.turing_to_ca"):
            self.tm_rule, self.emb = turing_to_ca(self.comp.machine)
        # a random counter value: big-endian digits ending at the head
        digits = rng.randrange(2, 9)
        self.tape0 = {j - digits + 1: 1 + rng.randrange(2)
                      for j in range(digits)}

    def job(self):
        tr, T, sys = self.tr, self.T, self.sys
        lo, hi = -self.WIDTH // 2, self.WIDTH - self.WIDTH // 2
        t0 = time.perf_counter()
        with tr.span("io.spacetime_rows", presentation="source", steps=T):
            rows, _ = dio.spacetime_rows(self.rule, self.config, T, lo, hi,
                                         shift=None)
        with tr.span("lattice.encode_config"):
            enc = encode_config(sys.coder, self.config)
        with tr.span("io.spacetime_rows", presentation="block", steps=T):
            brows, bmasks = dio.spacetime_rows(sys.rule, enc, T, lo, hi,
                                               shift=sys.shift)
        with tr.span("io.render_spacetime"):
            image, _ = dio.render_spacetime(rows, self.rule.alphabet)
        with tr.span("io.render_spacetime"):
            _, mask = dio.render_spacetime(rows, self.rule.alphabet,
                                           highlight=bmasks)
        with tr.span("tracking.track", phase="simulate", steps=T):
            traj = track(sys.rule, sys.shift, enc, T, width_cap=64)
        sim_window = (t0, time.perf_counter())
        t0 = time.perf_counter()
        steps, core_cells = self.bisimulate(self.MACROS, tr)
        bisim_window = (t0, time.perf_counter())
        return {"rows": rows, "brows": brows, "image": image, "mask": mask,
                "traj": traj, "steps": steps, "core_cells": core_cells,
                "image_bytes": len(image) + len(mask),
                "work": 2 * T * self.WIDTH, "work_window": sim_window,
                "rates": {"macro_steps_per_s": (self.MACROS, bisim_window)}}

    def bisimulate(self, macros: int, tr) -> tuple[list, int]:
        """``run-tm``'s loop: step the classical machine and the compiled CA
        side by side; returns (expected, decoded) per macro step and the
        CA's final core length."""
        comp, emb, tm, W = self.comp, self.emb, self.tm, self.WINDOW
        with tr.span("turing.initial_state"):
            state = comp.initial_state(self.tape0, "R", 0, window=W + macros)
        with tr.span("turing.CAConjugacy.encode"):
            ca = emb.encode(state)
        ctape, cd, cz = dict(self.tape0), "R", 0
        steps = []
        for _ in range(macros):
            with tr.span("turing.ClassicalTM.step"):
                ctape, cd, cz = tm.step(ctape, cd, cz)
            with tr.span("turing.macro_step"):
                state, micro = comp.macro_step(state)
            for _ in range(micro):
                with tr.span("lattice.apply_rule") as sp:
                    ca = apply_rule(self.tm_rule, ca)
                    sp.set(cells=len(ca.core))
            with tr.span("turing.decode"):
                got = comp.decode_state(emb.decode(ca), window=W)
            want = ([ctape.get(cz + j, 0) for j in range(-W, W + 1)], cd, cz)
            steps.append((want, got))
        return steps, len(ca.core)

    def check_outputs(self, out):
        res = Outcome()
        unpack = self.sys.coder.unpack
        agree = all(unpack(b)[0] == s for row, brow in zip(out["rows"],
                                                           out["brows"])
                    for s, b in zip(row, brow))
        header = f"P1\n{self.WIDTH} {self.T}\n".encode()
        res.add(("image",), None if agree and out["image"].startswith(header)
                else "source and block presentations disagree")
        res.add(("mask",), None if out["mask"].startswith(header)
                else "malformed defect mask")
        bounds = check_velocity_bounds(out["traj"])
        res.add(("track",), bounds[0] if bounds else None)
        for k, ((tape, d, z), (got_tape, got_d, got_z)) in \
                enumerate(out["steps"]):
            ok = (got_d == d and got_z == z and
                  [got_tape.get(got_z + j, 0)
                   for j in range(-self.WINDOW, self.WINDOW + 1)] == tape)
            res.add(("macro", k), None if ok else
                    f"bisimulation broken at macro step {k + 1}")
        return res

    def digests(self, out):
        macros = [("macro", k) for k in range(self.MACROS)]
        tapes = [[want, sorted(got[0].items()), got[1], got[2]]
                 for want, got in out["steps"]]
        return {}, {"spacetime.pbm": (sha(out["image"]), [("image",)]),
                    "defects.pbm": (sha(out["mask"]), [("mask",)]),
                    "bisim.tapes": (sha(tapes), macros)}

    def layer_counts(self, last):
        return {"io.render_spacetime.bytes": last["image_bytes"],
                "lattice.apply_rule.core_cells_final": last["core_cells"]}


# ---------------------------------------------------------------------------
# cli: all six modes in-process on tiny configs
# ---------------------------------------------------------------------------

# ``verify`` on an SFT background whose block presentation has more than two
# symbols exits 2 at the baseline: cli.run_verify hands the source rule to
# is_left_resolving together with the block shift, which raises KeyError.
KNOWN_FAILURE = ("verify-sft", "KeyError")


class Cli(Workload):
    """Each mode twice per pass through ``defectca.cli.main``; ``verify``
    once on a Markov spec and once on the README's ECA#184 SFT spec."""

    name = "cli"
    work_metric = "invocations_per_s"
    ROUNDS = (("simulate", "classify", "walk", "compile-tm", "run-tm",
               "verify-markov"),
              ("simulate", "classify", "walk", "compile-tm", "run-tm",
               "verify-sft"))

    def setup(self):
        self.configs = {name: os.path.join(INPUTS, "cli", name + ".json")
                        for rnd in self.ROUNDS for name in rnd}
        self.tmp = os.path.join(OUT, f"cli-{os.getpid()}")
        self.passes = 0

    def job(self):
        self.passes += 1
        runs = []
        for rnd in self.ROUNDS:
            for name in rnd:
                mode = "verify" if name.startswith("verify") else name
                out_dir = os.path.join(self.tmp, str(self.passes),
                                       str(len(runs)))
                buf = io.StringIO()
                with self.tr.span("cli.main", mode=mode), \
                        contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(buf):
                    code = cli_main(["--json-errors", mode,
                                     "--config", self.configs[name],
                                     "--out", out_dir,
                                     "--seed", str(self.seed)])
                runs.append((name, code, buf.getvalue(), out_dir))
        return {"runs": runs, "work": len(runs), "work_window": None}

    def check(self, out, golden):
        try:
            return super().check(out, golden)
        finally:
            shutil.rmtree(os.path.join(self.tmp, str(self.passes)),
                          ignore_errors=True)

    @staticmethod
    def _files(out_dir: str) -> dict:
        files = {}
        for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) \
                else []:
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
        return files

    def check_outputs(self, out):
        res = Outcome()
        out["bytes"] = 0
        for k, (name, code, printed, out_dir) in enumerate(out["runs"]):
            key = ("inv", k)
            files = self._files(out_dir)
            out["bytes"] += sum(len(b) for b in files.values())
            if code != 0:
                try:
                    err = json.loads(printed)["error"]
                except (ValueError, KeyError, TypeError):
                    err = "?"
                reason = f"{name} exit {code}: {printed.strip()}"
                if (name, err) == KNOWN_FAILURE and code == 2:
                    res.add(key)
                    res.known[key] = reason
                else:
                    res.add(key, reason)
                continue
            try:
                ok = self._outputs_ok(name, files)
            except (ValueError, KeyError, TypeError):
                ok = False
            res.add(key, None if ok else f"{name}: bad output or manifest")
        return res

    @staticmethod
    def _outputs_ok(name: str, files: dict) -> bool:
        """Every file the manifest lists exists with its hash, and the
        mode's report holds what is true of every seed."""
        listed = json.loads(files["manifest.json"])["files"]
        if not listed or any(
                n not in files or hashlib.sha256(files[n]).hexdigest() != h
                for n, h in listed.items()):
            return False
        if name == "walk":
            stats = json.loads(files["walk-stats.json"])
            return (stats["theoretical_drifts"] == [{"num": 0, "den": 1}]
                    and stats["markov_passed"] is True
                    and stats["excluded"] == 0)
        if name == "verify-sft":
            report = json.loads(files["verify.json"])
            return report["invariant"] is True and abs(report["entropy"]) < 1e-9
        return True

    def digests(self, out):
        fixed, seeded = {}, {}
        for k, (name, code, _, out_dir) in enumerate(out["runs"]):
            files = self._files(out_dir)
            if code != 0 or "manifest.json" not in files:
                continue
            seeded[f"{k}.{name}.manifest"] = (sha(files["manifest.json"]),
                                              [("inv", k)])
            if name != "walk":   # only walk's artefacts depend on the seed
                listed = json.loads(files["manifest.json"])["files"]
                fixed[f"{k}.{name}.files"] = (sha(listed), [("inv", k)])
        return fixed, seeded

    def layer_counts(self, last):
        return {"cli.bytes_written": last["bytes"]}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Walk, Ballistic, Spacetime, Cli)}


def scaling_and_reference(tr, built: dict) -> None:
    """Spans for the scaling probe (``spacetime_rows`` at T=250 and T=2000,
    the bisimulation at 100 and 200 macro steps) and for the inputs of the
    ROADMAP reference figures, on the set-up workloads in ``built``."""
    st = built["spacetime"]
    lo, hi = -st.WIDTH // 2, st.WIDTH - st.WIDTH // 2
    for steps in (250, 2000):
        with tr.span("io.spacetime_rows", presentation="source", steps=steps):
            dio.spacetime_rows(st.rule, st.config, steps, lo, hi, shift=None)
    for macros in (100, 200):
        with tr.span("bench.bisim", macros=macros):
            st.bisimulate(macros, tr)
    wk = built["walk"]
    with tr.span("diffusive.sample_walks", steps=2000 * 5):
        sample_walks(wk.rule, wk.sea, wk.sea, wk.delta, 2000, 5, wk.seed)
    sys184 = built["ballistic"].systems["eca184"][2]
    cfg = periodic_config(A2, (0, 1), (), (0, 1), left_phase=1)
    enc = encode_config(sys184.coder, cfg)
    with tr.span("tracking.track", steps=1000):
        track(sys184.rule, sys184.shift, enc, 1000)
