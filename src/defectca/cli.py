"""Command-line front end: simulate, classify, walk, compile-tm, run-tm, verify.

Every mode takes a JSON experiment config (inline values or paths to JSON
files), writes its artifacts under --out, and finishes with a manifest
listing the content hash of every emitted file, so identical seeds yield
byte-identical runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import io as dio
from .diffusive import (
    build_walk_kernel,
    markov_property_test,
    sample_walks,
    verify_resolving_system,
)
from .errors import DefectcaError
from .lattice import apply_rule, encode_config
from .rules import (check_invariance, is_left_resolving, is_right_resolving,
                    normalize, recode_rule)
from .shifts import MarkovShift, entropy, regularity, sft_to_markov, transitive_components
from .tracking import track
from .turing import ClassicalTM, classical_to_lr, regime_of, turing_to_ca


@dataclass
class ExperimentConfig:
    """A parsed experiment: mode, resolved inputs, mode parameters."""

    mode: str
    params: dict
    seed: int = 0

    @staticmethod
    def load(path: str, mode: str, seed: Optional[int]) -> "ExperimentConfig":
        spec = dio.read_json(path)
        cfg_mode = spec.get("mode", mode)
        if cfg_mode != mode:
            raise DefectcaError(f"config is for mode {cfg_mode!r}, not {mode!r}")
        s = seed if seed is not None else int(spec.get("seed", 0))
        return ExperimentConfig(mode, spec, s)

    def resolve(self, key: str, base: str):
        """Inline value, or {"file": path} / "path.json" relative to the config."""
        if key not in self.params:
            raise DefectcaError(f"config for mode {self.mode!r} is missing "
                                f"the field {key!r}")
        val = self.params[key]
        if isinstance(val, str):
            path = os.path.join(base, val)
            if not os.path.exists(path):
                raise DefectcaError(f"config field {key!r} references a "
                                    f"missing file: {val}")
            return dio.read_json(path)
        if isinstance(val, dict) and set(val) == {"file"}:
            path = os.path.join(base, val["file"])
            if not os.path.exists(path):
                raise DefectcaError(f"config field {key!r} references a "
                                    f"missing file: {val['file']}")
            return dio.read_json(path)
        return val


class _Emitter:
    def __init__(self, out_dir: str):
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.files: dict[str, str] = {}

    def write_bytes(self, name: str, data: bytes) -> None:
        path = os.path.join(self.out, name)
        with open(path, "wb") as fh:
            fh.write(data)
        self.files[name] = hashlib.sha256(data).hexdigest()

    def write_text(self, name: str, text: str) -> None:
        self.write_bytes(name, text.encode())

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True,
                                         default=_jsonable) + "\n")

    def manifest(self, cfg: ExperimentConfig) -> None:
        body = {"mode": cfg.mode, "seed": cfg.seed, "files": dict(self.files)}
        self.write_json("manifest.json", body)


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, frozenset):
        return sorted(x)
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _background(cfg: ExperimentConfig, base: str, key: str = "shift"):
    return dio.load_shift(cfg.resolve(key, base))


def _positive_int(cfg: ExperimentConfig, key: str, default: int) -> int:
    val = int(cfg.params.get(key, default))
    if val < 1:
        raise DefectcaError(f"config field {key!r} must be >= 1, got {val}")
    return val


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_simulate(cfg: ExperimentConfig, base: str, em: _Emitter) -> int:
    rule = dio.load_rule(cfg.resolve("rule", base))
    background = _background(cfg, base)
    sys_rec = normalize(rule, background)
    seed_cfg = dio.load_config(cfg.resolve("seed_config", base), rule.alphabet)
    steps = _positive_int(cfg, "steps", 120)
    width = _positive_int(cfg, "width", 300)
    lo, hi = -width // 2, width - width // 2
    rows, masks = dio.spacetime_rows(rule, seed_cfg, steps, lo, hi,
                                     shift=None)
    enc = encode_config(sys_rec.coder, seed_cfg)
    _, block_masks = dio.spacetime_rows(sys_rec.rule, enc, steps, lo, hi,
                                        shift=sys_rec.shift)
    image, _ = dio.render_spacetime(rows, rule.alphabet)
    _, mask = dio.render_spacetime(rows, rule.alphabet, highlight=block_masks)
    em.write_bytes("spacetime.pbm", image)
    if mask:
        em.write_bytes("defects.pbm", mask)
    traj = track(sys_rec.rule, sys_rec.shift, enc, steps,
                 width_cap=int(cfg.params.get("width_cap", 64)))
    em.write_text("trajectory.csv",
                  dio.trajectory_csv(traj, sys_rec.rule.alphabet))
    em.write_json("summary.json", dio.trajectory_summary(traj))
    return 0


def run_classify(cfg: ExperimentConfig, base: str, em: _Emitter) -> int:
    from .ballistic import classify_junctions

    rule = dio.load_rule(cfg.resolve("rule", base))
    background = _background(cfg, base)
    types = classify_junctions(rule, background,
                               max_core=int(cfg.params.get("max_core", 0)),
                               T=int(cfg.params.get("steps", 64)),
                               width_cap=int(cfg.params.get("width_cap", 16)))
    report = {"types": [{
        "left_component": sorted(t.left_vertices),
        "right_component": sorted(t.right_vertices),
        "period": t.period,
        "velocity": t.velocity,
        "width": t.width,
        "defect_words": ["".join(map(str, w)) for w in t.defect_words],
        "orbit": [[s[0], list(s[1]), s[2]] for s in t.orbit],
    } for t in types],
        # junction classification reports settled cycles; padding-phase
        # transients decay into them within the tracked prefix
        "transients": []}
    em.write_json("classify.json", report)
    return 0


def run_walk(cfg: ExperimentConfig, base: str, em: _Emitter) -> int:
    rule = dio.load_rule(cfg.resolve("rule", base))
    L = dio.load_shift(cfg.resolve("left_shift", base))
    R = dio.load_shift(cfg.resolve("right_shift", base))
    if not isinstance(L, MarkovShift) or not isinstance(R, MarkovShift):
        raise DefectcaError("walk backgrounds must be Markov shifts")
    W = int(cfg.params.get("W", 1))
    steps = _positive_int(cfg, "steps", 1000)
    samples = _positive_int(cfg, "samples", 50)
    if "delta" in cfg.params:
        raw = cfg.resolve("delta", base)
        delta = {tuple(rule.alphabet.word_from_text(k) if isinstance(k, str)
                       else tuple(k)): float(v) for k, v in raw.items()}
    elif W == 1:
        syms = range(rule.alphabet.size)
        delta = {(s,): 1.0 / rule.alphabet.size for s in syms}
    else:
        delta = {}
    kernel = build_walk_kernel(rule, L, R, W,
                               delta_support=list(delta) or None)
    trajs, stats = sample_walks(rule, L, R, delta, steps, samples, cfg.seed,
                                W=W, kernel=kernel)
    report = markov_property_test(stats, kernel)
    em.write_json("walk-stats.json", {
        "samples": stats.sample_count,
        "steps": stats.horizon,
        "excluded": stats.excluded,
        "empirical_drift": stats.empirical_drift,
        "variance_per_step": stats.variance_per_step,
        "theoretical_drifts": stats.theoretical_drifts,
        "kernel_states": len(kernel.states),
        "markov_rows_checked": len(report.rows),
        "markov_max_tv": report.max_tv,
        "markov_passed": report.passed,
    })
    if cfg.params.get("per_sample_csv", False):
        for i, tr in enumerate(trajs):
            em.write_text(f"walk-{i:04d}.csv",
                          "t,z\n" + "\n".join(f"{t},{z}"
                                              for t, z in enumerate(tr)) + "\n")
    final = sorted(tr[-1] - tr[0] for tr in trajs)
    hist: dict[int, int] = {}
    for d in final:
        hist[d] = hist.get(d, 0) + 1
    em.write_text("displacement-hist.csv", "displacement,count\n" +
                  "\n".join(f"{k},{v}" for k, v in sorted(hist.items())) + "\n")
    return 0


def _load_tm(spec: dict) -> ClassicalTM:
    states = tuple(spec["states"])
    tape_size = int(spec["tape_size"])
    tau, ups, vel = {}, {}, {}
    for state, read, write, move, nxt in spec["rules"]:
        key = (int(read), state)
        tau[key] = int(write)
        vel[key] = int(move)
        ups[key] = nxt
    want = len(states) * tape_size
    if len(tau) != want:
        raise DefectcaError(f"TM table is partial: {len(tau)} of {want} rules")
    return ClassicalTM(tape_size, states, tau, ups, vel)


def run_compile_tm(cfg: ExperimentConfig, base: str, em: _Emitter) -> int:
    tm_spec = cfg.resolve("tm", base)
    tm = _load_tm(tm_spec)
    L = dio.load_shift(cfg.resolve("left_shift", base))
    R = dio.load_shift(cfg.resolve("right_shift", base))
    comp = classical_to_lr(tm, L, R)
    rule, emb = turing_to_ca(comp.machine)
    em.write_json("ca.json", {
        "compiled_tm": tm_spec,
        "left_shift": dio.save_shift(L),
        "right_shift": dio.save_shift(R),
        "cells_per_symbol": comp.cells_per_symbol,
        "bits_per_symbol": comp.bits,
        "left_blocks": ["".join(map(str, comp.enc_left.w0)),
                        "".join(map(str, comp.enc_left.w1))],
        "right_blocks": ["".join(map(str, comp.enc_right.w0)),
                         "".join(map(str, comp.enc_right.w1))],
        "ca_alphabet": list(rule.alphabet.labels),
        "ca_radius": rule.radius,
        "head_states": len(comp.machine.head_domain),
    })
    return 0


def run_run_tm(cfg: ExperimentConfig, base: str, em: _Emitter) -> int:
    tm = _load_tm(cfg.resolve("tm", base))
    L = dio.load_shift(cfg.resolve("left_shift", base))
    R = dio.load_shift(cfg.resolve("right_shift", base))
    comp = classical_to_lr(tm, L, R)
    rule, emb = turing_to_ca(comp.machine)
    tape0 = {int(k): int(v) for k, v in cfg.params.get("tape", {}).items()}
    d0 = cfg.params.get("head", tm.head_domain[0])
    z0 = int(cfg.params.get("position", 0))
    macros = int(cfg.params.get("macro_steps", 50))
    window = int(cfg.params.get("window", 8))

    state = comp.initial_state(tape0, d0, z0, window=window + macros)
    ca = emb.encode(state)
    ctape, cd, cz = dict(tape0), d0, z0
    mismatches = []
    for k in range(macros):
        ctape, cd, cz = tm.step(ctape, cd, cz)
        state, micro = comp.macro_step(state)
        for _ in range(micro):
            ca = apply_rule(rule, ca)
        got_tape, got_d, got_z = comp.decode_state(emb.decode(ca),
                                                   window=window)
        # the compiled machine anchors its frame at the classical z0
        ok = got_d == cd and got_z == cz - z0
        if ok:
            ok = all(got_tape.get(got_z + j, 0) == ctape.get(cz + j, 0)
                     for j in range(-window, window + 1))
        if not ok:
            mismatches.append(k + 1)
    em.write_json("run-tm.json", {
        "macro_steps": macros,
        "mismatched_steps": mismatches,
        "bisimulation": not mismatches,
    })
    return 0 if not mismatches else 1


def run_verify(cfg: ExperimentConfig, base: str, em: _Emitter) -> int:
    rule = dio.load_rule(cfg.resolve("rule", base))
    background = _background(cfg, base)
    # the resolving checks read the rule in the shift's block presentation
    shift, coder = (background, None) if isinstance(background, MarkovShift) \
        else sft_to_markov(background)
    rep = regularity(shift)
    out = {
        "entropy": entropy(shift),
        "components": len(transitive_components(shift)),
        "left_regular": rep.left_regular, "P_S": rep.P_S,
        "right_regular": rep.right_regular, "F_S": rep.F_S,
        "invariant": check_invariance(rule, background),
    }
    if rule.radius == 1:
        block_rule = rule if coder is None else recode_rule(rule, coder.P)
        out["left_resolving"] = is_left_resolving(block_rule, shift)
        out["right_resolving"] = is_right_resolving(block_rule, shift)
        res = verify_resolving_system(block_rule, shift, shift)
        out["resolving_system"] = res.passed
        out["resolving_witnesses"] = list(res.witnesses)
    if "right_shift" in cfg.params:
        other = dio.load_shift(cfg.resolve("right_shift", base))
        out["regime"] = regime_of(shift, other)
    em.write_json("verify.json", out)
    return 0


MODES = {
    "simulate": run_simulate,
    "classify": run_classify,
    "walk": run_walk,
    "compile-tm": run_compile_tm,
    "run-tm": run_run_tm,
    "verify": run_verify,
}


def run_experiment(mode: str, config_path: str, out_dir: str,
                   seed: Optional[int] = None) -> int:
    cfg = ExperimentConfig.load(config_path, mode, seed)
    em = _Emitter(out_dir)
    base = os.path.dirname(os.path.abspath(config_path))
    code = MODES[mode](cfg, base, em)
    em.manifest(cfg)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="defectca",
        description="Defect particles in one-dimensional cellular automata")
    parser.add_argument("--json-errors", action="store_true",
                        help="report failures as JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "walk")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".")
        if name == "walk":
            p.add_argument("--rule")
            p.add_argument("--left-shift")
            p.add_argument("--right-shift")
            p.add_argument("--steps", type=int)
            p.add_argument("--samples", type=int)
            p.add_argument("--delta")
    args = parser.parse_args(argv)
    try:
        if args.command == "walk" and args.config is None:
            if not (args.rule and args.left_shift and args.right_shift):
                raise DefectcaError(
                    "walk needs --config or --rule/--left-shift/--right-shift")
            params = {"rule": args.rule, "left_shift": args.left_shift,
                      "right_shift": args.right_shift}
            if args.steps is not None:
                params["steps"] = args.steps
            if args.samples is not None:
                params["samples"] = args.samples
            if args.delta is not None:
                params["delta"] = args.delta
            cfg = ExperimentConfig("walk", params, args.seed or 0)
            em = _Emitter(args.out)
            code = run_walk(cfg, os.getcwd(), em)
            em.manifest(cfg)
            return code
        return run_experiment(args.command, args.config, args.out, args.seed)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        if args.json_errors:
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
