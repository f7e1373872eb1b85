"""Command-line front end: simulate, classify, walk, compile-tm, run-tm, verify.

Every mode takes a JSON experiment config (inline values or paths to JSON
files), read through :class:`defectca.io.Field` so a bad value fails with
an error naming its field; ``walk`` also takes its inputs as flags.  Each
run writes its artifacts under --out and finishes with a manifest listing
the content hash of every emitted file, so identical seeds yield
byte-identical runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from . import io as dio
from .ballistic import classify_junctions
from .diffusive import (
    _delta_problem,
    build_walk_kernel,
    markov_property_test,
    sample_walks,
    verify_resolving_system,
)
from .errors import DefectcaError
from .lattice import apply_rule, encode_config
from .rules import (check_invariance, is_left_resolving, is_right_resolving,
                    normalize, recode_rule)
from .shifts import (MarkovShift, entropy, markov_presentation, regularity,
                     transitive_components)
from .tracking import track
from .turing import classical_to_lr, regime_of, turing_to_ca


class _Emitter:
    def __init__(self, out_dir: str):
        self.out = out_dir
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise DefectcaError(f"--out {out_dir!r} is not a usable directory: "
                                f"{exc.strerror}") from exc
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
                                         allow_nan=False,
                                         default=_jsonable) + "\n")

    def manifest(self, mode: str, seed: int) -> None:
        body = {"mode": mode, "seed": seed, "files": dict(self.files)}
        self.write_json("manifest.json", body)


def _jsonable(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _shift(cfg: dio.Field, key: str = "shift"):
    return dio.load_shift(cfg[key].file())


@contextmanager
def _rejects(*keys: str):
    """Re-raise the library's rejection of what the config fields ``keys``
    describe together as an error that names them."""
    try:
        yield
    except DefectcaError as exc:
        raise DefectcaError(f"config fields {', '.join(map(repr, keys))} are "
                            f"rejected: {exc}") from exc


def _markov(shift):
    """A shift's Markov presentation, with its block coder for an SFT."""
    return (shift, None) if isinstance(shift, MarkovShift) \
        else markov_presentation(shift)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def run_simulate(cfg: dio.Field, seed: int, em: _Emitter) -> int:
    rule = dio.load_rule(cfg["rule"].file())
    sys_rec = normalize(rule, _shift(cfg))
    seed_cfg = dio.load_config(cfg["seed_config"].file(), rule.alphabet)
    steps = cfg.get("steps", 120).int(least=1)
    width = cfg.get("width", 300).int(least=1)
    lo, hi = -width // 2, width - width // 2
    enc = encode_config(sys_rec.coder, seed_cfg)
    block_rows, masks = dio.spacetime_rows(sys_rec.rule, enc, steps, lo, hi,
                                           shift=sys_rec.shift)
    # block cell z holds the source window [z, z+P): its first symbol is cell z
    rows = [tuple(sys_rec.coder.unpack(b)[0] for b in row) for row in block_rows]
    image, mask = dio.render_spacetime(rows, rule.alphabet, highlight=masks)
    em.write_bytes("spacetime.pbm", image)
    em.write_bytes("defects.pbm", mask)
    traj = track(sys_rec.rule, sys_rec.shift, enc, steps,
                 width_cap=cfg.get("width_cap", 64).int(least=0))
    em.write_text("trajectory.csv",
                  dio.trajectory_csv(traj, sys_rec.rule.alphabet))
    em.write_json("summary.json", dio.trajectory_summary(traj))
    return 0


def run_classify(cfg: dio.Field, seed: int, em: _Emitter) -> int:
    types = classify_junctions(dio.load_rule(cfg["rule"].file()), _shift(cfg),
                               max_core=cfg.get("max_core", 0).int(least=0),
                               T=cfg.get("steps", 64).int(least=1),
                               width_cap=cfg.get("width_cap", 16).int(least=0))
    report = {"types": [{
        "left_component": sorted(t.left_vertices),
        "right_component": sorted(t.right_vertices),
        "period": t.period,
        "velocity": t.velocity,
        "width": t.width,
        "defect_words": ["".join(map(str, w)) for w in t.defect_words],
        "orbit": [[s[0], list(s[1]), s[2]] for s in t.orbit],
    } for t in types],
        # always empty, since a type is a cycle; kept only because deleting
        # it moves the classify.json digests that the benchmark pins
        "transients": []}
    em.write_json("classify.json", report)
    return 0


def run_walk(cfg: dio.Field, seed: int, em: _Emitter) -> int:
    rule = dio.load_rule(cfg["rule"].file())
    L, R = _shift(cfg, "left_shift"), _shift(cfg, "right_shift")
    for key, shift in (("left_shift", L), ("right_shift", R)):
        if not isinstance(shift, MarkovShift):
            raise cfg[key].error("must be a Markov shift")
    W = cfg.get("W", 1).int(least=0, most=1)
    steps = cfg.get("steps", 1000).int(least=1)
    samples = cfg.get("samples", 50).int(least=1)
    if "delta" in cfg:
        field = cfg["delta"].file()
        delta = {dio.Field(k, v.path).word(rule.alphabet): v.number()
                 for k, v in field.items()}
        why = _delta_problem(W, delta)
        if why:
            raise field.error(why)
    elif W == 1:
        syms = range(rule.alphabet.size)
        delta = {(s,): 1.0 / rule.alphabet.size for s in syms}
    else:
        delta = {}
    with _rejects("rule", "left_shift", "right_shift"):
        kernel = build_walk_kernel(rule, L, R, W,
                                   delta_support=list(delta) or None)
        trajs, stats = sample_walks(rule, L, R, delta, steps, samples, seed,
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
    final = sorted(tr[-1] - tr[0] for tr in trajs)
    hist: dict[int, int] = {}
    for d in final:
        hist[d] = hist.get(d, 0) + 1
    em.write_text("displacement-hist.csv", "displacement,count\n" +
                  "\n".join(f"{k},{v}" for k, v in sorted(hist.items())) + "\n")
    return 0


def _compile_tm(cfg: dio.Field):
    """The config's machine spec, its compilation over the tape
    backgrounds, and the CA that runs it with the CA's embedding."""
    spec = cfg["tm"].file()
    tm = dio.load_tm(spec)
    L, R = _shift(cfg, "left_shift"), _shift(cfg, "right_shift")
    with _rejects("left_shift", "right_shift"):
        comp = classical_to_lr(tm, L, R)
        rule, emb = turing_to_ca(comp.machine)
    return spec.value, comp, rule, emb


def run_compile_tm(cfg: dio.Field, seed: int, em: _Emitter) -> int:
    tm_spec, comp, rule, _ = _compile_tm(cfg)
    em.write_json("ca.json", {
        "compiled_tm": tm_spec,
        "left_shift": dio.save_shift(comp.machine.left_shift),
        "right_shift": dio.save_shift(comp.machine.right_shift),
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


def run_run_tm(cfg: dio.Field, seed: int, em: _Emitter) -> int:
    _, comp, rule, emb = _compile_tm(cfg)
    tm = comp.tm
    tape0 = dio.load_tape(cfg.get("tape", {}), tm.tape_size)
    d0 = cfg.get("head", tm.head_domain[0]).choice(tm.head_domain)
    z0 = cfg.get("position", 0).int()
    macros = cfg.get("macro_steps", 50).int(least=1)
    window = cfg.get("window", 8).int(least=0)
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


def run_verify(cfg: dio.Field, seed: int, em: _Emitter) -> int:
    rule = dio.load_rule(cfg["rule"].file())
    background = _shift(cfg)
    # the resolving checks read the rule in the shift's block presentation
    shift, coder = _markov(background)
    rep = regularity(shift)
    out = {
        "entropy": entropy(shift),
        "components": len(transitive_components(shift)),
        "left_regular": rep.left_regular, "P_S": rep.P_S,
        "right_regular": rep.right_regular, "F_S": rep.F_S,
        "invariant": check_invariance(rule, background),
    }
    if rule.radius == 1:
        block_rule = rule if coder is None else recode_rule(rule, coder)
        out["left_resolving"] = is_left_resolving(block_rule, shift)
        out["right_resolving"] = is_right_resolving(block_rule, shift)
        res = verify_resolving_system(block_rule, shift, shift)
        out["resolving_system"] = res.passed
        out["resolving_witnesses"] = list(res.witnesses)
    if "right_shift" in cfg:
        out["regime"] = regime_of(shift, _markov(_shift(cfg, "right_shift"))[0])
    em.write_json("verify.json", out)
    return 0


# The top-level config keys each mode reads, besides "mode" and "seed".
KEYS = {
    "simulate": ("rule", "shift", "seed_config", "steps", "width", "width_cap"),
    "classify": ("rule", "shift", "max_core", "steps", "width_cap"),
    "walk": ("rule", "left_shift", "right_shift", "W", "steps", "samples", "delta"),
    "compile-tm": ("tm", "left_shift", "right_shift"),
    "run-tm": ("tm", "left_shift", "right_shift", "tape", "head", "position",
               "macro_steps", "window"),
    "verify": ("rule", "shift", "right_shift"),
}

MODES = {
    "simulate": run_simulate,
    "classify": run_classify,
    "walk": run_walk,
    "compile-tm": run_compile_tm,
    "run-tm": run_run_tm,
    "verify": run_verify,
}


def run(mode: str, cfg: dio.Field, out_dir: str,
        seed: Optional[int] = None) -> int:
    """Run one mode on a config and write its artifacts and manifest;
    ``seed`` overrides the config's."""
    cfg.get("mode", mode).choice([mode])
    unknown = sorted(set(cfg.obj()) - {"mode", "seed", *KEYS[mode]})
    if unknown:
        raise DefectcaError(
            f"{mode} reads no config field {', '.join(map(repr, unknown))}; it "
            f"reads {', '.join(map(repr, KEYS[mode]))}, 'mode' and 'seed'")
    if seed is None:
        seed = cfg.get("seed", 0).int()
    em = _Emitter(out_dir)
    code = MODES[mode](cfg, seed, em)
    em.manifest(mode, seed)
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
        if args.config is not None:
            cfg = dio.Field.read(args.config)
        else:
            # walk from flags: their paths are relative to the working directory
            if not (args.rule and args.left_shift and args.right_shift):
                raise DefectcaError(
                    "walk needs --config or --rule/--left-shift/--right-shift")
            flags = {"rule": args.rule, "left_shift": args.left_shift,
                     "right_shift": args.right_shift, "steps": args.steps,
                     "samples": args.samples, "delta": args.delta}
            cfg = dio.Field({k: v for k, v in flags.items() if v is not None},
                            base=os.getcwd())
        return run(args.command, cfg, args.out, args.seed)
    except Exception as exc:  # noqa: BLE001 - single reporting point
        # a DefectcaError is bad input (exit 2); anything else is a fault in
        # defectca (exit 3) and is reported with its traceback
        report = {"error": type(exc).__name__, "message": str(exc)}
        if not isinstance(exc, DefectcaError):
            report["traceback"] = traceback.format_exc()
        if args.json_errors:
            print(json.dumps(report))
        else:
            print(report.get("traceback", "") + f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DefectcaError) else 3


if __name__ == "__main__":
    sys.exit(main())
