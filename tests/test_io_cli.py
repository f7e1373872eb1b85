import json
import os
import random
import subprocess
import sys

import pytest

from defectca import io as dio, zoo
from defectca.cli import KEYS, MODES, main, run
from defectca.errors import DefectcaError
from defectca.lattice import periodic_config
from defectca.rules import LocalRule, from_wolfram_number, normalize
from defectca.shifts import (SFT, Alphabet, binary_alphabet, build_markov_shift,
                              build_sft)
from defectca.tracking import track
from oracles import dense_table, save_rule

A2 = binary_alphabet()
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


class TestShiftIO:
    def test_markov_round_trip(self):
        s = build_markov_shift(A2, [(0, 1), (1, 0)])
        again = dio.load_shift(dio.save_shift(s))
        assert again.edges == s.edges

    def test_sft_round_trip(self):
        sft = zoo.eca184_background()
        again = dio.load_shift(dio.save_shift(sft))
        assert isinstance(again, SFT)
        assert again.admissible == sft.admissible

    def test_sft_round_trip_with_long_labels(self):
        # words of multi-character labels are written comma-separated
        alpha = Alphabet(("ab", "c", "dd"))
        sft = build_sft(alpha, 2, [(0, 1), (1, 2), (2, 0), (0, 0)])
        saved = dio.save_shift(sft)
        assert saved["admissible"] == ["ab,ab", "ab,c", "c,dd", "dd,ab"]
        again = dio.load_shift(saved)
        assert again.alphabet == alpha and again.admissible == sft.admissible

    def test_word_strings(self):
        spec = {"alphabet": ["0", "1"], "radius": 3,
                "admissible": ["000", "111", "101", "010"]}
        sft = dio.load_shift(spec)
        assert (0, 1, 0) in sft.admissible

    def test_bad_spec_rejected(self):
        with pytest.raises(DefectcaError):
            dio.load_shift({"alphabet": ["0", "1"]})

    @pytest.mark.parametrize("admissible,edges", [
        (["0", "1"], {(0, 0), (0, 1), (1, 0), (1, 1)}),
        (["1"], {(1, 1)}),
    ])
    def test_radius_one_sft(self, admissible, edges):
        # a radius-1 SFT allows any sequence of its symbols: the full shift
        # on them, with the rule left as it is
        sft = dio.load_shift({"alphabet": ["0", "1"], "radius": 1,
                              "admissible": admissible})
        assert sft.q == 1
        rule = from_wolfram_number(184)
        sys_rec = normalize(rule, sft)
        assert sys_rec.shift.edges == edges
        assert sys_rec.coder.P == 1 and sys_rec.rule is rule

    def test_empty_radius_one_sft_rejected(self):
        with pytest.raises(DefectcaError, match="shift.admissible.*empty"):
            dio.load_shift({"alphabet": ["0", "1"], "radius": 1,
                            "admissible": []})


class TestRuleIO:
    def test_wolfram(self):
        r = dio.load_rule({"wolfram": 184})
        assert r((1, 0, 1)) == 1

    def test_linear(self):
        r = dio.load_rule({"linear": {"n": 2, "coeffs": [1, 1, 1]}})
        assert r((1, 1, 1)) == 1

    def test_table_round_trip(self):
        r = from_wolfram_number(110)
        again = dio.load_rule(save_rule(r))
        assert dense_table(again) == dense_table(r)

    def test_partial_table_rejected(self):
        spec = {"alphabet": ["0", "1"], "radius": 1, "table": {"000": "0"}}
        with pytest.raises(DefectcaError):
            dio.load_rule(spec)


class TestConfigAndTrajectoryIO:
    def test_config_round_trip(self):
        spec = {"left": {"word": "01", "phase": 1}, "core": "11",
                "right": {"word": "0"}, "origin": -1}
        cfg = periodic_config(A2, (0, 1), (1, 1), (0,), origin=-1, left_phase=1)
        assert dio.load_config(spec, A2).window(-6, 6) == cfg.window(-6, 6)

    def test_trajectory_csv(self):
        gstar = build_markov_shift(A2, [(0, 1), (1, 0)])
        cfg = periodic_config(A2, (0, 1), (), (0, 1), left_phase=1)
        traj = track(from_wolfram_number(184), gstar, cfg, 5)
        text = dio.trajectory_csv(traj, A2)
        lines = text.strip().split("\n")
        assert lines[0] == "t,z,L,R,defect_word"
        assert len(lines) == 7
        summary = dio.trajectory_summary(traj)
        assert summary["verdict"] == "particle"
        assert summary["mean_velocity"] == 1.0


    @pytest.mark.parametrize("wolfram,kind,t", [(0, "vanished", 1),
                                                (90, "split", 2)])
    def test_summary_of_a_lost_defect_names_its_step(self, wolfram, kind, t):
        zero = build_markov_shift(A2, [(0, 0)])
        traj = track(from_wolfram_number(wolfram), zero,
                     periodic_config(A2, (0,), (1,), (0,)), 10)
        summary = dio.trajectory_summary(traj)
        assert (summary["verdict"], summary["t"]) == (kind, t)
        assert summary["steps"] == t and "width" not in summary


class TestRender:
    def test_pbm_two_rows(self):
        img, _ = dio.render_spacetime([(0, 1, 0), (1, 1, 0)], A2)
        lines = img.decode().strip().split("\n")
        assert lines[0] == "P1" and lines[1] == "3 2"
        assert lines[2] == "0 1 0" and lines[3] == "1 1 0"

    def test_pgm_for_larger_alphabets(self):
        img, _ = dio.render_spacetime([(0, 1, 2)], zoo.WALL_ALPHABET)
        assert img.startswith(b"P2")

    def test_mask(self):
        _, mask = dio.render_spacetime([(0, 1)], A2, highlight=[(True, False)])
        assert b"1 0" in mask

    def test_ragged_rejected(self):
        with pytest.raises(DefectcaError):
            dio.render_spacetime([(0, 1), (0,)], A2)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


# Manifest digests pin the determinism promise across versions: the same
# config and seed must write byte-identical files.
SIMULATE_DIGESTS = {
    "defects.pbm": "8b9660749d102e59456b842019bc61928e514b6dbe57599315daf533d539483d",
    "spacetime.pbm": "fd26d41f7e26c1af71ecde9a605b7f7a47a30db1b8140aa788db78991ef8d13b",
    "summary.json": "ab1dda0e0b741529cfae69114a4909bac2be1989698383ff817423e41e012472",
    "trajectory.csv": "e1e444b606894d99f2d47009a8ed7b7bfc1cdf6e0124901121ea3eff08bcd9e3",
}
WALK_DIGESTS = {
    "displacement-hist.csv": "46f0fc42cf5b5df651da71689ee2f73c891293691446f3a0baadaf65df4f9100",
    "walk-stats.json": "a84befef28580b775f2ffa099ff08dda67f9de5c2be676e5926c480ab74f93a6",
}
CLASSIFY_DIGESTS = {
    "classify.json": "5ab3c832c3c51ac34933103a80db1c0dae67073e22f57e9e09b34c7fa252b87d",
}
COMPILE_TM_DIGESTS = {
    "ca.json": "75d4e47d15895b35232ab4fa0045378aa00d1689e3be748084677699fb71f8cc",
}
RUN_TM_DIGESTS = {
    "run-tm.json": "a6b626d857bebab3f325c2caf1c7c99a89ecb569f0f7caa4e092b62db5128d21",
}
VERIFY_DIGESTS = {
    "verify.json": "934c81a2325ea346f4c4207c1a9eeacef8fc3ec0643eff21e221d6c7ddb8494a",
}
VERIFY_SFT_DIGESTS = {
    "verify.json": "387a192d2f1b69845f47bb79cdb87e1dcaa97099ef125cd8bdcba59ace36b588",
}


def _manifest_files(out):
    return dio.read_json(os.path.join(out, "manifest.json"))["files"]


TM_SPEC = {
    "states": ["start", "carry", "halt"], "tape_size": 2,
    "rules": [
        ["start", 0, 0, 0, "carry"], ["start", 1, 1, 0, "carry"],
        ["carry", 1, 0, -1, "carry"], ["carry", 0, 1, 0, "halt"],
        ["halt", 0, 0, 0, "halt"], ["halt", 1, 1, 0, "halt"],
    ],
}
FULL_SHIFT = {"alphabet": ["0", "1"], "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]}
ECA184_SFT = {"alphabet": ["0", "1"], "radius": 3,
              "admissible": ["000", "111", "101", "010"]}
# Shifts off the alphabet of every rule in the valid configs: one with a
# symbol that no rule table has an entry for, and one with other labels.
THIRD_SYMBOL_SHIFT = {"alphabet": ["0", "1", "2"],
                      "edges": [[2, 2], [0, 1], [1, 0]]}
OTHER_LABELS_SHIFT = {"alphabet": ["a", "b"], "edges": [[0, 1], [1, 0]]}


class TestCLI:
    def test_simulate_and_determinism(self, workdir):
        cfg = {
            "mode": "simulate",
            "rule": {"wolfram": 184},
            "shift": dio.save_shift(zoo.eca184_background()),
            "seed_config": {"left": {"word": "01", "phase": 1},
                            "core": "", "right": {"word": "01"}},
            "steps": 40, "width": 80,
        }
        path = os.path.join(workdir, "sim.json")
        _write(path, cfg)
        out1 = os.path.join(workdir, "run1")
        out2 = os.path.join(workdir, "run2")
        assert main(["simulate", "--config", path, "--out", out1]) == 0
        assert main(["simulate", "--config", path, "--out", out2]) == 0
        m1 = dio.read_json(os.path.join(out1, "manifest.json"))
        m2 = dio.read_json(os.path.join(out2, "manifest.json"))
        assert m1["files"] == m2["files"]
        assert m1["files"] == SIMULATE_DIGESTS
        assert "spacetime.pbm" in m1["files"]
        with open(os.path.join(out1, "spacetime.pbm"), "rb") as fh:
            assert fh.read().startswith(b"P1")

    @pytest.mark.parametrize("field,value", [("steps", 0), ("steps", -5),
                                             ("width", 0)])
    def test_simulate_rejects_nonpositive_sizes(self, workdir, field, value):
        cfg = {"mode": "simulate", "rule": {"wolfram": 184},
               "shift": dio.save_shift(zoo.eca184_background()),
               "seed_config": {"left": {"word": "01", "phase": 1},
                               "core": "", "right": {"word": "01"}},
               "steps": 40, "width": 80, field: value}
        path = os.path.join(workdir, "sim-bad.json")
        _write(path, cfg)
        with pytest.raises(DefectcaError, match=f"'{field}'"):
            run("simulate", dio.Field.read(path), os.path.join(workdir, "z"))

    @pytest.mark.parametrize("field,value", [("steps", "abc"), ("steps", 2.7),
                                             ("width_cap", True),
                                             ("shift", {"edges": [[0, 0]]})])
    def test_simulate_names_malformed_field(self, workdir, capsys, field, value):
        cfg = {"mode": "simulate", "rule": {"wolfram": 184},
               "shift": dio.save_shift(zoo.eca184_background()),
               "seed_config": {"left": {"word": "01", "phase": 1},
                               "core": "", "right": {"word": "01"}},
               "steps": 40, "width": 80, field: value}
        path = os.path.join(workdir, "sim-bad.json")
        _write(path, cfg)
        code = main(["--json-errors", "simulate", "--config", path,
                     "--out", os.path.join(workdir, "z")])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DefectcaError"
        assert f"'{field}'" in payload["message"]

    @pytest.mark.parametrize("via", ["config", "flags"])
    @pytest.mark.parametrize("field,value", [("steps", 0), ("steps", -3),
                                             ("samples", 0)])
    def test_walk_rejects_nonpositive_sizes(self, workdir, capsys, via,
                                            field, value):
        rule_path = os.path.join(workdir, "rule.json")
        _write(rule_path, save_rule(zoo.diffusive_rule()))
        shift_path = os.path.join(workdir, "sea.json")
        _write(shift_path, dio.save_shift(zoo.diffusive_background()))
        sizes = {"steps": 40, "samples": 3, field: value}
        if via == "config":
            path = os.path.join(workdir, "walk-bad.json")
            _write(path, {"mode": "walk", "rule": "rule.json",
                          "left_shift": "sea.json", "right_shift": "sea.json",
                          "delta": {"0*": 0.5, "1*": 0.5}, **sizes})
            args = ["--config", path]
        else:
            args = ["--rule", rule_path, "--left-shift", shift_path,
                    "--right-shift", shift_path,
                    "--steps", str(sizes["steps"]),
                    "--samples", str(sizes["samples"])]
        code = main(["--json-errors", "walk", *args,
                     "--out", os.path.join(workdir, "w")])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DefectcaError"
        assert f"'{field}'" in payload["message"]

    def test_classify_184(self, workdir):
        cfg = {"mode": "classify", "rule": {"wolfram": 184},
               "shift": dio.save_shift(zoo.eca184_background()),
               "max_core": 0, "steps": 48}
        path = os.path.join(workdir, "cls.json")
        _write(path, cfg)
        out = os.path.join(workdir, "out")
        assert run("classify", dio.Field.read(path), out) == 0
        assert _manifest_files(out) == CLASSIFY_DIGESTS
        report = dio.read_json(os.path.join(out, "classify.json"))
        assert len(report["types"]) == 7
        vels = sorted(t["velocity"]["num"] / t["velocity"]["den"]
                      for t in report["types"])
        assert vels == [-1, -1, -1, 0, 1, 1, 1]

    def test_walk_flags(self, workdir):
        rule_path = os.path.join(workdir, "rule.json")
        _write(rule_path, save_rule(zoo.diffusive_rule()))
        shift_path = os.path.join(workdir, "sea.json")
        _write(shift_path, dio.save_shift(zoo.diffusive_background()))
        delta_path = os.path.join(workdir, "delta.json")
        _write(delta_path, {"0*": 0.5, "1*": 0.5})
        out = os.path.join(workdir, "walk")
        code = main(["walk", "--rule", rule_path, "--left-shift", shift_path,
                     "--right-shift", shift_path, "--steps", "300",
                     "--samples", "5", "--seed", "9", "--delta", delta_path,
                     "--out", out])
        assert code == 0
        stats = dio.read_json(os.path.join(out, "walk-stats.json"))
        assert stats["samples"] == 5
        assert stats["theoretical_drifts"] == [{"num": 0, "den": 1}]
        assert os.path.exists(os.path.join(out, "displacement-hist.csv"))
        manifest = dio.read_json(os.path.join(out, "manifest.json"))
        assert manifest["files"] == WALK_DIGESTS

    @pytest.mark.parametrize("W", [-1, 2])
    def test_walk_rejects_unsupported_width(self, workdir, capsys, W):
        rule_path = os.path.join(workdir, "rule.json")
        _write(rule_path, save_rule(zoo.diffusive_rule()))
        shift_path = os.path.join(workdir, "sea.json")
        _write(shift_path, dio.save_shift(zoo.diffusive_background()))
        path = os.path.join(workdir, "walk-width.json")
        _write(path, {"mode": "walk", "rule": "rule.json",
                      "left_shift": "sea.json", "right_shift": "sea.json",
                      "W": W, "steps": 40, "samples": 3})
        code = main(["--json-errors", "walk", "--config", path,
                     "--out", os.path.join(workdir, "w")])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DefectcaError"
        assert "'W'" in payload["message"]

    def test_compile_and_run_tm(self, workdir):
        tm_spec, full = TM_SPEC, FULL_SHIFT
        cfg = {"mode": "compile-tm", "tm": tm_spec, "left_shift": full,
               "right_shift": full}
        path = os.path.join(workdir, "ctm.json")
        _write(path, cfg)
        out = os.path.join(workdir, "ctm-out")
        assert run("compile-tm", dio.Field.read(path), out) == 0
        assert _manifest_files(out) == COMPILE_TM_DIGESTS
        ca = dio.read_json(os.path.join(out, "ca.json"))
        assert ca["cells_per_symbol"] == 2
        assert ca["left_blocks"] == ["00", "01"]

        run_cfg = {"mode": "run-tm", "tm": tm_spec, "left_shift": full,
                   "right_shift": full,
                   "tape": {"-3": 0, "-2": 0, "-1": 1, "0": 1},
                   "head": "start", "position": 0,
                   "macro_steps": 8, "window": 4}
        rpath = os.path.join(workdir, "rtm.json")
        _write(rpath, run_cfg)
        rout = os.path.join(workdir, "rtm-out")
        assert run("run-tm", dio.Field.read(rpath), rout) == 0
        assert _manifest_files(rout) == RUN_TM_DIGESTS
        result = dio.read_json(os.path.join(rout, "run-tm.json"))
        assert result["bisimulation"] is True

    def test_compile_tm_rejects_tape_label_of_a_head(self, workdir, capsys):
        shift = dict(FULL_SHIFT, alphabet=["[0]", "b"])
        path = os.path.join(workdir, "clash.json")
        _write(path, {"mode": "compile-tm", "tm": TM_SPEC,
                      "left_shift": shift, "right_shift": shift})
        code = main(["--json-errors", "compile-tm", "--config", path,
                     "--out", os.path.join(workdir, "clash-out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "DefectcaError"
        assert "'[0]'" in payload["message"]

    def test_verify(self, workdir):
        cfg = {"mode": "verify", "rule": save_rule(zoo.diffusive_rule()),
               "shift": dio.save_shift(zoo.diffusive_background())}
        path = os.path.join(workdir, "ver.json")
        _write(path, cfg)
        out = os.path.join(workdir, "ver-out")
        assert run("verify", dio.Field.read(path), out) == 0
        assert _manifest_files(out) == VERIFY_DIGESTS
        report = dio.read_json(os.path.join(out, "verify.json"))
        assert report["resolving_system"] is True
        assert report["entropy"] == 1.0

    def test_verify_sft_background(self, workdir):
        # the README's ECA#184 spec: the resolving checks must read the rule
        # in the SFT's block presentation
        cfg = {"mode": "verify", "rule": {"wolfram": 184},
               "shift": ECA184_SFT}
        path = os.path.join(workdir, "ver-sft.json")
        _write(path, cfg)
        out = os.path.join(workdir, "ver-sft-out")
        assert run("verify", dio.Field.read(path), out) == 0
        assert _manifest_files(out) == VERIFY_SFT_DIGESTS
        report = dio.read_json(os.path.join(out, "verify.json"))
        assert report["invariant"] is True
        assert report["entropy"] == 0.0
        assert "resolving_system" in report

    def test_verify_sft_right_shift(self, workdir):
        # the regime reads both sides in their Markov presentations
        cfg = {"mode": "verify", "rule": {"wolfram": 184},
               "shift": ECA184_SFT, "right_shift": ECA184_SFT}
        path = os.path.join(workdir, "ver-sft2.json")
        _write(path, cfg)
        out = os.path.join(workdir, "ver-sft2-out")
        assert run("verify", dio.Field.read(path), out) == 0
        report = dio.read_json(os.path.join(out, "verify.json"))
        assert report["regime"] == "ballistic"

    def test_json_errors(self, workdir, capsys):
        path = os.path.join(workdir, "bad.json")
        _write(path, {"mode": "simulate"})
        code = main(["--json-errors", "simulate", "--config", path,
                     "--out", os.path.join(workdir, "x")])
        assert code == 2
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert "error" in payload and "message" in payload

    def test_wrong_mode_rejected(self, workdir):
        path = os.path.join(workdir, "m.json")
        _write(path, {"mode": "walk"})
        code = main(["simulate", "--config", path,
                     "--out", os.path.join(workdir, "y")])
        assert code == 2


def _valid_config(mode, workdir):
    """A fresh config that runs, for ``mode``; walk reads its inputs from
    files, and every key a mode reads is set except its defaults."""
    if mode == "simulate":
        cfg = {"mode": "simulate", "rule": {"wolfram": 184},
               "shift": ECA184_SFT,
               "seed_config": {"left": {"word": "01", "phase": 1},
                               "core": "", "right": {"word": "01"}},
               "steps": 10, "width": 20}
    elif mode == "classify":
        cfg = {"mode": "classify", "rule": {"wolfram": 184},
               "shift": ECA184_SFT, "max_core": 0, "steps": 8}
    elif mode == "run-tm":
        cfg = {"mode": "run-tm", "tm": TM_SPEC,
               "left_shift": FULL_SHIFT, "right_shift": FULL_SHIFT,
               "tape": {"0": 1}, "head": "start", "macro_steps": 2,
               "window": 2}
    elif mode == "compile-tm":
        cfg = {"mode": "compile-tm", "tm": TM_SPEC,
               "left_shift": FULL_SHIFT, "right_shift": FULL_SHIFT}
    elif mode == "verify":
        cfg = {"mode": "verify", "rule": {"wolfram": 184},
               "shift": ECA184_SFT, "right_shift": FULL_SHIFT}
    else:
        _write(os.path.join(workdir, "rule.json"),
               save_rule(zoo.diffusive_rule()))
        _write(os.path.join(workdir, "sea.json"),
               dio.save_shift(zoo.diffusive_background()))
        cfg = {"mode": "walk", "rule": "rule.json", "left_shift": "sea.json",
               "right_shift": "sea.json", "delta": {"0*": 0.5, "1*": 0.5},
               "steps": 20, "samples": 2}
    return json.loads(json.dumps(cfg))


def _set(path, value=None):
    """Set the nested field at ``path`` (a tuple of keys and indices), or
    delete it when ``value`` is None."""
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return cfg
    return edit


ECA184_TABLE_NO_RADIUS = {k: v for k, v in
                          save_rule(from_wolfram_number(184)).items()
                          if k != "radius"}

MALFORMED = [
    # (id, mode, edit of a valid config, the quoted path its error names)
    ("rule-table-no-radius", "simulate",
     _set(("rule",), ECA184_TABLE_NO_RADIUS), "rule"),
    ("rule-wolfram-300", "simulate", _set(("rule",), {"wolfram": 300}),
     "rule.wolfram"),
    ("rule-linear-no-coeffs", "simulate",
     _set(("rule",), {"linear": {"n": 2}}), "rule.linear"),
    ("rule-linear-two-coeffs", "simulate",
     _set(("rule",), {"linear": {"n": 2, "coeffs": [1, 1]}}),
     "rule.linear.coeffs"),
    ("shift-edge-outside", "simulate",
     _set(("shift",), {"alphabet": ["0", "1"], "edges": [[0, 5]]}),
     "shift.edges"),
    ("shift-duplicate-labels", "simulate",
     _set(("shift",), {"alphabet": ["0", "0"], "edges": [[0, 0]]}),
     "shift.alphabet"),
    ("shift-bad-admissible", "simulate",
     _set(("shift", "admissible"), ["002"]), "shift.admissible[0]"),
    ("simulate-shift-third-symbol", "simulate",
     _set(("shift",), THIRD_SYMBOL_SHIFT), "shift.alphabet"),
    ("classify-shift-third-symbol", "classify",
     _set(("shift",), THIRD_SYMBOL_SHIFT), "shift.alphabet"),
    ("walk-left-shift-third-symbol", "walk",
     _set(("left_shift",), THIRD_SYMBOL_SHIFT), "left_shift.alphabet"),
    ("verify-shift-third-symbol", "verify",
     _set(("shift",), THIRD_SYMBOL_SHIFT), "shift.alphabet"),
    ("simulate-shift-other-labels", "simulate",
     _set(("shift",), OTHER_LABELS_SHIFT), "shift.alphabet"),
    ("classify-shift-other-labels", "classify",
     _set(("shift",), OTHER_LABELS_SHIFT), "shift.alphabet"),
    ("walk-left-shift-other-labels", "walk",
     _set(("left_shift",), OTHER_LABELS_SHIFT), "left_shift.alphabet"),
    ("verify-shift-other-labels", "verify",
     _set(("shift",), OTHER_LABELS_SHIFT), "shift.alphabet"),
    ("seed-no-right", "simulate", _set(("seed_config", "right")),
     "seed_config"),
    ("seed-left-text", "simulate", _set(("seed_config", "left", "word"), "02"),
     "seed_config.left.word"),
    ("seed-left-list", "simulate",
     _set(("seed_config", "left", "word"), [0, 7]), "seed_config.left.word"),
    ("seed-core-text", "simulate", _set(("seed_config", "core"), "2"),
     "seed_config.core"),
    ("seed-core-list", "simulate", _set(("seed_config", "core"), [0, 5]),
     "seed_config.core"),
    ("seed-right-empty", "simulate",
     _set(("seed_config", "right", "word"), ""), "seed_config.right.word"),
    ("seed-origin", "simulate", _set(("seed_config", "origin"), "x"),
     "seed_config.origin"),
    ("tape-key", "run-tm", _set(("tape",), {"a": 1}), "tape.a"),
    ("tape-symbol", "run-tm", _set(("tape",), {"0": 7}), "tape.0"),
    ("tape-list", "run-tm", _set(("tape",), [1]), "tape"),
    ("head", "run-tm", _set(("head",), "nope"), "head"),
    ("tm-no-tape-size", "run-tm", _set(("tm", "tape_size")), "tm"),
    ("tm-short-rule", "run-tm", _set(("tm", "rules", 0), ["start", 0, 0, 0]),
     "tm.rules[0]"),
    ("delta-label", "walk", _set(("delta",), {"2*": 0.5}), "delta.2*"),
    ("delta-list", "walk", _set(("delta",), [1]), "delta"),
    ("delta-mass", "walk", _set(("delta",), {"0*": "x"}), "delta.0*"),
    ("delta-word-length", "walk", _set(("delta",), {"0*,1": 1.0}), "delta"),
    ("delta-mass-sum", "walk", _set(("delta",), {"0*": 0.3, "1*": 0.3}),
     "delta"),
    ("delta-mass-negative", "walk",
     _set(("delta",), {"0*": -0.5, "1*": 1.5}), "delta"),
    ("run-tm-macro-steps", "run-tm", _set(("macro_steps",), -1),
     "macro_steps"),
    ("run-tm-window", "run-tm", _set(("window",), -1), "window"),
    ("simulate-width-cap", "simulate", _set(("width_cap",), -3), "width_cap"),
    ("classify-max-core", "classify", _set(("max_core",), -1), "max_core"),
    ("classify-steps", "classify", _set(("steps",), 0), "steps"),
    ("classify-width-cap", "classify", _set(("width_cap",), -1), "width_cap"),
]


@pytest.mark.parametrize("mode,edit,path", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_config_names_field(workdir, capsys, mode, edit, path):
    cfg_path = os.path.join(workdir, "bad.json")
    _write(cfg_path, edit(_valid_config(mode, workdir)))
    code = main(["--json-errors", mode, "--config", cfg_path,
                 "--out", os.path.join(workdir, "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DefectcaError"
    assert f"config field '{path}'" in payload["message"]


def test_config_must_be_an_object(workdir, capsys):
    cfg_path = os.path.join(workdir, "list.json")
    _write(cfg_path, [{"mode": "verify"}])
    code = main(["--json-errors", "verify", "--config", cfg_path,
                 "--out", os.path.join(workdir, "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DefectcaError"
    assert repr(cfg_path) in payload["message"]


@pytest.mark.parametrize("mode", ["simulate", "classify", "walk"])
def test_unsupported_radius_is_bad_input(workdir, capsys, mode):
    """A radius-2 rule, which the rule spec allows, is rejected with an
    error that names the radius."""
    cfg = _valid_config(mode, workdir)
    alphabet = (zoo.diffusive_rule() if mode == "walk" else
                from_wolfram_number(184)).alphabet
    cfg["rule"] = save_rule(LocalRule(alphabet, 2, lambda w: w[2]))
    cfg_path = os.path.join(workdir, "radius2.json")
    _write(cfg_path, cfg)
    code = main(["--json-errors", mode, "--config", cfg_path,
                 "--out", os.path.join(workdir, "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DefectcaError"
    assert "radius 2" in payload["message"]


def _strict_json(text):
    """Parse JSON as RFC 8259 defines it: NaN and Infinity are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_walk_without_compared_rows_writes_strict_json(workdir):
    """A one-step walk compares no kernel rows: its largest TV distance is
    null, not NaN.  The wall walker's kernel is small enough to be quick."""
    _write(os.path.join(workdir, "wall.json"), save_rule(zoo.wall_rule()))
    for name, shift in (("left", zoo.wall_left_shift()),
                        ("right", zoo.wall_right_shift())):
        _write(os.path.join(workdir, f"{name}.json"), dio.save_shift(shift))
    cfg_path = os.path.join(workdir, "steps1.json")
    _write(cfg_path, {"mode": "walk", "rule": "wall.json", "W": 0,
                      "left_shift": "left.json", "right_shift": "right.json",
                      "steps": 1, "samples": 3})
    out = os.path.join(workdir, "out")
    assert main(["walk", "--config", cfg_path, "--out", out]) == 0
    with open(os.path.join(out, "walk-stats.json")) as fh:
        stats = _strict_json(fh.read())
    assert stats["markov_rows_checked"] == 0
    assert stats["markov_max_tv"] is None
    assert stats["markov_passed"] is False


def _fading_rule():
    # the marked walker, except that a mark landing between two unmarked 1s
    # fades: within 50 steps every sampled defect vanishes
    def fn(w):
        out = zoo._diffusive_fn(w)
        return out - 2 if out >= 2 and w[0] == 1 and w[2] == 1 else out
    return LocalRule(zoo.DIFFUSIVE_ALPHABET, 1, fn, name="fading-walker")


def test_walk_without_delta_draws_the_middle_cell_uniformly(workdir):
    """At W=1 a walk without ``delta`` weighs every symbol alike."""
    outs = []
    for name, delta in (("default", None),
                        ("uniform", dict.fromkeys(zoo.DIFFUSIVE_ALPHABET.labels,
                                                  0.25))):
        cfg = _set(("delta",), delta)(_valid_config("walk", workdir))
        cfg_path = os.path.join(workdir, f"{name}.json")
        _write(cfg_path, cfg)
        out = os.path.join(workdir, name)
        assert main(["walk", "--config", cfg_path, "--out", out]) == 0
        outs.append(dio.read_json(os.path.join(out, "manifest.json"))["files"])
    assert outs[0] == outs[1]


def test_walk_without_kept_samples_is_bad_input(workdir, capsys):
    """A walk whose every sample vanishes has no drift to report."""
    cfg = _valid_config("walk", workdir)
    cfg.update(rule=save_rule(_fading_rule()), steps=50, samples=1)
    cfg_path = os.path.join(workdir, "samples1.json")
    _write(cfg_path, cfg)
    code = main(["--json-errors", "walk", "--config", cfg_path,
                 "--out", os.path.join(workdir, "out")])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DefectcaError"
    assert "1 of 1 samples vanished" in payload["message"]


ZERO_SHIFT = {"alphabet": ["0", "1"], "edges": [[0, 0]]}
GSTAR_SHIFT = {"alphabet": ["0", "1"], "edges": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("mode,edit,fields,why", [
    ("walk", lambda cfg: {"mode": "walk", "rule": {"wolfram": 184},
                          "left_shift": FULL_SHIFT, "right_shift": FULL_SHIFT},
     ("rule", "left_shift", "right_shift"), "not a resolving system"),
    ("walk", lambda cfg: dict(cfg, rule=save_rule(_fading_rule()), steps=50),
     ("rule", "left_shift", "right_shift"), "samples vanished or split"),
    ("compile-tm", _set(("left_shift",), ZERO_SHIFT),
     ("left_shift", "right_shift"), "positive entropy"),
    ("run-tm", _set(("right_shift",), ZERO_SHIFT),
     ("left_shift", "right_shift"), "positive entropy"),
    ("classify", lambda cfg: dict(cfg, rule={"wolfram": 2}, shift=GSTAR_SHIFT,
                                  max_core=1),
     ("rule", "shift"), "does not preserve the shift"),
], ids=["walk-not-resolving", "walk-vanishing", "compile-tm-zero-entropy",
        "run-tm-zero-entropy", "classify-not-invariant"])
def test_rejected_system_names_its_fields(workdir, capsys, mode, edit, fields, why):
    """A rule and backgrounds that the library rejects together fail with an
    error naming the config fields that hold them."""
    cfg_path = os.path.join(workdir, "system.json")
    _write(cfg_path, edit(_valid_config(mode, workdir)))
    code = main(["--json-errors", mode, "--config", cfg_path,
                 "--out", os.path.join(workdir, "out")])
    assert code == 2
    message = json.loads(capsys.readouterr().out)["message"]
    assert why in message
    assert all(f"'{field}'" in message for field in fields)


def test_exit_status(workdir, capsys, monkeypatch):
    """``python -m defectca`` exits 0 on success, 2 on a config error and 3
    on a fault inside defectca."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def cli(config):
        proc = subprocess.run(
            [sys.executable, "-m", "defectca", "--json-errors", "verify",
             "--config", config, "--out", os.path.join(workdir, "out")],
            env=env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    good = os.path.join(workdir, "ver.json")
    _write(good, {"mode": "verify", "rule": {"wolfram": 184},
                  "shift": FULL_SHIFT})
    assert cli(good)[0] == 0
    broken = os.path.join(workdir, "broken.json")
    with open(broken, "w") as fh:
        fh.write('{"mode": "verify",')
    for config in (os.path.join(workdir, "missing.json"), broken):
        code, out = cli(config)
        assert code == 2
        assert json.loads(out)["error"] == "DefectcaError"
    # an --out below a regular file is the caller's error too
    blocker = os.path.join(workdir, "blocker")
    open(blocker, "w").close()
    code = main(["--json-errors", "verify", "--config", good,
                 "--out", os.path.join(blocker, "sub")])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DefectcaError"
    assert "--out" in payload["message"]

    def fault(cfg, seed, em):
        raise ZeroDivisionError("planted fault")
    monkeypatch.setitem(MODES, "verify", fault)
    code = main(["--json-errors", "verify", "--config", good,
                 "--out", os.path.join(workdir, "out")])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "ZeroDivisionError"
    assert "planted fault" in payload["traceback"]


def test_unknown_key_is_bad_input(workdir, capsys):
    """A key that the mode does not read, such as a misspelled option,
    fails before the mode runs instead of leaving the option at its
    default."""
    cfg = _valid_config("walk", workdir)
    cfg["stpes"] = 5
    cfg_path = os.path.join(workdir, "typo.json")
    _write(cfg_path, cfg)
    out = os.path.join(workdir, "out")
    code = main(["--json-errors", "walk", "--config", cfg_path, "--out", out])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "DefectcaError"
    assert "'stpes'" in payload["message"]
    assert not os.path.exists(out)


# The modes that load numpy: walk samples from numpy's random stream and
# averages with its moments, and verify, on a background of positive
# entropy, reads Perron eigendata.  The others, like importing the package,
# leave it unloaded.
NUMPY_MODES = {"walk", "verify"}


def _numpy_loaded(*args):
    """Whether a fresh interpreter has numpy loaded after importing
    ``defectca`` and ``defectca.cli`` and, given ``args``, running
    ``cli.main`` on them, which must exit 0."""
    probe = ("import sys, defectca, defectca.cli\n"
             "if sys.argv[1:]:\n"
             "    assert defectca.cli.main(sys.argv[1:]) == 0\n"
             "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_import_leaves_numpy_unloaded():
    assert not _numpy_loaded()


@pytest.mark.parametrize("mode", sorted(MODES))
def test_only_walk_and_verify_load_numpy(workdir, mode):
    cfg = _valid_config(mode, workdir)
    if mode == "verify":  # over the sea, which has entropy 1
        cfg = {"mode": "verify", "rule": save_rule(zoo.diffusive_rule()),
               "shift": dio.save_shift(zoo.diffusive_background())}
    cfg_path = os.path.join(workdir, "cfg.json")
    _write(cfg_path, cfg)
    assert _numpy_loaded(mode, "--config", cfg_path, "--out",
                         os.path.join(workdir, "out")) == (mode in NUMPY_MODES)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_keys_list_what_each_mode_reads(workdir, mode, monkeypatch):
    """``KEYS`` names exactly the top-level keys a mode looks up."""
    read = set()
    contains = dio.Field.__contains__

    def recording(field, key):
        if not field.path:
            read.add(key)
        return contains(field, key)
    monkeypatch.setattr(dio.Field, "__contains__", recording)
    cfg_path = os.path.join(workdir, "cfg.json")
    _write(cfg_path, _valid_config(mode, workdir))
    assert main([mode, "--config", cfg_path, "--out",
                 os.path.join(workdir, "out")]) == 0
    assert read == {"mode", "seed", *KEYS[mode]}


# Values a fuzzed field takes: each JSON type, numbers out of range and
# strings that name no file, a file of the wrong kind or no label.
FUZZ_VALUES = [None, True, -1, 0, 1, 2, 7, 0.5, "", "x", "0*", "nope.json",
               "sea.json", [], [0], [[0, 1]], {}, {"wolfram": 300}, {"0": 1}]
# The largest sizes a fuzzed config keeps, so that each run stays short.
FUZZ_CAPS = {"steps": 20, "samples": 3, "macro_steps": 3, "max_core": 1}


def _json_paths(node, prefix=()):
    """The key and index path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _mutate(cfg, rng):
    """Replace, delete or add one field of ``cfg``, in place."""
    path = rng.choice(list(_json_paths(cfg)))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    kind = rng.random()
    if kind < 0.15 and isinstance(parent, dict):
        del parent[path[-1]]
    elif kind < 0.25:
        cfg[rng.choice(["stpes", "seed_config", "delta", "right_shift",
                        "window", "W"])] = rng.choice(FUZZ_VALUES)
    else:
        parent[path[-1]] = rng.choice(FUZZ_VALUES)
    for key, cap in FUZZ_CAPS.items():
        value = cfg.get(key)
        if isinstance(value, int) and not isinstance(value, bool) and value > cap:
            cfg[key] = cap


@pytest.mark.parametrize("mode", sorted(MODES))
def test_fuzzed_configs_fail_as_bad_input(workdir, capsys, mode):
    """Mutated configs run (exit 0 or 1) or fail as bad input (exit 2) with
    a message naming a config field, a file or a flag; none is a fault
    inside defectca (exit 3)."""
    rng = random.Random(f"fuzz-{mode}")
    cfg_path = os.path.join(workdir, "fuzzed.json")
    out = os.path.join(workdir, "out")
    for _ in range(40):
        cfg = _valid_config(mode, workdir)
        keys = set(cfg)
        for _ in range(rng.randint(1, 2)):
            _mutate(cfg, rng)
        _write(cfg_path, cfg)
        code = main(["--json-errors", mode, "--config", cfg_path, "--out", out])
        report = json.loads(capsys.readouterr().out or "{}")
        assert code in (0, 1, 2), (cfg, report)
        if code == 2:
            msg = report["message"]
            assert any(f"'{key}" in msg for key in keys | set(cfg)) or \
                cfg_path in msg or "--" in msg, (cfg, msg)
