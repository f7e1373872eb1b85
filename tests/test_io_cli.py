import json
import os
import subprocess
import sys

import pytest

from defectca import io as dio, zoo
from defectca.cli import main, run_experiment
from defectca.errors import DefectcaError
from defectca.lattice import periodic_config
from defectca.rules import from_wolfram_number
from defectca.shifts import SFT, binary_alphabet, build_markov_shift
from defectca.tracking import track

A2 = binary_alphabet()


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

    def test_word_strings(self):
        spec = {"alphabet": ["0", "1"], "radius": 3,
                "admissible": ["000", "111", "101", "010"]}
        sft = dio.load_shift(spec)
        assert (0, 1, 0) in sft.admissible

    def test_bad_spec_rejected(self):
        with pytest.raises(DefectcaError):
            dio.load_shift({"alphabet": ["0", "1"]})


class TestRuleIO:
    def test_wolfram(self):
        r = dio.load_rule({"wolfram": 184})
        assert r((1, 0, 1)) == 1

    def test_linear(self):
        r = dio.load_rule({"linear": {"n": 2, "coeffs": [1, 1, 1]}})
        assert r((1, 1, 1)) == 1

    def test_table_round_trip(self):
        r = from_wolfram_number(110)
        again = dio.load_rule(dio.save_rule(r))
        assert again.dense_table() == r.dense_table()

    def test_partial_table_rejected(self):
        spec = {"alphabet": ["0", "1"], "radius": 1, "table": {"000": "0"}}
        with pytest.raises(DefectcaError):
            dio.load_rule(spec)


class TestConfigAndTrajectoryIO:
    def test_config_round_trip(self):
        cfg = periodic_config(A2, (0, 1), (1, 1), (0,), origin=-1, left_phase=1)
        again = dio.load_config(dio.save_config(cfg), A2)
        assert again.window(-6, 6) == cfg.window(-6, 6)

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
            run_experiment("simulate", path, os.path.join(workdir, "z"))

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
        _write(rule_path, dio.save_rule(zoo.diffusive_rule()))
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
        assert run_experiment("classify", path, out) == 0
        assert _manifest_files(out) == CLASSIFY_DIGESTS
        report = dio.read_json(os.path.join(out, "classify.json"))
        assert len(report["types"]) == 7
        vels = sorted(t["velocity"]["num"] / t["velocity"]["den"]
                      for t in report["types"])
        assert vels == [-1, -1, -1, 0, 1, 1, 1]

    def test_walk_flags(self, workdir):
        rule_path = os.path.join(workdir, "rule.json")
        _write(rule_path, dio.save_rule(zoo.diffusive_rule()))
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
        _write(rule_path, dio.save_rule(zoo.diffusive_rule()))
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
        assert run_experiment("compile-tm", path, out) == 0
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
        assert run_experiment("run-tm", rpath, rout) == 0
        assert _manifest_files(rout) == RUN_TM_DIGESTS
        result = dio.read_json(os.path.join(rout, "run-tm.json"))
        assert result["bisimulation"] is True

    def test_verify(self, workdir):
        cfg = {"mode": "verify", "rule": dio.save_rule(zoo.diffusive_rule()),
               "shift": dio.save_shift(zoo.diffusive_background())}
        path = os.path.join(workdir, "ver.json")
        _write(path, cfg)
        out = os.path.join(workdir, "ver-out")
        assert run_experiment("verify", path, out) == 0
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
        assert run_experiment("verify", path, out) == 0
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
        assert run_experiment("verify", path, out) == 0
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
    files."""
    if mode == "simulate":
        cfg = {"mode": "simulate", "rule": {"wolfram": 184},
               "shift": ECA184_SFT,
               "seed_config": {"left": {"word": "01", "phase": 1},
                               "core": "", "right": {"word": "01"}},
               "steps": 10, "width": 20}
    elif mode == "run-tm":
        cfg = {"mode": "run-tm", "tm": TM_SPEC,
               "left_shift": FULL_SHIFT, "right_shift": FULL_SHIFT,
               "tape": {"0": 1}, "head": "start", "macro_steps": 2,
               "window": 2}
    else:
        _write(os.path.join(workdir, "rule.json"),
               dio.save_rule(zoo.diffusive_rule()))
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
                          dio.save_rule(from_wolfram_number(184)).items()
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
    ("per-sample-csv", "walk", _set(("per_sample_csv",), "yes"),
     "per_sample_csv"),
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


def test_exit_status(workdir):
    """``python -m defectca`` exits 0 on success and 2 on a config error."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)

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
