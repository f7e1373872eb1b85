import json
import os

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

    def test_compile_and_run_tm(self, workdir):
        tm_spec = {
            "states": ["start", "carry", "halt"], "tape_size": 2,
            "rules": [
                ["start", 0, 0, 0, "carry"], ["start", 1, 1, 0, "carry"],
                ["carry", 1, 0, -1, "carry"], ["carry", 0, 1, 0, "halt"],
                ["halt", 0, 0, 0, "halt"], ["halt", 1, 1, 0, "halt"],
            ],
        }
        full = {"alphabet": ["0", "1"], "edges": [[0, 0], [0, 1], [1, 0], [1, 1]]}
        cfg = {"mode": "compile-tm", "tm": tm_spec, "left_shift": full,
               "right_shift": full}
        path = os.path.join(workdir, "ctm.json")
        _write(path, cfg)
        out = os.path.join(workdir, "ctm-out")
        assert run_experiment("compile-tm", path, out) == 0
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
        result = dio.read_json(os.path.join(rout, "run-tm.json"))
        assert result["bisimulation"] is True

    def test_verify(self, workdir):
        cfg = {"mode": "verify", "rule": dio.save_rule(zoo.diffusive_rule()),
               "shift": dio.save_shift(zoo.diffusive_background())}
        path = os.path.join(workdir, "ver.json")
        _write(path, cfg)
        out = os.path.join(workdir, "ver-out")
        assert run_experiment("verify", path, out) == 0
        report = dio.read_json(os.path.join(out, "verify.json"))
        assert report["resolving_system"] is True
        assert report["entropy"] == 1.0

    def test_verify_sft_background(self, workdir):
        # the README's ECA#184 spec: the resolving checks must read the rule
        # in the SFT's block presentation
        cfg = {"mode": "verify", "rule": {"wolfram": 184},
               "shift": {"alphabet": ["0", "1"], "radius": 3,
                         "admissible": ["000", "111", "101", "010"]}}
        path = os.path.join(workdir, "ver-sft.json")
        _write(path, cfg)
        out = os.path.join(workdir, "ver-sft-out")
        assert run_experiment("verify", path, out) == 0
        report = dio.read_json(os.path.join(out, "verify.json"))
        assert report["invariant"] is True
        assert report["entropy"] == 0.0
        assert "resolving_system" in report

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
