import random
from collections import Counter

import pytest

from defectca import zoo
from defectca.errors import DefectcaError, MultipleDefectsError
from defectca.lattice import (
    Configuration,
    PeriodicBackground,
    encode_config,
    periodic_config,
)
from defectca.rules import from_wolfram_number, normalize
from defectca.shifts import binary_alphabet, build_markov_shift, build_sft
from defectca.tracking import (
    DefectRecord,
    DefectTrajectory,
    Verdict,
    check_velocity_bounds,
    locate_defect,
    next_frame,
    track,
)

A2 = binary_alphabet()
G3 = [(0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0)]


def gstar():
    return build_markov_shift(A2, [(0, 1), (1, 0)])


def g01():
    return build_markov_shift(A2, [(0, 0), (1, 1)])


def gamma_plus():
    # ...0101 00 1010... : one (0,0) transition at j = -1
    return periodic_config(A2, (0, 1), (), (0, 1), origin=0,
                           left_phase=1, right_phase=0)


class TestLocate:
    def test_gamma_plus_width0(self):
        cfg = gamma_plus()
        assert cfg.cell(-1) == 0 and cfg.cell(0) == 0
        d = locate_defect(cfg, gstar())
        assert (d.i, d.k, d.w) == (-1, -1, 0)

    def test_fully_admissible(self):
        cfg = periodic_config(A2, (0, 1), (0, 1, 0), (1, 0), origin=0, right_phase=1)
        assert locate_defect(cfg, gstar()) is None

    def test_beta_junction(self):
        cfg = periodic_config(A2, (0,), (), (1,))
        d = locate_defect(cfg, g01())
        assert d.w == 0

    def test_multiple_defects(self):
        cfg = periodic_config(A2, (0, 1), (0, 0, 1, 0, 0), (1, 0), origin=0,
                              right_phase=0)
        with pytest.raises(MultipleDefectsError):
            locate_defect(cfg, gstar())

    def test_two_runs_split_the_next_frame(self):
        # 0 0 1 0 1 1 over 0 <-> 1: the bad transitions 00 and 11 are apart
        assert next_frame((0, 0, 1, 0, 1, 1), gstar().edges, 0) == "split"

    def test_record_conventions(self):
        cfg = periodic_config(A2, (0, 1), (1, 1, 1), (0, 1), origin=0,
                              left_phase=1, right_phase=1)
        d = locate_defect(cfg, gstar())
        rec = track(from_wolfram_number(184), gstar(), cfg, 0).records[0]
        assert rec.width == d.w
        assert (rec.t, rec.L, rec.R) == (0, -(-d.w // 2) - 1, d.w // 2)
        assert rec.z == d.i + rec.L + 1
        assert rec.word == cfg.window(rec.z - rec.L, rec.z + rec.R + 1)


class TestTrack:
    def test_gamma_plus_moves_right(self):
        traj = track(from_wolfram_number(184), gstar(), gamma_plus(), 100)
        assert traj.verdict.is_particle and traj.verdict.width == 0
        zs = [r.z for r in traj.records]
        assert zs == list(range(zs[0], zs[0] + 101))

    def test_negative_T_rejected(self):
        with pytest.raises(DefectcaError, match="T must be >= 0"):
            track(from_wolfram_number(184), gstar(), gamma_plus(), -1)

    def test_beta_stationary(self):
        cfg = periodic_config(A2, (0,), (), (1,))
        traj = track(from_wolfram_number(184), g01(), cfg, 100)
        assert traj.verdict.is_particle
        assert len({r.z for r in traj.records}) == 1

    def test_g1_g0_junction_splits(self):
        # relative to the full G background, the opening G* wedge is
        # admissible and two separate walls appear within a few steps
        from defectca.lattice import encode_config
        sys = normalize(from_wolfram_number(184), build_sft(A2, 3, G3))
        cfg = encode_config(sys.coder, periodic_config(A2, (1,), (), (0,)))
        traj = track(sys.rule, sys.shift, cfg, 100)
        assert traj.verdict.kind == "split" and traj.verdict.t <= 5

    def test_vanishing_defect(self):
        # ECA 0 wipes everything onto the all-zero point: defect vanishes
        zero = from_wolfram_number(0)
        shift = build_markov_shift(A2, [(0, 0)])
        cfg = periodic_config(A2, (0,), (1, 1), (0,))
        traj = track(zero, shift, cfg, 10)
        assert traj.verdict.kind == "vanished" and traj.verdict.t == 1

    def test_blight_cap(self):
        # chaotic wedge over a third symbol's fixed point: the wedge contains
        # no admissible pair, so the single run grows until the cap trips
        from defectca.rules import LocalRule
        from defectca.shifts import Alphabet
        a3 = Alphabet(("0", "1", "2"))
        r30 = from_wolfram_number(30)

        def fn(w):
            if w == (2, 2, 2):
                return 2
            if w[1] == 2:
                return 1
            return r30(tuple(0 if s == 2 else s for s in w))

        rule = LocalRule(a3, 1, fn, name="wedge30")
        shift = build_markov_shift(a3, [(2, 2)])
        cfg = periodic_config(a3, (2,), (1,), (2,))
        traj = track(rule, shift, cfg, 200, width_cap=16)
        assert traj.verdict.kind == "blight"

    def test_deterministic_replay(self):
        a = track(from_wolfram_number(184), gstar(), gamma_plus(), 50)
        b = track(from_wolfram_number(184), gstar(), gamma_plus(), 50)
        assert a.records == b.records

    def test_velocity_bounds_on_tracked_particles(self):
        traj = track(from_wolfram_number(184), gstar(), gamma_plus(), 60)
        assert check_velocity_bounds(traj) == []

    def test_velocity_bounds_name_a_jump(self):
        # a width-1 frame that jumps five cells in one step breaks both bounds
        records = (DefectRecord(0, 0, 0, 0, (0,)), DefectRecord(1, 5, 0, 0, (0,)))
        traj = DefectTrajectory(records, Verdict("particle", width=1))
        assert [v.split(":")[0] for v in check_velocity_bounds(traj)] == \
            ["(a) violated at t=0", "(b) violated at t=0"]

    def test_mean_velocity_in_unit_range(self):
        traj = track(from_wolfram_number(184), gstar(), gamma_plus(), 60)
        zs = [r.z for r in traj.records]
        mean = (zs[-1] - zs[0]) / (len(zs) - 1)
        assert -1.0 <= mean <= 1.0


class TestReadCost:
    def test_tracking_reads_slices_not_cells(self, monkeypatch):
        # the ECA#110 A defect over the 16384-symbol P=14 block alphabet; a
        # per-cell window read costs about 40 cell calls a step here
        sys = normalize(from_wolfram_number(110), zoo.eca110_ether())
        cfg = encode_config(sys.coder, periodic_config(A2, zoo.ETHER, (), zoo.ETHER,
                                                       right_phase=8))
        calls = Counter()
        for cls in (Configuration, PeriodicBackground):
            def counted(self, z, _cell=cls.cell, _name=cls.__name__):
                calls[_name] += 1
                return _cell(self, z)
            monkeypatch.setattr(cls, "cell", counted)
        T = 200
        traj = track(sys.rule, sys.shift, cfg, T, width_cap=30)
        assert traj.verdict.is_particle and traj.verdict.width == 12
        # windows are slices; only apply_rule's trim reads single cells, two
        # compares a side per step
        assert calls["Configuration"] == 0
        assert calls["PeriodicBackground"] <= 4 * (T + 1)


class TestFuzzVelocityLemma:
    def test_random_configs_obey_bounds(self):
        rng = random.Random(20240811)
        rule = from_wolfram_number(184)
        shift = gstar()
        checked = 0
        for _ in range(300):
            core = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 6)))
            cfg = periodic_config(A2, (0, 1), core, (0, 1),
                                  left_phase=rng.randrange(2),
                                  right_phase=rng.randrange(2))
            try:
                if locate_defect(cfg, shift) is None:
                    continue
            except MultipleDefectsError:
                continue
            traj = track(rule, shift, cfg, 20, width_cap=32)
            assert check_velocity_bounds(traj) == []
            checked += 1
        assert checked > 50
