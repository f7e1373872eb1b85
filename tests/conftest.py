"""Suite-wide settings: every hypothesis test draws the same examples on
every run, and no example database carries failures between runs.

The ``conjugacy`` fixture checks a classified particle type against direct
stepping of the rule."""

import pytest
from hypothesis import settings

from defectca.ballistic import _padded_state
from defectca.lattice import Configuration, PeriodicBackground, apply_rule
from defectca.tracking import frame_of, locate_defect

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def _sigma_cycle(shift, vertices, s):
    """The sigma-cycle through ``s`` inside the periodic component ``vertices``."""
    word = [s]
    while True:
        nxt, = (v for v in shift.followers(word[-1]) if v in vertices)
        if nxt == s:
            return tuple(word)
        word.append(nxt)


@pytest.fixture
def conjugacy():
    """Step each orbit state of a type for one period and check that each
    step lands on the orbit's next state, and that the state returns to
    itself displaced by exactly period * velocity.

    A state (l, d, r) is rebuilt as the configuration with the defect word d
    on the frame [-L, R] (L, R as :func:`~defectca.tracking.frame_of` gives
    them for the type's width) and the sigma-cycles through l and r on
    either side.  Returns, per orbit state, its configuration and the frame
    displacement of each step.
    """
    def check(sys, ptype):
        L, R = (ptype.width + 1) // 2 - 1, ptype.width // 2
        orbit, out = ptype.orbit, []
        for i, state in enumerate(orbit):
            l, d, r = state
            lw = _sigma_cycle(sys.shift, ptype.left_vertices, l)
            rw = _sigma_cycle(sys.shift, ptype.right_vertices, r)
            start = Configuration(sys.rule.alphabet,
                                  PeriodicBackground(lw, (L + 1) % len(lw)), d,
                                  PeriodicBackground(rw, -(R + 1) % len(rw)), -L)
            assert _padded_state(start, 0, L, R) == state
            cfg, z, steps = start, 0, []
            for j in range(1, ptype.period + 1):
                cfg = apply_rule(sys.rule, cfg)
                run = locate_defect(cfg, sys.shift)
                assert run is not None, f"{state} vanished"
                znext = frame_of(run)[0]
                steps.append(znext - z)
                z = znext
                # each step lands on the next state of the orbit
                assert _padded_state(cfg, z, L, R) == orbit[(i + j) % len(orbit)]
            assert z == ptype.period * ptype.velocity, state
            out.append((start, steps))
        return out
    return check
