"""Defect particles in one-dimensional cellular automata over subshift backgrounds.

The package follows the defect's life cycle: describe the background
(:mod:`defectca.shifts`), evolve configurations under a local rule
(:mod:`defectca.rules`, :mod:`defectca.lattice`), locate and track the defect
(:mod:`defectca.tracking`), then classify its motion as ballistic
(:mod:`defectca.ballistic`), diffusive (:mod:`defectca.diffusive`) or
machine-like (:mod:`defectca.turing`).  :mod:`defectca.zoo` holds the worked
systems the test suite verifies mechanically.  The top level re-exports only
the names the README and the demos use; everything else is imported from
its module.
"""

from .shifts import (
    binary_alphabet,
    build_markov_shift,
    choice_point,
    entropy,
    equal_length_cycles,
    full_shift,
    higher_block,
    higher_power,
    period_of,
    regularity,
    transitive_components,
)
from .rules import from_wolfram_number, normalize
from .lattice import apply_rule, encode_config, periodic_config
from .tracking import track
from .ballistic import classify_junctions
from .diffusive import (
    build_walk_kernel,
    markov_property_test,
    parry_measure,
    sample_walks,
    stationary_and_drift,
    verify_resolving_system,
)
from .turing import (
    APDA,
    classical_to_lr,
    detect_runaway_cycle,
    regime_of,
    turing_to_ca,
)

__version__ = "0.1.0"
