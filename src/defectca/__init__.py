"""Defect particles in one-dimensional cellular automata over subshift backgrounds.

The package follows the defect's life cycle: describe the background
(:mod:`defectca.shifts`), evolve configurations under a local rule
(:mod:`defectca.rules`, :mod:`defectca.lattice`), locate and track the defect
(:mod:`defectca.tracking`), then classify its motion as ballistic
(:mod:`defectca.ballistic`), diffusive (:mod:`defectca.diffusive`) or
machine-like (:mod:`defectca.turing`).  :mod:`defectca.zoo` holds the worked
systems the test suite verifies mechanically.
"""

from .shifts import (
    Alphabet,
    BlockCoder,
    MarkovShift,
    RegularityReport,
    SFT,
    binary_alphabet,
    build_markov_shift,
    build_sft,
    choice_point,
    cycle_shift,
    entropy,
    equal_length_cycles,
    full_shift,
    higher_block,
    higher_power,
    make_alphabet,
    markov_presentation,
    period_of,
    periodic_orbit_sft,
    regularity,
    sft_from_forbidden,
    sft_to_markov,
    transitive_components,
)
from .rules import (
    LocalRule,
    RecodedSystem,
    check_invariance,
    find_travelling_wave_backgrounds,
    from_linear,
    from_wolfram_number,
    identity_rule,
    is_left_permutative,
    is_left_resolving,
    is_right_permutative,
    is_right_resolving,
    normalize,
    phi_orbit_components,
    power_recode_rule,
    recode_rule,
    rule_from_table,
)
from .lattice import (
    Configuration,
    PeriodicBackground,
    apply_rule,
    decode_config,
    encode_config,
    periodic_config,
)
from .tracking import (
    DefectAutomaton,
    DefectInterval,
    DefectRecord,
    DefectTrajectory,
    Verdict,
    check_velocity_bounds,
    extract_automaton,
    locate_defect,
    pad_to_constant_width,
    track,
)
from .ballistic import (
    ClassifiedType,
    KinematicSystem,
    ParticleType,
    PeriodicComponentCode,
    build_kinematic_system,
    build_periodic_code,
    classify_junctions,
    enumerate_particle_types,
    predict_trajectory,
)
from .diffusive import (
    MarkovMeasure,
    ResolvingSystemReport,
    WalkKernel,
    WalkStatistics,
    build_walk_kernel,
    subsampled_walk,
    markov_property_test,
    parry_measure,
    pushforward_cylinders,
    sample_kernel_chain,
    sample_walks,
    stationary_and_drift,
    verify_resolving_system,
)
from .turing import (
    APDA,
    ClassicalTM,
    CycleEncoder,
    HalfTape,
    LRCompiledMachine,
    LRTuringMachine,
    MachineState,
    apda_to_lr,
    build_cycle_encoder,
    ca_to_turing,
    classical_to_lr,
    detect_runaway_cycle,
    regime_of,
    run_apda,
    runaway_cycles,
    step_lrtm,
    turing_to_ca,
)

__version__ = "0.1.0"
