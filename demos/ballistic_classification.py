"""Classify every junction particle of ECA #184 and the gamma pair of #54.

The background of #184 splits into three periodic components (the alternating
road, the empty road, the full jam); each ordered pair of components meets in
a small menagerie of defect particles, each locked to a constant velocity.
"""

from defectca import classify_junctions, from_wolfram_number
from defectca import zoo

# --- the seven particles of ECA #184 ----------------------------------------
types = classify_junctions(from_wolfram_number(184), zoo.eca184_background(),
                           max_core=0, T=48)
names = {((0, 1, 1),): "alpha-", ((1, 0, 0),): "alpha+",
         ((1, 1, 0),): "omega-", ((0, 0, 1),): "omega+",
         ((0, 1, 1, 0),): "gamma-", ((1, 0, 0, 1),): "gamma+",
         ((0, 0, 1, 1),): "beta"}
print("ECA#184 junction particles:")
for t in types:
    word = "".join(map(str, t.defect_words[0]))
    print(f"  {names[t.defect_words]:<7} defect={word:<5} "
          f"velocity={int(t.velocity):+d}  period={t.period}")

# --- the gamma dislocations of ECA #54 --------------------------------------
gammas = [t for t in classify_junctions(from_wolfram_number(54), zoo.eca54_background(),
                                        max_core=1)
          if t.period == 2]
print("\nECA#54 gamma dislocations (period-2 orbits of the kinematic system):")
for t in gammas:
    print(f"  velocity={int(t.velocity):+d}  period={t.period}  "
          f"orbit states={len(t.orbit)}")
