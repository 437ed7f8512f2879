"""circledyn: group actions on the line and the circle.

Builds the explicit tightly transitive Z^n actions, estimates rotation
numbers with certified bounds, computes bounded Euler cocycles, decides
GL(2,Z) equivalence of quadratic irrationals, and probes transitivity and
wandering intervals numerically.
"""

from . import errors
from .circle import (CircleHomeo, circular_distance, commutation_defect, frac,
                     normalize_lift, project, rotation, sine_lift)
from .euler import (CochainTable, CocycleTable, GroupLaw, coboundary,
                    cocycle_identity_check, cocycle_value, cyclic_group_law,
                    euler_cocycle_table, rational_class_table,
                    to_homogeneous, to_inhomogeneous, word_group_law)
from .expr import (Affine, CellHat, Compose, HBar, HBarInv, HomeoExpr,
                   Identity, Inverse, PiecewiseMonotone, Translate,
                   UnitCellHat, compose_all, evaluate, expr_from_jsonable,
                   expr_to_jsonable, inverse, power)
from .groups import (CircleZnAction, ConjugacyReport, ConjugacyWitness,
                     Verdict, ZnAction, build_circle_action,
                     build_line_action, check_word_budget, conjugacy_verdict,
                     word_ball, word_to_homeo)
from .probes import (OrbitSample, ProbeReport, ProbeVerdict, fixed_points,
                     orbit, transitivity_probe, wandering_probe)
from .quadirr import (CfExpansion, Gl2zMatrix, QuadIrrational, cf_expand,
                      gl2z_equivalent, mobius_apply,
                      parse_quad_irrational)
from .rotnum import (RotationEstimate, TranslationConjugacy,
                     approximate_poincare_conjugacy, conjugate_to_translation,
                     rational_screen, rotation_number)

__version__ = "0.1.0"

__all__ = [
    "Affine", "CellHat", "CfExpansion", "CircleHomeo", "CircleZnAction",
    "CochainTable", "CocycleTable", "Compose", "ConjugacyReport",
    "ConjugacyWitness", "Gl2zMatrix", "GroupLaw", "HBar", "HBarInv",
    "HomeoExpr", "Identity", "Inverse", "OrbitSample", "PiecewiseMonotone",
    "ProbeReport", "ProbeVerdict", "QuadIrrational", "RotationEstimate",
    "Translate", "TranslationConjugacy", "UnitCellHat", "Verdict", "ZnAction",
    "approximate_poincare_conjugacy", "build_circle_action",
    "build_line_action", "cf_expand", "check_word_budget",
    "circular_distance", "coboundary",
    "cocycle_identity_check", "cocycle_value", "commutation_defect",
    "compose_all", "conjugacy_verdict", "conjugate_to_translation",
    "cyclic_group_law", "errors", "euler_cocycle_table", "evaluate",
    "expr_from_jsonable", "expr_to_jsonable", "fixed_points", "frac",
    "gl2z_equivalent", "inverse",
    "mobius_apply", "normalize_lift", "orbit", "parse_quad_irrational",
    "power", "project", "rational_class_table", "rational_screen",
    "rotation", "rotation_number", "sine_lift",
    "to_homogeneous", "to_inhomogeneous", "transitivity_probe",
    "wandering_probe", "word_ball", "word_group_law", "word_to_homeo",
]
