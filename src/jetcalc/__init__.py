"""Exact jet calculus over the rationals: jets, arrows, Spencer
calculus, jet-order differential forms, Lie algebra cohomology,
linear Lie equations, and transitive realized Lie algebras.

The command line is `cli`, the shell every command loads, and one
runner module per command (`cli_suites` for `check-identities` and
`forms`).  `form_probes`, `cohomology` and `lie_solutions` hold the
library functions built on `forms`, `liealg` and `lie_equations` that
no command runs."""

__all__ = [
    "multiindex",
    "poly",
    "linalg",
    "jets",
    "arrows",
    "spencer",
    "forms",
    "form_probes",
    "liealg",
    "cohomology",
    "lie_equations",
    "lie_solutions",
    "klein",
    "cli",
    "cli_suites",
    "cli_bracket",
    "cli_prolong",
    "cli_klein",
    "cli_extension",
]
