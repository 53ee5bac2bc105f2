"""Seeded input generators for the four benchmark workloads.

Everything here depends only on the workload seed, never on timing, so
the same seed gives the same argv lists, scenario bytes, arrows and jets.
A schedule is an endless sequence of blocks; each block holds one op of
every class of its workload in a seeded order, so any prefix of a run
has about the same mix of op costs whatever the seed.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

CLI_WORKLOADS = ("sections", "algebra", "prolong")

PROLONG_BUILTINS = (
    ("flat-metric-2d", 4),
    ("sphere-metric-2d", 3),
    ("generic-metric-2d", 3),
    ("standard-symplectic-2d", 3),
    ("nonclosed-2form-4d", 2),
)


class Op:
    """One CLI invocation: argv plus the scenario files it reads.

    ``files`` maps a file name to its bytes; ``{name}`` placeholders in
    argv are replaced by the path the file is written to.
    """

    __slots__ = ("argv", "files")

    def __init__(self, argv, files=None):
        self.argv = tuple(argv)
        self.files = dict(files or {})

    def key(self):
        """Identity of the op's inputs, independent of where files live."""
        parts = list(self.argv)
        for name, data in sorted(self.files.items()):
            parts.append(f"{name}={_digest(data)}")
        return " ".join(parts)


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _blocks(seed, tiers):
    """Endless seeded blocks.

    ``tiers`` groups the op classes by cost.  A block holds every class
    once; each tier is shuffled and spread evenly through the block, so
    a run cut anywhere has about the same share of each tier, which keeps
    the percentiles inside a tier rather than on the edge between two.
    """
    b = 0
    while True:
        rng = random.Random(f"{seed}:{b}")
        placed = []
        for t, tier in enumerate(tiers):
            ops = [make(rng) for make in tier]
            rng.shuffle(ops)
            offset = rng.random()
            placed += [((j + offset) / len(ops), t, op) for j, op in enumerate(ops)]
        placed.sort(key=lambda item: item[:2])
        yield from (op for _, _, op in placed)
        b += 1


# ---------------------------------------------------------------------------
# sections: seeded polynomial-section identity suites


def _identities(n, k, count):
    return lambda rng: Op(
        ["check-identities", "--n", str(n), "--k", str(k), "--degree", "2",
         "--count", str(count), "--seed", str(rng.randrange(10**6))]
    )


def _forms(n, k, count):
    return lambda rng: Op(
        ["forms", "--n", str(n), "--k", str(k), "--degree", "2",
         "--count", str(count), "--seed", str(rng.randrange(10**6))]
    )


# Three tiers, so that each percentile falls inside one: one-variable
# cells and the cheapest two-variable forms; n=2, k=1 identities and
# three-variable forms, around the median; the n=2 cells with k >= 2, a
# third of each block, around the 90th percentile.  forms needs n >= 2:
# on one variable the wedge of two 1-forms leaves the complex and the
# command fails.
SECTION_TIERS = (
    (
        _identities(1, 1, 2),
        _identities(1, 2, 2),
        _identities(1, 3, 2),
        _identities(1, 3, 1),
        _forms(2, 1, 2),
        _forms(2, 1, 1),
    ),
    (
        _identities(2, 1, 1),
        _forms(3, 1, 1),
    ) * 2,
    (
        _identities(2, 2, 1),
        _forms(2, 3, 1),
    ) * 2,
)


# ---------------------------------------------------------------------------
# algebra: finite Lie algebras and realized algebras


def _fixed(*argv):
    return lambda rng: Op(argv)


# Three tiers: one-variable extensions, the small realizations and the
# smallest two-variable extension; the n=2, k=3, m=1 extension and the
# three-variable projective realization; five n=2, k=3, m=2 extensions
# (the 360x80 Chevalley-Eilenberg system), a fifth of each block, so that
# the 90th percentile falls inside that tier.  Larger systems do not fit:
# n=2, k=4 takes 9-17 s, up to two thirds of a run.
ALGEBRA_TIERS = (
    tuple(
        _fixed("extension", "--n", "1", "--k", str(k), "--m", str(m))
        for k in range(2, 7)
        for m in range(1, k)
    ) + (
        _fixed("extension", "--n", "2", "--k", "2", "--m", "1"),
        _fixed("klein", "--builtin", "affine-line"),
        _fixed("klein", "--builtin", "projective-line"),
        _fixed("klein", "--builtin", "gl2-projective"),
        _fixed("klein", "--builtin", "projective", "--n", "1"),
        _fixed("klein", "--builtin", "projective", "--n", "2"),
    ),
    (
        _fixed("extension", "--n", "2", "--k", "3", "--m", "1"),
        _fixed("klein", "--builtin", "projective", "--n", "3"),
    ),
    (_fixed("extension", "--n", "2", "--k", "3", "--m", "2"),) * 5,
)


# ---------------------------------------------------------------------------
# prolong: builtins and seeded metric / 2-form jets


def _rational(rng):
    return str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))


def _multi_indices(n, lo, hi):
    out = []
    for d in range(lo, hi + 1):
        for combo in combinations_with_replacement(range(n), d):
            alpha = [0] * n
            for j in combo:
                alpha[j] += 1
            out.append(alpha)
    return out


def _metric_order0(n, rng):
    # strictly diagonally dominant, hence invertible
    coeffs = []
    for i in range(n):
        for j in range(i + 1, n):
            c = rng.choice((-1, 0, 1))
            if c:
                coeffs.append([i, j, [0] * n, str(c)])
    for i in range(n):
        coeffs.append([i, i, [0] * n, str(n + rng.randint(0, 2))])
    return coeffs


def _two_form_order0(n, rng):
    # a block-diagonal area form plus a small coupling keeps it nondegenerate
    coeffs = []
    for i in range(0, n, 2):
        coeffs.append([i, i + 1, [0] * n, str(rng.randint(1, 3))])
    if n == 4 and rng.random() < 0.5:
        coeffs.append([0, 2, [0] * n, "1/2"])
    return coeffs


def _flat_order0(kind, n):
    # Euclidean metric or standard area form: flat jets then cost the same
    # whatever the seed, which keeps the top tier's percentile steady
    if kind == "metric":
        return [[i, i, [0] * n, "1"] for i in range(n)]
    return [[i, i + 1, [0] * n, "1"] for i in range(0, n, 2)]


def _hamiltonian_dims(n, kmax):
    return [comb(n + k + 1, n) - 1 for k in range(1, kmax + 1)]


def _scenario(kind, n, order, density):
    """A prolong op on a seeded structure jet.

    Density 0 gives the flat Euclidean metric or standard area form at a
    seeded point; their solution dimensions are known in closed form and
    go into the scenario's ``expect`` block.
    """

    def make(rng):
        if density:
            coeffs = (_metric_order0 if kind == "metric" else _two_form_order0)(n, rng)
        else:
            coeffs = _flat_order0(kind, n)
        slots = [
            (i, j, alpha)
            for alpha in _multi_indices(n, 1, order)
            for i in range(n)
            for j in range(i if kind == "metric" else i + 1, n)
        ]
        # a fixed number of nonzero slots, so that the seed changes where
        # they are and their values but not how many there are
        for i, j, alpha in rng.sample(slots, round(density * len(slots))):
            coeffs.append([i, j, alpha, _rational(rng)])
        scenario = {
            "task": "prolongation",
            "kind": kind,
            "n": n,
            "order": order,
            "point": [str(rng.randint(-2, 2)) for _ in range(n)],
            "coeffs": coeffs,
        }
        if not density:
            dims = (
                [n * (n + 1) // 2] * order
                if kind == "metric"
                else _hamiltonian_dims(n, order)
            )
            scenario["expect"] = {"dims": dims, "surjective": [True] * (order - 1)}
        data = json.dumps(scenario, sort_keys=True).encode()
        return Op(
            ["prolong", "--scenario", "{scenario}", "--kmax", str(order)],
            {"scenario": data},
        )

    return make


# Three tiers: builtins and the cheapest jets; seeded generic jets, whose
# elimination grows rationals, below seven flat three-variable metrics
# that hold the median; flat jets with large solution spaces, a quarter
# of each block, around the 90th percentile.
# Generic metrics on three variables at order 3 or four variables cost
# 1-3 s with a spread of a factor of two between seeds, too wide for the
# top tier; on four variables at order 3 they take 19-27 s.
PROLONG_TIERS = (
    tuple(
        _fixed("prolong", "--builtin", name, "--kmax", str(kmax))
        for name, kmax in PROLONG_BUILTINS
    ) + (
        _scenario("two_form", 4, 2, 0.0),
    ),
    (_scenario("metric", 3, 3, 0.0),) * 7 + (
        _scenario("metric", 3, 2, 1.0),
        _scenario("metric", 3, 3, 0.03),
        _scenario("metric", 2, 4, 1.0),
        _scenario("two_form", 2, 4, 0.5),
        _scenario("two_form", 4, 2, 0.5),
    ),
    (
        _scenario("metric", 3, 4, 0.0),
        _scenario("two_form", 4, 3, 0.0),
    ) * 3,
)


def cli_schedule(workload, seed):
    """Endless op sequence of a CLI workload."""
    if workload == "sections":
        return _blocks(seed, SECTION_TIERS)
    if workload == "algebra":
        return _blocks(seed, ALGEBRA_TIERS)
    if workload == "prolong":
        return _blocks(seed, PROLONG_TIERS)
    raise ValueError(f"unknown CLI workload {workload!r}")


def take(schedule, count):
    return [op for op, _ in zip(schedule, range(count))]


# ---------------------------------------------------------------------------
# arrows: seeded invertible k-arrows and the jets pushed along them

ARROW_SHAPES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (3, 4))


def _nonzero(rng, bound=3):
    return Fraction(rng.choice([c for c in range(-bound, bound + 1) if c]))


def _point(rng, n):
    return tuple(Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(n))


def _slots(n, lo, hi):
    return [tuple(a) for a in _multi_indices(n, lo, hi)]


def arrow_chain_spec(seed, b):
    """Plain-data description of arrow ``b`` of a seed and its jets.

    The spec is (n, k, source, target, coeffs, vector_jet, function_jet)
    with Fractions and tuples only, so the generator needs no jetcalc
    import and the same seed and index always give equal specs.
    """
    rng = random.Random(f"{seed}:arrow:{b}")
    n, k = ARROW_SHAPES[b % len(ARROW_SHAPES)]
    coeffs = {}
    # Unit lower-triangular linear part: invertible over the integers.
    # Every slot is a small nonzero integer and no point coordinate is
    # 0, so the seed changes values but hardly the amount of work.
    for i in range(n):
        for j in range(n):
            alpha = tuple(1 if t == j else 0 for t in range(n))
            if i == j:
                coeffs[(i, alpha)] = Fraction(rng.choice((-1, 1)))
            elif j < i:
                coeffs[(i, alpha)] = _nonzero(rng, 2)
    for alpha in _slots(n, 2, k):
        for i in range(n):
            coeffs[(i, alpha)] = _nonzero(rng)
    vjet = {(i, alpha): _nonzero(rng) for alpha in _slots(n, 0, k - 1) for i in range(n)}
    fjet = {alpha: _nonzero(rng) for alpha in _slots(n, 0, k)}
    return n, k, _point(rng, n), _point(rng, n), coeffs, vjet, fjet
