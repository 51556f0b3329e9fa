"""Seeded input generators for the benchmark workloads.

Every input is plain text the program parses itself (a defining series
theta or a real graph phi), plus what the generator knows about it by
construction: the Levi signature and, for pulled-back quadrics, that the
model is flat.  The generators use only the standard library, so the
program under test never helps build its own inputs.

Each workload walks a fixed cycle of input shapes; the seed draws the
indices and coefficients inside each shape.  Every seed thus gives
distinct models with the same mix of shapes, which keeps the cost of a
run steady across seeds.  The same (workload, seed) always yields the
same input sequence.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

ALL_CHECKS = (
    "reality",
    "levi",
    "signature",
    "integrability",
    "pseudosphericality",
    "cross-check",
)
DEFAULT_CHECKS = ("reality", "levi", "signature", "pseudosphericality")

# Gaussian coefficients (re, im) for theta, real ones for graphs.
COEFF_POOL = [
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(-1, 2), Fraction(0)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(0), Fraction(-1, 2)),
]
REAL_POOL = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)]


@dataclass(frozen=True)
class Case:
    """One `check` request and what is known about its answer."""

    kind: str          # "theta" | "graph"
    n: int
    order: int
    text: str
    checks: tuple
    signature: tuple   # (positives, negatives) of the constructed Levi form
    flat: bool         # True: flat by construction; False: verdict not known


# ----------------------------------------------------------------------
# polynomials over Q(i): {exponent tuple: (re, im)}


def _add_into(acc, exps, re, im, sign=1):
    r0, i0 = acc.get(exps, (0, 0))
    acc[exps] = (r0 + sign * re, i0 + sign * im)


def _mul(a, b):
    out = {}
    for ea, (ra, ia) in a.items():
        for eb, (rb, ib) in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            _add_into(out, key, ra * rb - ia * ib, ra * ib + ia * rb)
    return out


def _coeff_text(re, im):
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    return f"{re} + {im}*i"


def _render(names, poly):
    """Text in the program's expression grammar, lowest degree first."""
    pieces = []
    for exps in sorted(poly, key=lambda e: (sum(e), e)):
        re, im = poly[exps]
        if not re and not im:
            continue
        mono = "*".join(
            name if k == 1 else f"{name}^{k}" for name, k in zip(names, exps) if k
        )
        if (re, im) == (1, 0):
            pieces.append(mono)
        else:
            pieces.append(f"({_coeff_text(re, im)})*{mono}")
    return " + ".join(pieces)


def _theta_names(n):
    return [f"z{k}" for k in range(1, n + 1)] + [f"z{k}b" for k in range(1, n + 1)] + ["wb"]


def _signs(signature):
    positives, negatives = signature
    return (1,) * positives + (-1,) * negatives


def _unit(arity, *positions):
    exps = [0] * arity
    for p in positions:
        exps[p] += 1
    return tuple(exps)


def quadric_theta(signature):
    """theta = -wb + sum_k eps_k z_k z_kb, as text."""
    n = sum(signature)
    arity = 2 * n + 1
    terms = {_unit(arity, 2 * n): (-1, 0)}
    for k, eps in enumerate(_signs(signature)):
        terms[_unit(arity, k, n + k)] = (eps, 0)
    return _render(_theta_names(n), terms)


# ----------------------------------------------------------------------
# model families


def rigid_perturbation(rng, n, signature, pairs=1, pattern=None):
    """The quadric of the given signature plus rigid cubic pairs.

    Adds ``pairs`` pairs c * z^K zb^L + conj(c) * z^L zb^K with |K| + |L| = 3
    and |K|, |L| >= 1.  Each pair makes both reality identities hold
    exactly, and cubic terms leave the Levi form at the origin untouched.
    ``pattern`` fixes (K, L) as strings over slots "abc" that take distinct
    random indices; without it K and L are drawn freely.
    """
    arity = 2 * n + 1
    terms = {_unit(arity, 2 * n): (-1, 0)}
    for k, eps in enumerate(_signs(signature)):
        terms[_unit(arity, k, n + k)] = (eps, 0)
    monos = [e for e in itertools.product(range(3), repeat=n) if 0 < sum(e) <= 2]
    for _ in range(pairs):
        if pattern is None:
            k_exps = rng.choice(monos)
            l_exps = rng.choice([e for e in monos if sum(e) + sum(k_exps) == 3])
        else:
            slots = dict(zip("abc", rng.sample(range(n), 3)))
            k_exps = _unit(n, *(slots[s] for s in pattern[0]))
            l_exps = _unit(n, *(slots[s] for s in pattern[1]))
        re, im = rng.choice(COEFF_POOL)
        _add_into(terms, k_exps + l_exps + (0,), re, im)
        _add_into(terms, l_exps + k_exps + (0,), re, -im)
    return _render(_theta_names(n), terms)


def pulled_back_quadric(rng, signature):
    """The quadric pulled back through z_k -> z_k + f(z) for one random k.

    f is a quadratic polynomial with two terms, so

        theta = -wb + sum_k eps_k (z_k + f_k(z)) (z_kb + conj(f_k)(zb))

    is a polynomial whose hypersurface is the preimage of the quadric under
    a local biholomorphism: it is flat and has the quadric's signature.
    """
    n = sum(signature)
    arity = 2 * n + 1
    quadratic = [e for e in itertools.product(range(3), repeat=n) if sum(e) == 2]
    mapped = rng.randrange(n)
    terms = {_unit(arity, 2 * n): (-1, 0)}
    for k, eps in enumerate(_signs(signature)):
        hol = {_unit(arity, k): (1, 0)}
        if k == mapped:
            for mono in rng.sample(quadratic, 2):
                re, im = rng.choice(COEFF_POOL)
                _add_into(hol, mono + (0,) * (n + 1), re, im)
        # conj(f)(zb): conjugate coefficients, exponents moved to the zb block
        antihol = {(0,) * n + e[:n] + (0,): (re, -im) for e, (re, im) in hol.items()}
        for exps, (re, im) in _mul(hol, antihol).items():
            _add_into(terms, exps, re, im, eps)
    return _render(_theta_names(n), terms)


# A v-dependent term (v has weight 2, so v * quadratic is weighted quartic)
# and an ordinary quartic, both on coordinate k.  Terms that couple the two
# coordinates cost up to eight times as much per check.
GRAPH_SHAPES = [
    ("v*x{k}^2", "x{k}^4"),
    ("v*y{k}^2", "x{k}^3*y{k}"),
]


def nonrigid_graph(rng, signature, shape):
    """u = eps_1 |z_1|^2 + eps_2 |z_2|^2 + a v m2 + b m4 at n = 2."""
    levi = " + ".join(
        f"({eps})*x{k}^2 + ({eps})*y{k}^2"
        for k, eps in enumerate(_signs(signature), start=1)
    )
    k = rng.choice((1, 2))
    v_term, quartic = (part.format(k=k) for part in shape)
    a, b = rng.choice(REAL_POOL), rng.choice(REAL_POOL)
    return f"{levi} + ({a})*{v_term} + ({b})*{quartic}"


# ----------------------------------------------------------------------
# workloads

# The ROADMAP's order-10 nonrigid target.
TARGET_GRAPH = "x1^2 + y1^2 + x2^2 + y2^2 + v*x1^2 + x1^2*x2^2"

# The cubic pair z_a zb_b zb_c + conj, with a, b, c distinct.  Pairs that
# repeat an index cost three to four times as much per check; leaving them
# out keeps the check cost, and with it each run's mix, uniform.
N4_PATTERN = ("a", "bc")

SCREEN_SHAPES = [
    (order, signature)
    for signature in ((2, 0), (1, 1), (3, 0), (2, 1))
    for order in (6, 7, 8)
]


def pipeline_n4(rng):
    """--checks all on rigid cubic perturbations at n = 4, order 6."""
    for index in itertools.count():
        signature = ((4, 0), (3, 1))[index % 2]
        text = rigid_perturbation(rng, 4, signature, pattern=N4_PATTERN)
        yield Case("theta", 4, 6, text, ALL_CHECKS, signature, False)


def nonrigid_n2(rng):
    """--checks all: each round is the order-10 target, then order-8 graphs."""
    while True:
        yield Case("graph", 2, 10, TARGET_GRAPH, ALL_CHECKS, (2, 0), False)
        for index in range(ROUND["nonrigid-n2"] - 1):
            signature = ((2, 0), (1, 1))[index % 2]
            shape = GRAPH_SHAPES[(index // 2) % len(GRAPH_SHAPES)]
            text = nonrigid_graph(rng, signature, shape)
            yield Case("graph", 2, 8, text, ALL_CHECKS, signature, False)


def screen(rng):
    """Default checks on small models; every other one flat by construction.

    The curved models carry two cubic pairs, which brings their cost close
    to that of the flat ones; with one pair the latencies split into two
    groups and the median falls in the gap between them.
    """
    for index in itertools.count():
        order, signature = SCREEN_SHAPES[(index // 2) % len(SCREEN_SHAPES)]
        n = sum(signature)
        if index % 2:
            text, flat = rigid_perturbation(rng, n, signature, pairs=2), False
        else:
            text, flat = pulled_back_quadric(rng, signature), True
        yield Case("theta", n, order, text, DEFAULT_CHECKS, signature, flat)


WORKLOADS = {
    "pipeline-n4": pipeline_n4,
    "nonrigid-n2": nonrigid_n2,
    "screen": screen,
}

# Inputs per round: one pass through a workload's cycle of shapes.  A timed
# loop ends on a round boundary, so every run has the same mix of shapes.
ROUND = {
    "pipeline-n4": 2,
    # The target and eight graphs: the order-8 graphs' costs vary with
    # their coefficients, and with four per run latency_p50_s varied by 10%
    # from seed to seed.
    "nonrigid-n2": 9,
    "screen": 2 * len(SCREEN_SHAPES),
}

# A fixed, seed-independent input per workload for the untimed warm-up check.
WARMUP = {
    "pipeline-n4": Case("theta", 4, 6, quadric_theta((3, 1)), ALL_CHECKS, (3, 1), True),
    "nonrigid-n2": Case("graph", 2, 8, "x1^2 + y1^2 - x2^2 - y2^2 + v*x1*y1 + x1^4",
                        ALL_CHECKS, (1, 1), False),
    "screen": Case("theta", 3, 7, quadric_theta((2, 1)), DEFAULT_CHECKS, (2, 1), True),
}


def generate(workload, seed):
    """The endless, deterministic input stream of a workload."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
