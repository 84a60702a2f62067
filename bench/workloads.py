"""The benchmark's workloads: which corpus cases and programs each one runs.

Together the three workloads run every corpus case exactly once.  Five cases
take 10-30 s each at their corpus settings (EX-3.1, EX-3.5, EX-3.7, PROP-1.9,
PROP-4.5), more than one timed run can hold, so they run with the smaller
chain bounds given beside them; the cases' own assertions still check them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

CORPUS_BUDGET_S = 120.0  # tier-1 gate on the whole corpus, for context

# Corpus cases built on IdealHandle: Buchberger and the elimination-based
# colon and intersection do nearly all the work.  Their inputs are fixed, so
# the seed does not change them.
GB_CHAIN = (
    ("EX-1.3", None),
    ("EX-1.8", None),
    ("EX-3.1", {"k_max": 2, "window": 2}),
    ("EX-3.2", None),
    ("EX-3.5", {"k_max": 4, "window": 3}),
    ("PROP-2.3", None),
    ("PROP-2.4", None),
)

# Monomial closure chains and reduction invariants: minimalize, colon,
# intersection and PowerLadder build new generator sets at every step, and no
# Groebner code runs.  PROP-4.5 samples its ideals from the seed.
MONO_CHAIN = (
    ("EX-1.2", None),
    ("EX-1.5-N3", None),
    ("EX-1.5-N5", None),
    ("EX-3.3-N2", None),
    ("EX-3.3-N3", None),
    ("EX-3.4", None),
    ("EX-3.6-N2", None),
    ("EX-3.6-N3", None),
    ("EX-3.7", {"k_max": 5, "window": 3}),
    ("EX-INTRO-C", None),
    ("PROP-4.5", {"n_max": 2}),
)

# Read-only queries on existing powers (contains, member_of_power, the exact
# simplex) and the semigroup layer, each case in its own `rrlab` process so
# start-up, parser and cli are paid every time.  PROP-1.9 samples from the
# seed.
CLI_CORPUS = (
    ("EX-1.10", None),
    ("EX-1.4", None),
    ("EX-1.7", None),
    ("EX-2.6", None),
    ("EX-3-BOREL", None),
    ("EX-4.3", None),
    ("EX-4.4", None),
    ("EX-INTRO-A", None),
    ("EX-INTRO-B", None),
    ("PROP-1.11-L3", None),
    ("PROP-1.11-L4", None),
    ("PROP-1.9", {"k_max": 2, "window": 2, "n_max": 1}),
)

IN_PROCESS = {"gb-chain": GB_CHAIN, "mono-chain": MONO_CHAIN}
WORKLOADS = ("gb-chain", "mono-chain", "cli-probes")

_CLI_FLAGS = {"k_max": "--kmax", "window": "--window", "n_max": "--nmax"}


def case_digest(case):
    """A corpus case's outcome without its timings, for comparing passes."""
    rows = [(a["assertion"], a["verdict"], a["witness"])
            for a in case["assertions"]]
    blob = json.dumps([case["id"], case["verdict"], case["resource_cap"],
                       rows])
    return hashlib.sha1(blob.encode()).hexdigest()


def corpus_argv(case_id, overrides, seed):
    argv = ["corpus", "run", "--filter", case_id, "--seed", str(seed),
            "--format", "json"]
    for key, value in sorted((overrides or {}).items()):
        argv += [_CLI_FLAGS[key], str(value)]
    return argv


# -- seeded `rrlab compute` programs with closed-form answers ----------------
#
# Each program is (name, text, variables, expected); expected lists, per
# command, the fields its JSON fragment must carry.  Ideal values are compared as sets
# of exponent vectors.  The seed permutes the exponents of fixed tuples, so
# every seed costs about the same.


def _fmt(names, e):
    parts = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
    return "*".join(parts) or "1"


def _ideal(names, gens):
    return "(" + ", ".join(_fmt(names, g) for g in gens) + ")"


def _minimal(exps):
    exps = sorted(set(exps), key=sum)
    kept = []
    for e in exps:
        if not any(all(a <= b for a, b in zip(k, e)) for k in kept):
            kept.append(e)
    return frozenset(kept)


def _integral_closure_of_powers(powers):
    """Integral closure of (X_1^a_1, ..., X_d^a_d): the monomials with
    sum_i e_i / a_i >= 1, i.e. sum_i e_i * prod_{j != i} a_j >= prod_j a_j."""
    prod = 1
    for a in powers:
        prod *= a
    weights = [prod // a for a in powers]
    box = itertools.product(*(range(a + 1) for a in powers))
    return _minimal(e for e in box
                    if sum(w * x for w, x in zip(weights, e)) >= prod)


def _pure_powers(powers):
    d = len(powers)
    return [tuple(a if j == i else 0 for j in range(d))
            for i, a in enumerate(powers)]


def programs(seed):
    rng = random.Random(f"{seed}:programs")
    out = []

    a, b, c = rng.sample((5, 6, 7), 3)
    xyz = ("X", "Y", "Z")
    gens = _pure_powers((a, b, c))
    out.append(("mono3-invariants",
                f"ring R = QQ[X, Y, Z];\nideal I = {_ideal(xyz, gens)};\n"
                "integral_closure I;\nsocle I;\nass_primes I;\nmin_gens I;\n",
                xyz,
                [{"value": _integral_closure_of_powers((a, b, c))},
                 {"candidates": [frozenset({(a - 1, b - 1, c - 1)})]},
                 {"primes": ["(X, Y, Z)"]},
                 {"count": 3, "generators": frozenset(gens)}]))

    a, b = rng.sample((7, 9), 2)
    xy = ("X", "Y")
    gens = _pure_powers((a, b))
    # A parameter ideal of a regular ring: every power is closed, so the
    # chains never grow, and the graded ring is a polynomial ring.
    out.append(("mono2-parameter",
                f"ring R = QQ[X, Y];\nideal I = {_ideal(xy, gens)};\n"
                "rr_closure I;\nrr_power I 2;\nis_rr_closed I;\n"
                "integral_closure I;\ndepth_zero I n_max = 4;\n", xy,
                [{"value": frozenset(gens), "growth_steps": []},
                 {"value": frozenset({(2 * a, 0), (a, b), (0, 2 * b)}),
                  "growth_steps": []},
                 {"verdict": "holds", "bound": 12},
                 {"value": _integral_closure_of_powers((a, b))},
                 {"verdict": "holds", "bound": 4}]))

    # EX-INTRO-A / EX-INTRO-C: the closure of (X^4, X^3*Y, X*Y^3, Y^4) is
    # (X, Y)^4, and X^2*Y^2 enters at the first chain step.
    deg4 = [(4, 0), (3, 1), (1, 3), (0, 4)]
    out.append(("intro-closure",
                f"ring R = QQ[X, Y];\nideal I = {_ideal(xy, deg4)};\n"
                "rr_closure I;\nmembership (X^2*Y^2) I;\n"
                "rr_membership (X^2*Y^2) I;\n", xy,
                [{"value": frozenset((i, 4 - i) for i in range(5))},
                 {"member": False},
                 {"verdict": "member", "k": 1}]))

    # EX-4.3: the maximal ideal of <4,5,11> against its reduction (t^4).
    out.append(("ns-4-5-11",
                "semiring S = <4, 5, 11>;\nideal I = (t^4, t^5, t^11);\n"
                "ideal J = (t^4);\ns_invariant I;\nrr_reduction_number I J;\n"
                "rr_power I 2;\nreduction_number I J;\n", ("t",),
                [{"value": 3, "status": "exact-within-bound"},
                 {"value": 2, "status": "exact-within-bound"},
                 {"value": frozenset({(8,), (9,), (10,), (11,)})},
                 {"value": 3}]))
    return out


def _parse_ideal(text, names):
    """'(X^2*Y, Z)' or '(t^8, t^9)' -> frozenset of exponent tuples."""
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"not an ideal: {text!r}")
    out = set()
    for term in body[1:-1].split(","):
        e = [0] * len(names)
        for factor in term.strip().split("*"):
            if factor == "1":
                continue
            name, _, k = factor.partition("^")
            e[names.index(name)] += int(k or 1)
        out.add(tuple(e))
    return frozenset(out)


def check_program(names, expected, payload):
    """None when every command fragment carries its expected fields, else
    the first difference."""
    frags = payload.get("commands", [])
    if len(frags) != len(expected):
        return f"{len(frags)} command outputs, expected {len(expected)}"
    for i, (frag, want) in enumerate(zip(frags, expected)):
        for key, value in want.items():
            got = frag.get(key)
            try:
                if isinstance(value, frozenset):
                    got = _parse_ideal(got, names)
                elif value and isinstance(value, list) and isinstance(
                        value[0], frozenset):
                    got = [_parse_ideal("(" + g + ")", names) for g in got]
            except (AttributeError, TypeError, ValueError):
                return f"{frag.get('command')} #{i}: unreadable {key}={got!r}"
            if got != value:
                return f"{frag.get('command')} #{i}: {key}={got!r}, " \
                       f"expected {value!r}"
    return None
