"""Span tracer for rrlab layer boundaries, installed from outside the package.

`Tracer.install()` replaces every binding of each boundary function across
the loaded `rrlab` submodules (a function imported by name into another
module is a separate binding) and every boundary method on its class.  Each
wrapper pushes a frame on one span stack, so a span's self time is its
duration minus the time of the boundary spans it encloses.  Spans are folded
into per-boundary totals as they close and written out once, by `dump()`:
`MonomialIdeal.contains` alone runs millions of times in one pass, too many
to keep one record each.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Metric group -> the boundaries it covers, as "module:qualname" under rrlab.
GROUPS = {
    "monomial.minimalize": ["monomial:minimalize"],
    "monomial.colon": ["monomial:colon_monomial", "monomial:colon_single"],
    "monomial.intersect": ["monomial:intersect_monomial"],
    "monomial.power": ["monomial:PowerLadder.power"],
    "monomial.contains": ["monomial:MonomialIdeal.contains",
                          "monomial:MonomialIdeal.contains_ideal"],
    "monomial.member_of_power": ["monomial:member_of_power"],
    "monomial.newton": ["monomial:integral_closure_monomial",
                        "monomial:in_newton_polyhedron",
                        "monomial:_lp_feasible"],
    "groebner.basis": ["groebner:IdealHandle.groebner_basis"],
    "groebner.buchberger": ["groebner:_buchberger"],
    "groebner.normal_form": ["groebner:_normal_form"],
    "groebner.autoreduce": ["groebner:_autoreduce"],
    "groebner.reduce": ["groebner:GroebnerBasis.reduces_to_zero",
                        "groebner:GroebnerBasis.normal_form"],
    "groebner.colon_element": ["groebner:IdealHandle.colon_element"],
    "groebner.intersect": ["groebner:IdealHandle.intersect"],
    "groebner.power": ["groebner:IdealHandle.power"],
    "ratliff_rush.chain": ["ratliff_rush:rr_power",
                           "ratliff_rush:rr_closure_via_reduction",
                           "ratliff_rush:is_rr_closed",
                           "ratliff_rush:rr_defect"],
    "ratliff_rush.probe": ["ratliff_rush:rr_membership_probe",
                           "ratliff_rush:rr_membership_probe_via_reduction",
                           "ratliff_rush:gr_nzd_probe",
                           "ratliff_rush:superficial_probe",
                           "ratliff_rush:depth_zero_witness_search"],
    "reductions.all": ["reductions:is_reduction",
                       "reductions:reduction_number",
                       "reductions:rr_reduction_number",
                       "reductions:s_invariant",
                       "reductions:reduction_report",
                       "reductions:prop41_equivalence_check"],
    "semigroup.colon": ["semigroup:SemigroupIdeal.colon",
                        "semigroup:AffineIdeal.colon"],
    "semigroup.contains": ["semigroup:NumericalSemigroup.contains",
                           "semigroup:SemigroupIdeal.contains",
                           "semigroup:AffineSemigroup2D.contains",
                           "semigroup:AffineIdeal.contains"],
    "semigroup.closure": ["semigroup:SemigroupIdeal.rr_power_result",
                          "semigroup:AffineIdeal.rr_power_result"],
    "parser.parse": ["parser:parse_program", "parser:parse_polynomial"],
    "cli.command": ["cli:run_command"],
    "corpus.case": ["corpus:run_corpus"],
}

# Counters kept beside the span totals, summed over a pass.
COUNTERS = ("minimalize_candidates", "minimalize_kept", "buchberger_basis_len",
            "chain_results", "chain_steps", "chain_grew", "rr_power_calls",
            "rr_power_repeats")


class Tracer:
    def __init__(self):
        self.stats = {}  # boundary -> [calls, self_s, total_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing = []
        self._stack = []
        self._rr_power_seen = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rrlab"
                                         or name.startswith("rrlab."))]
        for labels in GROUPS.values():
            for label in labels:
                self._install_one(label, modules)

    def _install_one(self, label, modules):
        mod_name, qualname = label.split(":")
        try:
            owner = importlib.import_module("rrlab." + mod_name)
        except ImportError as exc:
            self.missing.append((label, f"module not importable: {exc}"))
            return
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append((label, f"rrlab.{mod_name} has no {part}"))
                return
        raw = inspect.getattr_static(owner, attr, None)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        if not inspect.isfunction(fn):
            self.missing.append((label, f"no function {qualname} in "
                                        f"rrlab.{mod_name}"))
            return
        self.stats[label] = [0, 0.0, 0.0]
        wrapper = self._wrap(label, fn)
        if outer:
            setattr(owner, attr, staticmethod(wrapper) if is_static
                    else wrapper)
            return
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapper)

    # -- spans -------------------------------------------------------------

    def _wrap(self, label, fn):
        stack = self._stack
        stats = self.stats[label]
        before = _BEFORE.get(label)
        after = _AFTER.get(label)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                if before is not None:
                    args = before(tracer, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration - frame[0]
                stats[2] += duration
        return wrapper

    def dump(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "missing": self.missing}


# -- counters derived at the boundaries -------------------------------------

def _minimalize_before(tracer, args, kwargs):
    cands = list(args[0])
    tracer.counters["minimalize_candidates"] += len(cands)
    return (cands,) + tuple(args[1:])


def _minimalize_after(tracer, result):
    tracer.counters["minimalize_kept"] += len(result)


def _buchberger_after(tracer, result):
    tracer.counters["buchberger_basis_len"] += len(result)


def _chain_after(tracer, result):
    # Read only the public fields of a closure result: its status and the
    # chain indices where the value grew.
    status = getattr(result, "status", None)
    growth = getattr(result, "growth_steps", None)
    steps = getattr(status, "k", getattr(status, "k_max", None))
    if growth is None or not isinstance(steps, int):
        return
    tracer.counters["chain_results"] += 1
    tracer.counters["chain_steps"] += steps
    tracer.counters["chain_grew"] += len(growth)


def _rr_power_before(tracer, args, kwargs):
    ideal = args[0]
    key = (type(ideal).__qualname__, repr(getattr(ideal, "ring", None)),
           str(ideal), repr(args[1:]), repr(sorted(kwargs.items())))
    tracer.counters["rr_power_calls"] += 1
    if key in tracer._rr_power_seen:
        tracer.counters["rr_power_repeats"] += 1
    else:
        tracer._rr_power_seen.add(key)
    return args


_BEFORE = {
    "monomial:minimalize": _minimalize_before,
    "ratliff_rush:rr_power": _rr_power_before,
}
_AFTER = {
    "monomial:minimalize": _minimalize_after,
    "groebner:_buchberger": _buchberger_after,
    "ratliff_rush:rr_power": _chain_after,
    "ratliff_rush:rr_closure_via_reduction": _chain_after,
}


def merge(dumps) -> dict:
    """Sum the dumps of several processes of one pass."""
    total = {"stats": {}, "counters": dict.fromkeys(COUNTERS, 0),
             "missing": []}
    for d in dumps:
        for label, (calls, self_s, total_s) in d["stats"].items():
            acc = total["stats"].setdefault(label, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        for name, value in d["counters"].items():
            total["counters"][name] = total["counters"].get(name, 0) + value
        for entry in d["missing"]:
            if list(entry) not in total["missing"]:
                total["missing"].append(list(entry))
    return total


def layer_metrics(dump: dict) -> dict:
    """Per-layer metric values of one pass, named <module>.<boundary>.<stat>."""
    stats, c = dump["stats"], dump["counters"]
    out = {}
    for group, labels in GROUPS.items():
        rows = [stats[label] for label in labels if label in stats]
        out[group + ".calls"] = sum(r[0] for r in rows)
        out[group + ".self_s"] = sum(r[1] for r in rows)

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out["monomial.minimalize.kept_ratio"] = ratio("minimalize_kept",
                                                  "minimalize_candidates")
    out["groebner.buchberger.basis_len"] = c["buchberger_basis_len"]
    out["ratliff_rush.chain.steps"] = c["chain_steps"]
    out["ratliff_rush.chain.grew_ratio"] = ratio("chain_grew", "chain_steps")
    out["ratliff_rush.rr_power.repeat_ratio"] = ratio("rr_power_repeats",
                                                      "rr_power_calls")
    return out
