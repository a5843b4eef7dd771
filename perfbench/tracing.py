"""Spans and counters for the traced run, recorded from outside the library.

``Tracer.install`` wraps public functions and methods of powerstable by
patching them where the code looks them up: a module-level function is
replaced in every powerstable module that imported it, a method on its
class.  Each call of a wrapped callable becomes a span (name, parent span,
instance, start, end) kept in memory; ``orders.key_function`` is only
counted, because its calls are cheap and many.  ``uninstall`` restores the
originals, so untraced passes run the unmodified library.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans.  Times named after an
operation (``ideals.contains_s``) are inclusive, counted once per outermost
call, so that nested calls of the same operation are not counted twice.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from collections import Counter
from fractions import Fraction

import powerstable
from powerstable.ideals import Ideal, RingMap
from powerstable.polynomials import Polynomial
from powerstable.stability import (
    MonicCertificate,
    ObstructionCertificate,
    RegularImageCertificate,
)

# (span name, owner, attribute); the layer is the name's first component.
_FUNCTIONS = (
    ("cli.run_command", "powerstable.cli", "run_command"),
    ("polynomials.parse_poly", "powerstable.polynomials", "parse_poly"),
    ("polynomials.format_poly", "powerstable.polynomials", "format_poly"),
    ("stability.contract_power", "powerstable.stability", "contract_power"),
    ("stability.check_power_stable", "powerstable.stability", "check_power_stable"),
    ("stability.graded_criterion", "powerstable.stability", "graded_criterion"),
    ("stability.certify_stable", "powerstable.stability", "certify_stable"),
    ("stability.monic_certificate", "powerstable.stability", "monic_certificate"),
    ("stability.regular_image_certificate", "powerstable.stability", "regular_image_certificate"),
    ("stability.primary_obstruction", "powerstable.stability", "primary_obstruction"),
    ("groebner.groebner_basis", "powerstable.groebner", "groebner_basis"),
    ("groebner.normal_form", "powerstable.groebner", "normal_form"),
    ("groebner.divide", "powerstable.groebner", "divide"),
    ("groebner.s_polynomial", "powerstable.groebner", "s_polynomial"),
    ("groebner.g_polynomial", "powerstable.groebner", "g_polynomial"),
)
_METHODS = (
    ("polynomials.Polynomial.__mul__", Polynomial, "__mul__"),
    ("ideals.Ideal.power", Ideal, "power"),
    ("ideals.Ideal.groebner", Ideal, "groebner"),
    ("ideals.Ideal.contains", Ideal, "contains"),
    ("ideals.Ideal.equals", Ideal, "equals"),
    ("ideals.Ideal.eliminate", Ideal, "eliminate"),
    ("ideals.Ideal.intersect", Ideal, "intersect"),
    ("ideals.Ideal.quotient", Ideal, "quotient"),
    ("ideals.Ideal.saturate", Ideal, "saturate"),
    ("ideals.RingMap.kernel", RingMap, "kernel"),
    ("stability.MonicCertificate.verify", MonicCertificate, "verify"),
    ("stability.RegularImageCertificate.verify", RegularImageCertificate, "verify"),
    ("stability.ObstructionCertificate.verify", ObstructionCertificate, "verify"),
)
_COUNTED = (("orders.key_function", "powerstable.orders", "key_function"),)

LAYERS = ("cli", "stability", "ideals", "groebner", "polynomials")


def _coef_bits(c) -> int:
    if isinstance(c, int):
        return abs(c).bit_length()
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return c.residue.bit_length()


def _observe_basis(args, gb):
    bits = max((_coef_bits(c) for p in gb.elements for _, c in p.terms()), default=0)
    return len(gb.elements), bits


# What a span keeps of its call, beyond timing.
_OBSERVERS = {
    "groebner.groebner_basis": _observe_basis,
    "ideals.Ideal.power": lambda args, result: len(result.generators),
    "stability.contract_power": lambda args, result: (args[0].generators, args[1]),
}


def _modules():
    mods = [powerstable]
    for info in pkgutil.iter_modules(powerstable.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            mods.append(importlib.import_module(f"powerstable.{info.name}"))
    return mods


class Tracer:
    """Records spans while installed and ``active``; one client, one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, instance, name, start, end, observed]
        self.counts: Counter = Counter()
        self.instance = -1
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        for name, module, attr in _FUNCTIONS + _COUNTED:
            original = getattr(importlib.import_module(module), attr)
            wrapper = (
                self._counter(name, original)
                if (name, module, attr) in _COUNTED
                else self._span(name, original)
            )
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        for name, cls, attr in _METHODS:
            self._patch(cls, attr, self._span(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            rec = [len(spans), stack[-1] if stack else -1, tracer.instance, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if observe is not None:
                rec[6] = observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


# -- per-layer metrics ----------------------------------------------------------------

# Operation groups whose outermost calls give an inclusive time.
_GROUPS = {
    "nf": {"groebner.normal_form", "groebner.divide"},
    "power": {"ideals.Ideal.power"},
    "contains": {"ideals.Ideal.contains"},
    "equals": {"ideals.Ideal.equals"},
    "eliminate": {"ideals.Ideal.eliminate"},
    "intersect": {"ideals.Ideal.intersect"},
    "quotient": {"ideals.Ideal.quotient"},
    "saturate": {"ideals.Ideal.saturate"},
    "kernel": {"ideals.RingMap.kernel"},
    "contract": {"stability.contract_power"},
    "check": {"stability.check_power_stable"},
    "certify": {
        "stability.certify_stable",
        "stability.monic_certificate",
        "stability.regular_image_certificate",
        "stability.MonicCertificate.verify",
        "stability.RegularImageCertificate.verify",
    },
    "obstruct": {"stability.primary_obstruction", "stability.ObstructionCertificate.verify"},
    "parse": {"polynomials.parse_poly"},
    "format": {"polynomials.format_poly"},
}
_GROUP_OF = {name: group for group, names in _GROUPS.items() for name in names}


def summarize(spans: list[list], counts: Counter) -> dict:
    """Raw per-pass figures: span counts, layer self times, outermost
    inclusive times per operation group, and the observed values."""
    calls: Counter = Counter(s[3] for s in spans)
    child_time = [0.0] * len(spans)
    groups_above: list[frozenset] = [frozenset()] * len(spans)
    layer_self: Counter = Counter()
    group_time: Counter = Counter()
    gb_child = set()
    for sid, parent, _, name, start, end, _ in spans:
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
            pname = spans[parent][3]
            above = groups_above[parent]
            if pname in _GROUP_OF:
                above = above | {_GROUP_OF[pname]}
            groups_above[sid] = above
            if name == "groebner.groebner_basis":
                gb_child.add(parent)
        group = _GROUP_OF.get(name)
        if group is not None and group not in groups_above[sid]:
            group_time[group] += dur
    for sid, _, _, name, start, end, _ in spans:
        layer_self[name.split(".")[0]] += end - start - child_time[sid]
    observed = [(s[2], s[3], s[6]) for s in spans if s[6] is not None]  # calls that returned
    bases = [v for _, name, v in observed if name == "groebner.groebner_basis"]
    contractions = [(inst, *v) for inst, name, v in observed if name == "stability.contract_power"]
    gb_requests = [s[0] for s in spans if s[3] == "ideals.Ideal.groebner"]
    return {
        "calls": calls,
        "counts": counts,
        "layer_self": layer_self,
        "group_time": group_time,
        "basis_lens": [n for n, _ in bases],
        "coef_bits": [b for _, b in bases],
        "gb_requests": len(gb_requests),
        "gb_hits": sum(1 for sid in gb_requests if sid not in gb_child),
        "power_gens": sum(v for _, name, v in observed if name == "ideals.Ideal.power"),
        "contract_repeats": len(contractions) - len(set(contractions)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    calls, gt = raw["calls"], raw["group_time"]
    pairs = calls["groebner.s_polynomial"] + calls["groebner.g_polynomial"]
    m = {
        "groebner.calls": (calls["groebner.groebner_basis"], "count"),
        "groebner.self_s": (raw["layer_self"]["groebner"], "s"),
        "groebner.spoly_calls": (calls["groebner.s_polynomial"], "count"),
        "groebner.gpoly_calls": (calls["groebner.g_polynomial"], "count"),
        "groebner.useful_ratio": (_ratio(sum(raw["basis_lens"]), pairs), "ratio"),
        "groebner.basis_len_max": (max(raw["basis_lens"], default=0), "count"),
        "groebner.coef_bits_max": (max(raw["coef_bits"], default=0), "bits"),
        "groebner.nf_calls": (calls["groebner.normal_form"], "count"),
        "groebner.nf_s": (gt["nf"], "s"),
        "ideals.self_s": (raw["layer_self"]["ideals"], "s"),
        "ideals.power_calls": (calls["ideals.Ideal.power"], "count"),
        "ideals.power_s": (gt["power"], "s"),
        "ideals.power_gens_sum": (raw["power_gens"], "count"),
        "ideals.gb_requests": (raw["gb_requests"], "count"),
        "ideals.gb_cache_hit_ratio": (_ratio(raw["gb_hits"], raw["gb_requests"]), "ratio"),
        "ideals.contains_calls": (calls["ideals.Ideal.contains"], "count"),
        "ideals.contains_s": (gt["contains"], "s"),
        "ideals.equals_calls": (calls["ideals.Ideal.equals"], "count"),
        "ideals.equals_s": (gt["equals"], "s"),
        "ideals.eliminate_calls": (calls["ideals.Ideal.eliminate"], "count"),
        "ideals.intersect_calls": (calls["ideals.Ideal.intersect"], "count"),
        "ideals.quotient_calls": (calls["ideals.Ideal.quotient"], "count"),
        "ideals.saturate_calls": (calls["ideals.Ideal.saturate"], "count"),
        "ideals.kernel_calls": (calls["ideals.RingMap.kernel"], "count"),
        "stability.self_s": (raw["layer_self"]["stability"], "s"),
        "stability.contract_calls": (calls["stability.contract_power"], "count"),
        "stability.contract_s": (gt["contract"], "s"),
        "stability.contract_repeat_ratio": (
            _ratio(raw["contract_repeats"], calls["stability.contract_power"]),
            "ratio",
        ),
        "stability.check_s": (gt["check"], "s"),
        "stability.certify_s": (gt["certify"], "s"),
        "stability.obstruct_calls": (calls["stability.primary_obstruction"], "count"),
        "orders.key_function_calls": (raw["counts"]["orders.key_function"], "count"),
        "polynomials.self_s": (raw["layer_self"]["polynomials"], "s"),
        "polynomials.mul_calls": (calls["polynomials.Polynomial.__mul__"], "count"),
        "polynomials.parse_calls": (calls["polynomials.parse_poly"], "count"),
        "polynomials.format_calls": (calls["polynomials.format_poly"], "count"),
        "cli.requests": (calls["cli.run_command"], "count"),
    }
    return m


def breakdown(raw: dict) -> list[str]:
    """Every layer's self time and every operation's time, including those
    the metrics report only as call counts."""
    lines = [f"self {layer:12s} {raw['layer_self'][layer]:9.4f} s" for layer in LAYERS]
    for group in _GROUPS:
        lines.append(f"op   {group:12s} {raw['group_time'][group]:9.4f} s")
    return lines
