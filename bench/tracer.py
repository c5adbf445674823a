"""Per-layer tracing of confalg from outside ``src/``.

``Tracer.install`` wraps public confalg functions and rebinds every module
attribute, module-level dict value and class attribute that holds one of
them (``from ... import`` copies, ``cli._HANDLERS``, ``MPoly.__rmul__``);
``uninstall`` restores the originals.  Each wrapped call updates a
per-request aggregate of (calls, inclusive seconds, self seconds), where
self time is the call's duration minus the time of wrapped calls inside it.
Coarse boundaries are also kept as spans with a request id and a parent
span; the hot polynomial functions run tens of thousands of times per
request, so for them only the aggregate is kept.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer name -> (confalg module, attribute paths aggregated under that name)
TARGETS: dict[str, tuple[str, tuple[str, ...]]] = {
    "cli.main": ("cli", ("main",)),
    "cli.handler": ("cli", ("_HANDLERS",)),
    "grammar.parse_poly": ("grammar", ("parse_poly",)),
    "grammar.format_poly": ("grammar", ("format_poly",)),
    "jsonio.from_json": (
        "jsonio",
        ("fraction_from_json", "polymat_from_json", "cend_from_json",
         "modvec_from_json", "cend_list_from_json"),
    ),
    "jsonio.to_json": (
        "jsonio",
        ("polymat_to_json", "cend_to_json", "series_to_json", "modvec_to_json",
         "vec_series_to_json", "upolys_to_json"),
    ),
    "poly.mpoly_mul": ("poly", ("MPoly.__mul__",)),
    "poly.mpoly_add": ("poly", ("MPoly.__add__",)),
    "poly.mpoly_substitute": ("poly", ("MPoly.substitute",)),
    "poly.upoly_divmod": ("poly", ("UPoly.divmod",)),
    "poly.upoly_xgcd": ("poly", ("upoly_xgcd",)),
    "poly.bipoly_gcd": ("poly", ("bipoly_gcd",)),
    "polymat.basis_add": ("polymat", ("PidRowBasis.add",)),
    "polymat.basis_contains": ("polymat", ("PidRowBasis.contains",)),
    "polymat.smith_form": ("polymat", ("smith_form",)),
    "polymat.det": ("polymat", ("det",)),
    "polymat.hermite_left_generator": ("polymat", ("hermite_left_generator",)),
    "cend.product_apply": ("cend", ("product_apply",)),
    "cend.bracket_apply": ("cend", ("bracket_apply",)),
    "cend.raw_subst": ("cend", ("raw_subst",)),
    "cend.raw_mul": ("cend", ("raw_mul",)),
    "cend.verify_axioms": (
        "cend", ("verify_assoc_axioms", "verify_lie_axioms", "verify_module_axioms")
    ),
    "cend1.closure": ("cend1", ("closure",)),
    "cend1.classify": ("cend1", ("classify",)),
    "structure.decide": (
        "structure",
        ("decide_isomorphism", "anti_automorphism_exists", "anti_involution_search"),
    ),
    "structure.ideal_generator": (
        "structure", ("left_ideal_generator", "right_ideal_generator")
    ),
    "structure.build_extension": ("structure", ("build_extension",)),
    "structure.unital_closure_probe": ("structure", ("unital_closure_probe",)),
    "gclie.irreducibility_probe": ("gclie", ("irreducibility_probe",)),
}

# boundaries kept as individual spans
SPANNED = {
    "cli.main", "cli.handler", "polymat.smith_form", "cend1.closure",
    "polymat.basis_add", "cend.product_apply", "grammar.parse_poly",
    "grammar.format_poly",
}

# reported per-layer metrics: layer -> stats, in report order
REPORTED: list[tuple[str, tuple[str, ...]]] = [
    ("cli.main", ("self_s",)),
    ("grammar.parse_poly", ("calls", "self_s")),
    ("grammar.format_poly", ("calls", "self_s")),
    ("jsonio.from_json", ("self_s",)),
    ("jsonio.to_json", ("self_s",)),
    ("poly.mpoly_mul", ("calls", "self_s")),
    ("poly.mpoly_add", ("calls", "self_s")),
    ("poly.mpoly_substitute", ("calls", "self_s")),
    ("poly.upoly_divmod", ("calls", "self_s")),
    ("poly.upoly_xgcd", ("calls", "self_s")),
    ("poly.bipoly_gcd", ("calls", "self_s")),
    ("polymat.basis_add", ("calls", "accepted", "accept_ratio", "self_s")),
    ("polymat.basis_contains", ("calls", "self_s")),
    ("polymat.smith_form", ("calls", "self_s")),
    ("polymat.det", ("calls", "self_s")),
    ("polymat.hermite_left_generator", ("self_s",)),
    ("cend.product_apply", ("calls", "self_s")),
    ("cend.bracket_apply", ("calls", "self_s")),
    ("cend.raw_subst", ("calls", "self_s")),
    ("cend.raw_mul", ("calls", "self_s")),
    ("cend.verify_axioms", ("self_s",)),
    ("cend1.closure", ("calls", "self_s", "rounds", "products", "yield_ratio")),
    ("cend1.classify", ("self_s",)),
    ("structure.decide", ("self_s",)),
    ("structure.ideal_generator", ("self_s",)),
    ("structure.build_extension", ("self_s",)),
    ("structure.unital_closure_probe", ("self_s",)),
    ("gclie.irreducibility_probe", ("self_s",)),
    ("trace", ("overhead_ratio", "request_s")),
]

UNITS = {
    "calls": "calls/req",
    "self_s": "s/req",
    "accepted": "calls/req",
    "accept_ratio": "ratio",
    "rounds": "rounds/req",
    "products": "calls/req",
    "yield_ratio": "ratio",
    "overhead_ratio": "ratio",
    "request_s": "s/req",
}


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every reported per-layer metric."""
    return [(f"{layer}.{stat}", UNITS[stat]) for layer, stats in REPORTED for stat in stats]


class Tracer:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object, bool]] = []
        self._frames: list[list[float]] = []  # per active call: [child seconds]
        self._span_ids: list[int] = []  # active span ids, innermost last
        self._next_span = 0
        self._agg: dict[str, list] = {}
        self._req = -1
        self._verb = ""
        self.closure_depth = 0
        self.extra: dict[str, int] = defaultdict(int)
        self.requests: list[tuple[int, str, float, dict[str, list]]] = []
        self.spans: list[tuple[int, int, int, str, float, float]] = []

    # -- requests ------------------------------------------------------------

    def begin_request(self, req_id: int, verb: str) -> None:
        self._req = req_id
        self._verb = verb
        self._agg = defaultdict(lambda: [0, 0.0, 0.0])

    def end_request(self, scale: float) -> None:
        """Close the request; ``scale`` converts its seconds to reference speed."""
        self.requests.append((self._req, self._verb, scale, dict(self._agg)))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        frames = self._frames
        span_ids = self._span_ids
        spanned = name in SPANNED
        is_add = name == "polymat.basis_add"
        is_product = name == "cend.product_apply"
        is_closure = name == "cend1.closure"
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if spanned:
                span = tracer._next_span
                tracer._next_span += 1
                parent = span_ids[-1] if span_ids else -1
                span_ids.append(span)
            if is_closure:
                tracer.closure_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                if frames:
                    frames[-1][0] += dur
                agg = tracer._agg[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if spanned:
                    span_ids.pop()
                    tracer.spans.append((tracer._req, span, parent, name, t0, t1))
                if is_closure:
                    tracer.closure_depth -= 1
            if is_add:
                inside = tracer.closure_depth > 0
                if result:
                    tracer._agg["polymat.basis_add.accepted"][0] += 1
                    if inside:
                        tracer.extra["closure_accepted"] += 1
                if inside:
                    tracer.extra["closure_attempted"] += 1
            elif is_product and tracer.closure_depth:
                tracer.extra["closure_products"] += 1
            elif is_closure:
                tracer.extra["closure_rounds"] += result.rounds
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            name[len("confalg."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("confalg.")
        }
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        originals: dict[int, object] = {}
        for name, (mod_name, paths) in TARGETS.items():
            mod = modules[mod_name]
            for path in paths:
                obj = mod
                for part in path.split("."):
                    obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
                funcs = obj.values() if isinstance(obj, dict) else [obj]
                for fn in funcs:
                    originals[id(fn)] = fn
                    wrappers[id(fn)] = self._wrap(name, fn)
        classes = {
            id(cls): cls
            for mod in modules.values()
            for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__.startswith("confalg.")
        }
        containers: list[tuple[object, bool]] = [(m, False) for m in modules.values()]
        containers += [(c, False) for c in classes.values()]
        containers += [
            (v, True)
            for m in modules.values()
            for v in vars(m).values()
            if isinstance(v, dict)
        ]
        for container, is_dict in containers:
            items = container if is_dict else vars(container)
            for key, value in list(items.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is None or originals[id(value)] is not value:
                    continue
                self._saved.append((container, key, value, is_dict))
                if is_dict:
                    container[key] = wrapper
                else:
                    setattr(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, value, is_dict in reversed(self._saved):
            if is_dict:
                container[key] = value
            else:
                setattr(container, key, value)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Per-request means of every reported metric, at reference speed."""
        calls: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for _, _, scale, agg in self.requests:
            for name, (count, inclusive, own) in agg.items():
                calls[name] += count
                incl[name] += inclusive * scale
                self_s[name] += own * scale
        n = max(len(self.requests), 1)
        extra = self.extra
        out: dict[str, float] = {}
        for layer, stats in REPORTED:
            for stat in stats:
                if stat == "calls":
                    value = calls[layer] / n
                elif stat == "self_s":
                    value = self_s[layer] / n
                elif stat == "accepted":
                    value = calls["polymat.basis_add.accepted"] / n
                elif stat == "accept_ratio":
                    attempts = calls["polymat.basis_add"]
                    value = calls["polymat.basis_add.accepted"] / attempts if attempts else 0.0
                elif stat == "rounds":
                    value = extra["closure_rounds"] / n
                elif stat == "products":
                    value = extra["closure_products"] / n
                elif stat == "yield_ratio":
                    attempts = extra["closure_attempted"]
                    value = extra["closure_accepted"] / attempts if attempts else 0.0
                elif stat == "overhead_ratio":
                    value = overhead_ratio
                else:  # request_s
                    value = incl["cli.main"] / n
                out[f"{layer}.{stat}"] = value
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write the in-memory trace as JSON lines: meta, requests, spans."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for req, verb, scale, agg in self.requests:
                fh.write(json.dumps({"req": req, "verb": verb, "scale": scale, "agg": agg}) + "\n")
            for req, span, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"req": req, "span": span, "parent": parent, "name": name,
                         "t0": t0, "t1": t1}
                    )
                    + "\n"
                )
