"""Run one horomod request with spans around the public functions of each layer.

    python3 traced.py SPANS_JSON SRC_DIR -- ARGV...

The process imports ``horomod.cli`` from SRC_DIR (timed as the import
span), rebinds every listed function in its defining module and in every
``horomod`` module that imported it by name, then calls
``horomod.cli.main(ARGV)``.  Stdout is left to the program, so it must be
byte-identical to an untraced run.  Spans (name, parent, start, end) and
the layer counters stay in memory and are written to SPANS_JSON at exit.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Span name -> (module, attribute).  The attribute may name a method.
SPANS = {
    "cli.main": ("horomod.cli", "main"),
    "linalg.rref": ("horomod.linalg", "rref"),
    "linalg.rank": ("horomod.linalg", "rank"),
    "linalg.kernel_basis": ("horomod.linalg", "kernel_basis"),
    "linalg.solve": ("horomod.linalg", "solve"),
    "linalg.rowspace_add": ("horomod.linalg", "RowSpace.add"),
    "mulaw.law_equations": ("horomod.mulaw", "law_equations"),
    "mulaw.tangent_at_horospherical": ("horomod.mulaw", "tangent_at_horospherical"),
    "mulaw.orbit_law": ("horomod.mulaw", "orbit_law"),
    "mulaw.law_to_json_dict": ("horomod.mulaw", "law_to_json_dict"),
    "mulaw.law_from_json_dict": ("horomod.mulaw", "law_from_json_dict"),
    "mulaw.contract": ("horomod.mulaw", "contract"),
    "mulaw.root_monoid_of_law": ("horomod.mulaw", "root_monoid_of_law"),
    "polysys.canonical_poly": ("horomod.polysys", "canonical_poly"),
    "polysys.render_poly": ("horomod.polysys", "render_poly"),
    "liealg.build_module": ("horomod.liealg", "build_module"),
    "liealg.chevalley_matrices": ("horomod.liealg", "chevalley_matrices"),
    "liealg.fixed_subspace": ("horomod.liealg", "fixed_subspace"),
    "liealg.fixed_in_quotient": ("horomod.liealg", "fixed_in_quotient"),
    "liealg.isotypic_components": ("horomod.liealg", "isotypic_components"),
    "liealg.stabilizer_lie": ("horomod.liealg", "stabilizer_lie"),
    "liealg.orbit_tangent": ("horomod.liealg", "orbit_tangent"),
    "tangent.t1_invariant": ("horomod.tangent", "t1_invariant"),
}
# Layers timed as a whole: every public function they define is one span
# named after the module.
WHOLE_MODULES = ("repcalc", "monoids", "rootdata")


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self.spans: list = []  # [name index, parent index, start, end]
        self.stack: list = []
        self.counters = {
            "rref_entries": 0, "rref_rows": 0, "rref_rank": 0,
            "rowspace_grew": 0, "unknowns": 0, "equations": 0,
            "orbit_law_coeffs": 0, "module_dim_max": 0,
        }
        self.chevalley_modules: set = set()

    def count(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name == "linalg.rref":
            rows = args[0]
            c["rref_rows"] += len(rows)
            c["rref_entries"] += len(rows) * (len(rows[0]) if len(rows) else 0)
            c["rref_rank"] += len(result[0])
        elif name == "linalg.rowspace_add":
            c["rowspace_grew"] += bool(result)
        elif name == "mulaw.law_equations":
            c["unknowns"] += len(result.unknowns)
            c["equations"] += len(result.equations)
        elif name == "mulaw.orbit_law":
            c["orbit_law_coeffs"] += len(result.coeffs)
        elif name == "liealg.chevalley_matrices":
            self.chevalley_modules.add(id(args[0]))
        elif name == "liealg.build_module":
            c["module_dim_max"] = max(c["module_dim_max"], result.dim)

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, count = self.spans, self.stack, self.count

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, import_s: float) -> None:
        self.counters["chevalley_modules"] = len(self.chevalley_modules)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"import_s": import_s, "names": self.names, "spans": self.spans,
                 "counters": self.counters},
                fh,
            )


def _rebind_everywhere(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "horomod" or mod_name.startswith("horomod."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    for name, (mod_name, attr) in SPANS.items():
        owner = sys.modules[mod_name]
        *cls_path, fn_name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, fn_name, None)
        if original is None:
            print(f"traced: {mod_name}.{attr} not found; span {name} stays empty", file=sys.stderr)
        elif cls_path:
            setattr(owner, fn_name, tracer.wrap(name, original))
        else:
            _rebind_everywhere(original, tracer.wrap(name, original))
    for short in WHOLE_MODULES:
        mod = sys.modules["horomod." + short]
        for attr, value in list(vars(mod).items()):
            if (
                not attr.startswith("_")
                and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == mod.__name__
            ):
                _rebind_everywhere(value, tracer.wrap(short, value))


def main() -> int:
    sep = sys.argv.index("--")
    spans_path, src = sys.argv[1:sep]
    argv = sys.argv[sep + 1:]
    sys.path.insert(0, src)
    t0 = perf_counter()
    import horomod.cli  # noqa: E402  (the import is what is timed)

    import_s = perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        return horomod.cli.main(argv)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
