"""Per-layer call counts and self times, taken from outside the program.

Modules import each other's functions by name (``gamma``, ``delta`` and
``parity`` each hold their own ``local_reduction``), so the tracer replaces
every binding of a listed function in every loaded ``dihedral_parity``
module, not only the defining one, and puts each binding back afterwards.
A function's self time is its inclusive time minus the inclusive time of
the wrapped functions it called.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

PACKAGE = "dihedral_parity"

# module -> public functions traced in it (the layers of the program)
LAYERS = {
    "localarith": ("is_prime", "padic_valuation", "prime_factors",
                   "kronecker_symbol", "local_square_class"),
    "curves": ("minimal_model_at", "model_from_invariants", "local_reduction",
               "quadratic_twist", "semistability_defect", "reduction_over_Kv",
               "count_points", "frobenius_data"),
    "tower": ("validate_tower", "support_primes", "split_type"),
    "gamma": ("gamma",),
    "delta": ("delta", "residue_frobenius_over_Kv"),
    "parity": ("analyze", "parity_table", "mr64_sum", "hypothesis_audit",
               "selmer_growth_bound"),
    "cli": ("read_curve_csv", "parse_config", "report_to_dict"),
}

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class LayerTracer:
    """Counts calls and accumulates self time per traced function."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self._open: list[int] = []   # inclusive ns of wrapped callees, per open call

    def _wrap(self, name: str, fn):
        calls, self_ns, open_calls = self.calls, self.self_ns, self._open

        def traced(*args, **kwargs):
            open_calls.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                self_ns[name] += elapsed - open_calls.pop()
                calls[name] += 1
                if open_calls:
                    open_calls[-1] += elapsed

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every traced function while the block runs."""
        homes = {mod: importlib.import_module(f"{PACKAGE}.{mod}") for mod in LAYERS}
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        replaced = []
        for mod, fns in LAYERS.items():
            home = homes[mod]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            replaced.append((m, attr, original))
        try:
            yield self
        finally:
            for m, attr, original in reversed(replaced):
                setattr(m, attr, original)
