"""Span tracer that wraps chbsim's public callables from outside the program.

Each wrapped call records a span [name, start, end, parent] in memory;
the spans of the last traced round are written out when the round ends.
A span's self time is its duration minus that of its child spans.  Every
layer is named after its module; ``materials`` is not wrapped (its calls
are many and tiny), so its time counts as self time of its callers.

Counts are taken where the work happens: Picard iterations and dt
shrinks from the ``PicardReport`` each ``picard_window`` returns, CG
iterations from the ``SolveReport`` of ``conjugate_gradient``, and the
stored nonzeros of L + U from each ``scipy.sparse.linalg.splu`` result.
Elliptic factor and solve metrics are also split by the nearest span
above them that names a cause (CAUSES).
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, callable) pairs; "Class.method" is patched on the class that
# defines the method.
TARGETS = (
    ("config", "parse_config"), ("config", "serialize"),
    ("cli", "main"), ("cli", "run_from_config"), ("cli", "write_outputs_init"),
    ("cli", "write_vtk_snapshot"),
    ("diagnostics", "diagnostics_row"), ("diagnostics", "total_energy"),
    ("stepper", "run_simulation"), ("stepper", "initial_state"),
    ("stepper", "picard_window"), ("stepper", "linear_substep_phi"),
    ("stepper", "linear_substep_theta_elastic"),
    ("stepper", "linear_substep_theta_visco"), ("stepper", "linear_substep_u_visco"),
    ("stepper", "FrozenElastic.__init__"), ("stepper", "FrozenVisco.__init__"),
    ("stepper", "FrozenElastic.phase_solver"), ("stepper", "FrozenElastic.content_solver"),
    ("stepper", "FrozenVisco.shifted_problem"),
    ("rhs", "rhs_elastic"), ("rhs", "rhs_visco"), ("rhs", "reconstruct_displacement"),
    ("rhs", "displacement_problem"), ("rhs", "chemical_potential"),
    ("rhs", "phase_rhs"), ("rhs", "stress"),
    ("rhs", "ViscoOperators.__init__"), ("rhs", "ViscoOperators.apply_a0"),
    ("biot", "BiotContext.__init__"), ("biot", "apply_fluid_operator"),
    ("biot", "apply_A_tilde"), ("biot", "apply_B_tilde"),
    ("elliptic", "DirectSolver.__init__"), ("elliptic", "DirectSolver.solve"),
    ("elliptic", "EllipticProblem.__init__"), ("elliptic", "EllipticProblem.stiffness_matrix"),
    ("elliptic", "EllipticProblem.solve"), ("elliptic", "EllipticProblem.apply"),
    ("elliptic", "EllipticProblem.assemble_rhs"), ("elliptic", "solve_elasticity"),
    ("elliptic", "conjugate_gradient"),
    ("grid", "flux_stiffness_matrix"), ("grid", "neumann_laplacian"),
    ("grid", "laplacian_stiffness_form"), ("grid", "symmetric_gradient"),
    ("grid", "divergence"),
)

LAYERS = ("config", "cli", "diagnostics", "stepper", "rhs", "biot", "elliptic", "grid")

# Span name -> cause label of the elliptic work below it.
CAUSES = {
    "stepper.linear_substep_phi": "phase",
    "stepper.linear_substep_theta_elastic": "content",
    "stepper.linear_substep_theta_visco": "content",
    "stepper.linear_substep_u_visco": "u_substep",
    "rhs.reconstruct_displacement": "reconstruct",
    "rhs.rhs_visco": "rhs_visco",
    "biot.apply_fluid_operator": "biot",
    "biot.apply_A_tilde": "biot",
    "biot.apply_B_tilde": "biot",
}
CAUSE_LABELS = ("phase", "content", "u_substep", "reconstruct", "rhs_visco", "biot", "other")

FACTOR = "elliptic.DirectSolver.__init__"
SOLVE = "elliptic.DirectSolver.solve"
WINDOW = "stepper.picard_window"
RHS = ("rhs.rhs_elastic", "rhs.rhs_visco")


def replace_everywhere(original, replacement):
    """Rebind every chbsim module attribute that is `original`."""
    for name, module in list(sys.modules.items()):
        if name == "chbsim" or name.startswith("chbsim."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans = []             # [name, start, end, parent index or -1]
        self.counts = {}            # span index -> payload of its result
        self.nnz = 0
        self.missing = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name == WINDOW:
                counts[index] = (result[1].iterations, result[1].shrinks)
            elif name == "elliptic.conjugate_gradient":
                counts[index] = result[1].iterations
            return result
        return traced

    def install(self):
        import scipy.sparse.linalg as spla
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"chbsim.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                defining = next((c for c in getattr(owner, "__mro__", ())
                                 if method in vars(c)), None)
                if defining is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                name = f"{module_name}.{defining.__name__}.{method}"
                setattr(defining, method, self._wrap(name, vars(defining)[method]))
            elif hasattr(module, attr):
                original = getattr(module, attr)
                replace_everywhere(original, self._wrap(f"{module_name}.{attr}", original))
            else:
                self.missing.append(f"{module_name}.{attr}")
        if self.missing:
            print(f"tracer: not found, reported as 0: {', '.join(self.missing)}",
                  file=sys.stderr)

        splu = spla.splu

        def counted_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            self.nnz += lu.nnz
            return lu
        spla.splu = counted_splu

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    def metrics(self, output_bytes):
        """{metric: (value, unit)} of the round traced so far."""
        spans = self.spans
        n = len(spans)
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * n
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        self_time = [dur[i] - child[i] for i in range(n)]

        # parents precede children, so one forward pass propagates context
        cause = [None] * n
        in_window = [False] * n
        for i, (name, _, _, parent) in enumerate(spans):
            up = cause[parent] if parent >= 0 else None
            cause[i] = CAUSES.get(name, up)
            in_window[i] = parent >= 0 and (in_window[parent] or spans[parent][0] == WINDOW)

        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        split = defaultdict(float)
        evals = 0
        factor_in_window = 0.0
        for i, (name, _, _, _) in enumerate(spans):
            total[name] += dur[i]
            own[name] += self_time[i]
            calls[name] += 1
            layer = name.split(".", 1)[0]
            layer_self[layer] += self_time[i]
            layer_calls[layer] += 1
            if name in (FACTOR, SOLVE):
                kind = "factor" if name == FACTOR else "solve"
                label = cause[i] or "other"
                split[f"{kind}_s.{label}"] += dur[i]
                split[f"{kind}_count.{label}"] += 1
                if name == FACTOR and in_window[i]:
                    factor_in_window += dur[i]
            if name in RHS and in_window[i]:
                evals += 1

        window_reports = [c for i, c in self.counts.items() if spans[i][0] == WINDOW]
        iters = sum(c[0] for c in window_reports)
        window_s = total[WINDOW]

        def tot(*names):
            return sum(total[nm] for nm in names)

        m = {
            "config.parse_s": (tot("config.parse_config"), "s"),
            "stepper.initial_state_s": (tot("stepper.initial_state"), "s"),
            "stepper.windows": (calls[WINDOW], "count"),
            "stepper.window_s": (window_s, "s"),
            "stepper.window_self_frac": (own[WINDOW] / window_s if window_s else 0.0, "ratio"),
            "stepper.picard_iters": (iters, "count"),
            "stepper.picard_evals": (evals, "count"),
            "stepper.picard_useful_frac": (iters / evals if evals else 0.0, "ratio"),
            "stepper.shrinks": (sum(c[1] for c in window_reports), "count"),
            "stepper.phase_substep_s": (tot("stepper.linear_substep_phi"), "s"),
            "stepper.content_substep_s": (tot("stepper.linear_substep_theta_elastic",
                                              "stepper.linear_substep_theta_visco"), "s"),
            "stepper.u_substep_s": (tot("stepper.linear_substep_u_visco"), "s"),
            "stepper.frozen_s": (tot("stepper.FrozenElastic.__init__",
                                     "stepper.FrozenVisco.__init__"), "s"),
            "rhs.rhs_s": (tot(*RHS), "s"),
            "rhs.rhs_self_s": (sum(own[nm] for nm in RHS), "s"),
            "rhs.reconstruct_s": (tot("rhs.reconstruct_displacement"), "s"),
            "rhs.reconstruct_self_s": (own["rhs.reconstruct_displacement"], "s"),
            "biot.context_s": (tot("biot.BiotContext.__init__"), "s"),
            "biot.fluid_apply_s": (tot("biot.apply_fluid_operator"), "s"),
            "grid.flux_stiffness_s": (tot("grid.flux_stiffness_matrix"), "s"),
            "grid.neumann_laplacian_s": (tot("grid.neumann_laplacian"), "s"),
            "grid.neumann_laplacian_calls": (calls["grid.neumann_laplacian"], "count"),
            "diagnostics.row_s": (tot("diagnostics.diagnostics_row"), "s"),
            "cli.snapshot_s": (tot("cli.write_vtk_snapshot"), "s"),
            "cli.output_bytes": (output_bytes, "B"),
            "elliptic.factor_count": (calls[FACTOR], "count"),
            "elliptic.factor_s": (total[FACTOR], "s"),
            "elliptic.factor_window_frac": (factor_in_window / window_s if window_s else 0.0,
                                            "ratio"),
            "elliptic.factor_nnz": (self.nnz, "count"),
            "elliptic.assemble_s": (tot("elliptic.EllipticProblem.stiffness_matrix"), "s"),
            "elliptic.solve_count": (calls[SOLVE], "count"),
            "elliptic.solve_s": (total[SOLVE], "s"),
            "elliptic.cg_iters": (sum(c for i, c in self.counts.items()
                                      if spans[i][0] == "elliptic.conjugate_gradient"), "count"),
            "elliptic.cg_s": (tot("elliptic.conjugate_gradient"), "s"),
        }
        for kind in ("factor", "solve"):
            for label in CAUSE_LABELS:
                m[f"elliptic.{kind}_count.{label}"] = (split[f"{kind}_count.{label}"], "count")
                m[f"elliptic.{kind}_s.{label}"] = (split[f"{kind}_s.{label}"], "s")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
            m[f"{layer}.calls"] = (layer_calls[layer], "count")
        m["trace.spans"] = (n, "count")
        return m
