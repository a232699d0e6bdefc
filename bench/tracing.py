"""Spans around calls into branchsim's modules, recorded from outside.

``Tracer.install`` replaces public names where their callers look them up
(``cli.run``, ``report.analysis.*`` through the ``analysis`` module,
``machine.iterate``, ``machine.StateVector`` ...) with wrappers that
record a span: name, start, end, parent span and op id.  Spans stay in
memory until ``dump`` writes them out at the end of the run.  No file
under ``src/`` is changed; ``uninstall`` puts every original back.

``aggregate`` turns the dumped spans and counters into the per-layer
metrics.  A span's self time is its duration minus the time its direct
children cover; children of one span never overlap, because the program
is single-threaded.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

# Flops and bytes of one dense controlled 2x2 update: with the control bit
# fixed it touches N/4 amplitude pairs of an N-amplitude vector, 28 real
# flops per pair (4 complex multiplies, 2 complex adds), and reads and
# writes those N/2 complex128 amplitudes once.  Computed from the state's
# size at the call, not measured.
FLOPS_PER_AMPLITUDE = 7
BYTES_PER_AMPLITUDE = 16

VERIFY_CHECKS = (
    "golden_pauli_flips",
    "golden_reinforce_two_step",
    "golden_rotations_feedback",
    "golden_rotations_nofeedback",
    "oracle_equivalence",
    "property_branch_conservation",
    "property_canonical_branch_support",
    "property_dilation_blocks",
    "property_extended_identity",
    "property_marginal_diagonality",
    "property_measurement",
    "property_no_cloning",
    "property_norm_preservation",
    "property_phase_blindness",
    "property_symbolic_expansion",
)

REPLAY_OPS = ("controlled_u", "memory_write", "feedback", "policy_update", "steering")

ANALYSES = ("memory_marginal", "register_marginal", "outcome_probability",
            "separability_check", "no_cloning_witness")


def _pairs(spec):
    pairs = [(spec.u0, spec.u1), (spec.f0, spec.f1), (spec.v0, spec.v1)]
    if spec.extended:
        pairs.append((spec.r0, spec.r1))
    return pairs


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.final_states: dict = {}
        self.op = None
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append([name, 0, 0, self._stack[-1] if self._stack else -1,
                           self.op])
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx][1:3] = [start, end]

    def count(self, name, value=1):
        self.counts[self.op][name] += value

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- counters taken at the boundaries ------------------------------------

    def _count_gates(self, state, applied, skipped):
        self.count("gates_applied", applied)
        self.count("gates_skipped_identity", skipped)
        n = state.amplitudes.size
        self.count("gate_bytes", applied * n * BYTES_PER_AMPLITUDE)
        self.count("gate_flops", applied * n * FLOPS_PER_AMPLITUDE)

    def _after_round(self, args, result):
        spec = args[2]
        gates = [g for pair in _pairs(spec) for g in pair]
        skipped = sum(g.is_identity for g in gates)
        # +1: the memory write is an unconditional CNOT
        self._count_gates(result, len(gates) - skipped + 1, skipped)

    def _after_initialize(self, args, result):
        wired = args[0].mode != "uncorrelated"  # the C->P CNOT
        self._count_gates(result, int(wired), 0)

    def _after_statevector(self, args, result):
        self.count("statevector_checks")
        counts = self.counts[self.op]
        counts["state_bytes"] = max(counts["state_bytes"], result.amplitudes.nbytes)

    def _after_run(self, args, result):
        amps = result.amplitudes
        self.count("runs")
        self.count("nnz", int((amps != 0).sum()) / amps.size)
        self.final_states[self.op] = result

    def _after_decompose(self, args, result):
        self.count("populated", len(result.entries))
        self.count("visited", 2 ** args[0].layout.n_memories)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, name, after=None):
        """Wrap ``owner.attr``, or ``owner[attr]`` when owner is a dict."""
        if isinstance(owner, dict):
            original = owner[attr]
            restore = lambda: owner.__setitem__(attr, original)  # noqa: E731
            owner[attr] = self._wrap(name, original, after)
        else:
            original = getattr(owner, attr)
            restore = lambda: setattr(owner, attr, original)  # noqa: E731
            setattr(owner, attr, self._wrap(name, original, after))
        self._saved.append(restore)

    def install(self):
        from branchsim import analysis, cli, machine, verify

        self._patch(cli, "parse_scenario", "scenario.parse_scenario")
        self._patch(cli, "run", "machine.run", self._after_run)
        self._patch(cli, "build_report", "report.build_report")
        self._patch(cli, "emit_report", "report.emit_report")
        self._patch(cli, "run_checks", "verify.run_checks")
        for owner in (machine, verify):
            self._patch(owner, "initialize", "machine.initialize",
                        self._after_initialize)
            self._patch(owner, "iterate", "machine.iterate", self._after_round)
            self._patch(owner, "iterate_extended", "machine.iterate_extended",
                        self._after_round)
            self._patch(owner, "measure_control", "machine.measure_control")
        self._patch(machine, "run", "machine.run")
        for owner in (machine, analysis):
            self._patch(owner, "StateVector", "machine.StateVector",
                        self._after_statevector)
        self._patch(analysis, "branch_decompose", "analysis.branch_decompose",
                    self._after_decompose)
        for fn in ANALYSES:
            self._patch(analysis, fn, f"analysis.{fn}")
        self._patch(analysis, "partial_trace", "linalg.partial_trace")
        self._patch(verify, "oracle_run", "verify.oracle_run")
        for check in VERIFY_CHECKS:
            self._patch(verify.CHECKS, check, f"verify.check.{check}")
        return self

    def uninstall(self):
        while self._saved:
            self._saved.pop()()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": {str(k): v for k, v in self.counts.items()}}, fh)


def replay(tracer: Tracer, scenario, final_state) -> bool:
    """Replay each round op by op through the public per-op entry points.

    Spans are named ``machine.op.<kind>``.  Returns whether the replayed
    state equals the engine's final state exactly (same kernels, same
    order).
    """
    from branchsim import machine

    layout = machine.build_layout(len(scenario.iterations))
    state = machine.initialize(scenario.init, layout)

    def step(kind, fn, *args):
        nonlocal state
        state = tracer.call(f"machine.op.{kind}", fn, state, *args)

    for k, spec in enumerate(scenario.iterations, start=1):
        step("controlled_u", machine.apply_controlled, "C", "S", spec.u0, spec.u1)
        step("memory_write", machine.write_memory, k)
        step("feedback", machine.apply_controlled, "P", "S", spec.f0, spec.f1)
        step("policy_update", machine.apply_controlled, f"M{k}", "P", spec.v0, spec.v1)
        if spec.extended:
            step("steering", machine.apply_controlled, "P", "C", spec.r0, spec.r1)
    return bool((state.amplitudes == final_state.amplitudes).all())


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def aggregate(spans, counts, op_walls_untraced, op_walls_traced, bytes_in,
              bytes_out):
    """Per-layer metrics of one traced run.

    Times are medians over the traced ops that reach the layer, of the
    layer's summed time within one op; replayed per-op entry points are
    medians per call.  Counts are means per op over the fixed trace set.
    A layer that no op reaches reads 0.
    """
    children = defaultdict(int)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent] += end - start
    per_op = defaultdict(lambda: defaultdict(float))  # name -> op -> seconds
    self_per_op = defaultdict(lambda: defaultdict(float))
    per_call = defaultdict(list)
    for i, (name, start, end, parent, op) in enumerate(spans):
        dur = (end - start) * 1e-9
        per_op[name][op] += dur
        self_per_op[name][op] += dur - children[i] * 1e-9
        per_call[name].append(dur)

    def op_time(name, self_time=False):
        table = self_per_op if self_time else per_op
        return _median_or_zero([v for op, v in table[name].items()
                                if not str(op).startswith("replay")])

    ops = [str(op) for op in range(len(op_walls_traced))]

    def mean_count(name):
        return sum(counts.get(op, {}).get(name, 0.0) for op in ops) / len(ops)

    def total(name):
        return sum(counts.get(op, {}).get(name, 0.0) for op in ops)

    runs = total("runs")
    m = {
        "cli.main.self_s": (op_time("cli.main", self_time=True), "s"),
        "scenario.parse_scenario.s": (op_time("scenario.parse_scenario"), "s"),
        "scenario.bytes_in": (statistics.mean(bytes_in), "bytes"),
        "machine.initialize.s": (op_time("machine.initialize"), "s"),
        "machine.iterate.s": (op_time("machine.iterate"), "s"),
        "machine.iterate_extended.s": (op_time("machine.iterate_extended"), "s"),
    }
    for kind in REPLAY_OPS:
        m[f"machine.op.{kind}.s"] = (
            _median_or_zero(per_call[f"machine.op.{kind}"]), "s")
    m.update({
        "machine.statevector_check.s": (op_time("machine.StateVector"), "s"),
        "machine.statevector_checks": (mean_count("statevector_checks"), "count"),
        "machine.measure_control.s": (op_time("machine.measure_control"), "s"),
        "machine.gates_applied": (mean_count("gates_applied"), "count"),
        "machine.gates_skipped_identity": (mean_count("gates_skipped_identity"), "count"),
        "machine.gate.bytes_moved": (
            total("gate_bytes") / max(total("gates_applied"), 1), "bytes"),
        "machine.gate.ops_per_byte": (
            total("gate_flops") / max(total("gate_bytes"), 1), "flop/byte"),
        "machine.nnz_fraction": (total("nnz") / max(runs, 1), "ratio"),
        "machine.state_bytes": (
            max((counts.get(op, {}).get("state_bytes", 0.0) for op in ops),
                default=0.0), "bytes"),
        "analysis.branch_decompose.s": (op_time("analysis.branch_decompose"), "s"),
        "analysis.branch_decompose.populated_ratio": (
            total("populated") / max(total("visited"), 1), "ratio"),
    })
    for fn in ANALYSES:
        m[f"analysis.{fn}.s"] = (op_time(f"analysis.{fn}"), "s")
    m.update({
        "linalg.partial_trace.s": (op_time("linalg.partial_trace"), "s"),
        "report.build_report.self_s": (
            op_time("report.build_report", self_time=True), "s"),
        "report.emit_report.s": (op_time("report.emit_report"), "s"),
        "report.bytes_out": (statistics.mean(bytes_out), "bytes"),
        "verify.oracle_run.s": (op_time("verify.oracle_run"), "s"),
    })
    for check in VERIFY_CHECKS:
        m[f"verify.check.{check}.s"] = (op_time(f"verify.check.{check}"), "s")
    m["trace_overhead_frac"] = (
        sum(op_walls_traced) / sum(op_walls_untraced) - 1.0, "ratio")
    return m
