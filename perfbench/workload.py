"""Workloads: layer sets, op calls, generated inputs, timed passes and the check.

A workload file under ``workloads/`` is a CLI layer file (``conv-tn flops
--config`` reads it) with extra keys: the ops to run, the ``simplify``
settings, the GGN column count, whether the loop oracle is the reference
and the tolerance against the baseline.  Each layer
carries a ``source`` and a ``reason``; ``skip_ops`` names ops a layer does
not run, each with its reason.

The engine is called through module attributes (``ops.run_op``,
``crs.crs_weight_vjp``) so that a tracer rebinding them sees every call.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import baseline
from conv_tn import crs, ops, verify
from conv_tn.cli import load_layers
from conv_tn.ops import ConvSpec
from conv_tn.tensor import ShapeMismatch, Unsupported

WORKLOADS = Path(__file__).resolve().parent / "workloads"

# Ops where a pattern's input leg meets a data operand, and ops where it
# lands in the output.
GATHER = frozenset(
    ("conv_forward", "weight_jvp", "input_jvp", "unfold_input", "im2col_jvp",
     "weight_vjp", "per_sample_weight_vjp")
)
SCATTER = frozenset(
    ("input_vjp", "fold_output", "im2col_vjp", "transpose_unfold", "unfold_kernel")
)
CRS_OP = "crs_weight_vjp"
# Every CRS call keeps each row of the first input axis with probability 0.5,
# masks drawn from seed 0.
CRS_CONFIG = crs.CrsConfig({"i1": 0.5}, seed=0)
ORACLE_TOL = 1e-12


@dataclass
class Case:
    """One op call of a pass: a layer, an op, a simplify setting and its inputs."""

    layer: str
    conv: ConvSpec
    op: str
    simplify: bool
    arrays: dict

    @property
    def covered(self) -> bool:
        """Whether the im2col baseline computes this op."""
        return self.op == CRS_OP or self.op in baseline.OPS

    def engine(self):
        if self.op == CRS_OP:
            x, v_y = self.arrays["x"], self.arrays["v_y"]
            return crs.crs_weight_vjp(self.conv, x, v_y, CRS_CONFIG).weight
        return ops.run_op(self.conv, self.op, self.arrays, simplify=self.simplify)

    def baseline(self, conv: ConvSpec | None = None):
        """The baseline's value of this call, for ``conv`` in place of the case's layer if given."""
        conv = conv or self.conv
        if self.op == CRS_OP:
            return baseline.masked_weight_vjp(
                conv, self.arrays["x"], self.arrays["v_y"], crs_masks(conv), CRS_CONFIG.keep_probs
            )
        return baseline.run(conv, self.op, self.arrays)


@dataclass
class Workload:
    name: str
    spec: dict
    layers: list[tuple[str, ConvSpec, dict]]  # name, layer, its JSON entry

    @property
    def columns(self) -> int:
        return int(self.spec["columns"])

    def tuples(self):
        """Every (layer name, layer, op, simplify) the workload runs, in pass order."""
        for name, conv, entry in self.layers:
            for op in self.spec["ops"]:
                if op in entry.get("skip_ops", {}):
                    continue
                for simplify in self.spec["simplify"]:
                    yield name, conv, op, bool(simplify)


def names() -> list[str]:
    return sorted(p.stem for p in WORKLOADS.glob("*.json"))


def load(name: str) -> Workload:
    path = WORKLOADS / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(names())}")
    spec = json.loads(path.read_text())
    entries = spec["layers"]
    layers = [(n, conv, e) for (n, conv), e in zip(load_layers(str(path)), entries)]
    return Workload(name, spec, layers)


def crs_masks(conv: ConvSpec) -> dict:
    """The keep masks ``crs_weight_vjp`` draws for ``CRS_CONFIG``: one Bernoulli
    vector per axis, axes in sorted order, from ``PCG64(CRS_CONFIG.seed)``."""
    rng = np.random.Generator(np.random.PCG64(CRS_CONFIG.seed))
    keep = CRS_CONFIG.keep_probs
    return {axis: rng.random(crs.axis_size(conv, axis)) < float(keep[axis]) for axis in sorted(keep)}


def build_cases(work: Workload, seed: int) -> list[Case]:
    """Inputs drawn from ``seed``, one set per (layer, op), shared across simplify settings."""
    rng = np.random.default_rng(seed)
    cases: list[Case] = []
    arrays_for: dict[tuple[str, str], dict] = {}
    for name, conv, op, simplify in work.tuples():
        key = (name, op)
        if key not in arrays_for:
            shapes = ops.input_shapes(
                conv, "weight_vjp" if op == CRS_OP else op, columns=work.columns
            )
            arrays_for[key] = {k: rng.standard_normal(s) for k, s in shapes.items()}
        cases.append(Case(name, conv, op, simplify, arrays_for[key]))
    return cases


def input_bytes(cases: list[Case]) -> int:
    seen = {id(c.arrays): c.arrays for c in cases}
    return sum(a.nbytes for arrays in seen.values() for a in arrays.values())


@dataclass
class PassLog:
    """Per case: engine and baseline seconds of every timed pass, and failures."""

    engine: list[list[float]]
    base: list[list[float]]
    errors: list[str] = field(default_factory=list)
    calls: int = 0
    passes: int = 0  # timed passes

    @classmethod
    def for_cases(cls, cases) -> "PassLog":
        return cls([[] for _ in cases], [[] for _ in cases])


def run_pass(cases, log: PassLog | None = None, *, baseline_at=None, keep=None):
    """Call every case once.  With a log, time every engine call and record
    the ones that raise.  ``baseline_at`` ("before" or "after") also times
    the baseline's call for each case it covers, next to the engine's.
    ``keep`` collects the results."""
    clock = time.perf_counter
    for i, case in enumerate(cases):
        timed_base = baseline_at is not None and case.covered
        if timed_base and baseline_at == "before":
            t0 = clock()
            case.baseline()
            log.base[i].append(clock() - t0)
        t0 = clock()
        try:
            out = case.engine()
        except Exception as exc:  # the benchmark counts a raising call and goes on
            out = None
            if log is not None:
                log.errors.append(f"{case.layer} {case.op} simplify={case.simplify}: {exc!r}")
        elapsed = clock() - t0
        if log is not None:
            log.calls += 1
            if out is not None:
                log.engine[i].append(elapsed)
        if timed_base and baseline_at == "after":
            t0 = clock()
            case.baseline()
            log.base[i].append(clock() - t0)
        if keep is not None:
            keep.append(out)


def timed_passes(cases, seconds: float, log: PassLog | None = None, min_passes: int = 2):
    """Warm passes until ``seconds`` have gone by, the baseline after the
    engine on even passes and before it on odd ones, added to ``log`` if given.

    Returns the log and the results of its first pass (for the check).
    """
    if log is None:
        log = PassLog.for_cases(cases)
    results: list = []
    deadline = time.perf_counter() + seconds
    start = log.passes
    while log.passes < start + min_passes or time.perf_counter() < deadline:
        order = "before" if log.passes % 2 else "after"
        run_pass(cases, log, baseline_at=order, keep=results if log.passes == 0 else None)
        log.passes += 1
    return log, results


def reference(work: Workload, case: Case, cache: dict):
    """(reference value, tolerance): the loop oracle where the workload uses it
    and it accepts the layer, else the im2col baseline."""
    key = (case.layer, case.op, id(case.arrays))  # cases of the same inputs share one dict
    if key not in cache:
        ref, tol = None, float(work.spec["baseline_tol"])
        if work.spec["oracle"] and case.op != CRS_OP:
            try:
                ref = verify.oracle_run(case.conv, case.op, case.arrays)
                ref, tol = (ref.weight if isinstance(ref, ops.WeightVjp) else ref), ORACLE_TOL
            except Unsupported:
                ref = None
        if ref is None:
            ref = case.baseline()
        cache[key] = (ref, tol)
    return cache[key]


# Engine defects the check recognises by their exact signature.  A result
# that shows one is reported by name and left out of every timed metric, but
# not counted as failed: the benchmark measures the engine as it is.  Each has
# a strict expected failure in test_known_defects.py, so its fix is noticed.
KNOWN_DEFECTS = {
    "crs-plan-cache-ignores-groups": (
        "crs._PLAN_CACHE keys plans by equation and shapes without the group count,"
        " so a grouped layer after a same-shape dense layer gets the dense layer's gradient"
    ),
}


def known_defect(case: Case, got, tol: float) -> str | None:
    """The name of the known engine defect a wrong result ``got`` shows, if any."""
    if case.op == CRS_OP and case.conv.groups > 1:
        want = case.baseline(dataclasses.replace(case.conv, groups=1))
        if np.shape(got) == want.shape and verify.compare(got, want) <= tol:
            return "crs-plan-cache-ignores-groups"
    return None


@dataclass
class Verdict:
    mismatches: list[str]  # results off from their reference, as messages
    known: dict[int, str] = field(default_factory=dict)  # case index -> known defect it shows


def check(work: Workload, cases, results) -> Verdict:
    """Compare every result with its reference."""
    verdict = Verdict([])
    cache: dict = {}
    for i, (case, got) in enumerate(zip(cases, results)):
        if got is None:
            continue  # already counted as a raising call
        ref, tol = reference(work, case, cache)
        try:
            err = verify.compare(got, ref)
            why = f"rel err {err:.3e} > {tol:g}"
        except ShapeMismatch as exc:
            err, why = float("inf"), str(exc)
        if err <= tol:
            continue
        name = f"{case.layer} {case.op} simplify={case.simplify}"
        defect = known_defect(case, got, tol)
        if defect is None:
            verdict.mismatches.append(f"{name}: {why}")
        else:
            verdict.known[i] = f"{defect}: {name}: {why}"
    return verdict


def perturbed(result: np.ndarray) -> np.ndarray:
    """A copy of ``result`` with its first entry moved by 1e-6 of its scale."""
    bent = np.array(result, dtype=np.float64)
    bent.flat[0] += 1e-6 * (1.0 + float(np.max(np.abs(bent))))
    return bent


def tamper_flagged(work: Workload, cases, results) -> bool:
    """Self-check: a perturbed copy of one result must fail the check."""
    for case, got in zip(cases, results):
        if got is not None and np.size(got):
            return len(check(work, [case], [perturbed(got)]).mismatches) == 1
    return False


def fastest(samples: list[list[float]]) -> list[float | None]:
    """Each case's latency: the fastest of its samples in the run.

    On a shared host the slower samples measure other tenants' load, which
    can swing by a fifth from one second to the next; the fastest sample
    of each call repeats from run to run several times more closely than
    its median does.
    """
    return [min(s) if s else None for s in samples]
