"""Grouped-axis einsum: parsing, contraction planning, and execution.

The equation grammar is einops-flavoured.  An operand term is a sequence of
whitespace-separated atoms; an atom is either a bare index name
(``[a-z][a-z0-9_]*``) or a parenthesised group of two or more names whose
sizes multiply into a single tensor axis, row-major.  Example::

    n (g c_in) i1 i2, i1 o1 k1, (g c_out) c_in k1 k2 -> n (g c_out) o1 o2

Execution never calls a library einsum.  A plan is an ordered list of
pairwise steps; each step permutes, flattens, and batch-multiplies two
operands.  The cost model is definitional: a step costs the product of the
sizes of the union of its two operands' indices, counted in multiply-adds,
and ``max_intermediate`` is the largest element count among step results
that feed a later step (the output element count when there are none).
There is one planner: an exact search over every binary contraction tree,
by dynamic programming over operand subsets, for up to ten operands.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeMismatch, Tensor, Unsupported

Atom = str | tuple[str, ...]

# the exact planner's search grows as 3^n.  Unsimplified, the KFAC-expand and
# GGN networks over nd spatial dimensions have 2 + 2nd and 4 + 2nd operands, so
# a GGN network fits up to 3d (10) and is refused in 4d (12); simplified it has 4
MAX_OPERANDS = 10


class ParseError(ValueError):
    """Equation text violates the grammar or names are inconsistent."""


class SizeConflict(ValueError):
    """Two constraints assign an index incompatible sizes."""


class UnderdeterminedGroup(ValueError):
    """A grouped axis leaves two or more member sizes unresolved."""


_INDEX = r"[a-z][a-z0-9_]*"
_GROUP = rf"\((?:\s*{_INDEX}){{2,}}\s*\)"
_ATOM = rf"(?:{_INDEX}|{_GROUP})"
_TERM_RE = re.compile(rf"\s*{_ATOM}(?:\s+{_ATOM})*\s*")
_ATOM_RE = re.compile(_ATOM)
_INDEX_RE = re.compile(_INDEX)
_COMPACT_RE = re.compile(r"\s*[a-z]+\s*(?:,\s*[a-z]+\s*)*->\s*[a-z]*\s*")


def _flatten(term: tuple[Atom, ...]) -> tuple[str, ...]:
    flat: list[str] = []
    for atom in term:
        if isinstance(atom, str):
            flat.append(atom)
        else:
            flat.extend(atom)
    return tuple(flat)


@dataclass(frozen=True, eq=True)
class EinsumSpec:
    """A fully size-resolved contraction: terms, output, and index sizes."""

    operand_terms: tuple[tuple[Atom, ...], ...]
    output_term: tuple[Atom, ...]
    sizes: dict[str, int]

    @property
    def operand_indices(self) -> tuple[tuple[str, ...], ...]:
        return tuple(_flatten(t) for t in self.operand_terms)

    @property
    def output_indices(self) -> tuple[str, ...]:
        return _flatten(self.output_term)

    def output_shape(self) -> tuple[int, ...]:
        return tuple(
            math.prod(self.sizes[i] for i in (atom if isinstance(atom, tuple) else (atom,)))
            for atom in self.output_term
        )


def _parse_term(text: str) -> tuple[Atom, ...]:
    if _TERM_RE.fullmatch(text) is None:
        raise ParseError(f"malformed term {text!r}")
    atoms: list[Atom] = []
    for m in _ATOM_RE.finditer(text):
        token = m.group(0)
        if token.startswith("("):
            atoms.append(tuple(_INDEX_RE.findall(token)))
        else:
            atoms.append(token)
    return tuple(atoms)


def _check_structure(operand_terms, output_term) -> None:
    for term in operand_terms:
        flat = _flatten(term)
        if len(set(flat)) != len(flat):
            raise ParseError(f"repeated index within one operand: {flat}")
    out_flat = _flatten(output_term)
    if len(set(out_flat)) != len(out_flat):
        raise ParseError(f"repeated index in output: {out_flat}")
    seen = {i for term in operand_terms for i in _flatten(term)}
    for i in out_flat:
        if i not in seen:
            raise ParseError(f"output index {i!r} appears in no operand")


def make_spec(operand_terms, output_term, sizes: dict[str, int]) -> EinsumSpec:
    """Assemble a spec from already-resolved terms (used by rewrites)."""
    _check_structure(operand_terms, output_term)
    needed = {i for term in operand_terms for i in _flatten(term)}
    missing = sorted(needed - sizes.keys())
    if missing:
        raise SizeConflict(f"no size for indices {missing}")
    return EinsumSpec(tuple(operand_terms), tuple(output_term), {i: int(sizes[i]) for i in needed})


def parse(
    equation: str,
    operand_shapes,
    sizes: dict[str, int] | None = None,
) -> EinsumSpec:
    """Parse an equation against operand shapes and resolve every index size.

    ``sizes`` optionally seeds known index sizes, which is how grouped axes
    like ``(g c_in)`` with two unknown members become resolvable.  Without a
    sufficient seed such a group raises :class:`UnderdeterminedGroup`.

    Two spellings are accepted.  The primary form separates atoms with
    whitespace ("n (g c) i1, i1 o1 k1 -> ..."), so an index name may have
    several characters.  An equation whose terms are bare letter runs with
    no spaces, groups, digits, or underscores ("ij,jk->ik") is read in the
    classic letter-per-axis style instead.
    """
    if equation.count("->") != 1:
        raise ParseError("equation needs exactly one '->'")
    lhs, rhs = equation.split("->")
    term_texts = lhs.split(",")
    if any(not t.strip() for t in term_texts):
        raise ParseError("empty operand term")
    if _COMPACT_RE.fullmatch(equation):
        operand_terms = tuple(tuple(t.strip()) for t in term_texts)
        output_term: tuple[Atom, ...] = tuple(rhs.strip())
    else:
        operand_terms = tuple(_parse_term(t) for t in term_texts)
        output_term = () if not rhs.strip() else _parse_term(rhs)
    _check_structure(operand_terms, output_term)

    shapes = [tuple(int(s) for s in shape) for shape in operand_shapes]
    if len(shapes) != len(operand_terms):
        raise ShapeMismatch(
            f"{len(operand_terms)} terms but {len(shapes)} operand shapes"
        )
    for term, shape in zip(operand_terms, shapes):
        if len(term) != len(shape):
            raise ShapeMismatch(f"term {term} does not fit shape {shape}")

    all_indices = {i for term in operand_terms for i in _flatten(term)}
    known: dict[str, int] = {}
    for name, value in (sizes or {}).items():
        if name not in all_indices:
            raise ParseError(f"seeded size for unknown index {name!r}")
        if int(value) < 1:
            raise SizeConflict(f"index {name!r} seeded with non-positive size {value}")
        known[name] = int(value)

    progress = True
    while progress:
        progress = False
        for term, shape in zip(operand_terms, shapes):
            for atom, axis_len in zip(term, shape):
                if axis_len < 1:
                    raise SizeConflict(f"zero-length axis in shape {shape}")
                if isinstance(atom, str):
                    if atom not in known:
                        known[atom] = axis_len
                        progress = True
                    elif known[atom] != axis_len:
                        raise SizeConflict(
                            f"index {atom!r} is both {known[atom]} and {axis_len}"
                        )
                    continue
                unknown = [m for m in atom if m not in known]
                resolved = math.prod(known[m] for m in atom if m in known)
                if not unknown:
                    if resolved != axis_len:
                        raise SizeConflict(
                            f"group {atom} sizes multiply to {resolved}, axis is {axis_len}"
                        )
                elif len(unknown) == 1:
                    if axis_len % resolved:
                        raise SizeConflict(
                            f"axis {axis_len} not divisible by {resolved} for group {atom}"
                        )
                    known[unknown[0]] = axis_len // resolved
                    progress = True

    for term in operand_terms:
        for atom in term:
            if isinstance(atom, tuple):
                unknown = [m for m in atom if m not in known]
                if len(unknown) >= 2:
                    raise UnderdeterminedGroup(
                        f"group {atom}: cannot infer sizes of {unknown}"
                    )
    return EinsumSpec(operand_terms, output_term, known)


@dataclass(frozen=True)
class PlanStep:
    left: int
    right: int
    result: tuple[str, ...]
    flops: int
    size: int


@dataclass(frozen=True)
class ContractionPlan:
    steps: tuple[PlanStep, ...]
    flops: int
    max_intermediate: int


def _prod_sizes(sizes: dict[str, int], indices) -> int:
    return math.prod(sizes[i] for i in indices)


def _result_order(left_idx, right_idx, surviving, order=None) -> tuple[str, ...]:
    """Shared, then left-only, then right-only kept indices; ``order`` sorts each group."""
    lset, rset = set(left_idx), set(right_idx)
    groups = (
        [i for i in left_idx if i in rset and i in surviving],
        [i for i in left_idx if i not in rset and i in surviving],
        [i for i in right_idx if i not in lset and i in surviving],
    )
    if order is not None:
        groups = (sorted(g, key=order.index) for g in groups)
    return tuple(i for g in groups for i in g)


def _plan_optimal(spec: EinsumSpec) -> ContractionPlan:
    """Exact minimum-flop plan via dynamic programming over operand subsets.

    Index sets are integer bitsets, one bit per index.  A split whose two
    halves already cost as much as the best plan found is skipped.  Ties
    fall to the plan with the smaller fed intermediate, then to the smaller
    first subset, so the result is deterministic.
    """
    ops_idx, sizes = spec.operand_indices, spec.sizes
    n, full = len(ops_idx), (1 << len(ops_idx)) - 1
    bit = {name: 1 << b for b, name in enumerate(sizes)}
    leaf = [sum(bit[i] for i in idx) for idx in ops_idx]
    out_bits = sum(bit[i] for i in spec.output_indices)
    union = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        union[mask] = union[mask ^ low] | leaf[low.bit_length() - 1]
    surv = [union[m] & (out_bits | union[full ^ m]) for m in range(full + 1)]
    # a leaf enters a step with its full index set, a composite with only
    # its surviving indices (that is the tensor that exists)
    enter = surv[:]
    for i in range(n):
        enter[1 << i] = leaf[i]
    size_of = {0: 1} | {bit[i]: sizes[i] for i in bit}

    def size(bits: int) -> int:
        product, rest = 1, bits
        while rest:
            low = rest & -rest
            product, rest = product * size_of[low], rest ^ low
        size_of[bits] = product
        return product

    # per subset: flops, max fed intermediate, chosen first half
    flops, fed, split = [0] * (full + 1), [0] * (full + 1), [0] * (full + 1)
    for mask in range(3, full + 1):
        if mask & (mask - 1) == 0:
            continue
        # the first half never holds the top operand, so each split is seen once
        others = mask ^ (1 << (mask.bit_length() - 1))
        res = 0 if mask == full else size(surv[mask])
        best = (math.inf, 0, 0)
        sub = others
        while sub:
            rest = mask ^ sub
            base = flops[sub] + flops[rest]
            if base < best[0]:
                both = enter[sub] | enter[rest]
                step = size_of.get(both) or size(both)
                cand = (base + step, max(fed[sub], fed[rest], res), sub)
                if cand < best:
                    best = cand
            sub = (sub - 1) & others
        flops[mask], fed[mask], split[mask] = best

    steps: list[PlanStep] = []

    def emit(mask: int) -> tuple[int, tuple[str, ...]]:
        if mask & (mask - 1) == 0:
            i = mask.bit_length() - 1
            return i, ops_idx[i]
        id_a, idx_a = emit(split[mask])
        id_b, idx_b = emit(mask ^ split[mask])
        kept = {i for i in sizes if surv[mask] & bit[i]}
        # a last step whose result outgrows both operands follows the output's
        # order: the closing permutation then copies longer contiguous runs, or nothing
        grows = _prod_sizes(sizes, kept) > max(_prod_sizes(sizes, idx) for idx in (idx_a, idx_b))
        order = spec.output_indices if mask == full and grows else None
        result = _result_order(idx_a, idx_b, kept, order)
        step_flops = _prod_sizes(sizes, set(idx_a) | set(idx_b))
        steps.append(PlanStep(id_a, id_b, result, step_flops, _prod_sizes(sizes, result)))
        return n + len(steps) - 1, result

    emit(full)
    feeding = [s.size for s in steps[:-1]]
    max_inter = max(feeding, default=math.prod(spec.output_shape()))
    return ContractionPlan(tuple(steps), flops[full], max_inter)


def plan(spec: EinsumSpec) -> ContractionPlan:
    """The flop-optimal pairwise contraction order for ``spec``.

    Every network of 2 to ``MAX_OPERANDS`` operands gets the exact plan over
    all binary trees.  The search grows as 3^n, so a larger network raises
    :class:`Unsupported` before any work.
    """
    n = len(spec.operand_terms)
    if n > MAX_OPERANDS:
        raise Unsupported(f"{n} operands: exact planning stops at {MAX_OPERANDS}")
    if n == 1:
        return ContractionPlan((), 0, math.prod(spec.output_shape()))
    return _plan_optimal(spec)


def _ungroup_operand(spec: EinsumSpec, pos: int, arr: Tensor) -> tuple[tuple[str, ...], Tensor]:
    term = spec.operand_terms[pos]
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != len(term):
        raise ShapeMismatch(
            f"operand {pos}: ndim {arr.ndim} does not match term {term}"
        )
    flat_shape: list[int] = []
    for atom, axis_len in zip(term, arr.shape):
        if isinstance(atom, str):
            expect = spec.sizes[atom]
            if axis_len != expect:
                raise ShapeMismatch(
                    f"operand {pos}: axis {atom!r} is {axis_len}, expected {expect}"
                )
            flat_shape.append(expect)
        else:
            member_sizes = [spec.sizes[m] for m in atom]
            if math.prod(member_sizes) != axis_len:
                raise ShapeMismatch(
                    f"operand {pos}: group {atom} expects axis {math.prod(member_sizes)},"
                    f" got {axis_len}"
                )
            flat_shape.extend(member_sizes)
    return _flatten(term), arr.reshape(flat_shape)


def _pairwise(sizes, left_idx, left, right_idx, right, result):
    """Contract two operands into the plan's layout ``result`` (see ``_result_order``)."""
    lset, rset, surviving = set(left_idx), set(right_idx), set(result)

    def presum(idx, arr, other, keep):
        dead = [i for i in idx if i not in other and i not in keep]
        if dead:
            arr = arr.sum(axis=tuple(idx.index(d) for d in dead))
            idx = tuple(i for i in idx if i not in dead)
        return idx, arr

    left_idx, left = presum(left_idx, left, rset, surviving)
    right_idx, right = presum(right_idx, right, lset, surviving)

    batch = [i for i in result if i in lset and i in rset]
    contracted = [i for i in left_idx if i in rset and i not in surviving]
    left_keep = [i for i in result if i not in rset]
    right_keep = [i for i in result if i not in lset]
    left = np.transpose(left, [left_idx.index(i) for i in batch + left_keep + contracted])
    right = np.transpose(right, [right_idx.index(i) for i in batch + contracted + right_keep])
    b = _prod_sizes(sizes, batch)
    m = _prod_sizes(sizes, left_keep)
    k = _prod_sizes(sizes, contracted)
    n = _prod_sizes(sizes, right_keep)
    lhs, rhs = left.reshape(b, m, k), right.reshape(b, k, n)
    # an outer product: numpy's matmul is several times slower here than broadcasting
    out = lhs * rhs if k == 1 else np.matmul(lhs, rhs)
    return out.reshape(tuple(sizes[i] for i in result))


def contract(spec: EinsumSpec, operands, plan_: ContractionPlan | None = None) -> Tensor:
    """Execute the contraction and return the grouped output tensor.

    Operands are validated against the resolved index sizes.  Each step's
    result takes the layout its ``PlanStep.result`` lists.  Any valid plan
    over the same spec yields the same values.
    """
    if len(operands) != len(spec.operand_terms):
        raise ShapeMismatch(
            f"spec has {len(spec.operand_terms)} operands, got {len(operands)}"
        )
    if plan_ is None:
        plan_ = plan(spec)
    env: dict[int, tuple[tuple[str, ...], Tensor]] = {}
    for pos, arr in enumerate(operands):
        env[pos] = _ungroup_operand(spec, pos, arr)

    for next_id, step in enumerate(plan_.steps, len(operands)):
        left_idx, left = env.pop(step.left)
        right_idx, right = env.pop(step.right)
        res = _pairwise(spec.sizes, left_idx, left, right_idx, right, step.result)
        env[next_id] = (step.result, res)

    out_flat = spec.output_indices
    ((last_idx, last),) = env.values()
    extra = [i for i in last_idx if i not in out_flat]
    if extra:
        last = last.sum(axis=tuple(last_idx.index(i) for i in extra))
        last_idx = tuple(i for i in last_idx if i not in extra)
    if last_idx != out_flat:
        last = np.transpose(last, [last_idx.index(i) for i in out_flat])
    out = last.reshape(spec.output_shape())
    # ascontiguousarray would silently promote a 0-d result to shape (1,)
    return np.ascontiguousarray(out) if out.ndim else out
