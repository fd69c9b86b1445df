"""Grouped-axis einsum: parsing, contraction planning, and execution.

The equation grammar is einops-flavoured.  An operand term is a sequence of
whitespace-separated atoms; an atom is either a bare index name
(``[a-z][a-z0-9_]*``) or a parenthesised group of two or more names whose
sizes multiply into a single tensor axis, row-major.  Example::

    n (g c_in) i1 i2, i1 o1 k1, (g c_out) c_in k1 k2 -> n (g c_out) o1 o2

Execution never calls a library einsum.  A plan is an ordered list of
pairwise steps, each one batched GEMM.  The cost model is definitional: a
step costs the product of the sizes of the union of its two operands'
indices, counted in multiply-adds, and ``max_intermediate`` is the largest
element count among step results that feed a later step (the output element
count when there are none).  There is one planner: an exact search over
every binary contraction tree, by dynamic programming over operand subsets,
for up to ten operands.

The plan also fixes, from index orders and sizes alone, how each step lays
out its operands and its result, so the executor only follows it: per
operand the axes to sum first, one permutation, one reshape, and whether the
GEMM reads it swapped.  An operand is taken to lie in memory in the order of
its term (a step result in the order of its ``result``), and the rule is:

* a step's result lists the shared indices, then the smaller one-sided
  group (the GEMM's rows), then the larger one (its columns).  A last step
  whose result outgrows both operands instead lists the output's indices in
  the output's order: it ends in a run of rows that one operand alone holds
  and a run of columns that the other alone holds, and the indices before
  them form the batch, where an index that only one operand holds is a unit
  axis of the other's layout, which ``matmul`` broadcasts.  The product is
  then made in the output's order, and no output-sized copy follows.  Where
  that makes GEMMs of fewer than ``_BROADCAST_MIN_TILE`` rows times columns,
  the step takes the order above and the output is permuted after it;
* an operand enters as ``[batch][keep][contracted]`` or
  ``[batch][contracted][keep]``, whichever its own order already is (unit
  indices aside), so it is not copied; if neither, it is copied into the
  one whose last group holds its innermost index, so the copy reads memory
  in order.  Where that is not the GEMM's orientation for the operand, it
  is read swapped, as the transposed view numpy's ``matmul`` takes without
  a copy.  In a step whose batch broadcasts, a copied operand is copied
  whole into the GEMM's own order, so its many small matrices are
  contiguous and unswapped;
* the contracted group takes the order of an operand that is then not
  copied; the larger operand's if both or neither can be.

A strided window view from :mod:`.simplify` lists each kernel leg before its
output leg, so its term order is the order a copy should read it in.
Each plan holds the flat ``program`` that ``contract`` runs in one loop.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .tensor import ShapeMismatch, Tensor, Unsupported

Atom = str | tuple[str, ...]

# the exact planner's search grows as 3^n.  Unsimplified, the KFAC-expand and
# GGN networks over nd spatial dimensions have 2 + 2nd and 4 + 2nd operands, so
# a full GGN network fits up to 3d (10) and is refused in 4d (12); its half, which
# ops contracts once and then squares, has 2 + nd (6 in 4d); simplified it has 4
MAX_OPERANDS = 10

# An expanding last step made in the output's order saves an output-sized
# copy, but a one-sided batch index makes matmul run one small GEMM per batch
# entry, at about 50-120 ns each (one BLAS thread, 2-core Xeon).  Over the
# bundled layers' expanding steps (fastest of 25 alternating calls), tiles of
# 2-25 rows x columns lost (ggn_diagonal 2 x 1: 0.048 -> 0.097 ms) and tiles
# of 32 and more won or tied (transpose_unfold 16 x 16 on resnet_stem, 784
# GEMMs: 0.30 -> 0.14 ms; unfold_kernel 8 x 8 on alexnet_c3: 2.1 -> 0.48 ms).
_BROADCAST_MIN_TILE = 32


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

    def __post_init__(self):  # the terms' flat index orders: taken once, and not compared
        object.__setattr__(self, "operand_indices", tuple(_flatten(t) for t in self.operand_terms))
        object.__setattr__(self, "output_indices", _flatten(self.output_term))

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


def _check_structure(operand_terms, output_term) -> set[str]:
    """The indices the operands hold, once no term repeats one and the output's all appear."""
    seen: set[str] = set()
    for term in operand_terms:
        flat = _flatten(term)
        if len(set(flat)) != len(flat):
            raise ParseError(f"repeated index within one operand: {flat}")
        seen.update(flat)
    out_flat = _flatten(output_term)
    if len(set(out_flat)) != len(out_flat):
        raise ParseError(f"repeated index in output: {out_flat}")
    for i in out_flat:
        if i not in seen:
            raise ParseError(f"output index {i!r} appears in no operand")
    return seen


def make_spec(operand_terms, output_term, sizes: dict[str, int]) -> EinsumSpec:
    """Assemble a spec from already-resolved terms (used by rewrites)."""
    needed = _check_structure(operand_terms, output_term)
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

    Atoms are separated by whitespace ("n (g c) i1, i1 o1 k1 -> ..."), so an
    index name may have several characters: "ab -> ab" has one index.
    """
    if equation.count("->") != 1:
        raise ParseError("equation needs exactly one '->'")
    lhs, rhs = equation.split("->")
    term_texts = lhs.split(",")
    if any(not t.strip() for t in term_texts):
        raise ParseError("empty operand term")
    operand_terms = tuple(_parse_term(t) for t in term_texts)
    output_term = () if not rhs.strip() else _parse_term(rhs)
    all_indices = _check_structure(operand_terms, output_term)

    shapes = [tuple(int(s) for s in shape) for shape in operand_shapes]
    if len(shapes) != len(operand_terms):
        raise ShapeMismatch(
            f"{len(operand_terms)} terms but {len(shapes)} operand shapes"
        )
    for term, shape in zip(operand_terms, shapes):
        if len(term) != len(shape):
            raise ShapeMismatch(f"term {term} does not fit shape {shape}")

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


class Layout(NamedTuple):
    """How a step reads one array, or how the last array becomes the output.

    The axes in ``presum`` are summed away, the rest permuted by ``perm``
    (None when the array is read in its own order) and reshaped to
    ``shape``: one batch axis per run of batch indices that the same operands
    hold (one axis of size 1 when there is no batch), of size 1 where this
    operand lacks the run, then the GEMM's two axes.  A ``swapped`` operand
    is handed to the GEMM as the transposed view of its last two axes, which
    numpy's ``matmul`` reads without a copy.  With ``dense`` (a step whose
    batch broadcasts) a permuted array is copied C-ordered even where numpy
    could reshape it as a view, whose small matrices would be strided.
    """

    presum: tuple[int, ...]
    perm: tuple[int, ...] | None
    shape: tuple[int, ...]
    swapped: bool

    def apply(self, arr: Tensor, dense: bool = False) -> Tensor:
        if self.presum:
            arr = arr.sum(axis=self.presum)
        if self.perm is not None:
            arr = arr.transpose(self.perm)
            if dense:
                arr = np.ascontiguousarray(arr)
        arr = arr.reshape(self.shape)
        return arr.swapaxes(-1, -2) if self.swapped else arr


@dataclass(frozen=True)
class PlanStep:
    """One pairwise contraction, a batched GEMM.

    ``left`` and ``right`` number the operands and then the step results, in
    order.  ``lhs`` reads the left one as ``(*batch, rows, contracted)`` and
    ``rhs`` the right one as ``(*batch, contracted, columns)``; where the two
    batch shapes differ, ``matmul`` broadcasts their unit axes.  The product
    is reshaped to ``shape``, one axis per index of ``result``.
    """

    left: int
    right: int
    result: tuple[str, ...]
    flops: int
    size: int
    lhs: Layout
    rhs: Layout
    shape: tuple[int, ...]


@dataclass(frozen=True)
class ContractionPlan:
    """The steps in execution order, with their cost.

    ``inputs`` holds each operand's flat shape, its grouped axes split;
    ``output`` turns the last result (or the only operand) into the
    output.  ``program`` holds, per step, the positions of the two arrays
    it reads, their layouts, the shape its result is made in and whether its
    batch broadcasts (``Layout.apply``'s ``dense``); ``finish``
    is ``output``, and ``entry`` the shape each operand enters in.  Each
    array is read once, so a layout that only reshapes its array is done by
    the reshape that makes the array (its flat shape otherwise) and is None.
    """

    steps: tuple[PlanStep, ...]
    flops: int
    max_intermediate: int
    inputs: tuple[tuple[int, ...], ...]
    output: Layout

    def __post_init__(self):  # program, finish and entry: taken once, and neither compared nor shown
        made = [*self.inputs, *(s.shape for s in self.steps)]
        reads = [None] * len(made)
        for s in self.steps:
            reads[s.left], reads[s.right] = s.lhs, s.rhs
        reads[-1] = self.output
        for a, layout in enumerate(reads):
            if not (layout.presum or layout.perm is not None or layout.swapped):
                made[a], reads[a] = layout.shape, None
        n = len(self.inputs)
        program = tuple(
            (s.left, s.right, reads[s.left], reads[s.right], made[n + t], s.lhs.shape[:-2] != s.rhs.shape[:-2])
            for t, s in enumerate(self.steps)
        )
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "finish", reads[-1])
        object.__setattr__(self, "entry", tuple(made[:n]))


def _prod_sizes(sizes: dict[str, int], indices) -> int:
    return math.prod([sizes[i] for i in indices])


def _result_order(sizes, left_idx, right_idx, surviving) -> tuple[str, ...]:
    """The kept indices: shared, then those of one operand only, then those of the other.

    The larger one-sided group goes last, as the GEMM's columns: OpenBLAS
    writes a row-major output with few long rows faster than the same
    product as many short rows.  On the ``realistic_first_order`` benchmark
    (one BLAS thread, Xeon) this order ran 482 gather calls/s against 440
    with the left operand's group always first, faster in 9 of 10
    alternating runs.  An expanding last step is made in the output's order
    instead (``_build_plan``).
    """
    lset, rset = set(left_idx), set(right_idx)
    shared = [i for i in left_idx if i in rset and i in surviving]
    ones = [
        [i for i in left_idx if i not in rset and i in surviving],
        [i for i in right_idx if i not in lset and i in surviving],
    ]
    if _prod_sizes(sizes, ones[0]) > _prod_sizes(sizes, ones[1]):
        ones.reverse()
    return tuple(shared + ones[0] + ones[1])


def _layout(idx, big, dead, order, in_order, shape, swapped) -> Layout:
    """Read an array over ``idx`` as ``order``, reshaped to ``shape``, once ``dead`` is summed.

    Only the non-unit indices, those in ``big``, count: ``dead`` and
    ``order`` list no unit index, and ``in_order`` says that ``order`` lists
    them as ``idx`` does, so the reshape alone reads the array in ``order``.
    A permutation puts the unit axes first; the reshape drops them.
    """
    perm = None
    if not in_order:
        rest = [i for a, i in enumerate(idx) if a not in dead]
        perm = tuple([a for a, i in enumerate(rest) if i not in big] + [rest.index(i) for i in order])
    return Layout(dead, perm, shape, swapped)


def _gemm(sizes, result, lset, rset) -> tuple[bool, tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """How one batched GEMM of operands over ``lset`` and ``rset`` makes ``result``.

    Returns whether the two trade sides, and ``result``'s non-unit batch,
    row and column indices.  The columns are the longest run at the end of
    ``result`` that the right operand alone holds, the rows the run before
    it that the left one alone holds, and the rest is the batch.  Of the two
    sides each operand can take, the one with more rows times columns wins,
    else the one that gives the left side the first one-sided index of
    ``result``.
    """
    first = next((i not in lset for i in result if (i in lset) != (i in rset)), False)
    res = [i for i in result if sizes[i] > 1]
    best = None
    for swap in (first, not first):
        rows, cols = (rset, lset) if swap else (lset, rset)
        t = len(res)
        while t and res[t - 1] in cols and res[t - 1] not in rows:
            t -= 1
        r = t
        while r and res[r - 1] in rows and res[r - 1] not in cols:
            r -= 1
        if best is None or _prod_sizes(sizes, res[r:]) > _prod_sizes(sizes, best[2] + best[3]):
            best = (swap, tuple(res[:r]), tuple(res[r:t]), tuple(res[t:]))
    return best


def _step(sizes, left, left_idx, right, right_idx, result) -> PlanStep:
    """The step contracting ``left`` and ``right`` into ``result``, with its operand layouts.

    ``result`` is split by :func:`_gemm`; the operand that holds the rows
    becomes ``left``.  A batch index that only one operand holds is a unit
    axis of the other's layout, which ``matmul`` broadcasts, so a result in
    any order is made C-ordered in that order.  Consecutive batch indices
    that the same operands hold share one axis.

    Each operand (an input, held C-ordered in its term order, or a step
    result, in its ``result`` order) enters as ``[batch][keep][contracted]``
    or ``[batch][contracted][keep]``, whichever is a reshape of its own
    order (unit indices aside), so nothing is copied.  If neither is, it is
    copied into the one whose last group holds its innermost index, so the
    copy walks memory forwards, and read swapped where that is not the
    order the GEMM takes.  Where the batch broadcasts, the copy is made in
    the GEMM's own order instead: its GEMMs are many and small, and OpenBLAS
    runs them fastest on contiguous, unswapped matrices.  The batch and keep
    groups follow ``result``; the contracted group follows the order of an
    operand that is then not copied, the larger operand's if both or
    neither can be.
    """
    lset, rset = set(left_idx), set(right_idx)
    swap, batch, *keeps = _gemm(sizes, result, lset, rset)
    if swap:
        left, left_idx, lset, right, right_idx, rset = right, right_idx, rset, left, left_idx, lset
    kept = set(result)
    # unit indices never decide whether a reshape copies: the orders below omit them
    big = {i for i in lset | rset if sizes[i] > 1}
    lives = (
        tuple([i for i in left_idx if i in big and (i in rset or i in kept)]),
        tuple([i for i in right_idx if i in big and (i in lset or i in kept)]),
    )
    counts = (_prod_sizes(sizes, lives[0]), _prod_sizes(sizes, lives[1]))
    # the batch axes: one per run of batch indices that the same operands hold
    runs: list[list[str]] = []
    for i in batch:
        if runs and (runs[-1][-1] in lset, runs[-1][-1] in rset) == (i in lset, i in rset):
            runs[-1].append(i)
        else:
            runs.append([i])
    # the contracted group follows an operand that its own order already
    # lays out for the GEMM, so that one is not copied; the larger on a tie
    owns = [tuple([i for i in live if i not in kept]) for live in lives]
    held = [tuple([i for i in batch if i in live]) for live in lives]
    fits = [live in (b + keep + own, b + own + keep) for live, b, keep, own in zip(lives, held, keeps, owns)]
    contracted = owns[max((0, 1), key=lambda s: (fits[s], counts[s]))]

    k = _prod_sizes(sizes, contracted)
    lone = any(i not in lset or i not in rset for i in batch)  # the batch broadcasts
    layouts = []
    for s, (idx, own, other) in enumerate(((left_idx, lset, rset), (right_idx, rset, lset))):
        live, keep, m = lives[s], keeps[s], _prod_sizes(sizes, keeps[s])
        b = tuple([_prod_sizes(sizes, run) if run[0] in own else 1 for run in runs]) or (1,)
        # indexed by keep_last; the GEMM reads the left operand keep-first, the right keep-last
        orders = (held[s] + keep + contracted, held[s] + contracted + keep)
        copied = live not in orders
        if copied:
            keep_last = live[-1] in keep if live[-1] not in batch and not lone else s == 1
        else:
            keep_last = s == 1 if live == orders[s] else live == orders[1]
        dead = tuple([a for a, i in enumerate(idx) if i in big and i not in other and i not in kept])
        shape = (*b, k, m) if keep_last else (*b, m, k)
        layouts.append(_layout(idx, big, dead, orders[keep_last], not copied, shape, keep_last != (s == 1)))
    shape = tuple([sizes[i] for i in result])
    return PlanStep(left, right, result, _prod_sizes(sizes, lset | rset), math.prod(shape), *layouts, shape)


def _build_plan(spec: EinsumSpec, pairs) -> ContractionPlan:
    """The plan that runs ``pairs``, each ``(left, right, result)``, in order.

    A last step whose result outgrows both operands is made in the output's
    order, whatever ``result`` says, so that no output-sized copy follows
    it, unless that order broadcasts a batch index over GEMMs of fewer than
    ``_BROADCAST_MIN_TILE`` rows times columns each.
    """
    sizes, idx, out = spec.sizes, list(spec.operand_indices), spec.output_indices
    steps = []
    for t, (left, right, result) in enumerate(pairs):
        operands = idx[left], idx[right]
        if t == len(pairs) - 1 and _prod_sizes(sizes, result) > max(_prod_sizes(sizes, o) for o in operands):
            lset, rset = map(set, operands)
            _, batch, rows, cols = _gemm(sizes, out, lset, rset)
            shared = all(i in lset and i in rset for i in batch)
            if shared or _prod_sizes(sizes, rows + cols) >= _BROADCAST_MIN_TILE:
                result = out
        steps.append(_step(sizes, left, idx[left], right, idx[right], result))
        idx.append(result)
    last, out_shape = idx[-1], spec.output_shape()
    big = {i for i in last if sizes[i] > 1}
    dead = tuple(a for a, i in enumerate(last) if i in big and i not in out)
    order = tuple(i for i in out if i in big)
    in_order = order == tuple(i for i in last if i in big and i in out)
    fed = [s.size for s in steps[:-1]]
    return ContractionPlan(
        steps=tuple(steps),
        flops=sum(s.flops for s in steps),
        max_intermediate=max(fed, default=math.prod(out_shape)),
        inputs=tuple(tuple([sizes[i] for i in flat]) for flat in spec.operand_indices),
        output=_layout(last, big, dead, order, in_order, out_shape, False),
    )


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

    for bits in leaf:
        size(bits)
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
                # every entering index set is sized already: divide out the shared ones
                a, b = enter[sub], enter[rest]
                step = size_of[a] * size_of[b] // (size_of.get(a & b) or size(a & b))
                cand = (base + step, max(fed[sub], fed[rest], res), sub)
                if cand < best:
                    best = cand
            sub = (sub - 1) & others
        flops[mask], fed[mask], split[mask] = best

    pairs: list[tuple[int, int, tuple[str, ...]]] = []

    def emit(mask: int) -> tuple[int, tuple[str, ...]]:
        if mask & (mask - 1) == 0:
            i = mask.bit_length() - 1
            return i, ops_idx[i]
        id_a, idx_a = emit(split[mask])
        id_b, idx_b = emit(mask ^ split[mask])
        kept = {i for i in sizes if surv[mask] & bit[i]}
        # an expanding last step is given the output's order by _build_plan, which left-deep plans share
        pairs.append((id_a, id_b, _result_order(sizes, idx_a, idx_b, kept)))
        return n + len(pairs) - 1, pairs[-1][2]

    emit(full)
    return _build_plan(spec, pairs)


def plan(spec: EinsumSpec) -> ContractionPlan:
    """The flop-optimal pairwise contraction order for ``spec``, with every step's layouts.

    Every network of up to ``MAX_OPERANDS`` operands gets the exact plan
    over all binary trees, which for one operand has no step.  The search
    grows as 3^n, so a larger network raises :class:`Unsupported` before
    any work.
    """
    n = len(spec.operand_terms)
    if n > MAX_OPERANDS:
        raise Unsupported(f"{n} operands: exact planning stops at {MAX_OPERANDS}")
    return _plan_optimal(spec)


def in_result_order(spec: EinsumSpec, plan_: ContractionPlan) -> tuple[EinsumSpec, ContractionPlan]:
    """``spec`` with its output in the order ``plan_`` leaves it in, and its plan.

    That order is the last step's result, or the only operand's own order
    less its summed indices, so the returned plan ends without a copy.  It
    is the plan ``plan`` makes for the returned spec, found without a
    second search.
    """
    if plan_.steps:
        order = plan_.steps[-1].result
    else:
        out = set(spec.output_indices)
        order = tuple(i for i in spec.operand_indices[0] if i in out)
    spec = make_spec(spec.operand_terms, order, spec.sizes)
    output = Layout(plan_.output.presum, None, spec.output_shape(), False)
    return spec, replace(plan_, output=output)


def contract(spec: EinsumSpec, operands, plan_: ContractionPlan) -> Tensor:
    """Execute ``plan_`` for ``spec`` and return the grouped output tensor.

    The operands are trusted: each must be a float64 array of its term's
    shape, which the op layer (``ops``, ``crs``) checks once per call, before
    the rewrites gather them.  Each is reshaped to its entry shape, and
    one loop runs the plan's ``program``, each step reading its operands in
    the layouts the plan fixed, so execution decides nothing.  Any valid
    plan over the same spec yields the same values.
    """
    arrays = [arr.reshape(shape) for arr, shape in zip(operands, plan_.entry)]
    for left, right, lhs_layout, rhs_layout, shape, dense in plan_.program:
        lhs, rhs = arrays[left], arrays[right]
        arrays[left] = arrays[right] = None  # each array feeds one step
        if lhs_layout is not None:
            lhs = lhs_layout.apply(lhs, dense)
        if rhs_layout is not None:
            rhs = rhs_layout.apply(rhs, dense)
        # an outer product: numpy's matmul is several times slower here than broadcasting
        out = lhs * rhs if lhs.shape[-1] == 1 else np.matmul(lhs, rhs)
        arrays.append(out.reshape(shape))
    out = arrays[-1]
    if plan_.finish is not None:
        out = plan_.finish.apply(out)
    # ascontiguousarray would silently promote a 0-d result to shape (1,)
    return np.ascontiguousarray(out) if out.ndim else out
