"""Structural rewrites that remove index-pattern operands before planning.

An ``(i, o, k)`` pattern only relates input position ``i`` to the pair
``(o, k)`` through ``i == o*S + k*D - P``; any two legs fix the third.  So
whenever its input leg has exactly one other occurrence, the pattern need
not be multiplied as a dense ``I x O x K`` table:

* **Gather.**  The other occurrence is a bare axis of a data operand.  That
  operand is read as a strided view whose axis ``i`` becomes the two axes
  ``(k, o)`` (dilation ``D``, stride ``S``) over a copy zero-padded by ``P``,
  or over the operand itself when ``P == 0``.  The output leg comes last:
  it is the long leg that sweeps the whole axis, so a copy that reads the
  view in its term order walks memory forwards in long runs.  This is
  im2col; the dense (reshape) and down-sampling (narrow) patterns are its
  zero-copy cases.
* **Gather through the output leg.**  The other occurrence is the output,
  the stride is 1, the output leg is a bare axis of exactly one data
  operand and the kernel leg sits on another operand or in the output.
  Then ``o == i + P - k*D``, and that operand is read as a view whose axis
  ``o`` becomes ``(k, i)``: the kernel leg at stride ``-D``, over a copy
  zero-padded by ``(K-1)*D - P`` on each side, or from an offset into the
  operand itself when that is not positive.  This is the direct
  convolution with the flipped kernel that a stride-1 transposed
  convolution is; ``i`` stays an output index, so nothing is folded.
* **Narrowed.**  The input leg is shorter in the spec than its
  ``DimSpec``'s, as ``crs`` keeps some rows of ``x``, and the pattern's slot
  holds their indices at call time.  At stride 1 the output leg's holder
  is read as ``(k, i)`` at the kept ``i`` only (:class:`Take`), so ``i``
  is summed at the kept rows' cost; at stride > 1 the input leg's holder is
  gathered over a zeroed buffer of all ``I`` rows that holds its kept ones.
* **Fold.**  The other occurrence is the output otherwise.  The contraction
  produces ``(o, k)`` in place of ``i`` (only ``o`` when no other operand
  carries ``k``), and :class:`Fold` writes it back with one strided
  slice-add per kernel offset, or, when ``k`` is an output leg or the
  offsets span less than one stride, with one assignment per run of
  offsets that reach the same outputs (one for every unpadded layer).
* **Diagonal fold.**  The output also holds ``o``, and ``k`` sits on exactly
  one data operand: the unfolded kernel (Toeplitz matrix).  The contraction
  produces ``k`` in place of ``(o, i)``, and :class:`Fold` assigns each run
  of kernel offsets, broadcast over ``o``, to the output's strided
  diagonal view where ``i == o*S + k*D - P``.

Patterns whose input leg meets another pattern or several tensors are left
alone, so rewriting never changes values.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import einsum
from .pattern import DimSpec, output_size
from .tensor import Tensor, Unsupported


class RewriteKind(enum.Enum):
    GATHER = "gather"
    FOLD = "fold"


@dataclass(frozen=True)
class RewriteStep:
    kind: RewriteKind
    operand: int


def _c_strides(shape) -> list[int]:
    """The byte strides of a C-ordered float64 array of ``shape``."""
    return [8 * math.prod(shape[a + 1 :]) for a in range(len(shape))]


@dataclass(frozen=True)
class Gather:
    """Read one operand as the strided view of every kernel window.

    ``padded`` is the zero-padded shape (None when no gathered axis is
    padded) and ``interior`` the slice of it the operand fills; ``offset``,
    ``shape`` and ``strides`` describe the view.  A gathered axis ``i`` is
    the pair ``(k, o)`` reading ``x_padded[..., k*D + o*S, ...]``; a
    gathered axis ``o`` (stride 1) is the pair ``(k, i)`` reading
    ``y[..., i + P - k*D, ...]``, over ``y`` padded by ``(K-1)*D - P`` on
    each side, or from that offset when it is negative.  ``apply`` trusts
    ``operands[p]`` to be float64 of the operand's shape.  It pads into
    ``buffers[p]``, zeroed on first use, and later refills only its
    interior.  An axis ``i`` narrowed to kept rows is padded to all ``I``
    rows: ``scatter`` holds each such axis and the slot of its kept rows,
    which are put in their places, so a dropped row reads zero.
    """

    padded: tuple[int, ...] | None
    interior: tuple[slice, ...]
    offset: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    scatter: tuple[tuple[int, int], ...] = ()

    @classmethod
    def build(cls, in_shape, axes: dict[int, tuple]) -> "Gather":
        """The view of an operand of ``in_shape`` whose axis ``a`` is ``dim``'s
        input leg, or its output leg where ``axes[a]`` is ``(dim, True, None)``,
        or its input leg narrowed to the rows in slot ``s`` for ``(dim, False, s)``."""
        pads, in_shape, scatter = {}, list(in_shape), []
        for a, (d, through_o, s) in sorted(axes.items()):
            pad = (d.kernel_size - 1) * d.dilation - d.padding if through_o else d.padding
            if pad > 0:
                pads[a] = pad
            if s is not None:
                in_shape[a] = d.input_size
                scatter.append((a, s))
        base = tuple(n + 2 * pads.get(a, 0) for a, n in enumerate(in_shape))
        offset, shape, strides = 0, [], []
        for a, (n, st) in enumerate(zip(base, _c_strides(base))):
            if a not in axes:
                shape.append(n)
                strides.append(st)
                continue
            d, through_o, _ = axes[a]
            if through_o:  # k = K-1 and i = 0 read the first padded entry, or y[P - (K-1)*D]
                offset += max((d.kernel_size - 1) * d.dilation, d.padding) * st
                shape += [d.kernel_size, d.input_size]
                strides += [-d.dilation * st, st]
            else:
                shape += [d.kernel_size, output_size(d)]
                strides += [d.dilation * st, d.stride * st]
        interior = tuple(slice(pads.get(a, 0), pads.get(a, 0) + n) for a, n in enumerate(in_shape))
        padded = base if pads or scatter else None
        return cls(padded, interior, offset, tuple(shape), tuple(strides), tuple(scatter))

    def apply(self, operands, p: int, buffers: dict) -> Tensor:
        if self.padded is None:
            buf = np.ascontiguousarray(operands[p])
        else:
            buf = buffers.get(p)
            if buf is None:
                buf = buffers[p] = np.zeros(self.padded)
            arr, index = operands[p], list(self.interior)
            for n, (a, s) in enumerate(self.scatter):
                index[a] = operands[s] + index[a].start
                if n + 1 < len(self.scatter):  # one index array per assignment: widen this axis first
                    wide = np.zeros(arr.shape[:a] + (self.padded[a],) + arr.shape[a + 1 :])
                    wide[(slice(None),) * a + (index[a],)] = arr
                    arr, index[a] = wide, slice(None)
            buf[tuple(index)] = arr
        return np.ndarray(self.shape, np.float64, buf, self.offset, self.strides)


@dataclass(frozen=True)
class Take:
    """Read one operand's output legs at the kept rows of narrowed patterns.

    ``axes`` holds per axis ``o``, last first as each take widens its axis,
    the axis, the slot holding the kept rows ``i`` and the dimension.  The
    new axes ``(k, i)`` read ``y[..., i + P - k*D, ...]`` by one clipped
    index take from the operand's own buffer, zeroed outside ``[0, O)``.
    The kept rows hold no batch index, so each axis's ``(K, I')`` index and
    the entries it zeroes are made once per call and kept in
    ``buffers[p]`` for the call's other slices.
    """

    axes: tuple[tuple[int, int, DimSpec], ...]

    def apply(self, operands, p: int, buffers: dict) -> Tensor:
        reads = buffers.get(p)
        if reads is None:
            reads = buffers[p] = []
            for a, rows, d in self.axes:
                o = operands[rows] + (d.padding - d.dilation * np.arange(d.kernel_size))[:, None]
                reads.append((a, o, (slice(None),) * a + np.nonzero((o < 0) | (o >= output_size(d)))))
        arr = operands[p]
        for a, o, zero in reads:
            arr = np.take(arr, o, axis=a, mode="clip")
            arr[zero] = 0.0
        return arr


@dataclass(frozen=True)
class _FoldStage:
    """Fold some legs of ``z`` into a fresh array of ``shape``, or into ``out``.

    ``out`` must be a zeroed C-contiguous array of as many elements.  The
    first axis of both shapes is the rows: the axes that lead ``z`` and the
    array alike, merged into one (a unit axis where there are none).
    ``writes`` holds, per block of rows and combination of kernel offset
    runs (``_fold_writes``), the view of that array it writes, as a byte
    offset, shape and strides whose axes follow ``z``'s with one more per
    run, and the index into ``z`` it reads.
    """

    z_shape: tuple[int, ...]
    shape: tuple[int, ...]
    writes: tuple[tuple[tuple[int, tuple[int, ...], tuple[int, ...]], tuple], ...]
    accumulate: bool

    def apply(self, z: Tensor, out: Tensor | None = None) -> Tensor:
        z = z.reshape(self.z_shape)
        out = np.zeros(self.shape) if out is None else out.reshape(self.shape)
        for (offset, shape, strides), src in self.writes:
            view = np.ndarray(shape, np.float64, out, offset, strides)
            if self.accumulate:
                view += z[src]
            else:
                view[...] = z[src]
        return out


@dataclass(frozen=True)
class Fold:
    """Write the contraction's legs back to positions ``i = o*S + k*D - P``.

    The contraction result is read in the axis order its last step leaves
    it in, so no transpose copies it.  Each fold that sums its kernel leg is
    its own stage of ``K`` slice-adds, which costs fewer calls than one
    slice-add per offset combination.  The folds that write each output
    entry at most once, those that keep their kernel leg, the diagonal ones
    and those whose kernel spans less than one stride, share one final stage
    of assignments, one per combination of runs of offsets with the same
    outputs, since an intermediate would be output-sized.  Where that stage
    keeps a kernel leg, it goes block by block over its rows (``_fold``).
    """

    stages: tuple[_FoldStage, ...]
    out_shape: tuple[int, ...]

    def apply(self, z: Tensor, out: Tensor | None = None) -> Tensor:
        """The folded output, written into ``out`` (zeroed, C-contiguous) when given."""
        *first, last = self.stages
        for stage in first:
            z = stage.apply(z)
        return last.apply(z, out).reshape(self.out_shape)


@dataclass(frozen=True)
class _FoldDim:
    i: str
    o: str
    k: str
    dim: DimSpec
    k_in_result: bool
    k_in_output: bool
    diagonal: bool  # o stays in the output: the result's k leg goes along the (o, i) diagonal

    @property
    def once(self) -> bool:
        """Whether each output entry is written at most once.

        Kernel offsets that span less than one stride, ``(K - 1) * D < S``,
        reach disjoint positions, so no two ``(o, k)`` pairs meet at one ``i``.
        """
        d = self.dim
        return self.k_in_output or self.diagonal or (d.kernel_size - 1) * d.dilation < d.stride


def _runs(d: DimSpec, merge: bool) -> list[tuple[int, int, int, int]]:
    """The runs ``(k0, k1, lo, hi)`` of kernel offsets ``k0 <= k < k1`` that
    reach the input, ``i = o*S + k*D - P``, at the outputs ``o`` in ``[lo, hi)``.
    Consecutive offsets with the same range form one run when ``merge`` (the
    valid-range arithmetic of transposed convolutions, Dumoulin & Visin 2016),
    else each is its own.  Offsets that reach none are left out."""
    runs = []
    for k in range(d.kernel_size):
        shift = k * d.dilation - d.padding
        lo = max(0, -(shift // d.stride))
        hi = min(output_size(d), (d.input_size - 1 - shift) // d.stride + 1)
        if merge and runs and runs[-1][1:] == (k, lo, hi):
            runs[-1] = (runs[-1][0], k + 1, lo, hi)
        elif lo < hi:
            runs.append((k, k + 1, lo, hi))
    return runs


def _fold_writes(folds, z_names, names, sizes, merge: bool, block: int):
    """Per block of ``block`` rows and combination of kernel offset runs
    (``_runs``), the view of a C-ordered array over ``names`` that it writes
    and the index into the result over ``z_names`` that it reads.

    Both lead with the rows.  A run adds an axis at stride ``D`` along ``i``,
    plus one along ``k`` where ``k`` is an output leg.  It reads ``z`` at its
    offsets where ``z`` holds ``k``, and is broadcast from a unit axis where
    ``z`` does not, or along the diagonal's ``o``.
    """
    stride = dict(zip(names, _c_strides([sizes[x] for x in names])))
    rows, writes = z_names[0], []
    for r, runs in itertools.product(
        range(0, sizes[rows], block), itertools.product(*(_runs(f.dim, merge) for f in folds))
    ):
        offset = r * stride[rows]
        axes = {x: [(sizes[x], stride[x])] for x in z_names if x in stride}
        axes[rows] = [(min(block, sizes[rows] - r), stride[rows])]
        src = {x: (slice(None),) for x in z_names} | {rows: (slice(r, r + block),)}
        for f, (k0, k1, lo, hi) in zip(folds, runs):
            d = f.dim
            offset += (lo * d.stride + k0 * d.dilation - d.padding) * stride[f.i]
            run = (k1 - k0, d.dilation * stride[f.i] + (stride[f.k] if f.k_in_output else 0))
            if f.diagonal:
                # out[o, o*S + k*D - P] for o in [lo, hi), all from z's entry at k
                offset += lo * stride[f.o]
                axes[f.k] = [run, (hi - lo, stride[f.o] + d.stride * stride[f.i])]
                src[f.k] = (slice(k0, k1), None)
                continue
            if f.k_in_output:
                offset += k0 * stride[f.k]
            view = (hi - lo, d.stride * stride[f.i])
            if f.k_in_result:
                axes[f.k], src[f.k] = [run], (slice(k0, k1),)
                axes[f.o], src[f.o] = [view], (slice(lo, hi),)
            else:
                axes[f.o], src[f.o] = [run, view], (None, slice(lo, hi))
        shape, strides = zip(*(a for x in z_names if x in axes for a in axes[x]))
        writes.append(((offset, shape, strides), tuple(i for x in z_names for i in src[x])))
    return tuple(writes)


def _fold(folds, spec: einsum.EinsumSpec, z_names) -> Fold:
    """The fold from a contraction result over ``z_names`` to the output of ``spec``.

    A final stage that keeps a kernel leg in the output, makes more than one
    write and is larger than ``ops._SLICE_BYTES`` writes its rows block by
    block, each block of the most rows that fit (at least one), so every
    write of a block lands on pages that are still in cache.
    """
    from .ops import _SLICE_BYTES  # ops imports this module

    keep = [f for f in folds if f.once]
    groups = [[f] for f in folds if not f.once] + ([keep] if keep else [])
    stages = []
    for n, group in enumerate(groups):
        if n < len(groups) - 1:
            (f,) = group
            names = tuple(f.i if x == f.o else x for x in z_names if x != f.k)
        else:
            names = spec.output_indices
        lead = len(list(itertools.takewhile(lambda pair: pair[0] == pair[1], zip(names, z_names))))
        rows = names[:lead]  # the name of the merged rows
        sizes = spec.sizes | {rows: math.prod(spec.sizes[x] for x in rows)}
        z_rows, out_rows = (rows, *z_names[lead:]), (rows, *names[lead:])
        merge, block = group is keep, sizes[rows]
        nbytes = 8 * math.prod(sizes[x] for x in out_rows)
        if merge and any(f.k_in_output for f in group) and nbytes > _SLICE_BYTES:
            if math.prod(len(_runs(f.dim, merge)) for f in group) > 1:  # more than one write
                block = max(1, _SLICE_BYTES * block // nbytes)
        stages.append(
            _FoldStage(
                z_shape=tuple(sizes[x] for x in z_rows),
                shape=tuple(sizes[x] for x in out_rows),
                writes=_fold_writes(group, z_rows, out_rows, sizes, merge, block),
                accumulate=not merge,
            )
        )
        z_names = names
    return Fold(tuple(stages), spec.output_shape())


@dataclass
class SimplifyResult:
    """Outcome of the structural pass, applicable to any matching operands.

    ``apply`` turns the network's operands into those of ``spec``, which
    ``plan`` contracts; when ``fold`` is set, ``fold.apply`` turns that
    contraction into the network's output.  Without pattern roles nothing
    is rewritten: ``kept`` holds every position, ``spec`` is the network's,
    ``plan`` is ``einsum.plan``'s for it, and ``apply`` passes the operands
    through.  ``apply`` neither converts nor checks: the op layer has.  It
    keeps each gather's padded buffer, and each take's index, in
    ``buffers`` under the operand's position, so a call that applies the
    same rewrites to several slices of a batch with one dict zeroes each
    buffer, and builds each index, once.
    """

    spec: einsum.EinsumSpec
    plan: einsum.ContractionPlan
    steps: tuple[RewriteStep, ...]
    kept: tuple[int, ...]
    gathers: dict[int, Gather | Take]
    fold: Fold | None

    def apply(self, operands, buffers=None) -> list:
        gathers, buffers = self.gathers, {} if buffers is None else buffers
        return [
            operands[p] if p not in gathers else gathers[p].apply(operands, p, buffers)
            for p in self.kept
        ]


def _members(atom) -> tuple[str, ...]:
    return (atom,) if isinstance(atom, str) else atom


def simplify_structure(
    spec: einsum.EinsumSpec, pattern_roles: dict[int, DimSpec]
) -> SimplifyResult:
    """Plan the rewrites for ``spec`` without touching any data.

    ``pattern_roles`` maps operand positions (in ``spec``) to the
    hyper-parameters whose pattern tensor sits there; the pattern terms are
    expected to read (input, output, kernel).
    """
    terms = [list(t) for t in spec.operand_terms]
    out_names = list(spec.output_indices)
    alive = list(range(len(terms)))
    # per gathered axis: its dimension, whether through the output leg, and the slot of kept rows
    gathered: dict[int, dict[int, tuple[DimSpec, bool, int | None]]] = {}
    folds: list[_FoldDim] = []
    steps: list[RewriteStep] = []

    def names_of(positions) -> set[str]:
        return {m for p in positions for atom in terms[p] for m in _members(atom)}

    def reader(leg: str, term, others) -> int | None:
        """The only operand of ``others`` that holds ``leg``, if it is a data operand
        holding ``leg`` as a bare axis and no other leg of ``term``."""
        holders = [p for p in others if leg in names_of([p])]
        if len(holders) != 1 or holders[0] in pattern_roles or leg not in terms[holders[0]]:
            return None
        return None if (set(term) - {leg}) & names_of(holders) else holders[0]

    for pos, dim in sorted(pattern_roles.items()):
        term = terms[pos]
        if len(term) != 3 or not all(isinstance(a, str) for a in term):
            continue
        i_name, o_name, k_name = term
        others = [p for p in alive if p != pos]
        holders = [p for p in others if i_name in names_of([p])]
        if len(holders) + (i_name in out_names) != 1:
            continue
        k_holders = [p for p in others if k_name in names_of([p])]
        k_in_output = k_name in out_names
        narrowed = spec.sizes[i_name] < dim.input_size
        # the operand read as a window, the leg it is read through and the leg the view adds
        target = None
        if holders and not (narrowed and dim.stride == 1):  # i becomes (k, o)
            target, leg, other = reader(i_name, term, others), i_name, o_name
            if target is None:
                continue
        elif dim.stride == 1 and o_name not in out_names and (k_holders or k_in_output):
            # o == i + P - k*D, so o becomes (k, i); summing k over the view alone would fold
            target, leg, other = reader(o_name, term, others), o_name, i_name

        if target is not None:
            axes = gathered.setdefault(target, {})
            axes[spec.operand_terms[target].index(leg)] = (dim, leg == o_name, pos if narrowed else None)
            a_pos = terms[target].index(leg)
            terms[target][a_pos : a_pos + 1] = [k_name, other]
            kind = RewriteKind.GATHER
        elif narrowed:
            raise Unsupported(f"a pattern narrowed to kept rows of {i_name} must be taken at them")
        else:
            other_names = names_of(others)
            a_pos = out_names.index(i_name)
            diagonal = o_name in out_names
            if diagonal:
                # both legs stay: the one data operand carrying k is written
                # along the output's (o, i) diagonal
                if (
                    o_name in other_names
                    or k_in_output
                    or len(k_holders) != 1
                    or k_holders[0] in pattern_roles
                ):
                    continue
                out_names[a_pos] = k_name
                out_names.remove(o_name)
            else:
                if o_name not in other_names or (k_holders and k_in_output):
                    continue
                legs = [o_name, k_name] if k_holders else [o_name]
                out_names[a_pos : a_pos + 1] = legs
                if k_in_output:
                    out_names.remove(k_name)
            folds.append(
                _FoldDim(i_name, o_name, k_name, dim, bool(k_holders), k_in_output, diagonal)
            )
            kind = RewriteKind.FOLD
        alive.remove(pos)
        steps.append(RewriteStep(kind, pos))

    new_spec = spec  # unless a rewrite fired
    if steps:
        output = tuple(out_names) if folds else spec.output_term
        new_spec = einsum.make_spec(tuple(tuple(terms[p]) for p in alive), output, spec.sizes)
    plan = einsum.plan(new_spec)
    fold = None
    if folds:
        # Fold reads the result in the order the contraction leaves it in, so none is copied
        new_spec, plan = einsum.in_result_order(new_spec, plan)
        fold = _fold(folds, spec, new_spec.output_indices)
    gathers: dict[int, Gather | Take] = {}
    for target, axes in gathered.items():
        # only crs narrows, and its v_y holds output legs only: a taken operand has no other window
        takes = tuple((a, s, d) for a, (d, o, s) in sorted(axes.items(), reverse=True) if o and s is not None)
        in_shape = [math.prod(spec.sizes[m] for m in _members(a)) for a in spec.operand_terms[target]]
        gathers[target] = Take(takes) if takes else Gather.build(in_shape, axes)
    return SimplifyResult(new_spec, plan, tuple(steps), tuple(alive), gathers, fold)
