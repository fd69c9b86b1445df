"""Structural rewrites that remove index-pattern operands before planning.

An ``(i, o, k)`` pattern only relates input position ``i`` to the pair
``(o, k)`` through ``i == o*S + k*D - P``.  So whenever its input leg has
exactly one other occurrence, the pattern need not be multiplied as a dense
``I x O x K`` table:

* **Gather.**  The other occurrence is a bare axis of a data operand.  That
  operand is read as a strided view whose axis ``i`` becomes the two axes
  ``(k, o)`` (dilation ``D``, stride ``S``) over a copy zero-padded by ``P``,
  or over the operand itself when ``P == 0``.  The output leg comes last:
  it is the long leg that sweeps the whole axis, so a copy that reads the
  view in its term order walks memory forwards in long runs.  This is
  im2col; the dense (reshape) and down-sampling (narrow) patterns are its
  zero-copy cases.
* **Fold.**  The other occurrence is the output.  The contraction produces
  ``(o, k)`` in place of ``i`` (only ``o`` when no other operand carries
  ``k``), and :class:`Fold` writes it back with one strided slice-add per
  kernel offset, or a plain assignment when ``k`` is an output leg.

Patterns whose input leg meets another pattern or several tensors, and
patterns whose output leg lands in the output, are left alone, so
rewriting never changes values.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import einsum
from .pattern import DimSpec, output_size
from .tensor import ShapeMismatch, Tensor


class RewriteKind(enum.Enum):
    GATHER = "gather"
    FOLD = "fold"


@dataclass(frozen=True)
class RewriteStep:
    kind: RewriteKind
    operand: int
    detail: str


@dataclass(frozen=True)
class Gather:
    """Read one operand as the strided view of every kernel window.

    ``padded`` is the zero-padded shape (None when no gathered axis is
    padded) and ``interior`` the slice of it the operand fills; ``shape``
    and ``strides`` describe the view, in which every gathered axis ``i``
    is the pair ``(k, o)`` reading ``x_padded[..., k*D + o*S, ...]``.
    """

    in_shape: tuple[int, ...]
    padded: tuple[int, ...] | None
    interior: tuple[slice, ...]
    shape: tuple[int, ...]
    strides: tuple[int, ...]

    @classmethod
    def build(cls, in_shape, axes: dict[int, DimSpec]) -> "Gather":
        pads = {a: d.padding for a, d in axes.items() if d.padding}
        base = tuple(n + 2 * pads.get(a, 0) for a, n in enumerate(in_shape))
        shape: list[int] = []
        strides: list[int] = []
        c_strides = [8 * math.prod(base[a + 1 :]) for a in range(len(base))]  # float64, C order
        for a, (n, st) in enumerate(zip(base, c_strides)):
            d = axes.get(a)
            if d is None:
                shape.append(n)
                strides.append(st)
            else:
                shape += [d.kernel_size, output_size(d)]
                strides += [d.dilation * st, d.stride * st]
        interior = tuple(slice(pads.get(a, 0), pads.get(a, 0) + n) for a, n in enumerate(in_shape))
        return cls(tuple(in_shape), base if pads else None, interior, tuple(shape), tuple(strides))

    def apply(self, arr: Tensor) -> Tensor:
        if arr.shape != self.in_shape:
            raise ShapeMismatch(f"gather expects shape {self.in_shape}, got {arr.shape}")
        if self.padded is None:
            buf = np.ascontiguousarray(arr)
        else:
            buf = np.zeros(self.padded)
            buf[self.interior] = arr
        return np.ndarray(self.shape, np.float64, buf, 0, self.strides)


@dataclass(frozen=True)
class _FoldStage:
    """Fold some legs of ``z`` into a fresh array of ``shape``.

    ``view_axes`` orders that array's axes to match ``z``'s, and ``writes``
    holds, per kernel offset, the index into that view and into ``z`` (one
    axis per index name) of the in-range outputs.
    """

    z_shape: tuple[int, ...]
    shape: tuple[int, ...]
    view_axes: tuple[int, ...]
    writes: tuple[tuple[tuple, tuple], ...]
    accumulate: bool

    def apply(self, z: Tensor) -> Tensor:
        z = z.reshape(self.z_shape)
        out = np.zeros(self.shape)
        view = out.transpose(self.view_axes)
        if self.accumulate:
            for dst, src in self.writes:
                view[dst] += z[src]
        else:
            for dst, src in self.writes:
                view[dst] = z[src]
        return out


@dataclass(frozen=True)
class Fold:
    """Write the contraction's ``(o, k)`` legs back to positions ``i = o*S + k*D - P``.

    The contraction result is read in the axis order its last step leaves
    it in, so no transpose copies it.  Each fold that sums its kernel leg is
    its own stage of ``K`` slice-adds, which costs fewer calls than one
    slice-add per offset combination; the folds that keep their kernel leg
    share one final stage of assignments, since each output entry is
    written at most once and an intermediate would be output-sized.
    """

    stages: tuple[_FoldStage, ...]
    out_shape: tuple[int, ...]

    def apply(self, z: Tensor) -> Tensor:
        for stage in self.stages:
            z = stage.apply(z)
        return z.reshape(self.out_shape)


@dataclass(frozen=True)
class _FoldDim:
    i: str
    o: str
    k: str
    dim: DimSpec
    k_in_result: bool
    k_in_output: bool


def _fold_writes(folds, view_names, z_names):
    """Per kernel offset combination, the (view, result) index pair it writes."""
    writes = []
    for offsets in itertools.product(*(range(f.dim.kernel_size) for f in folds)):
        dst: list = [slice(None)] * len(view_names)
        src: list = [slice(None)] * len(z_names)
        for f, k in zip(folds, offsets):
            d = f.dim
            shift = k * d.dilation - d.padding
            lo = max(0, -(shift // d.stride))
            hi = min(output_size(d), (d.input_size - 1 - shift) // d.stride + 1)
            if lo >= hi:
                break
            start = lo * d.stride + shift
            dst[view_names.index(f.i)] = slice(start, start + (hi - lo - 1) * d.stride + 1, d.stride)
            src[z_names.index(f.o)] = slice(lo, hi)
            if f.k_in_result:
                src[z_names.index(f.k)] = k
            if f.k_in_output:
                dst[view_names.index(f.k)] = k
        else:
            writes.append((tuple(dst), tuple(src)))
    return tuple(writes)


def _fold(folds, spec: einsum.EinsumSpec, new_spec: einsum.EinsumSpec) -> Fold:
    """The fold from the result of ``new_spec`` to the output of ``spec``."""
    keep = [f for f in folds if f.k_in_output]
    groups = [[f] for f in folds if not f.k_in_output] + ([keep] if keep else [])
    z_names = new_spec.output_indices
    stages = []
    for n, group in enumerate(groups):
        to_input = {f.o: f.i for f in group}
        summed = {f.k for f in group if f.k_in_result}
        view_names = [to_input.get(x, x) for x in z_names if x not in summed]
        view_names += [f.k for f in group if f.k_in_output]
        names = spec.output_indices if n == len(groups) - 1 else view_names
        stages.append(
            _FoldStage(
                z_shape=tuple(spec.sizes[x] for x in z_names),
                shape=tuple(spec.sizes[x] for x in names),
                view_axes=tuple(names.index(x) for x in view_names),
                writes=_fold_writes(group, view_names, z_names),
                accumulate=group is not keep,
            )
        )
        z_names = tuple(view_names)
    return Fold(tuple(stages), spec.output_shape())


@dataclass
class SimplifyResult:
    """Outcome of the structural pass, applicable to any matching operands.

    ``apply`` turns the network's operands into those of ``spec``; when
    ``fold`` is set, ``fold.apply`` turns the contraction of ``spec`` into
    the network's output.
    """

    spec: einsum.EinsumSpec
    steps: tuple[RewriteStep, ...]
    kept: tuple[int, ...]
    gathers: dict[int, Gather]
    fold: Fold | None

    def apply(self, operands) -> list[Tensor]:
        out: list[Tensor] = []
        for pos in self.kept:
            arr = np.asarray(operands[pos], dtype=np.float64)
            gather = self.gathers.get(pos)
            out.append(arr if gather is None else gather.apply(arr))
        return out


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
    gathered: dict[int, dict[int, DimSpec]] = {}
    folds: list[_FoldDim] = []
    steps: list[RewriteStep] = []

    def names_of(positions) -> set[str]:
        return {m for p in positions for atom in terms[p] for m in _members(atom)}

    for pos, dim in sorted(pattern_roles.items()):
        term = terms[pos]
        if len(term) != 3 or not all(isinstance(a, str) for a in term):
            continue
        i_name, o_name, k_name = term
        others = [p for p in alive if p != pos]
        holders = [p for p in others if i_name in names_of([p])]
        if len(holders) + (i_name in out_names) != 1:
            continue

        if holders:
            target = holders[0]
            if (
                target in pattern_roles
                or i_name not in terms[target]  # inside a grouped axis
                or {o_name, k_name} & names_of([target])
            ):
                continue
            gathered.setdefault(target, {})[spec.operand_terms[target].index(i_name)] = dim
            a_pos = terms[target].index(i_name)
            terms[target][a_pos : a_pos + 1] = [k_name, o_name]
            kind = RewriteKind.GATHER
            detail = (
                f"pattern {dim} removed; axis {i_name} of operand {target} read as"
                f" strided windows ({k_name} {o_name})"
            )
        else:
            other_names = names_of(others)
            k_elsewhere = k_name in other_names
            k_in_output = k_name in out_names
            if o_name in out_names or o_name not in other_names:
                continue
            if k_elsewhere and k_in_output:
                continue
            legs = [o_name, k_name] if k_elsewhere else [o_name]
            a_pos = out_names.index(i_name)
            out_names[a_pos : a_pos + 1] = legs
            if k_in_output:
                out_names.remove(k_name)
            folds.append(_FoldDim(i_name, o_name, k_name, dim, k_elsewhere, k_in_output))
            kind = RewriteKind.FOLD
            detail = (
                f"pattern {dim} removed; output leg {i_name} produced as"
                f" ({' '.join(legs)}) and folded back"
            )
        alive.remove(pos)
        steps.append(RewriteStep(kind, pos, detail))

    new_terms = tuple(tuple(terms[p]) for p in alive)
    output = spec.output_term
    if folds:
        # Fold reads the result in the order the contraction leaves it in
        # (the last step's layout, or the operand's own), so none is copied.
        trial = einsum.make_spec(new_terms, tuple(out_names), spec.sizes)
        last = einsum.plan(trial).steps
        output = last[-1].result if last else tuple(
            n for n in trial.operand_indices[0] if n in out_names
        )
    new_spec = einsum.make_spec(new_terms, output, spec.sizes)
    fold = _fold(folds, spec, new_spec) if folds else None
    gathers = {}
    for target, axes in gathered.items():
        in_shape = tuple(
            math.prod(spec.sizes[m] for m in _members(atom))
            for atom in spec.operand_terms[target]
        )
        gathers[target] = Gather.build(in_shape, axes)
    return SimplifyResult(new_spec, tuple(steps), tuple(alive), gathers, fold)
