"""Convolution operations expressed as tensor-network contractions.

Every operation is one entry of the table ``_OPS``: one einsum over its
named data tensors and one binary index pattern per spatial dimension.  In
an entry's template:

* ``x: n (g c_in) i#`` is a term over the input array ``x``.  An op
  takes exactly the arrays its terms name, in order of first appearance;
  a missing, None, extra or misspelled array is a ``TypeError``.
* ``i#`` expands to one index per spatial dimension, ``i1 i2 i3`` in 3d,
  and ``i#_`` to ``i1_ i2_ i3_``.  A group left with one index is that
  index.
* A pattern slot ``[i o k]`` or ``[i_ o k_]`` expands to one ``I x O x K``
  pattern term per dimension; ``[i k]`` and ``[o k]`` are the pattern
  averaged over its missing leg.
* ``x^2: ...`` is a term over the elementwise square of ``x``; the op
  still takes ``x``.
* ``_gram(half, out, shared)`` is the entry of the Gram of the terms
  ``half`` over the indices ``shared``: ``half`` joined to its copy with
  every other index primed.  Such a network runs as the half, then the
  half's result joined to its primed copy (``_mirror``).

``OP_NAMES``, ``input_shapes``, the CLI's op list and the plain wrappers
come from the table.  Channel names inside a term count channels per
group; the grouped axis ``(g c_out)`` is the full channel dimension.  The
1/N scale of the KFAC factors is applied here; the engine never scales.

Every call, ``crs``'s too, takes one path.  A network is parsed, rewritten (with no
pattern roles when simplify is off, which removes nothing) and planned from
shapes alone, and cached on (op, layer, columns, simplify) with the list of
arrays and pattern tables a call fills its operands from.  A warm call
converts each array to float64 and checks its shape, the only check it
makes, then gathers once per slice of the batch and contracts and folds
once per tile of the slice.  That is one slice and one tile unless the
network's copies are large: then a slice holds as many samples as keep its
copies under ``_SLICE_BYTES``, and where one sample's copy is still larger,
a tile holds as many rows of its window's first spatial leg.  It then takes
the Gram of a declared Gram's half, and scales, each where the prepared
network has it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

import numpy as np

from . import einsum
from .pattern import DimSpec, InvalidHyperParams, check_int, output_size, pattern
from .simplify import RewriteStep, SimplifyResult, simplify_structure
from .tensor import ShapeMismatch, Tensor, Unsupported


@dataclass(frozen=True)
class ConvSpec:
    """A convolution layer: batch, channel, group, and spatial hyper-parameters.

    ``dims`` holds one :class:`DimSpec` per spatial dimension, any number >= 1.
    """

    batch: int
    groups: int
    c_in: int
    c_out: int
    dims: tuple[DimSpec, ...]
    has_bias: bool = False

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        for name in ("batch", "groups", "c_in", "c_out"):
            check_int(name, getattr(self, name), 1)
        if self.c_in % self.groups or self.c_out % self.groups:
            raise InvalidHyperParams(
                f"channels ({self.c_in}, {self.c_out}) must divide into {self.groups} groups"
            )
        if not self.dims:
            raise InvalidHyperParams("a convolution needs at least one spatial dimension")
        if not isinstance(self.has_bias, bool):
            raise InvalidHyperParams(f"has_bias must be true or false, got {self.has_bias!r}")
        fields = (self.batch, self.groups, self.c_in, self.c_out, self.dims, self.has_bias)
        object.__setattr__(self, "_hash", hash(fields))  # taken once: every call hashes its layer

    def __hash__(self) -> int:
        return self._hash

    @property
    def nd(self) -> int:
        return len(self.dims)

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(d.input_size for d in self.dims)

    @property
    def out_sizes(self) -> tuple[int, ...]:
        return tuple(output_size(d) for d in self.dims)

    @property
    def kernel_sizes(self) -> tuple[int, ...]:
        return tuple(d.kernel_size for d in self.dims)


class WeightVjp(NamedTuple):
    weight: Tensor
    bias: Tensor | None


@dataclass
class Network:
    """One ready-to-contract tensor network.

    ``sources`` names, per operand, the input array it holds (``x^2`` for
    the square of ``x``) or the ``(legs, DimSpec)`` of its pattern table.
    A CRS network (``crs``) is ``weight_vjp``'s at narrowed shapes: where
    ``x`` keeps some rows of a dimension, that pattern's placeholder is
    narrowed to them too, and a call fills its slot with their indices.
    ``gram`` is its op's table entry's: the network is the Gram of its first
    half, which may be contracted once and joined to its renamed copy.
    """

    equation: str
    operands: list[Tensor]
    roles: dict[int, DimSpec]
    seeds: dict[str, int]
    scale: float | None = None
    sources: tuple = ()
    gram: bool = False


class MirrorCost(NamedTuple):
    """The cost of contracting a mirrored network as one half, then its Gram or square."""

    half_flops: int
    final_flops: int
    max_intermediate: int  # the larger of V and the largest array the half's plan feeds on

    @property
    def flops(self) -> int:
        return self.half_flops + self.final_flops


class SliceCost(NamedTuple):
    """How a network is cut: ``legs`` maps each cut leg to its size in one part.

    That is ``n`` to the samples per slice where the batch is cut, and the
    window's first spatial leg (``o1``, or ``i1`` for a window through the
    output leg) to the rows per tile where one sample is tiled.
    ``copied_bytes`` is the largest array that one part, a tile where
    there are tiles, copies.
    """

    legs: dict[str, int]
    copied_bytes: int


@dataclass
class OpCosts:
    """The plans of one op's full network with and without rewrites.

    ``output_elements`` counts the op's result, which a plan's
    ``max_intermediate`` leaves out once the plan has a step.
    ``mirrored_base`` and ``mirrored`` are the mirrored evaluations that run
    in place of ``base`` and ``simplified``, or None where the full network
    runs.  ``sliced_base`` and ``sliced`` are how those networks are cut
    over the batch, or None where they run as one slice; the plans above
    are the whole batch's either way.
    """

    equation: str
    base: einsum.ContractionPlan
    simplified: einsum.ContractionPlan
    rewrites: tuple[RewriteStep, ...]
    output_elements: int
    mirrored_base: MirrorCost | None = None
    mirrored: MirrorCost | None = None
    sliced_base: SliceCost | None = None
    sliced: SliceCost | None = None

    def ran(self, simplify: bool) -> tuple[int, int]:
        """FLOPs and largest intermediate of the evaluation ``run_op`` runs."""
        plan, mirror = (self.simplified, self.mirrored) if simplify else (self.base, self.mirrored_base)
        return (mirror.flops, mirror.max_intermediate) if mirror else (plan.flops, plan.max_intermediate)


class _Op(NamedTuple):
    template: str
    batch_mean: bool = False  # scale the result by 1/N
    ungrouped: bool = False  # defined for groups == 1 only
    gram: bool = False  # the Gram of its first half, see _gram


def _gram(half: str, out: str, shared: str, batch_mean: bool = False) -> _Op:
    """The Gram of ``half`` over the indices ``shared``.

    The second half is ``half`` with every index outside ``shared`` primed
    (``c_in`` to ``c_in_``, ``i#`` to ``i#_``, ``[i o k]`` to ``[i_ o k_]``
    when ``o`` is shared); the output is ``out``, then the primed copy of
    each of its atoms that holds a primed index.
    """
    keep = shared.split()

    def prime(text: str) -> str:
        return re.sub(r"[a-z]\w*#?", lambda m: m[0] if m[0].rstrip("#") in keep else f"{m[0]}_", text)

    second = []
    for part in half.split(", "):
        name, sep, term = part.rpartition(": ")
        second.append(name + sep + prime(term))
    primed = [p for atom in re.findall(r"\(.*?\)|\S+", out) if (p := prime(atom)) != atom]
    out = " ".join([out, *primed])
    return _Op(f"{half}, {', '.join(second)} -> {out}", batch_mean, gram=True)


_X, _W, _Y, _U = "n (g c_in) i#", "(g c_out) c_in k#", "n (g c_out) o#", "n (c_in k#) (o#)"
_GGN = f"x: {_X}, [i o k], s: c {_Y}"  # weight_vjp(x, s) per sample and column of s
# Any two legs of a pattern fix the third, so Π[i,o,k]·Π[i_,o,k] = δ(i,i_)·Π[i,o,k]
# and Π[i,o,k]·Π[i,o,k_] = δ(k,k_)·Π[i,o,k]: the HesScale diagonals hold one
# pattern and the squared array, weight_vjp(x⊙x, d_y) and input_vjp(w⊙w, d_y).
_HESS = f"x^2: {_X}, [i o k], d_y: {_Y} ->"

_OPS = {
    "conv_forward": _Op(f"x: {_X}, [i o k], w: {_W} -> {_Y}"),
    "unfold_input": _Op(f"x: n c_in i#, [i o k] -> {_U}"),
    "unfold_kernel": _Op("[i o k], w: c_out c_in k# -> (c_out o#) (c_in i#)", ungrouped=True),
    "fold_output": _Op("y_like: n c o#, [i o k] -> n c i#"),
    "transpose_unfold": _Op(f"y: {_Y}, [i o k] -> n (g c_out k#) (i#)"),
    "weight_vjp": _Op(f"x: {_X}, [i o k], v_y: {_Y} -> {_W}"),
    "per_sample_weight_vjp": _Op(f"x: {_X}, [i o k], v_y: {_Y} -> n {_W}"),
    "input_vjp": _Op(f"w: {_W}, [i o k], v_y: {_Y} -> {_X}"),
    "weight_jvp": _Op(f"x: {_X}, [i o k], v_w: {_W} -> {_Y}"),
    "input_jvp": _Op(f"v_x: {_X}, [i o k], w: {_W} -> {_Y}"),
    "im2col_jvp": _Op(f"v_x: n c_in i#, [i o k] -> {_U}"),
    "im2col_vjp": _Op(f"[i o k], v_u: {_U} -> n c_in i#"),
    # the KFAC factors are averaged over the batch
    "kfac_expand_factor": _gram(f"x: {_X}, [i o k]", "g (c_in k#)", "n g o", True),
    "kfac_reduce_factor": _gram(f"x: {_X}, [i k]", "g (c_in k#)", "n g", True),
    "kfac_expand_transpose": _gram(f"y: {_Y}, [i o k]", "g (c_out k#)", "n g i", True),
    "kfac_reduce_transpose": _gram(f"y: {_Y}, [o k]", "g (c_out k#)", "n g", True),
    "ggn_gram": _gram(_GGN, "(c n)", "g c_in c_out k"),
    "ggn_diagonal": _gram(_GGN, _W, "n g c_in c_out k c"),
    "per_sample_ggn_diagonal": _gram(_GGN, f"n {_W}", "n g c_in c_out k c"),
    "hesscale_weight_diag": _Op(f"{_HESS} {_W}"),
    "per_sample_hesscale_weight_diag": _Op(f"{_HESS} n {_W}"),
    "hesscale_input_diag": _Op(f"w^2: {_W}, [i o k], d_y: {_Y} -> {_X}"),
}

OP_NAMES = tuple(_OPS)


@lru_cache(maxsize=256)
def _expanded(op: str, nd: int) -> tuple[str, tuple, tuple[str, ...]]:
    """Equation, operand sources and input names of ``op`` over ``nd`` dimensions.

    A source is a term's name (``x`` or ``x^2``) or ``(legs, d)`` for the pattern
    of dimension ``d`` whose legs (``"iok"``, ``"ik"`` or ``"ok"``) the slot lists.
    Each expansion is built on first use and cached.
    """
    if op not in _OPS:
        raise Unsupported(f"unknown operation {op!r}")
    if nd < 1:
        raise Unsupported(f"{op} needs at least one spatial dimension, got {nd}")

    def spatial(text: str) -> str:
        text = re.sub(
            r"\b([iok])#(_?)",
            lambda m: " ".join(f"{m[1]}{d}{m[2]}" for d in range(1, nd + 1)),
            text,
        )
        return re.sub(r"\((\S+)\)", r"\1", text)

    lhs, out = _OPS[op].template.split(" -> ")
    terms, sources = [], []
    for part in lhs.split(", "):
        if part.startswith("["):
            legs = part[1:-1].split()
            for d in range(nd):
                terms.append(" ".join(f"{leg[0]}{d + 1}{leg[1:]}" for leg in legs))
                sources.append(("".join(leg[0] for leg in legs), d))
        else:
            name, term = part.split(": ")
            terms.append(spatial(term))
            sources.append(name)
    inputs = tuple(dict.fromkeys(s.removesuffix("^2") for s in sources if isinstance(s, str)))
    return ", ".join(terms) + " -> " + spatial(out), tuple(sources), inputs


def input_shapes(conv: ConvSpec, op: str, columns: int = 2) -> dict[str, tuple[int, ...]]:
    """Canonical shapes of the arrays ``op`` consumes, in the order its terms name them."""
    ins, outs, ks = conv.input_sizes, conv.out_sizes, conv.kernel_sizes
    cig = conv.c_in // conv.groups
    all_shapes = {
        "x": (conv.batch, conv.c_in, *ins),
        "v_x": (conv.batch, conv.c_in, *ins),
        "w": (conv.c_out, cig, *ks),
        "v_w": (conv.c_out, cig, *ks),
        "y": (conv.batch, conv.c_out, *outs),
        "v_y": (conv.batch, conv.c_out, *outs),
        "d_y": (conv.batch, conv.c_out, *outs),
        "y_like": (conv.batch, conv.c_in, *outs),
        "v_u": (conv.batch, conv.c_in * math.prod(ks), math.prod(outs)),
        "s": (columns, conv.batch, conv.c_out, *outs),
    }
    return {name: all_shapes[name] for name in _expanded(op, conv.nd)[2]}


def _table(legs: str, dim: DimSpec) -> Tensor:
    p = pattern(dim)
    return p.table if legs == "iok" else getattr(p, legs)


def _columns(op: str, arrays: dict) -> int:
    """The column count of ``s`` in ``arrays``, which must be exactly ``op``'s arrays.

    A missing, None, extra or misspelled array raises ``TypeError``; without
    ``s``, or with a 0-d one that the shape check then refuses, it is 2.
    """
    names = _expanded(op, 1)[2]
    # the names are distinct, so this holds exactly when the keys are the names (a loop is faster)
    fits = len(arrays) == len(names)
    for name in names:
        fits = fits and arrays.get(name) is not None
    if not fits:
        raise TypeError(f"{op}() takes the arrays ({', '.join(names)})")
    shape = np.shape(arrays["s"]) if "s" in arrays else ()
    return int(shape[0]) if shape else 2


def _program(net: Network, keep) -> tuple[tuple, tuple]:
    """The operand list a call starts from, with the pattern tables in ``keep``, and per data
    operand in ``keep`` its ``(position, array name, squared, shape)``."""
    operands: list = [None] * len(net.sources)
    args = []
    for pos in keep:
        src = net.sources[pos]
        if isinstance(src, str):
            name = src.removesuffix("^2")
            args.append((pos, name, name != src, net.operands[pos].shape))
        else:
            operands[pos] = _table(*src)
    return tuple(operands), tuple(args)


def _operands(op: str, operands: tuple, args: tuple, arrays: dict) -> list:
    """``operands`` with the arrays ``args`` name filled in, each checked against its shape.

    This is where an outside array is converted to float64 and checked, once
    per call; the rewrites and ``einsum.contract`` below trust what they get.
    """
    out = list(operands)
    for pos, name, squared, shape in args:
        a = np.asarray(arrays[name], dtype=np.float64)
        if a.shape != shape:
            raise ShapeMismatch(f"{op}: {name} has shape {a.shape}, expected {shape}")
        out[pos] = a * a if squared else a
    return out


def build_network(
    conv: ConvSpec,
    op: str,
    arrays: dict[str, Tensor] | None = None,
    *,
    columns: int = 2,
) -> Network:
    """Assemble the tensor network for ``op`` over ``conv``.

    Without ``arrays`` every operand is a zero placeholder of its shape that
    holds no data, which is enough for planning and cost queries; the
    curvature stack has ``columns`` columns.  With them, which must be
    exactly the arrays ``op`` names, the operands are those arrays and the
    pattern tables.
    """
    eq, sources, _ = _expanded(op, conv.nd)
    entry = _OPS[op]
    if entry.ungrouped and conv.groups != 1:
        raise Unsupported(f"{op} is only defined for groups == 1")
    if arrays is not None:
        columns = _columns(op, arrays)
    shapes = input_shapes(conv, op, columns=columns)
    sources = tuple(s if isinstance(s, str) else (s[0], conv.dims[s[1]]) for s in sources)
    placeholders, roles = [], {}
    for pos, src in enumerate(sources):
        if isinstance(src, str):
            shape = shapes[src.removesuffix("^2")]
        else:
            legs, dim = src
            size = {"i": dim.input_size, "o": output_size(dim), "k": dim.kernel_size}
            shape = tuple(size[leg] for leg in legs)
            if legs == "iok":
                roles[pos] = dim
        placeholders.append(np.broadcast_to(0.0, shape))
    seeds = {"g": conv.groups} if "(g " in eq else {}
    scale = 1.0 / conv.batch if entry.batch_mean else None
    net = Network(eq, placeholders, roles, seeds, scale, sources, entry.gram)
    if arrays is not None:
        net.operands = _operands(op, *_program(net, range(len(sources))), arrays)
    return net


# numpy's matmul of one buffer by its own transpose calls syrk, which halves the
# multiply-adds but then fills the other triangle with a strided rows x rows
# copy.  On one BLAS thread (2-core Xeon) gemm on a copy of the buffer is faster
# below about 48 contracted elements at 64 rows and 200 at 1568 rows: rows 288,
# 2 contracted: 0.104 ms against 0.042 ms; rows 1568, 2: 11.5 against 2.7 ms;
# rows 288, 512: 0.99 against 1.92 ms.
_SYRK_MIN_CONTRACTED = 128


class _Gram(NamedTuple):
    """The last step of a mirrored network: V contracted with its renamed copy.

    V, the first operand of ``spec``, is the half's result: the shared
    output indices, the half's own output indices and the shared summed
    indices.  When ``shared`` is set the step reads V's buffer twice, which
    numpy's matmul turns into syrk; otherwise it reads a copy.
    """

    spec: einsum.EinsumSpec
    plan: einsum.ContractionPlan
    shared: bool

    @property
    def v_elements(self) -> int:
        """The size of V, which a fold in the half writes from a differently shaped result."""
        return math.prod(self.spec.sizes[i] for i in self.spec.operand_indices[0])

    def cost(self, half: einsum.ContractionPlan) -> MirrorCost:
        """The cost of the half's plan ``half``, then this step."""
        return MirrorCost(half.flops, self.plan.flops, max(half.max_intermediate, self.v_elements))


def _mirror(net: Network, spec: einsum.EinsumSpec, roles: dict) -> tuple[SimplifyResult, _Gram] | None:
    """``net``'s first half, rewritten with ``roles``, and its Gram step, if ``net`` is a Gram."""
    if not net.gram:
        return None
    h = len(net.sources) // 2
    # each half reads its arrays in its terms' flat index orders, the second's primed where not shared
    rename = {i: j for a, b in zip(spec.operand_indices[:h], spec.operand_indices[h:]) for i, j in zip(a, b)}
    out = spec.output_indices
    rows = [i for i in out if rename.get(i, i) != i]
    summed = [i for i, j in rename.items() if i == j and i not in out]
    v = [i for i in out if rename.get(i) == i] + rows + summed
    try:
        half = simplify_structure(
            einsum.make_spec(spec.operand_terms[:h], v, spec.sizes),
            {p: d for p, d in roles.items() if p < h},
        )
        final = einsum.make_spec((tuple(v), tuple(rename[i] for i in v)), spec.output_term, spec.sizes)
        plan = einsum.plan(final)
    except Unsupported:
        return None
    # one row per group is a batched dot product, which never reaches syrk
    shared = math.prod(spec.sizes[i] for i in rows) == 1 or (
        math.prod(spec.sizes[i] for i in summed) >= _SYRK_MIN_CONTRACTED
    )
    return half, _Gram(final, plan, shared)


# A network is cut over its batch index n so that the largest array a part
# copies, its window tensor as a rule, stays under this many bytes: into
# slices of samples, and where one sample's copy is still larger, each
# sample into tiles over its window's first spatial leg.  A one-sample result
# is already in the output's order, and a tile's rows land in its rows of the
# output.  On one BLAS thread (2-core Xeon, 2 MB of L2 per core), fastest of
# 5 calls over 11 alternating rounds: resnet_3x3 conv_forward (2.4 MB of
# windows per sample) took 8.4 ms whole and 6.6 ms in slices of one sample,
# 11 rounds of 11, and on tcn_dilated (393 KB per sample) slices of one beat
# slices of two in 9 to 11 of 11 rounds on every GEMM op.  In tiles of 8 of
# its 32 rows (590 KB each) resnet_3x3 conv_forward took 6.0 ms, fastest of
# 21 calls, and tiles of 4 rows were no faster.  The largest whole-batch copy
# of a bundled layer is 602 KB (convnext_dw), so no bundled network is cut.
_SLICE_BYTES = 640 << 10

_WHOLE = ((None, None, None),)  # one slice: the whole batch


def _copied(sim: SimplifyResult) -> int:
    """Elements of the largest array that ``sim`` copies per part of its batch.

    That is a window view or a permuted operand that a step of its plan
    reshapes, or the contraction result that its fold writes back, among
    those that hold ``n``, since only those shrink with a slice of the
    batch.  A tile of one sample shrinks those that also hold its leg, as
    every window does.
    """
    spec, idx = sim.spec, list(sim.spec.operand_indices)
    windows = {a for a, p in enumerate(sim.kept) if p in sim.gathers}
    copies = [spec.output_indices] if sim.fold is not None else []
    for step in sim.plan.steps:
        for a, layout in ((step.left, step.lhs), (step.right, step.rhs)):
            if a in windows or layout.perm is not None:
                copies.append(idx[a])
        idx.append(step.result)
    return max((math.prod(spec.sizes[i] for i in c) for c in copies if "n" in c), default=0)


def _bare(index: str, spec: einsum.EinsumSpec) -> bool:
    """Whether ``index`` is a bare axis wherever ``spec`` holds it, the output included."""
    terms = (*spec.operand_terms, spec.output_term)
    flats = (*spec.operand_indices, spec.output_indices)
    return all((index in term) == (index in flat) for term, flat in zip(terms, flats))


def _parts(spec: einsum.EinsumSpec, leg: str, rows: int, full, tail) -> tuple:
    """``spec``'s ``leg`` cut into parts of ``rows``.

    Per part: the index of its view of each operand (None where the operand
    has no ``leg``) and of the output (None where ``leg`` is summed), then
    ``full``, or ``tail`` for a short last part.
    """
    axes = [t.index(leg) if leg in t else None for t in (*spec.operand_terms, spec.output_term)]
    size, parts = spec.sizes[leg], []
    for lo in range(0, size, rows):
        hi = min(lo + rows, size)
        idx = [None if a is None else (slice(None),) * a + (slice(lo, hi),) for a in axes]
        parts.append((tuple(idx[:-1]), idx[-1], full if hi - lo == rows else tail))
    return tuple(parts)


def _tiling(spec: einsum.EinsumSpec, sim: SimplifyResult):
    """The tiles of one sample's ``sim``, its tiled leg, the leg's rows and a tile's copy, or None.

    A network with no fold whose one-sample copy (``_copied``) exceeds
    ``_SLICE_BYTES`` is tiled over the first spatial leg of its first
    window: ``o1`` where the window reads an input leg, ``i1`` where it
    reads the output leg at stride 1.  That leg must be a bare axis
    wherever it appears, and longer than one row.  Each tile has the most
    rows whose copy stays under ``_SLICE_BYTES``, at least one.  The
    rewritten spec is planned once at a tile's size and once at a short
    last tile's, with no second rewrite: a tile is a view of the
    one-sample window and of every other operand over the leg.
    """
    copied = 8 * _copied(sim)
    if sim.fold is not None or not sim.gathers or copied <= _SLICE_BYTES:
        return None
    p = min(sim.gathers)
    window = sim.spec.operand_terms[sim.kept.index(p)]
    leg = [a for a in window if a not in spec.operand_terms[p]][1]  # a gathered axis is (k, leg)
    size = sim.spec.sizes[leg]
    rows = max(1, _SLICE_BYTES * size // copied)
    if rows == size or not _bare(leg, sim.spec):
        return None

    def at(m: int) -> SimplifyResult:
        tile = einsum.make_spec(sim.spec.operand_terms, sim.spec.output_term, sim.spec.sizes | {leg: m})
        return replace(sim, spec=tile, plan=einsum.plan(tile))

    full = at(rows)
    tiles = _parts(sim.spec, leg, rows, full, at(size % rows) if size % rows else None)
    return tiles, leg, rows, 8 * _copied(full)


def _slicing(net: Network, spec: einsum.EinsumSpec, sim: SimplifyResult, roles: dict):
    """``sim`` replanned for one slice of the batch, the slices, the tiles of one slice, their
    cost and whether parts of the output add up, or None.

    A network with no mirrored form (the choice between a mirror and the
    full network compares whole-batch plans), with a GEMM step or a fold
    stage that adds shifted copies of a result holding no kernel leg, with
    no pattern table left (each part would read it again), and whose ``n``
    is a bare axis wherever it appears, and the output's first if there,
    is cut into slices of the most samples whose largest copy
    (``_copied``) stays under ``_SLICE_BYTES``, at least one.  It runs as
    one slice when that is the whole batch.  Per slice, ``take`` holds each
    operand's index that selects the slice (None where the operand has no
    ``n``), ``put`` the output's (None where ``n`` is summed), and ``tail``
    the rewrites and plan of a last slice that is short, else None.  Where
    one sample's copy is still larger, each slice is also cut into tiles
    (``_tiling``), which hold the same per rewritten operand and their own
    plan.  Parts add up where one cut leg is summed and another is not:
    ``per_sample_weight_vjp``'s tiles into their sample of the output.

    Such a fold stage (``fold_output``'s) then adds into slices that stay
    in cache: on one BLAS thread (2-core Xeon), fastest of 7 calls over 15
    alternating rounds, resnet_3x3 ``fold_output`` took 5.1 ms whole and
    2.6 ms in slices of two, 15 rounds of 15.  A stage that sums a kernel
    leg keeps the network whole: ``im2col_vjp`` cut per sample won on two
    2d layers and lost on tcn_dilated (0.56 against 0.62 ms, 14 of 15).
    """
    n, out = "n", spec.output_term
    # a stage that sums no kernel leg keeps its rank
    shifting = sim.fold is not None and any(
        stage.accumulate and len(stage.z_shape) == len(stage.shape) for stage in sim.fold.stages
    )
    if (
        not (sim.plan.steps or shifting)
        or n not in spec.sizes
        or not all(isinstance(net.sources[p], str) for p in sim.kept)
        or not _bare(n, spec)
        or n in out[1:]  # a slice of the output would not be contiguous
    ):
        return None
    batch, copied = spec.sizes[n], 8 * _copied(sim)
    size = max(1, _SLICE_BYTES * batch // copied) if copied else batch
    legs, slices = {}, _WHOLE
    if size < batch:

        def at(m: int) -> SimplifyResult:
            return simplify_structure(einsum.make_spec(spec.operand_terms, out, spec.sizes | {n: m}), roles)

        legs[n], sim = size, at(size)
        slices = _parts(spec, n, size, None, at(batch % size) if batch % size else None)
        copied = copied * size // batch
    tiles, tiling = None, _tiling(spec, sim) if size == 1 else None
    if tiling is not None:
        tiles, leg, legs[leg], copied = tiling
    if not legs:
        return None
    adds = len({leg in spec.output_indices for leg in legs}) == 2
    return sim, slices, tiles, SliceCost(legs, copied), adds


class _Prepared(NamedTuple):
    """One network, rewritten, planned and compiled: the one thing a call runs.

    ``sim`` holds the rewrites (none without simplify) and the plan of the
    network, or of its first half when ``gram`` is set, for one slice of
    the batch (``_slicing``); ``operands`` and ``args`` are ``_program``'s
    for the operands it keeps.  ``run`` zeroes the padded gather buffers
    once, then per slice gathers, and per tile of the slice (the whole
    slice where ``tiles`` is None) contracts its views of the gathered
    operands and folds.  It writes each part's result into its view of the
    output, or adds it there where a cut leg is summed; an uncut network
    is one part, whose result is the output.  It then takes the Gram if
    there is one, copies a result that is a view of the operand at
    ``alias``, and scales in place.
    """

    net: Network  # the network it was planned from, with zero placeholders as operands
    spec: einsum.EinsumSpec
    sim: SimplifyResult
    gram: _Gram | None
    operands: tuple
    args: tuple
    alias: int | None
    slices: tuple = _WHOLE
    tiles: tuple | None = None
    cut: SliceCost | None = None
    adds: bool = False  # parts over a summed cut leg add into parts of the output

    def run(self, operands) -> Tensor:
        sim, gram, scale = self.sim, self.gram, self.net.scale
        out, buffers = None, {}  # the padded gather buffers, zeroed once for all slices of one size
        for take, put, tail in self.slices:
            if tail is not None:
                sim, buffers = tail, {}
            part = operands if take is None else [a if t is None else a[t] for a, t in zip(operands, take)]
            part = sim.apply(part, buffers)
            for view, at, tile in self.tiles or ((None, None, sim),):
                views = part if view is None else [a if v is None else a[v] for a, v in zip(part, view)]
                z = einsum.contract(tile.spec, views, tile.plan)
                if put is None and at is None:  # the whole output, or a part of a sum over every cut leg
                    if tile.fold is not None:
                        z = tile.fold.apply(z)
                    out = z if out is None else np.add(out, z, out=out)
                    continue
                if out is None:  # zeroed where a fold writes only some entries or parts add up
                    zeroed = self.adds or tile.fold is not None
                    out = (np.zeros if zeroed else np.empty)(self.spec.output_shape())
                target = out if put is None else out[put]
                if at is not None:
                    target = target[at]
                if tile.fold is not None:
                    tile.fold.apply(z, target)
                elif self.adds:
                    target += z
                else:
                    target[...] = z
        if gram is not None:
            out = einsum.contract(gram.spec, (out, out if gram.shared else out.copy()), gram.plan)
        elif self.alias is not None and np.may_share_memory(out, operands[self.alias]):
            out = out.copy()
        if scale is not None:
            out *= scale
        return out


_PREP_CACHE: dict = {}


def _prepare(key, make_net, use_simplify: bool) -> _Prepared:
    """Parse, rewrite and plan the network ``make_net()``, cached under ``key``.

    Without simplify the rewrites get no pattern roles, so they remove
    nothing and the plan is ``einsum.plan``'s for the network.  A network
    declared a Gram is also planned as one half and the Gram or square of
    its result, which runs when it plans no more FLOPs than the full
    network, or when the full network cannot be planned.  The full network
    is not planned when V holds no more elements than the half's data
    operands.

    The key holds everything that decides the result, the network's scale
    included; the rewrites depend on the patterns' hyper-parameters, not
    only on their shapes.  The cache is emptied once it holds 4096 entries.
    """
    hit = _PREP_CACHE.get(key)
    if hit is None:
        net = make_net()
        spec = einsum.parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
        roles = net.roles if use_simplify else {}
        mirror = mirrored = _mirror(net, spec, roles)
        if mirror is None or not _surely_cheaper(mirror[1], net):
            try:
                full = simplify_structure(spec, roles)
            except Unsupported:
                if mirror is None:
                    raise
            else:
                if mirror is None or mirror[1].cost(mirror[0].plan).flops > full.plan.flops:
                    mirror = full, None
        sim, gram = mirror
        stepless = gram is None and sim.fold is None and not sim.plan.steps and not sim.plan.output.presum
        sliced = None if mirrored is not None else _slicing(net, spec, sim, roles)
        sim, slices, tiles, cut, adds = sliced or (sim, _WHOLE, None, None, False)
        alias = sim.kept[0] if stepless else None
        hit = _Prepared(net, spec, sim, gram, *_program(net, sim.kept), alias, slices, tiles, cut, adds)
        if len(_PREP_CACHE) >= 4096:
            _PREP_CACHE.clear()
        _PREP_CACHE[key] = hit
    return hit


def _surely_cheaper(gram: _Gram, net: Network) -> bool:
    """Whether V holds no more elements than the half's data operands.

    The full plan is then taken to cost at least the mirror's; on every
    curvature network of the bundled layers and the benchmark workloads it
    does.
    """
    h = len(net.sources) // 2
    data = sum(
        math.prod(a.shape) for a, src in zip(net.operands[:h], net.sources) if isinstance(src, str)
    )
    return gram.v_elements <= data


def _planned(conv: ConvSpec, op: str, columns: int, use_simplify: bool) -> _Prepared:
    def make_net() -> Network:
        return build_network(conv, op, None, columns=columns)

    return _prepare((op, conv, columns, use_simplify), make_net, use_simplify)


def run_op(
    conv: ConvSpec,
    op: str,
    arrays: dict[str, Tensor],
    *,
    simplify: bool = False,
) -> Tensor:
    """Contract ``op``'s network over ``arrays``, exactly the arrays ``op`` names."""
    columns = _columns(op, arrays)
    prep = _PREP_CACHE.get((op, conv, columns, simplify)) or _planned(conv, op, columns, simplify)
    return prep.run(_operands(op, prep.operands, prep.args, arrays))


def op_cost(conv: ConvSpec, op: str, *, columns: int = 2) -> OpCosts:
    """The full networks' plans with and without pattern rewrites, the mirrored evaluations
    and the slices.

    Where a Gram runs, or the batch is cut, the whole network is planned here.
    """
    base, simplified = (_planned(conv, op, columns, s) for s in (False, True))
    full = [
        p.sim if p.gram is None and p.cut is None else simplify_structure(p.spec, roles)
        for p, roles in ((base, {}), (simplified, simplified.net.roles))
    ]
    return OpCosts(
        base.net.equation,
        full[0].plan,
        full[1].plan,
        full[1].steps,
        math.prod(base.spec.output_shape()),
        *(p.gram and p.gram.cost(p.sim.plan) for p in (base, simplified)),
        base.cut,
        simplified.cut,
    )


def _wrapper(op: str):
    """The public function of ``op``: ``op(conv, *arrays, simplify=False)``."""
    names = _expanded(op, 1)[2]

    def call(conv: ConvSpec, *arrays: Tensor, simplify: bool = False) -> Tensor:
        # a missing or extra array pairs with None, which run_op refuses
        return run_op(conv, op, dict(zip_longest(names, arrays)), simplify=simplify)

    call.__name__ = call.__qualname__ = op
    call.__doc__ = f"``{op}`` over ({', '.join(names)}), contracted as its table entry says."
    return call


def conv_forward(
    conv: ConvSpec, x: Tensor, w: Tensor, b: Tensor | None = None, *, simplify: bool = False
) -> Tensor:
    y = run_op(conv, "conv_forward", {"x": x, "w": w}, simplify=simplify)
    if conv.has_bias:
        if b is None:
            raise ShapeMismatch("spec declares a bias but none was passed")
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (conv.c_out,):
            raise ShapeMismatch(f"bias has shape {b.shape}, expected {(conv.c_out,)}")
        y = y + b.reshape((1, conv.c_out) + (1,) * conv.nd)
    elif b is not None:
        raise Unsupported("spec declares no bias")
    return y


def weight_vjp(
    conv: ConvSpec, x: Tensor, v_y: Tensor, *, simplify: bool = False
) -> WeightVjp:
    vw = run_op(conv, "weight_vjp", {"x": x, "v_y": v_y}, simplify=simplify)
    vb = None
    if conv.has_bias:
        v_y = np.asarray(v_y, dtype=np.float64)
        vb = v_y.sum(axis=(0, *range(2, 2 + conv.nd)))
    return WeightVjp(vw, vb)


unfold_input = _wrapper("unfold_input")
unfold_kernel = _wrapper("unfold_kernel")
fold_output = _wrapper("fold_output")
transpose_unfold = _wrapper("transpose_unfold")
per_sample_weight_vjp = _wrapper("per_sample_weight_vjp")
input_vjp = _wrapper("input_vjp")
weight_jvp = _wrapper("weight_jvp")
input_jvp = _wrapper("input_jvp")
im2col_jvp = _wrapper("im2col_jvp")
im2col_vjp = _wrapper("im2col_vjp")
kfac_expand_factor = _wrapper("kfac_expand_factor")
kfac_reduce_factor = _wrapper("kfac_reduce_factor")
kfac_expand_transpose = _wrapper("kfac_expand_transpose")
kfac_reduce_transpose = _wrapper("kfac_reduce_transpose")
ggn_gram = _wrapper("ggn_gram")
ggn_diagonal = _wrapper("ggn_diagonal")
per_sample_ggn_diagonal = _wrapper("per_sample_ggn_diagonal")
hesscale_weight_diag = _wrapper("hesscale_weight_diag")
per_sample_hesscale_weight_diag = _wrapper("per_sample_hesscale_weight_diag")
hesscale_input_diag = _wrapper("hesscale_input_diag")
