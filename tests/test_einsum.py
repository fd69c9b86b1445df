"""Contraction engine: parsing, planning, execution, cost accounting."""

import itertools
import math
import tracemalloc
from functools import lru_cache
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conv_tn import einsum, ops
from conv_tn.cli import load_layers
from conv_tn.einsum import (
    MAX_OPERANDS,
    ParseError,
    SizeConflict,
    UnderdeterminedGroup,
    _build_plan,
    _result_order,
    contract,
    make_spec,
    parse,
    plan,
)
from conv_tn.tensor import ShapeMismatch, Unsupported, max_rel_err


def naive_contract(spec, operands):
    """Definitional sum over every assignment of the bound indices."""
    arrays = []
    for term, arr in zip(spec.operand_terms, operands):
        shape = []
        for atom in term:
            members = atom if isinstance(atom, tuple) else (atom,)
            shape.extend(spec.sizes[m] for m in members)
        arrays.append(np.asarray(arr, dtype=np.float64).reshape(shape))
    names = sorted({i for t in spec.operand_indices for i in t})
    out_flat = spec.output_indices
    out = np.zeros([spec.sizes[i] for i in out_flat])
    for assign in itertools.product(*[range(spec.sizes[n]) for n in names]):
        env = dict(zip(names, assign))
        value = 1.0
        for arr, idx in zip(arrays, spec.operand_indices):
            value *= arr[tuple(env[i] for i in idx)]
        out[tuple(env[i] for i in out_flat)] += value
    return out.reshape(spec.output_shape())


def brute_force_min_flops(spec):
    """Minimum total step cost over every binary contraction tree."""
    sizes = spec.sizes
    ops_idx = [frozenset(t) for t in spec.operand_indices]
    out = frozenset(spec.output_indices)
    n = len(ops_idx)
    full = frozenset(range(n))

    def union_of(ids):
        return frozenset().union(*(ops_idx[i] for i in ids)) if ids else frozenset()

    def surv(ids):
        return union_of(ids) & (out | union_of(full - ids))

    def entering(ids):
        if len(ids) == 1:
            return ops_idx[next(iter(ids))]
        return surv(ids)

    @lru_cache(maxsize=None)
    def solve(ids_tup):
        ids = frozenset(ids_tup)
        if len(ids) == 1:
            return 0
        anchor = min(ids)
        others = sorted(ids - {anchor})
        best = None
        for r in range(len(others)):
            for combo in itertools.combinations(others, r):
                a = frozenset((anchor, *combo))
                b = ids - a
                step = math.prod(sizes[i] for i in entering(a) | entering(b))
                cost = solve(tuple(sorted(a))) + solve(tuple(sorted(b))) + step
                if best is None or cost < best:
                    best = cost
        return best

    return solve(tuple(range(n)))


def left_deep_plan(spec):
    """Contract the operands in order, each into the running result."""
    out = set(spec.output_indices)
    ops_idx = spec.operand_indices
    pairs, left, acc = [], 0, ops_idx[0]
    for pos in range(1, len(ops_idx)):
        later = {i for t in ops_idx[pos + 1 :] for i in t}
        result = _result_order(spec.sizes, acc, ops_idx[pos], out | later)
        pairs.append((left, pos, result))
        left, acc = len(ops_idx) + len(pairs) - 1, result
    return _build_plan(spec, pairs)


def chain_spec(n_ops):
    """A chain of ``n_ops`` 2x2 matrices, ``a b, b c, ... -> (first) (last)``."""
    names = [f"a{i}" for i in range(n_ops + 1)]
    terms = [f"{names[i]} {names[i + 1]}" for i in range(n_ops)]
    return parse(", ".join(terms) + f" -> {names[0]} {names[-1]}", [(2, 2)] * n_ops)


# ---------------------------------------------------------------- parsing


def test_parse_matrix_product_sizes():
    spec = parse("i j, j k -> i k", [(2, 3), (3, 4)])
    assert spec.sizes == {"i": 2, "j": 3, "k": 4}
    assert spec.operand_indices == (("i", "j"), ("j", "k"))


def test_parse_spaced_multichar_names():
    spec = parse("c_in i1 -> i1 c_in", [(3, 5)])
    assert spec.sizes == {"c_in": 3, "i1": 5}


@pytest.mark.parametrize(
    "equation, shapes, sizes",
    [
        ("row, row -> row", [(2,), (2,)], {"row": 2}),
        ("ab -> ab", [(5,)], {"ab": 5}),
        ("ab,ab->ab", [(2,), (2,)], {"ab": 2}),
    ],
)
def test_a_run_of_letters_is_one_index(equation, shapes, sizes):
    assert parse(equation, shapes).sizes == sizes


def test_parse_group_inference_with_seed():
    spec = parse("n (g c) i -> n g c i", [(2, 6, 4)], sizes={"g": 2})
    assert spec.sizes["c"] == 3


def test_parse_group_single_unknown_inferred():
    spec = parse("(a b) -> a b", [(6,)], sizes={"a": 2})
    assert spec.sizes["b"] == 3


def test_parse_underdetermined_group():
    with pytest.raises(UnderdeterminedGroup):
        parse("(a b) -> a b", [(6,)])


def test_parse_seed_for_unknown_index():
    with pytest.raises(ParseError):
        parse("a -> a", [(2,)], sizes={"q": 3})


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("a b", [(2, 3)])  # no arrow
    with pytest.raises(ParseError):
        parse("a -> a -> a", [(2,)])
    with pytest.raises(ParseError):
        parse("a a -> a", [(2, 2)])  # repeated in one operand
    with pytest.raises(ParseError):
        parse("a, b -> c", [(2,), (3,)])  # output index unseen
    with pytest.raises(ParseError):
        parse("a, -> a", [(2,)])  # empty term
    with pytest.raises(ParseError):
        parse("(a) -> a", [(2,)])  # single-member group


def test_parse_size_conflict():
    with pytest.raises(SizeConflict):
        parse("a, a ->", [(2,), (3,)])
    with pytest.raises(SizeConflict):
        parse("(a b) -> a b", [(5,)], sizes={"a": 2})


def test_parse_arity_mismatch():
    with pytest.raises(ShapeMismatch):
        parse("a b -> a", [(2,)])
    with pytest.raises(ShapeMismatch):
        parse("a, b -> a", [(2,)])


# ---------------------------------------------------------------- planning


def test_matrix_chain_avoids_outer_product():
    spec = parse("i j, j k, k l -> i l", [(2, 100), (100, 100), (100, 2)])
    p = plan(spec)
    assert p.flops == 20400
    assert p.max_intermediate == 200
    assert all(step.size != 10000 for step in p.steps)


def test_permutation_only_plan():
    spec = parse("i j -> j i", [(2, 3)])
    p = plan(spec)
    assert p.steps == ()
    assert p.flops == 0
    assert p.max_intermediate == 6  # the output itself


def test_dot_product_plan_and_value():
    spec = parse("i, i ->", [(3,), (3,)])
    p = plan(spec)
    assert p.flops == 3
    assert p.max_intermediate == 1
    result = contract(spec, [np.array([1.0, 2, 3]), np.array([4.0, 5, 6])], p)
    assert result.shape == ()
    assert result == 32.0


def test_cost_report_reads_plan():
    spec = parse("i j, j k, k l -> i l", [(2, 100), (100, 100), (100, 2)])
    p = plan(spec)
    assert p.flops == 20400
    assert p.max_intermediate == 200
    assert len(p.steps) == 2


def test_plan_optimal_matches_brute_force_fixed_cases():
    cases = [
        ("i j, j k, k l -> i l", [(2, 100), (100, 100), (100, 2)]),
        ("a b, b c, c d, a d ->", [(2, 3), (3, 4), (4, 2), (2, 2)]),
        ("x d, x, x -> x", [(2, 10), (2,), (2,)]),
        ("a b c, c d, b d e -> a e", [(2, 3, 4), (4, 3), (3, 3, 2)]),
    ]
    for equation, shapes in cases:
        spec = parse(equation, shapes)
        assert plan(spec).flops == brute_force_min_flops(spec), equation


@pytest.mark.parametrize("layer", ["lenet_c2", "resnext_group"])
@pytest.mark.parametrize(
    "op", ["ggn_gram", "ggn_diagonal", "per_sample_ggn_diagonal"]
)
def test_plan_optimal_on_curvature_networks(layer, op):
    # the unsimplified 2d curvature networks have 7-8 operands
    conv = dict(load_layers(str(resources.files("conv_tn") / "fixtures/layers.json")))[layer]
    net = ops.build_network(conv, op)
    spec = parse(net.equation, [a.shape for a in net.operands], sizes=net.seeds)
    assert len(spec.operand_terms) in (7, 8)
    assert plan(spec).flops == brute_force_min_flops(spec)


def test_more_operands_than_the_planner_takes_raise():
    spec = chain_spec(MAX_OPERANDS + 1)
    with pytest.raises(Unsupported):
        plan(spec)


# ---------------------------------------------------------------- execution


def test_identity_matmul():
    spec = parse("i j, j k -> i k", [(2, 2), (2, 2)])
    m = np.array([[1.0, 2], [3, 4]])
    assert np.allclose(contract(spec, [np.eye(2), m], plan(spec)), m)


def test_hadamard():
    spec = parse("i j, i j -> i j", [(2, 2), (2, 2)])
    a = np.array([[1.0, 2], [3, 4]])
    b = np.array([[5.0, 6], [7, 8]])
    assert np.array_equal(contract(spec, [a, b], plan(spec)), [[5.0, 12], [21, 32]])


def test_single_operand_sum():
    spec = parse("a b -> a", [(2, 3)])
    arr = np.arange(6.0).reshape(2, 3)
    assert np.allclose(contract(spec, [arr], plan(spec)), arr.sum(axis=1))


def test_output_group_flattens_row_major():
    spec = parse("a b -> (a b)", [(2, 3)])
    arr = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(contract(spec, [arr], plan(spec)), arr.reshape(6))


def test_input_group_ungroups():
    spec = parse("(a b) -> b a", [(6,)], sizes={"a": 2})
    arr = np.arange(6.0)
    assert np.array_equal(contract(spec, [arr], plan(spec)), arr.reshape(2, 3).T)


def test_expanding_last_step_matches_nested_loops():
    # the result outgrows both operands, so the last step is made in the
    # output's order, which interleaves the two operands' indices: c and o are
    # batch indices that one operand holds each, d the rows and i the columns
    spec = parse("i o k, c d k -> c o d i", [(8, 4, 2), (3, 6, 2)])
    rng = np.random.default_rng(7)
    operands = [rng.standard_normal((8, 4, 2)), rng.standard_normal((3, 6, 2))]
    want = naive_contract(spec, operands)
    plan_ = plan(spec)
    (step,) = plan_.steps
    assert step.result == spec.output_indices and plan_.finish is None
    assert (step.lhs.shape, step.rhs.shape) == ((3, 1, 6, 2), (1, 4, 2, 8))
    assert max_rel_err(contract(spec, operands, plan_), want) <= 1e-12


# (equation, shapes, the left and right layouts' batch axes): a batch index
# that only one operand holds is a unit axis of the other's layout
BROADCAST_CASES = (
    ("n c k, d k -> n d c", [(9, 8, 3), (7, 3)], (9,), (1,)),  # n from the left
    ("d k, n c k -> n d c", [(7, 3), (9, 8, 3)], (1,), (9,)),  # n from the right
    ("n c k, d k -> n d c", [(9, 8, 1), (7, 1)], (9,), (1,)),  # k of size 1: a broadcast multiply
    ("a b c k, a d e k -> a b d c e", [(2, 3, 6, 2), (2, 4, 6, 2)], (2, 3, 1), (2, 1, 4)),  # a 3-d batch group
)


@pytest.mark.parametrize("equation, shapes, lhs_batch, rhs_batch", BROADCAST_CASES)
def test_broadcast_batch_makes_the_output_in_its_order(equation, shapes, lhs_batch, rhs_batch):
    spec, operands = _case(equation, shapes)
    plan_ = plan(spec)
    (step,) = plan_.steps
    layouts = {step.left: step.lhs, step.right: step.rhs}
    assert (layouts[0].shape[:-2], layouts[1].shape[:-2]) == (lhs_batch, rhs_batch)
    assert plan_.finish is None
    assert max_rel_err(contract(spec, operands, plan_), naive_contract(spec, operands)) <= 1e-12


def test_tiny_broadcast_gemms_keep_the_default_order():
    # 9 GEMMs of 3 x 2 would each cost more than the copy they save: the step
    # takes the default order, (d)(n c), and the output is permuted after it
    spec, operands = _case("n c k, d k -> n d c", [(9, 2, 3), (3, 3)])
    plan_ = plan(spec)
    (step,) = plan_.steps
    assert step.lhs.shape[:-2] == step.rhs.shape[:-2] == (1,)
    assert plan_.finish.perm is not None
    assert max_rel_err(contract(spec, operands, plan_), naive_contract(spec, operands)) <= 1e-12


@pytest.mark.parametrize(
    "layer, op",
    [
        ("vgg_block", "unfold_kernel"),
        ("mobilenet_pw", "unfold_kernel"),
        ("resnet_stem", "unfold_kernel"),
        ("resnet_stem", "transpose_unfold"),
    ],
)
def test_expanding_last_step_makes_one_output_sized_array(layer, op):
    # no closing permutation copies the product: the call's peak is the output
    # and the operands' copies, which the expanding step's result outgrows
    conv = dict(load_layers(None))[layer]
    rng = np.random.default_rng(0)
    arrays = {k: rng.standard_normal(s) for k, s in ops.input_shapes(conv, op).items()}
    ops.run_op(conv, op, arrays)  # plans are cached, and not counted below
    tracemalloc.start()
    try:
        out = ops.run_op(conv, op, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * out.nbytes


# ------------------------------------------------------- randomized checks


def _integers(rng, shape):
    """Integer-valued float64 entries in [-3, 3]: every sum of products of them
    is exact, so a result either equals the reference or is wrong."""
    return rng.integers(-3, 4, shape).astype(np.float64)


@st.composite
def small_specs(draw):
    pool = "abcde"
    sizes = {c: draw(st.integers(1, 3)) for c in pool}
    n_ops = draw(st.integers(1, 4))
    terms = []
    for _ in range(n_ops):
        k = draw(st.integers(1, 3))
        perm = draw(st.permutations(list(pool)))
        terms.append(tuple(perm[:k]))
    used = sorted({i for t in terms for i in t})
    out_k = draw(st.integers(0, len(used)))
    output = tuple(draw(st.permutations(used))[:out_k])
    spec = make_spec(terms, output, sizes)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    operands = [_integers(rng, [sizes[i] for i in t]) for t in terms]
    return spec, operands


def _case(equation, shapes):
    rng = np.random.default_rng(len(equation))
    return parse(equation, shapes), [_integers(rng, shape) for shape in shapes]


# plans with no step (one of them with nothing to do at all), and steps
# whose operands are only summed before the GEMM
NO_STEP = _case("a b -> a b", [(2, 3)]), _case("a b c -> c a", [(2, 3, 4)]), _case("a b -> ", [(2, 3)])
PRESUM_ONLY = _case("a b, b c d -> a c", [(2, 3), (3, 4, 5)]), _case("a b e, b c -> a", [(2, 3, 2), (3, 4)])
# with normal operands, 2 of 20,000 seeds of this spec cancelled to a reference
# of 4e-4 that the engine missed by 9e-16, a relative 2e-12
CANCELLING = _case("d e b, b d a, a d b, d e b ->", [(2, 3, 3), (3, 2, 2), (2, 2, 3), (2, 3, 3)])


@given(small_specs())
@example(NO_STEP[0])
@example(NO_STEP[1])
@example(NO_STEP[2])
@example(PRESUM_ONLY[0])
@example(PRESUM_ONLY[1])
@example(CANCELLING)
@settings(max_examples=120, deadline=None)
def test_contract_matches_nested_loops(case):
    spec, operands = case
    want = naive_contract(spec, operands)
    assert np.array_equal(contract(spec, operands, plan(spec)), want)
    assert np.array_equal(contract(spec, operands, left_deep_plan(spec)), want)


def _expands(spec, plan_):
    """Whether the last step's result outgrows both arrays it contracts."""
    if not plan_.steps:
        return False
    idx, last = [*spec.operand_indices, *(s.result for s in plan_.steps)], plan_.steps[-1]
    size = lambda indices: math.prod(spec.sizes[i] for i in indices)  # noqa: E731
    return size(last.result) > max(size(idx[last.left]), size(idx[last.right]))


@given(small_specs())
@settings(max_examples=120, deadline=None)
def test_expanding_last_step_ends_without_a_copy(case):
    # with no floor on the GEMMs' tile every expanding last step is made in the
    # output's order, by the optimal plan and by a left-deep one alike
    spec, operands = case
    want = naive_contract(spec, operands)
    with mock.patch.object(einsum, "_BROADCAST_MIN_TILE", 1):
        plans = plan(spec), left_deep_plan(spec)
    for plan_ in plans:
        if _expands(spec, plan_):
            assert plan_.finish is None or (plan_.finish.perm is None and not plan_.finish.presum)
        assert np.array_equal(contract(spec, operands, plan_), want)


@given(small_specs())
@settings(max_examples=80, deadline=None)
def test_plan_is_flop_optimal(case):
    spec, _ = case
    assert plan(spec).flops == brute_force_min_flops(spec)


@given(small_specs())
@settings(max_examples=60, deadline=None)
def test_operand_commutativity(case):
    spec, operands = case
    if len(operands) < 2:
        return
    base = contract(spec, operands, plan(spec))
    swapped_terms = list(spec.operand_terms)
    swapped_terms[0], swapped_terms[1] = swapped_terms[1], swapped_terms[0]
    swapped_spec = make_spec(swapped_terms, spec.output_term, spec.sizes)
    swapped_operands = [operands[1], operands[0]] + list(operands[2:])
    swapped = contract(swapped_spec, swapped_operands, plan(swapped_spec))
    assert np.array_equal(swapped, base)


@given(small_specs())
@example(NO_STEP[1])
@example(PRESUM_ONLY[0])
@settings(max_examples=60, deadline=None)
def test_plan_independence(case):
    spec, operands = case
    optimal = contract(spec, operands, plan(spec))
    chain = contract(spec, operands, left_deep_plan(spec))
    assert np.array_equal(chain, optimal)


def test_left_deep_plan_differs_from_the_optimal_one():
    spec = parse("i j, j k, k l -> i l", [(100, 2), (2, 100), (100, 2)])
    chain = left_deep_plan(spec)
    assert (chain.flops, plan(spec).flops) == (40000, 800)
    rng = np.random.default_rng(5)
    operands = [rng.standard_normal(shape) for shape in [(100, 2), (2, 100), (100, 2)]]
    optimal = contract(spec, operands, plan(spec))
    assert max_rel_err(contract(spec, operands, chain), optimal) <= 1e-12


def test_seven_operand_chain_gets_the_exact_plan():
    spec = chain_spec(7)
    assert plan(spec).flops == brute_force_min_flops(spec)
    rng = np.random.default_rng(3)
    operands = [rng.standard_normal((2, 2)) for _ in range(7)]
    want = naive_contract(spec, operands)
    assert max_rel_err(contract(spec, operands, plan(spec)), want) <= 1e-12


class _NoMatrixTranspose(np.ndarray):
    """An array without ``mT``, which NumPy adds only in 2.0."""

    @property
    def mT(self):
        raise AttributeError("mT")


def test_swapped_operand_reads_on_numpy_1():
    # pyproject allows numpy>=1.24, so a swapped layout may use no NumPy 2 attribute
    spec = parse("j i, j k -> i k", [(3, 4), (3, 5)])
    (step,) = plan(spec).steps
    assert step.lhs.swapped and step.lhs.perm is None
    a = np.random.default_rng(2).standard_normal((3, 4))
    view = step.lhs.apply(a.view(_NoMatrixTranspose))
    assert np.shares_memory(view, a) and np.array_equal(view, a.T[None])


def test_broadcast_layouts_run_on_numpy_1():
    # a layout whose batch broadcasts, with its copy made in the GEMM's order,
    # may use no NumPy 2 attribute either
    spec, operands = _case("i o k, c d k -> c o d i", [(8, 4, 2), (3, 6, 2)])
    plan_ = plan(spec)
    (step,) = plan_.steps
    assert step.lhs.shape[:-2] != step.rhs.shape[:-2] and step.rhs.perm is not None
    got = contract(spec, [a.view(_NoMatrixTranspose) for a in operands], plan_)
    assert max_rel_err(np.asarray(got), naive_contract(spec, operands)) <= 1e-12
