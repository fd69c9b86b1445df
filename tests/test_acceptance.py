"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time

import numpy as np

from conv_tn import einsum
from conv_tn.crs import CrsConfig, crs_weight_vjp, masked_weight_vjp, normalized_error
from conv_tn.oracle import direct_conv, direct_unfold
from conv_tn.ops import (
    ConvSpec,
    input_shapes,
    input_vjp,
    kfac_expand_factor,
    kfac_reduce_factor,
    op_cost,
    run_op,
    weight_vjp,
)
from conv_tn.pattern import DimSpec, output_size, pattern
from conv_tn.verify import default_grid, run_verification

from test_einsum import brute_force_min_flops, left_deep_plan, naive_contract
from test_oracle import finite_difference_vjp, sym_eig_min
from test_pattern import boundary_pixel_free, kernel_output_swap


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def rel_err(reference: np.ndarray, candidate: np.ndarray) -> float:
    scale = float(np.max(np.abs(reference)))
    if scale == 0.0:
        return float(np.max(np.abs(candidate)))
    return float(np.max(np.abs(candidate - reference))) / scale


def test_criterion_1_oracle_equivalence_grid():
    start = time.perf_counter()
    specs = default_grid(count=200, seed=20240613)
    assert len(specs) >= 200
    rep = run_verification(specs, tol=1e-12)
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 120.0
    report(
        1,
        ok,
        f"{len(specs)} specs, {rep.total_cases} op cases vs oracles at 1e-12,"
        f" {elapsed:.1f}s",
    )


def test_criterion_2_finite_difference_gradients():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 20:
        nd = int(rng.integers(1, 3))
        dims = []
        for _ in range(nd):
            k = int(rng.integers(1, 3))
            i = int(rng.integers(k, 6))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 2))
            dims.append(DimSpec(i, k, s, p, 1))
        g = int(rng.choice([1, 2]))
        conv = ConvSpec(
            int(rng.integers(1, 3)), g, 2 * g if g > 1 else int(rng.integers(1, 3)),
            2 * g if g > 1 else int(rng.integers(1, 3)), tuple(dims),
        )
        shapes = input_shapes(conv, "weight_vjp")
        if math.prod(shapes["x"]) > 40 or math.prod(conv.kernel_sizes) * conv.c_out > 40:
            continue
        x = rng.standard_normal(shapes["x"])
        v_y = rng.standard_normal(shapes["v_y"])
        w = rng.standard_normal(input_shapes(conv, "conv_forward")["w"])

        got_w = weight_vjp(conv, x, v_y).weight
        fd_w = finite_difference_vjp(
            lambda t: float((v_y * direct_conv(conv, x, t)).sum()), w
        )
        got_x = input_vjp(conv, w, v_y)
        fd_x = finite_difference_vjp(
            lambda t: float((v_y * direct_conv(conv, t, w)).sum()), x
        )
        worst = max(worst, rel_err(fd_w, got_w), rel_err(fd_x, got_x))
        checked += 1
    ok = worst <= 1e-4
    report(2, ok, f"{checked} instances, worst relative error {worst:.2e} vs 1e-4")


def test_criterion_3_pattern_fidelity():
    entries = 0
    swaps = 0
    transposes = 0
    for i, k, s, p, d in itertools.product(
        range(1, 9), range(1, 5), range(1, 4), range(0, 3), range(1, 3)
    ):
        if k + (k - 1) * (d - 1) > i + 2 * p:
            continue
        dim = DimSpec(i, k, s, p, d)
        pat = pattern(dim)
        o = output_size(dim)
        for ii in range(i):
            for oo in range(o):
                for kk in range(k):
                    want = float(ii == kk * d + oo * s - p)
                    assert pat.table[ii, oo, kk] == want, (dim, ii, oo, kk)
                    entries += 1
        if p == 0 and boundary_pixel_free(dim):
            assert pat.nnz == o * k, dim
        if boundary_pixel_free(dim):
            back = kernel_output_swap(kernel_output_swap(pat))
            assert back.dim == pat.dim
            assert np.array_equal(back.table, pat.table), dim
            swaps += 1
        if s == 1 and d == 1 and p <= k - 1:
            flipped = pattern(DimSpec(o, k, 1, k - p - 1, 1)).table
            assert np.array_equal(
                pat.table, np.transpose(flipped, (1, 0, 2))[:, :, ::-1]
            ), dim
            transposes += 1
    report(
        3,
        True,
        f"{entries} table entries, {swaps} swap involutions,"
        f" {transposes} transpose identities, all bitwise",
    )


def test_criterion_4_simplification_equivalence_and_cost():
    fixtures = {
        "dense": ConvSpec(2, 1, 2, 3, (DimSpec(8, 2, 2), DimSpec(4, 4, 4))),
        "mixed": ConvSpec(2, 1, 2, 3, (DimSpec(8, 2, 2), DimSpec(5, 2))),
        "down": ConvSpec(2, 1, 2, 3, (DimSpec(8, 1, 2),)),
    }
    ops = ("conv_forward", "weight_vjp", "input_vjp", "kfac_expand_factor",
           "kfac_reduce_factor", "unfold_input")
    rng = np.random.default_rng(44)
    worst = 0.0
    for conv in fixtures.values():
        for op in ops:
            arrays = {n: rng.standard_normal(sh) for n, sh in input_shapes(conv, op).items()}
            plain = run_op(conv, op, arrays, simplify=False)
            fancy = run_op(conv, op, arrays, simplify=True)
            worst = max(worst, rel_err(plain, fancy))
    assert worst <= 1e-12

    for k in (2, 3, 4):
        conv = ConvSpec(2, 1, 2, 3, (DimSpec(4 * k, k, k), DimSpec(2 * k, k, k)))
        costs = op_cost(conv, "conv_forward")
        assert costs.simplified.flops < costs.base.flops, k

    # wide-channel fixture with patch-sized stride: the column matrix is the
    # expensive object, the factor itself never needs it
    conv = ConvSpec(4, 1, 32, 64, (DimSpec(16, 4, 4), DimSpec(16, 4, 4)))
    k_total = math.prod(conv.kernel_sizes)
    o_total = math.prod(conv.out_sizes)
    i_total = math.prod(conv.input_sizes)
    u = direct_unfold(conv, np.zeros((conv.batch, conv.c_in, 16, 16)))
    assert u.size == conv.batch * conv.c_in * k_total * o_total == 32768
    factor_dim = conv.c_in * k_total
    bound = (
        conv.batch * conv.c_in * i_total
        + 16 * 4 + 16 * 4
        + factor_dim * factor_dim
    )
    costs = op_cost(conv, "kfac_reduce_factor")
    peak = costs.simplified.max_intermediate
    ok = peak < bound
    report(
        4,
        ok and worst <= 1e-12,
        f"rewrites equal at {worst:.1e}; dense plans strictly cheaper;"
        f" reduce-factor peak {peak} < {bound} while columns take {u.size}",
    )


def test_criterion_5_kfac_structure():
    rng = np.random.default_rng(55)
    checked = 0
    single_column = 0
    for conv in default_grid(count=200, seed=20240613):
        k_total = math.prod(conv.kernel_sizes)
        factor_dim = (conv.c_in // conv.groups) * k_total
        if factor_dim > 64:
            continue
        x = rng.standard_normal(input_shapes(conv, "kfac_expand_factor")["x"])
        omega = kfac_expand_factor(conv, x)
        omega_hat = kfac_reduce_factor(conv, x)
        for gg in range(conv.groups):
            for m in (omega[gg], omega_hat[gg]):
                assert rel_err(m, m.T) <= 1e-14 if m.any() else True
                assert sym_eig_min((m + m.T) / 2.0) >= -1e-10 * max(np.trace(m), 1e-30)
        if math.prod(conv.out_sizes) == 1:
            assert np.array_equal(omega, omega_hat), conv
            single_column += 1
        checked += 1
    ok = checked >= 50 and single_column >= 3
    report(
        5,
        ok,
        f"{checked} instances symmetric and PSD, {single_column} single-column"
        " instances where both factors coincide exactly",
    )


def test_criterion_6_crs():
    conv = ConvSpec(1, 1, 2, 2, (DimSpec(3, 2),))
    rng = np.random.default_rng(66)
    shapes = input_shapes(conv, "weight_vjp")
    x = rng.standard_normal(shapes["x"])
    v_y = rng.standard_normal(shapes["v_y"])
    exact = weight_vjp(conv, x, v_y).weight

    est = crs_weight_vjp(conv, x, v_y, CrsConfig({"c_in": 1.0, "i1": 1.0}, seed=1))
    assert rel_err(exact, est.weight) <= 1e-12

    # full enumeration of the 2^(2+3) joint mask outcomes
    p_c, p_i = 0.5, 0.4
    mean = np.zeros_like(exact)
    for c_bits in itertools.product([False, True], repeat=2):
        for i_bits in itertools.product([False, True], repeat=3):
            c_mask = np.array(c_bits)
            i_mask = np.array(i_bits)
            prob = (
                p_c ** c_mask.sum() * (1 - p_c) ** (~c_mask).sum()
                * p_i ** i_mask.sum() * (1 - p_i) ** (~i_mask).sum()
            )
            mean += prob * masked_weight_vjp(
                conv, x, v_y, {"c_in": c_mask, "i1": i_mask},
                {"c_in": p_c, "i1": p_i},
            )
    enum_err = rel_err(exact, mean)
    assert enum_err <= 1e-12

    # Monte-Carlo mean over ten thousand mask seeds, three standard errors
    n_seeds = 10_000
    samples = np.empty((n_seeds,) + exact.shape)
    for seed in range(n_seeds):
        samples[seed] = crs_weight_vjp(
            conv, x, v_y, CrsConfig({"c_in": 0.5, "i1": 0.6}, seed=seed)
        ).weight
    mc_mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(n_seeds)
    inside = np.abs(mc_mean - exact) <= 3.0 * se + 1e-15
    assert inside.all(), np.abs(mc_mean - exact) / np.maximum(se, 1e-30)

    # channel masking vs spatial masking at matched expected memory
    conv2 = ConvSpec(2, 1, 4, 4, (DimSpec(6, 2), DimSpec(6, 2)))
    shapes2 = input_shapes(conv2, "weight_vjp")
    x2 = rng.standard_normal(shapes2["x"])
    v_y2 = rng.standard_normal(shapes2["v_y"])
    exact2 = weight_vjp(conv2, x2, v_y2).weight
    p = 0.5
    root = math.sqrt(p)
    chan_errs = []
    spat_errs = []
    for seed in range(1000):
        chan = crs_weight_vjp(conv2, x2, v_y2, CrsConfig({"c_in": p}, seed=seed))
        spat = crs_weight_vjp(
            conv2, x2, v_y2, CrsConfig({"i1": root, "i2": root}, seed=seed)
        )
        chan_errs.append(normalized_error(exact2, chan.weight))
        spat_errs.append(normalized_error(exact2, spat.weight))
    chan_mean = float(np.mean(chan_errs))
    spat_mean = float(np.mean(spat_errs))
    ok = spat_mean < chan_mean
    report(
        6,
        ok,
        f"p=1 exact; 32-outcome enumeration {enum_err:.1e}; MC mean inside 3 SE;"
        f" spatial {spat_mean:.3f} < channel {chan_mean:.3f} mean error",
    )


def random_small_spec(rng):
    pool = "abcde"
    n_ops = int(rng.integers(1, 5))
    n_idx = int(rng.integers(1, 5))
    names = list(pool[:n_idx])
    sizes = {n: int(rng.integers(1, 4)) for n in names}
    terms = []
    for _ in range(n_ops):
        length = int(rng.integers(0, min(3, n_idx) + 1))
        terms.append(tuple(rng.choice(names, size=length, replace=False)))
    seen = {n for t in terms for n in t}
    out_pool = sorted(seen)
    rng.shuffle(out_pool)
    out = tuple(out_pool[: int(rng.integers(0, len(out_pool) + 1))]) if out_pool else ()
    eq = ", ".join(" ".join(t) if t else "" for t in terms) + " -> " + " ".join(out)
    if any(not t for t in terms):
        return None
    shapes = [tuple(sizes[n] for n in t) for t in terms]
    try:
        spec = einsum.parse(eq, shapes)
    except ValueError:
        return None
    operands = [rng.standard_normal(sh) for sh in shapes]
    return spec, operands


def test_criterion_7_einsum_engine():
    rng = np.random.default_rng(777)
    checked = 0
    optimal = 0
    worst = 0.0
    while checked < 50:
        drawn = random_small_spec(rng)
        if drawn is None:
            continue
        spec, operands = drawn
        got = einsum.contract(spec, operands, einsum.plan(spec))
        want = naive_contract(spec, operands)
        worst = max(worst, rel_err(np.asarray(want), np.asarray(got)))

        if len(operands) <= 5:
            plan = einsum.plan(spec)
            assert plan.flops == brute_force_min_flops(spec), spec.render()
            optimal += 1

        # operand order must not matter
        perm = list(rng.permutation(len(operands)))
        shuffled = einsum.make_spec(
            tuple(spec.operand_terms[j] for j in perm), spec.output_term, spec.sizes
        )
        again = einsum.contract(shuffled, [operands[j] for j in perm], einsum.plan(shuffled))
        worst = max(worst, rel_err(np.asarray(got), np.asarray(again)))

        # every plan evaluates to the same values
        via_chain = einsum.contract(spec, operands, left_deep_plan(spec))
        worst = max(worst, rel_err(np.asarray(got), np.asarray(via_chain)))
        checked += 1
    ok = worst <= 1e-12
    report(
        7,
        ok,
        f"{checked} random specs vs nested loops at {worst:.1e},"
        f" {optimal} plans matched exhaustive search",
    )
