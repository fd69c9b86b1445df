"""Equal networks share one prepared program, keyed by what decides its result.

``weight_jvp`` and ``input_jvp`` are ``conv_forward``'s network over other
arrays, ``im2col_jvp`` is ``unfold_input``'s, and each HesScale diagonal is
a VJP's network over a squared array (``ops._HESS``).  A network that does
not read a leg of the layer is one network on layers that differ only in
that leg, and a network with no full pattern is one for both simplify
settings.  Each shares one program's parse, rewrites and plans, under its
own call key and naming its own arrays.
"""

import dataclasses
from importlib import resources

import numpy as np
import pytest

from conv_tn import einsum, ops
from conv_tn.cli import load_layers
from conv_tn.ops import OP_NAMES, ConvSpec, input_shapes, run_op
from conv_tn.pattern import DimSpec
from conv_tn.tensor import Unsupported
from conv_tn.verify import compare, oracle_run

CLASSES = {
    frozenset({"conv_forward", "weight_jvp", "input_jvp"}),
    frozenset({"unfold_input", "im2col_jvp"}),
    frozenset({"weight_vjp", "hesscale_weight_diag"}),
    frozenset({"per_sample_weight_vjp", "per_sample_hesscale_weight_diag"}),
    frozenset({"input_vjp", "hesscale_input_diag"}),
}
# each alias with the first op of its class in table order
ALIASES = {
    "weight_jvp": "conv_forward",
    "input_jvp": "conv_forward",
    "im2col_jvp": "unfold_input",
    "hesscale_weight_diag": "weight_vjp",
    "per_sample_hesscale_weight_diag": "per_sample_weight_vjp",
    "hesscale_input_diag": "input_vjp",
}
LAYERS = load_layers(None) + load_layers(str(resources.files("conv_tn") / "fixtures/layers_3d.json"))


def _inputs(conv, op, rng):
    """Exactly ``op``'s arrays, standard normal."""
    return {k: rng.standard_normal(s) for k, s in input_shapes(conv, op).items()}


def _integers(conv, op, rng):
    return {k: rng.integers(-3, 4, s).astype(float) for k, s in input_shapes(conv, op).items()}


def _entry(op, conv, simplify):
    return ops._PREP_CACHE[(op, conv, 2, simplify)]


@pytest.mark.parametrize("simplify", [False, True])
@pytest.mark.parametrize("name, conv", LAYERS, ids=[name for name, _ in LAYERS])
def test_the_classes_share_one_program_and_no_other_ops_do(name, conv, simplify, monkeypatch):
    monkeypatch.setattr(ops, "_PREP_CACHE", {})
    programs = {}
    for op in OP_NAMES:
        try:
            sim = ops._planned(conv, op, 2, simplify).sim
        except Unsupported:  # unfold_kernel on a grouped layer
            continue
        programs.setdefault(id(sim), set()).add(op)
    assert {frozenset(m) for m in programs.values() if len(m) > 1} == CLASSES


@pytest.mark.parametrize("simplify", [False, True])
@pytest.mark.parametrize("name, conv", LAYERS, ids=[name for name, _ in LAYERS])
def test_an_alias_gives_the_same_result_in_either_order(name, conv, simplify, monkeypatch):
    rng = np.random.default_rng(3)
    inputs = {op: _inputs(conv, op, rng) for op in dict.fromkeys([*ALIASES, *ALIASES.values()])}
    results = {}
    for alias, canonical in ALIASES.items():
        for pair in ((alias, canonical), (canonical, alias)):
            monkeypatch.setattr(ops, "_PREP_CACHE", {})
            for op in pair:
                results.setdefault(op, []).append(run_op(conv, op, inputs[op], simplify=simplify))
            first, second = (_entry(op, conv, simplify) for op in pair)
            assert first.sim is second.sim and first.slices is second.slices, pair
            assert first.gram is second.gram and first.args != second.args, pair
    for op, got in results.items():
        assert all(np.array_equal(got[0], g) for g in got[1:]), op


@pytest.mark.parametrize("name, conv", LAYERS, ids=[name for name, _ in LAYERS])
def test_aliases_equal_the_oracle_exactly(name, conv, monkeypatch):
    # integers from {-3, ..., 3} keep every sum of products exact in float64
    rng = np.random.default_rng(11)
    monkeypatch.setattr(ops, "_PREP_CACHE", {})
    for simplify in (False, True):
        for alias, canonical in ALIASES.items():
            run_op(conv, canonical, _integers(conv, canonical, rng), simplify=simplify)
            arrays = _integers(conv, alias, rng)
            got = run_op(conv, alias, arrays, simplify=simplify)
            assert _entry(alias, conv, simplify).sim is _entry(canonical, conv, simplify).sim
            assert np.array_equal(got, oracle_run(conv, alias, arrays)), (alias, simplify)


def test_an_alias_takes_only_its_own_arrays():
    # weight_jvp takes (x, v_w), not conv_forward's (x, w), though the network is one
    conv = ConvSpec(2, 1, 2, 3, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2)))
    rng = np.random.default_rng(5)
    for alias, canonical in ALIASES.items():
        ops._PREP_CACHE.clear()
        theirs = _inputs(conv, canonical, rng)
        run_op(conv, canonical, theirs)
        keys = set(ops._PREP_CACHE)
        assert set(theirs) != set(input_shapes(conv, alias))
        with pytest.raises(TypeError, match=rf"^{alias}\(\) takes the arrays"):
            run_op(conv, alias, theirs)
        assert set(ops._PREP_CACHE) == keys  # the refused call prepared nothing


def test_ops_share_a_program_only_where_their_networks_are_equal(monkeypatch):
    # entries equal to a real op's but for one flag: a scale or a Gram flag makes
    # another network, a grouping rule does not, where it lets the op run
    variants = {
        "mean_forward": ops._OPS["conv_forward"]._replace(batch_mean=True),
        "full_kfac_expand": ops._OPS["kfac_expand_factor"]._replace(gram=False),
        "ungrouped_unfold": ops._OPS["unfold_input"]._replace(ungrouped=True),
    }
    monkeypatch.setattr(ops, "_OPS", {**ops._OPS, **variants})
    monkeypatch.setattr(ops, "OP_NAMES", (*OP_NAMES, *variants))
    # the variants' names enter the expansions' cache, which is emptied on both sides
    ops._expanded.cache_clear()
    try:
        grouped = ConvSpec(2, 2, 4, 2, (DimSpec(5, 3, 1, 1), DimSpec(4, 2)))
        plain = dataclasses.replace(grouped, groups=1)
        rng = np.random.default_rng(2)
        for simplify in (False, True):
            ops._PREP_CACHE.clear()
            for conv in (grouped, plain):
                arrays, x = _inputs(conv, "conv_forward", rng), _inputs(conv, "unfold_input", rng)
                forward = run_op(conv, "conv_forward", arrays, simplify=simplify)
                mean = run_op(conv, "mean_forward", arrays, simplify=simplify)
                assert np.array_equal(mean, forward * (1 / conv.batch))
                kfac = run_op(conv, "kfac_expand_factor", x, simplify=simplify)
                full = run_op(conv, "full_kfac_expand", x, simplify=simplify)
                assert np.allclose(full, kfac, rtol=1e-12, atol=1e-12)
                unfolded = run_op(conv, "unfold_input", x, simplify=simplify)
                if conv.groups == 1:
                    assert np.array_equal(run_op(conv, "ungrouped_unfold", x, simplify=simplify), unfolded)
                else:
                    with pytest.raises(Unsupported, match="groups == 1"):
                        run_op(conv, "ungrouped_unfold", x, simplify=simplify)
            flagged = [("mean_forward", "conv_forward"), ("full_kfac_expand", "kfac_expand_factor")]
            for variant, op, conv in [(v, op, conv) for conv in (grouped, plain) for v, op in flagged]:
                assert _entry(variant, conv, simplify).sim is not _entry(op, conv, simplify).sim
            unfold = _entry("unfold_input", plain, simplify)
            assert _entry("ungrouped_unfold", plain, simplify).sim is unfold.sim
            assert ("ungrouped_unfold", grouped, 2, simplify) not in ops._PREP_CACHE
            # weight_jvp on one layer never reads conv_forward's network of another
            ops._PREP_CACHE.clear()
            run_op(grouped, "conv_forward", _inputs(grouped, "conv_forward", rng), simplify=simplify)
            arrays = _inputs(plain, "weight_jvp", rng)
            got = run_op(plain, "weight_jvp", arrays, simplify=simplify)
            assert len(_kinds()["program"]) == 2
            other = _entry("conv_forward", grouped, simplify)
            assert _entry("weight_jvp", plain, simplify).sim is not other.sim
            assert np.allclose(got, oracle_run(plain, "weight_jvp", arrays), rtol=1e-12, atol=1e-12)
    finally:
        ops._expanded.cache_clear()


def _kinds() -> dict[str, list]:
    """The cache's entries by kind: call entries (keyed on an op or CRS), programs and parses."""
    kinds = {"call": [], "program": [], "parse": []}
    for key, entry in ops._PREP_CACHE.items():
        kind = "parse" if isinstance(entry, list) else "program" if "->" in key[0] else "call"
        kinds[kind].append(entry)
    return kinds


def test_a_cold_pass_prepares_each_network_once(monkeypatch):
    # every (layer, op, simplify) call of the bundled layers, in the order
    # the fixtures_all_ops benchmark workload makes them
    calls = {"build_network": 0, "parse": 0, "plan": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((ops, "build_network"), (einsum, "parse"), (einsum, "plan")):
        counting(owner, name)
    monkeypatch.setattr(ops, "_PREP_CACHE", {})
    rng = np.random.default_rng(1)
    for _, conv in load_layers(None):
        for op in OP_NAMES:
            if op == "unfold_kernel" and conv.groups != 1:
                continue
            arrays = _inputs(conv, op, rng)
            for simplify in (False, True):
                run_op(conv, op, arrays, simplify=simplify)
    # 874 calls build their networks: 309 distinct ones, 8 of them drawn on two
    # layers.  Each is rewritten and planned once per setting, or once for both
    # where no pattern is full (39 networks), so 2 * 309 - 39 programs; networks
    # that differ only in their patterns' hyper-parameters share a parse
    kinds = _kinds()
    assert {kind: len(entries) for kind, entries in kinds.items()} == {
        "call": 874, "program": 579, "parse": 305
    }
    assert len({id(p.sim) for p in kinds["call"]}) == 579
    assert calls == {"build_network": 874, "parse": 305, "plan": 806}


# A grouped layer and layers that differ from it in one leg only, with the ops
# whose networks do not read that leg: the arrays they take and the equations
# they expand to hold no c_out, no g, and no bias
BASE = ConvSpec(2, 2, 4, 6, (DimSpec(6, 3, 1, 1), DimSpec(5, 2, 2)))
NO_GROUPS = {"unfold_input", "im2col_jvp", "fold_output", "im2col_vjp"}
NO_C_OUT = NO_GROUPS | {"kfac_expand_factor", "kfac_reduce_factor"}
VARIANTS = {
    "c_out": (dataclasses.replace(BASE, c_out=4), NO_C_OUT),
    "groups": (dataclasses.replace(BASE, groups=1), NO_GROUPS),
    "has_bias": (dataclasses.replace(BASE, has_bias=True), set(OP_NAMES)),
}


@pytest.mark.parametrize("simplify", [False, True])
@pytest.mark.parametrize("leg", VARIANTS)
def test_layers_that_differ_in_a_leg_the_network_does_not_read_share_it(leg, simplify, monkeypatch):
    other, shared = VARIANTS[leg]
    rng = np.random.default_rng(6)
    for op in OP_NAMES:
        if op == "unfold_kernel":  # defined for one group only
            continue
        inputs = {conv: _inputs(conv, op, rng) for conv in (BASE, other)}
        results = {}
        for order in ((BASE, other), (other, BASE)):
            monkeypatch.setattr(ops, "_PREP_CACHE", {})
            for conv in order:
                results.setdefault(conv, []).append(run_op(conv, op, inputs[conv], simplify=simplify))
            first, second = (_entry(op, conv, simplify).sim for conv in order)
            assert (first is second) == (op in shared), (op, leg)
            assert len(_kinds()["program"]) == 2 - (op in shared), (op, leg)
        for conv, (got, again) in results.items():
            assert np.array_equal(got, again), (op, conv)
            want = oracle_run(conv, op, inputs[conv])
            assert compare(got, getattr(want, "weight", want)) <= 1e-12, (op, conv)


def test_a_network_with_no_full_pattern_has_one_program_for_both_settings(monkeypatch):
    monkeypatch.setattr(ops, "_PREP_CACHE", {})
    both = {
        op for op in OP_NAMES if op != "unfold_kernel"
        and ops._planned(BASE, op, 2, False).sim is ops._planned(BASE, op, 2, True).sim
    }
    assert both == {"kfac_reduce_factor", "kfac_reduce_transpose"}  # patterns averaged over a leg
    assert not any(ops._planned(BASE, op, 2, True).net.roles for op in both)


class _Watched(dict):
    """A dict that records the most entries it ever held."""

    largest = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))


@pytest.mark.parametrize("bound", [1, 2, 5])
def test_the_cache_never_exceeds_its_bound_and_results_stay_the_same(bound, monkeypatch):
    layers = [*load_layers(None)[:3], LAYERS[-1]]
    rng = np.random.default_rng(10)
    calls = [
        (conv, op, _inputs(conv, op, rng), simplify)
        for _, conv in layers for op in OP_NAMES if op != "unfold_kernel" or conv.groups == 1
        for simplify in (False, True)
    ]
    monkeypatch.setattr(ops, "_PREP_CACHE", {})
    unbounded = [run_op(conv, op, arrays, simplify=simplify) for conv, op, arrays, simplify in calls]
    assert len(ops._PREP_CACHE) > bound  # the patched bound empties the cache
    monkeypatch.setattr(ops, "_PREP_CACHE", _Watched())
    monkeypatch.setattr(ops, "_PREP_BOUND", bound)
    for _ in ("cold", "again"):
        for (conv, op, arrays, simplify), want in zip(calls, unbounded):
            assert np.array_equal(run_op(conv, op, arrays, simplify=simplify), want), (op, simplify)
    assert ops._PREP_CACHE.largest == bound
