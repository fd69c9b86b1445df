"""Command line entry points."""

import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from conv_tn import verify
from conv_tn.cli import ConfigError, load_layers, main
from conv_tn.ops import ConvSpec, op_cost
from conv_tn.pattern import DimSpec
from conv_tn.verify import run_verification


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pattern_json(capsys):
    code, out, _ = run(capsys, "pattern", "--input-size", "3", "--kernel-size", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["input_size"] == 3
    assert doc["output_size"] == 2
    assert doc["kind"] == "general"
    assert doc["nnz"] == 4
    assert sorted(tuple(t) for t in doc["triples"]) == [
        (0, 0, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 1, 1),
    ]


def test_pattern_output_file(tmp_path, capsys):
    target = tmp_path / "pat.json"
    code, out, _ = run(
        capsys,
        "pattern",
        "--input-size", "4", "--kernel-size", "2", "--stride", "2",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["kind"] == "dense"


def test_pattern_invalid_exits_2(capsys):
    code, _, err = run(capsys, "pattern", "--input-size", "0", "--kernel-size", "1")
    assert code == 2
    assert err.strip()


def test_verify_default_grid(capsys):
    code, out, _ = run(
        capsys, "verify", "--count", "4", "--op", "conv_forward", "--op", "weight_vjp"
    )
    assert code == 0
    assert "conv_forward" in out
    assert "weight_vjp" in out
    assert "total cases" in out


def test_verify_bundled_fixtures_skips_refused_cases(capsys):
    # the explicit-Jacobian oracle refuses the larger fixture layers
    bundled = resources.files("conv_tn").joinpath("fixtures/layers.json")
    code, out, _ = run(capsys, "verify", "--config", str(bundled), "--op", "ggn_gram")
    assert code == 0
    skipped = int(re.search(r"skipped=(\d+)", out.splitlines()[-1]).group(1))
    assert skipped > 0
    assert "cases=" in out and "FAIL" not in out


def test_flops_counts_refused_cases(capsys):
    code, out, err = run(capsys, "flops", "--op", "unfold_kernel")
    assert code == 0
    grouped = sum(conv.groups != 1 for _, conv in load_layers(None))
    assert len(json.loads(out)) == len(load_layers(None)) - grouped
    assert f"skipped={grouped}" in err


def test_verify_reports_failures(monkeypatch):
    tn_run = verify.tn_run
    monkeypatch.setattr(verify, "tn_run", lambda *args, **kw: tn_run(*args, **kw) + 1.0)
    specs = [ConvSpec(1, 1, 1, 1, (DimSpec(3, 2),))]
    report = run_verification(specs, ("conv_forward",))
    assert not report.passed
    assert any("FAIL" in line for line in report.lines())


def test_verify_config_file(tmp_path, capsys):
    layers = {
        "layers": [
            {
                "name": "tiny",
                "batch": 1,
                "groups": 1,
                "c_in": 1,
                "c_out": 2,
                "dims": [{"i": 4, "k": 2, "s": 1, "p": 0, "d": 1}],
            }
        ]
    }
    path = tmp_path / "layers.json"
    path.write_text(json.dumps(layers))
    code, out, _ = run(
        capsys, "verify", "--config", str(path), "--op", "conv_forward"
    )
    assert code == 0
    assert "conv_forward" in out


def test_unknown_op_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--op", "bogus")
    assert code == 2
    assert "bogus" in err


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"name": "x"}]))
    code, _, err = run(capsys, "verify", "--config", str(path))
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize("argv", [("--config", "bad.json"), ("--op", "bogus")])
def test_bench_refused_config_keeps_the_output_file(tmp_path, capsys, argv):
    (tmp_path / "bad.json").write_text(json.dumps([{"name": "x"}]))
    target = tmp_path / "results.csv"
    target.write_text("earlier results\n")
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, _, err = run(capsys, "bench", *argv, "--output", str(target))
    assert code == 2 and err.startswith("error:")
    assert target.read_text() == "earlier results\n"


@pytest.mark.parametrize("keep", [("--keep-i2", "0.5"), ("--keep-i1", "1.5")])
def test_crs_refused_layer_keeps_the_output_file(tmp_path, capsys, keep):
    # a 1d layer has no i2, and no probability exceeds 1
    layer = {"name": "line", "batch": 1, "c_in": 2, "c_out": 2, "dims": [{"i": 6, "k": 3}]}
    (tmp_path / "line.json").write_text(json.dumps(layer))
    target = tmp_path / "results.csv"
    target.write_text("earlier results\n")
    code, _, err = run(
        capsys, "crs", "--config", str(tmp_path / "line.json"), *keep, "--seeds", "1",
        "--output", str(target),
    )
    assert code == 2 and err.startswith("error:")
    assert target.read_text() == "earlier results\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("flops", "--op", "conv_forward"),
        ("pattern", "--input-size", "3", "--kernel-size", "2"),
        ("bench", "--op", "conv_forward", "--repeats", "1"),
        ("crs", "--keep-i1", "0.5", "--seeds", "1"),
    ],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "no_such_dir" / "out.json"
    code, _, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert "cannot write" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--count"),
        ("bench", "--op", "conv_forward", "--repeats"),
        ("crs", "--keep-i1", "0.5", "--seeds"),
    ],
)
@pytest.mark.parametrize("value", ["0", "-3"])
def test_counts_below_one_exit_2(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_flops_json(capsys):
    code, out, _ = run(capsys, "flops", "--op", "conv_forward")
    assert code == 0
    rows = json.loads(out)
    assert rows
    first = rows[0]
    keys = {"layer", "op", "equation", "output_elements", "unsimplified", "simplified", "rewrites"}
    assert keys <= set(first)
    assert first["unsimplified"]["flops"] >= first["simplified"]["flops"]
    layers = dict(load_layers(None))
    for row in rows:  # the output y has shape (batch, c_out, *out_sizes)
        conv = layers[row["layer"]]
        assert row["output_elements"] == conv.batch * conv.c_out * math.prod(conv.out_sizes)


def test_flops_reports_the_mirrored_evaluation(capsys):
    code, out, _ = run(capsys, "flops", "--op", "ggn_gram", "--op", "conv_forward")
    assert code == 0
    rows = json.loads(out)
    mirrored = 0
    for row in rows:
        assert set(row["mirrored"]) == {"unsimplified", "simplified"}
        if row["op"] == "conv_forward":
            assert row["mirrored"] == {"unsimplified": None, "simplified": None}
            continue
        for key, mirror in row["mirrored"].items():
            if mirror is None:  # the full network plans fewer FLOPs
                continue
            mirrored += 1
            assert set(mirror) == {"half_flops", "final_flops", "max_intermediate"}
            assert mirror["half_flops"] + mirror["final_flops"] <= row[key]["flops"]
    # most GGN Gram matrices, with and without rewrites, run as one half and its Gram
    assert mirrored > sum(row["op"] == "ggn_gram" for row in rows)


def test_bench_writes_the_flops_of_the_evaluation_it_timed(tmp_path, capsys):
    layer = {"name": "tiny", "batch": 2, "groups": 1, "c_in": 2, "c_out": 3, "dims": [{"i": 6, "k": 3}]}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps([layer]))
    code, out, _ = run(
        capsys, "bench", "--config", str(path), "--op", "kfac_expand_factor", "--repeats", "1"
    )
    assert code == 0
    flops = {line.split(",")[2]: int(line.split(",")[4] or 0) for line in out.strip().splitlines()[1:]}
    (_, conv), = load_layers(str(path))
    costs = op_cost(conv, "kfac_expand_factor")
    assert costs.mirrored is not None and costs.mirrored_base is not None
    assert flops["tn"] == costs.mirrored_base.flops < costs.base.flops
    assert flops["tn_simplified"] == costs.mirrored.flops <= costs.simplified.flops


def test_bench_csv_header(tmp_path, capsys):
    layers = {
        "layers": [
            {
                "name": "tiny",
                "batch": 1,
                "groups": 1,
                "c_in": 1,
                "c_out": 1,
                "dims": [{"i": 4, "k": 2}],
            }
        ]
    }
    path = tmp_path / "layers.json"
    path.write_text(json.dumps(layers))
    code, out, _ = run(
        capsys,
        "bench", "--config", str(path), "--op", "conv_forward", "--repeats", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "layer,op,variant,min_seconds,flops,max_intermediate"
    variants = {line.split(",")[2] for line in lines[1:]}
    assert {"tn", "tn_simplified", "oracle"} <= variants


def test_crs_csv(capsys):
    code, out, _ = run(
        capsys, "crs", "--keep-i1", "0.7", "--seeds", "3", "--seed", "5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "layer,mask_seed,normalized_error,kept_c_in,kept_i1,kept_i2"
    # every bundled layer has an i1, and each gets one row per mask seed
    names = [name for name, _ in load_layers(None)]
    assert [line.split(",")[0] for line in lines[1:]] == [n for n in names for _ in range(3)]
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[2]) >= 0.0


def test_crs_skips_the_layers_without_a_keep_axis(tmp_path, capsys):
    line = {"name": "line", "batch": 1, "c_in": 2, "c_out": 2, "dims": [{"i": 6, "k": 3}]}
    square = {**line, "name": "square", "dims": [{"i": 5, "k": 3}, {"i": 6, "k": 2, "s": 2}]}
    (tmp_path / "layers.json").write_text(json.dumps([line, square, line | {"name": "line2"}]))
    code, out, err = run(
        capsys, "crs", "--config", str(tmp_path / "layers.json"), "--keep-i2", "0.5", "--seeds", "2"
    )
    assert code == 0 and "skipped=2" in err
    assert [row.split(",")[0] for row in out.strip().splitlines()[1:]] == ["square", "square"]


def test_load_layers_bundled():
    layers = load_layers(None)
    assert len(layers) >= 10
    names = [name for name, _ in layers]
    assert len(names) == len(set(names))
    for _, conv in layers:
        assert isinstance(conv, ConvSpec)


def test_load_layers_single_dict(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps({"name": "solo", "batch": 1, "groups": 1, "c_in": 1,
                    "c_out": 1, "dims": [{"i": 3, "k": 2}]})
    )
    layers = load_layers(str(path))
    assert len(layers) == 1
    assert layers[0][0] == "solo"


def test_load_layers_missing_file():
    with pytest.raises(ConfigError):
        load_layers("/nonexistent/layers.json")


def test_repeated_op_runs_once(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--count", "3", "--op", "conv_forward", "--op", "weight_vjp",
        "--op", "conv_forward",
    )
    assert code == 0
    rows = [line.split()[0] for line in out.splitlines()[:-1]]
    assert rows == ["conv_forward", "weight_vjp"]
    assert "total cases: 6," in out
    code, out, _ = run(capsys, "flops", "--op", "conv_forward", "--op", "conv_forward")
    assert code == 0
    assert len(json.loads(out)) == len(load_layers(None))


@pytest.mark.parametrize(
    "change",
    [
        {"c_in": 0},
        {"c_out": 0},
        {"batch": 2.5},
        {"groups": 1.0},
        {"c_in": "8"},
        {"batch": True},
        {"dims": [{"i": 7.9, "k": 2}]},
        {"dims": [{"i": 8, "k": "3"}]},
        {"dims": [{"i": 8, "k": 3, "p": 0.5}]},
        {"bias": "false"},
    ],
)
@pytest.mark.parametrize("command", ["verify", "flops"])
def test_non_integer_or_empty_layer_exits_2(tmp_path, capsys, change, command):
    layer = {"name": "bad", "batch": 1, "groups": 1, "c_in": 2, "c_out": 2,
             "dims": [{"i": 8, "k": 3}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**layer, **change}))
    code, _, err = run(capsys, command, "--config", str(path), "--op", "conv_forward")
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "flops"])
def test_three_dimensional_layer_file(tmp_path, capsys, command):
    layer = {"name": "volume", "batch": 2, "groups": 2, "c_in": 2, "c_out": 4, "bias": True,
             "dims": [{"i": 5, "k": 2, "s": 2, "p": 1}, {"i": 4, "k": 2, "d": 2}, {"i": 3, "k": 2}]}
    path = tmp_path / "volume.json"
    path.write_text(json.dumps([layer]))
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 0
    if command == "verify":
        assert "FAIL" not in out and "total cases: 21, skipped=1" in out
    else:
        rows = json.loads(out)
        assert len(rows) == 21 and "skipped=1" in err
        assert all("k3" in row["equation"] for row in rows)
