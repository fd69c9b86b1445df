"""Command line front end.

Subcommands:

* ``verify``   run every operation against its loop-based reference
* ``flops``    report contraction cost with and without pattern rewrites,
  of the mirrored evaluation that runs in place of a curvature network, and
  of the slices a network is cut into over the batch
* ``pattern``  print one index pattern as JSON
* ``crs``      sampled weight-gradient error sweep, CSV output

Exit codes: 0 on success, 1 when verification finds a mismatch, 2 for
configuration problems.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from importlib import resources

import numpy as np

from . import ops
from .crs import CrsConfig, axis_size, crs_weight_vjp, normalized_error
from .ops import ConvSpec, OP_NAMES, op_cost
from .pattern import DimSpec, classify, output_size, pattern
from .tensor import Unsupported
from .verify import default_grid, run_verification


class ConfigError(ValueError):
    """The layer configuration file or CLI arguments are malformed."""


_DIM_KEYS = {"i": "input_size", "k": "kernel_size", "s": "stride", "p": "padding", "d": "dilation"}


def _dim_from_json(obj) -> DimSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"dimension entry must be an object, got {obj!r}")
    unknown = set(obj) - set(_DIM_KEYS)
    if unknown:
        raise ConfigError(f"unknown dimension keys {sorted(unknown)}")
    if "i" not in obj or "k" not in obj:
        raise ConfigError("dimension entry needs at least 'i' and 'k'")
    kwargs = {long: obj[short] for short, long in _DIM_KEYS.items() if short in obj}
    return DimSpec(**kwargs)


def _layer_from_json(obj) -> tuple[str, ConvSpec]:
    if not isinstance(obj, dict):
        raise ConfigError(f"layer entry must be an object, got {obj!r}")
    try:
        name = str(obj.get("name", "layer"))
        dims = tuple(_dim_from_json(d) for d in obj["dims"])
        conv = ConvSpec(
            batch=obj.get("batch", 1),
            groups=obj.get("groups", 1),
            c_in=obj["c_in"],
            c_out=obj["c_out"],
            dims=dims,
            has_bias=obj.get("bias", False),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad layer entry {obj.get('name', obj)!r}: {exc}") from exc
    return name, conv


def load_layers(path: str | None) -> list[tuple[str, ConvSpec]]:
    """Layers from a JSON file, or the bundled fixture set when no path is given."""
    if path is None:
        text = resources.files("conv_tn").joinpath("fixtures/layers.json").read_text()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "layers" in data:
        data = data["layers"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ConfigError("config must hold one layer object or a non-empty list")
    return [_layer_from_json(entry) for entry in data]


def _selected_ops(args) -> tuple[str, ...]:
    """The ops named by ``--op``, each once in the order first given, or all of them."""
    if not args.op:
        return OP_NAMES
    for name in args.op:
        if name not in OP_NAMES:
            raise ConfigError(f"unknown op {name!r}; known ops: {', '.join(OP_NAMES)}")
    return tuple(dict.fromkeys(args.op))


def _out_stream(args):
    """The ``--output`` file, which a ``with`` block closes, or stdout, which it leaves open."""
    if args.output:
        try:
            return open(args.output, "w", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {args.output}: {exc}") from exc
    return contextlib.nullcontext(sys.stdout)


def cmd_verify(args) -> int:
    if args.config:
        specs = [conv for _, conv in load_layers(args.config)]
    else:
        specs = default_grid(count=args.count, seed=args.seed)
    report = run_verification(
        specs, _selected_ops(args), simplify=args.simplify, seed=args.seed
    )
    for line in report.lines():
        print(line)
    print(
        f"total cases: {report.total_cases}, skipped={report.skipped},"
        f" tolerance {report.tolerance:g}"
    )
    return 0 if report.passed else 1


def cmd_flops(args) -> int:
    rows = []
    skipped = 0
    for name, conv in load_layers(args.config):
        for op in _selected_ops(args):
            try:
                costs = op_cost(conv, op)
            except Unsupported:
                skipped += 1
                continue
            rows.append(
                {
                    "layer": name,
                    "op": op,
                    "equation": costs.equation,
                    "output_elements": costs.output_elements,
                    "unsimplified": {
                        "flops": costs.base.flops,
                        "max_intermediate": costs.base.max_intermediate,
                    },
                    "simplified": {
                        "flops": costs.simplified.flops,
                        "max_intermediate": costs.simplified.max_intermediate,
                    },
                    "rewrites": [step.kind.name.lower() for step in costs.rewrites],
                    "mirrored": {
                        "unsimplified": costs.mirrored_base and costs.mirrored_base._asdict(),
                        "simplified": costs.mirrored and costs.mirrored._asdict(),
                    },
                    "sliced": {
                        "unsimplified": costs.sliced_base and costs.sliced_base._asdict(),
                        "simplified": costs.sliced and costs.sliced._asdict(),
                    },
                }
            )
    with _out_stream(args) as stream:
        json.dump(rows, stream, indent=2)
        stream.write("\n")
    print(f"skipped={skipped}", file=sys.stderr)
    return 0


def cmd_pattern(args) -> int:
    try:
        dim = DimSpec(args.input_size, args.kernel_size, args.stride, args.padding, args.dilation)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    pat = pattern(dim)
    payload = {
        "input_size": dim.input_size,
        "kernel_size": dim.kernel_size,
        "stride": dim.stride,
        "padding": dim.padding,
        "dilation": dim.dilation,
        "output_size": output_size(dim),
        "kind": classify(dim).name.lower(),
        "nnz": pat.nnz,
        "triples": [list(t) for t in pat.triples()],
    }
    with _out_stream(args) as stream:
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    return 0


def cmd_crs(args) -> int:
    given = {"c_in": args.keep_c_in, "i1": args.keep_i1, "i2": args.keep_i2}
    keep_probs = {axis: p for axis, p in given.items() if p is not None}
    if not keep_probs:
        raise ConfigError("give at least one of --keep-c-in/--keep-i1/--keep-i2")
    # refuse the probabilities, or a file with no layer that has every axis, before
    # the output file is opened, and so emptied
    try:
        CrsConfig(keep_probs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    layers, fitting = load_layers(args.config), []
    for name, conv in layers:
        try:
            for axis in keep_probs:
                axis_size(conv, axis)
        except Unsupported as exc:
            refused = exc
            continue
        fitting.append((name, conv))
    if not fitting:
        raise ConfigError(f"no layer fits: {refused}")
    rng = np.random.default_rng(args.seed)
    with _out_stream(args) as stream:
        writer = csv.writer(stream)
        writer.writerow(["layer", "mask_seed", "normalized_error", "kept_c_in", "kept_i1", "kept_i2"])
        for name, conv in fitting:
            x = rng.standard_normal((conv.batch, conv.c_in, *conv.input_sizes))
            v_y = rng.standard_normal((conv.batch, conv.c_out, *conv.out_sizes))
            exact = ops.weight_vjp(conv, x, v_y).weight
            for mask_seed in range(args.seed, args.seed + args.seeds):
                est = crs_weight_vjp(conv, x, v_y, CrsConfig(keep_probs, seed=mask_seed))
                try:
                    err = normalized_error(exact, est.weight)
                except ZeroDivisionError as exc:
                    raise ConfigError(str(exc)) from exc
                kept = (f"{est.kept_fraction.get(ax, 1.0):.4f}" for ax in ("c_in", "i1", "i2"))
                writer.writerow([name, mask_seed, f"{err:.6e}", *kept])
    print(f"skipped={len(layers) - len(fitting)}", file=sys.stderr)
    return 0


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub, *, config=True, op=False, output=False):
    if config:
        sub.add_argument("--config", help="JSON layer file (defaults to bundled fixtures)")
    if op:
        sub.add_argument("--op", action="append", help="restrict to this op (repeatable)")
    if output:
        sub.add_argument("--output", help="write to this file instead of stdout")
    sub.add_argument("--seed", type=int, default=0, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conv-tn", description="Tensor-network convolution toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="compare engine against references")
    _add_common(p, op=True)
    p.add_argument("--count", type=positive_int, default=25, help="layers in the default grid")
    p.add_argument(
        "--simplify",
        choices=("on", "off"),
        default="off",
        help="apply pattern rewrites before contracting",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("flops", help="contraction cost per layer and op")
    _add_common(p, op=True, output=True)
    p.set_defaults(fn=cmd_flops)

    p = sub.add_parser("pattern", help="print one index pattern")
    p.add_argument("--input-size", type=int, required=True)
    p.add_argument("--kernel-size", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--padding", type=int, default=0)
    p.add_argument("--dilation", type=int, default=1)
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(fn=cmd_pattern)

    p = sub.add_parser("crs", help="sampled weight-gradient error sweep")
    _add_common(p, output=True)
    p.add_argument("--keep-c-in", type=float, help="channel keep probability")
    p.add_argument("--keep-i1", type=float, help="first spatial axis keep probability")
    p.add_argument("--keep-i2", type=float, help="second spatial axis keep probability")
    p.add_argument("--seeds", type=positive_int, default=10, help="number of mask seeds")
    p.set_defaults(fn=cmd_crs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "simplify", None) in ("on", "off"):
        args.simplify = args.simplify == "on"
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
