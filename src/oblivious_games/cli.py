"""Command-line front end; machine-readable JSON on stdout, summary on stderr.

Exit codes: 0 success, 2 validation error, 3 infeasibility flag.

``_COMMANDS`` gives each subcommand its help, the function that adds its
arguments, and its handler.  When the first token names a subcommand, ``run``
builds a parser with only that subparser, whose metavar lists every
subcommand, so its usage line, the subcommand's help and every usage error
read as they do from the full parser, ``build_parser()``.  Any other line
(``--help``, no arguments, an unknown subcommand) is parsed by the full
parser, the only one that can print the subcommand list or an invalid choice.
Combinations that argparse cannot express are checked before any handler
runs and reported by the subcommand's parser, as argparse reports its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from collections import Counter

from . import __version__, bellmap, bounds, cglmp, expdata, games, optimizer

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3


def _report(command: str, inputs: dict, results: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "versions": {"oblivious-games": __version__},
    }


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, indent=1))
    print(summary, file=sys.stderr)


def _load_game_spec(spec: str) -> games.ObliviousGame:
    if spec == "cglmp3":
        return games.make_cglmp3_game()
    if spec.startswith("rac:"):
        try:
            n, d = (int(v) for v in spec[4:].split(","))
        except ValueError as exc:
            raise ValueError(f"bad game spec {spec!r}; expected rac:n,d") from exc
        return games.make_rac_game(n, d)
    return games.load_game(spec)


def _load_functional_spec(spec: str) -> bellmap.BellFunctional:
    if spec == "cglmp3":
        return bellmap.cglmp3()
    return bellmap.load_functional(spec)


def _cmd_cglmp(args) -> int:
    value = cglmp.a3_quantum()
    game = games.make_cglmp3_game()
    strategy = cglmp.game_strategy()
    residual = games.obliviousness_residual_quantum(game, strategy)
    pipeline = games.performance(game, games.behavior_from_quantum(strategy))
    bound = bounds.local_bound(bellmap.cglmp3()).value
    results = {
        "a3_quantum": value,
        "pnc_bound": bound,
        "obliviousness_residual": residual,
        "a3_matrix_pipeline": pipeline,
    }
    _emit(
        _report("cglmp", {}, results),
        f"quantum value {value:.6f} vs noncontextual bound {bound:.4f} "
        f"(residual {residual:.2e})",
    )
    return EXIT_OK


def _cmd_bound(args) -> int:
    game = _load_game_spec(args.game)
    inputs, summary = {"game": args.game, "oracle": False}, None
    oracle = args.oracle or args.messages is not None or args.witness
    if oracle or not args.game.startswith("rac:"):
        # the messages that make the oracle exact; it runs no more than these
        decoders = game.n_outcomes**game.n_bob
        messages = decoders if args.messages is None else min(args.messages, decoders)
        result = bounds.pnc_bound_lp_oracle(game, messages)
        inputs = {"game": args.game, "oracle": True, "messages": messages}
        if messages < decoders:
            summary = (
                f"lower bound {result.value:.6f} on the noncontextual bound "
                f"({result.method} over {messages} messages; exact from {decoders})"
            )
    else:
        value = bounds.rac_pnc_bound(game.n_bob, game.n_outcomes)
        result = bounds.BoundResult(value=value, method="formula")
    results = {"value": result.value, "method": result.method}
    if result.programs is not None:
        results["programs"] = result.programs
        results["pivots"] = result.pivots
    if args.witness and result.witness is not None:
        results["witness"] = result.witness
    _emit(
        _report("bound", inputs, results),
        summary or f"noncontextual bound {result.value:.6f} ({result.method})",
    )
    return EXIT_OK


def _cmd_bell(args) -> int:
    bell = _load_functional_spec(args.bell)
    if args.local_bound:
        result = bounds.local_bound(bell)
        results = {"local_bound": result.value}
        if args.witness and result.witness is not None:
            results["witness"] = result.witness
        summary = f"local bound {result.value:.6f}"
    else:
        box = bellmap.load_box(args.box)
        value = bellmap.bell_value(bell, box)
        results = {"bell_value": value}
        summary = f"functional value {value:.6f}"
    _emit(_report("bell", {"bell": args.bell, "box": args.box}, results), summary)
    return EXIT_OK


def _cmd_map(args) -> int:
    bell = _load_functional_spec(args.bell)
    box = bellmap.load_box(args.box)
    i_b = bellmap.bell_value(bell, box)
    p_g, behavior = bellmap.strategy_from_box(box)
    game = bellmap.game_from_bell(bell, p_g)
    i_g = games.performance(game, behavior)
    residual = games.obliviousness_residual_behavior(game, behavior)
    results = {
        "bell_value": i_b,
        "game_value": i_g,
        "difference": i_g - i_b,
        "obliviousness_residual": residual,
    }
    _emit(
        _report("map", {"bell": args.bell, "box": args.box}, results),
        f"I_g = {i_g:.8f}, I_b = {i_b:.8f}, difference {i_g - i_b:.2e}",
    )
    return EXIT_OK


def _cmd_exp(args) -> int:
    data = expdata.load_primary(*args.data)
    if args.fit_mapping:
        mapping, residual = expdata.fit_label_mapping(data)
        mapping_source = "fitted"
    elif args.mapping:
        mapping = expdata.load_mapping(args.mapping)
        residual = None
        mapping_source = args.mapping
    else:
        mapping = expdata.pinned_mapping()
        residual = None
        mapping_source = "pinned"
    results = {
        "a3_primary": expdata.a3_primary(data, mapping),
        "mapping_source": mapping_source,
        "mapping": mapping.to_dict(),
    }
    if residual is not None:
        results["fit_residual"] = residual
    if args.secondary:
        sec = expdata.secondary_data(data, mapping)
        results["s"] = sec.s
        results["a3_secondary"] = expdata.a3_secondary(sec, mapping)
        results["constraint_residual"] = sec.constraint_residual()
    if args.mc is not None:
        seed = 0 if args.seed is None else args.seed
        sigma_pri, sigma_sec = expdata.mc_uncertainty(data, mapping, args.mc, seed)
        results["sigma_primary"] = sigma_pri
        results["sigma_secondary"] = sigma_sec
        results["mc_samples"] = args.mc
        results["seed"] = seed
    summary = f"primary score {results['a3_primary']:.4f}"
    if args.secondary:
        summary += f", S = {results['s']:.4f}, secondary score {results['a3_secondary']:.4f}"
    _emit(
        _report(
            "exp",
            {"data": list(args.data), "fit_mapping": args.fit_mapping, "mc": args.mc},
            results,
        ),
        summary,
    )
    return EXIT_OK


def _cmd_optimize(args) -> int:
    game = _load_game_spec(args.game)
    cfg = optimizer.SearchConfig(
        dim=args.dim,
        restarts=args.restarts,
        max_iters=args.iters,
        seed=args.seed,
    )
    start = time.perf_counter()
    result = optimizer.search(game, cfg)
    wall_s = time.perf_counter() - start
    results = {
        "value": result.value,
        "feasibility_residual": result.feasibility_residual,
        "iterations_used": result.iterations_used,
        "stop_reason": result.stop_reason,
        "feasible": result.feasible,
        "restart_index": result.restart_index,
        "per_restart": [dataclasses.asdict(r) for r in result.per_restart],
        "dim": args.dim,
        "restarts": args.restarts,
        "seed": args.seed,
        "wall_s": wall_s,
    }
    stops = Counter(r.stop_reason for r in result.per_restart)
    _emit(
        _report("optimize", {"game": args.game, "dim": args.dim}, results),
        f"best value {result.value:.6f} (residual {result.feasibility_residual:.2e}, "
        f"{'feasible' if result.feasible else 'INFEASIBLE'}); restarts: "
        + ", ".join(f"{n} {reason}" for reason, n in stops.most_common()),
    )
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _no_arguments(p: argparse.ArgumentParser) -> None:
    pass


def _bound_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", required=True, help="file path, rac:n,d, or cglmp3")
    p.add_argument("--oracle", action="store_true", help="force the LP oracle")
    p.add_argument("--messages", type=int, help="LP oracle messages; implies --oracle")
    p.add_argument(
        "--witness", action="store_true", help="include the optimal strategy; implies --oracle"
    )


def _bell_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bell", default="cglmp3", help="functional file or cglmp3")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--local-bound", action="store_true")
    group.add_argument("--value", action="store_true")
    p.add_argument("--box", default=None, help="box file for --value")
    p.add_argument(
        "--witness", action="store_true", help="include the assignments; --local-bound only"
    )


def _map_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bell", required=True, help="functional file or cglmp3")
    p.add_argument("--box", required=True, help="box file")


def _exp_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", nargs="+", required=True, help="CSV file(s)")
    mapping = p.add_mutually_exclusive_group()
    mapping.add_argument("--fit-mapping", action="store_true")
    mapping.add_argument("--mapping", default=None, help="mapping JSON (default: pinned)")
    p.add_argument("--secondary", action="store_true")
    p.add_argument("--mc", type=int, default=None, help="Monte Carlo samples")
    p.add_argument("--seed", type=int, default=None)


def _optimize_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", required=True, help="file path, rac:n,d, or cglmp3")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)


# Subcommand: (help, the function that adds its arguments, handler).
_COMMANDS = {
    "cglmp": ("quantum value, bound, and residual of the qutrit game", _no_arguments, _cmd_cglmp),
    "bound": ("preparation-noncontextual bound of a game", _bound_arguments, _cmd_bound),
    "bell": ("local bound or value of a correlation functional", _bell_arguments, _cmd_bell),
    "map": ("verify the game value reproduces the Bell value", _map_arguments, _cmd_map),
    "exp": ("analyze measured probability tables", _exp_arguments, _cmd_exp),
    "optimize": ("heuristic search for quantum strategies", _optimize_arguments, _cmd_optimize),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser: every subcommand when ``command`` is None,
    otherwise only the one it names, under the full parser's usage line.  Each
    subparser leaves its own ``error`` in the namespace it parses."""
    parser = argparse.ArgumentParser(
        prog="oblivious-games",
        description="Oblivious communication games: bounds, quantum values, data analysis.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        if command in (None, name):
            subparser = sub.add_parser(name, help=help_text)
            subparser.set_defaults(error=subparser.error)
            add_arguments(subparser)
    return parser


def _conflict(args) -> str | None:
    """The rule a parsed line breaks that argparse cannot express, if any."""
    if args.command == "bell":
        if args.local_bound and args.box is not None:
            return "argument --box: not allowed with argument --local-bound"
        if args.value and args.witness:
            return "argument --witness: not allowed with argument --value"
        if args.value and not args.box:
            return "--value needs --box <file>"
    if args.command == "exp" and args.seed is not None and args.mc is None:
        return "argument --seed: not allowed without argument --mc"
    return None


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    if conflict := _conflict(args):
        args.error(conflict)
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
