"""Command-line driver: gen, query, plan, simulate, experiment, validate.

Every command is a pure function of its flags and seeds; experiment runs
derive one seed per net from the master seed with a splitmix64 mix, so a
rerun with the same flags reproduces every output byte.

Exit codes: 0 ok, 1 internal error, 2 usage, 3 parse error, 4 validation
failure (including evidence of probability zero), 5 size cap.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__, costmodel, factoring, metrics, network
from .factors import DimensionCapError, InconsistentEvidenceError, brute_force_posterior

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_CAP = 5

# exit code of each kind of failure; any other exception is a fault of the
# program, not of its input (a GenerationError is a ValueError, so usage)
_EXIT_CODES = {
    network.NetValidationError: EXIT_VALIDATION,
    network.NetFormatError: EXIT_PARSE,
    InconsistentEvidenceError: EXIT_VALIDATION,
    DimensionCapError: EXIT_CAP,
    ValueError: EXIT_USAGE,
}

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def net_seed(master: int, index: int) -> int:
    """Per-net seed: mix the master seed xor the net index."""
    return splitmix64((master ^ index) & _MASK64)


def _range(kind, name: str):
    """argparse type for `name` or `name..name`: a (lo, hi) pair of kind."""

    def parse(text: str):
        lo, dots, hi = text.partition("..")
        try:
            return kind(lo), kind(hi if dots else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {name} or {name}..{name}, got {text!r}"
            )

    return parse


def _machine_from_args(args) -> costmodel.MachineParams:
    machine = (
        costmodel.load_machine(args.machine)
        if args.machine
        else costmodel.DEFAULT_MACHINE
    )
    if args.procs is not None:
        machine = replace(machine, n_a=args.procs)
    if args.grainsize is not None:
        machine = replace(machine, g_min=args.grainsize)
    return machine


def cmd_gen(args) -> int:
    net, query = network.random_net(network.NetGenParams(
        node_count_range=args.nodes,
        avg_arcs_range=args.arcs,
        obs_count_range=args.obs,
        seed=args.seed,
    ))
    network.save_net(net, query, args.out)
    if args.out is not None:
        print(f"wrote {args.out}: {net.node_count} nodes, "
              f"{net.arc_count} arcs, {len(query.evidence)} observed, "
              f"query {query.query_var}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        network.load_net(args.net)
    except network.NetValidationError as exc:
        for v in exc.violations:
            print(f"{v.kind}: {v.message}")
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_query(args) -> int:
    net, query = network.load_net(args.net)
    post = factoring.posterior(
        net, query, args.heuristic, _machine_from_args(args), args.max_dim
    )
    # the oracle runs before anything is printed, so that a refusal (exit 5)
    # leaves stdout empty
    oracle = brute_force_posterior(net, query) if args.check_oracle else None
    name = net.variables[query.query_var].name
    print(f"P({name} | {len(query.evidence)} observations)")
    for value, p in enumerate(post.table):
        print(f"  {name}={value}: {p:.6f}")
    if oracle is not None:
        dev = float(max(abs(a - b) for a, b in zip(post.table, oracle.table)))
        print(f"max deviation from joint enumeration: {dev:.3e}")
    return EXIT_OK


def cmd_plan(args) -> int:
    net, query = network.load_net(args.net)
    machine = _machine_from_args(args)
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    tree = factoring.build_tree(
        args.heuristic, scopes, cards, query.query_var, machine
    )
    stats = factoring.tree_stats(tree)
    summary = (
        f"heuristic={args.heuristic} factors={tree.leaf_count} "
        f"cps={tree.cp_count} dm={stats.dm} md={stats.md} dd={stats.dd:.2f}"
    )
    factoring.save_tree(tree, args.out)
    print(summary, file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


def _load_net_or_tree(path):
    obj = network.read_json(path)
    kind = obj.get("format") if isinstance(obj, dict) else None
    if kind == factoring.TREE_FORMAT:
        return "tree", factoring.tree_from_obj(obj, path)
    if kind == network.NET_FORMAT:
        return "net", network.net_from_obj(obj, path)
    raise network.NetFormatError(f"{path}: unrecognized format {kind!r}")


def _check_distinct(heuristics) -> None:
    """ValueError if a heuristic is listed more than once: each would
    write its rows again."""
    repeated = sorted({h for h in heuristics if heuristics.count(h) > 1})
    if repeated:
        raise ValueError(f"heuristic listed more than once: {', '.join(repeated)}")


def _rows_for_net(net, query, heuristics, machine, net_index):
    scopes, cards, _ = factoring.scopes_for_query(net, query)
    trees = {
        h: factoring.build_tree(h, scopes, cards, query.query_var, machine)
        for h in heuristics
    }
    return metrics.build_report_rows(net, query, trees, machine, net_index)


@dataclass(frozen=True)
class ExperimentConfig:
    """One full protocol run: net count, generator ranges, heuristics,
    machine, and the master seed that derives every per-net seed."""

    count: int = 8
    node_count_range: tuple[int, int] = network.NetGenParams.node_count_range
    avg_arcs_range: tuple[float, float] = network.NetGenParams.avg_arcs_range
    obs_count_range: tuple[int, int] = network.NetGenParams.obs_count_range
    heuristics: tuple[str, ...] = factoring.HEURISTICS
    machine: costmodel.MachineParams = field(
        default_factory=lambda: costmodel.DEFAULT_MACHINE
    )
    master_seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not self.heuristics:
            raise ValueError("at least one heuristic is required")
        unknown = set(self.heuristics) - set(factoring.HEURISTICS)
        if unknown:
            raise ValueError(f"unknown heuristics: {sorted(unknown)}")
        _check_distinct(self.heuristics)
        self.net_params(0)  # GenerationError for ranges no net can meet

    def net_params(self, seed: int) -> network.NetGenParams:
        """The generator parameters of the net with this seed."""
        return network.NetGenParams(
            self.node_count_range, self.avg_arcs_range, self.obs_count_range, seed
        )


def _make_dir(path) -> Path:
    """The directory at path, made if missing; ValueError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{out}: cannot write ({exc.strerror})") from exc
    return out


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Generate, plan, and cost `config.count` nets; write every table
    under out_dir.  Deterministic per master seed; a net whose generation
    or planning fails is recorded in errors.csv and skipped, and a run
    with no failures removes an earlier errors.csv.  The tables are
    written even when every net fails, as headers only.  Returns the run
    metadata."""
    out = _make_dir(out_dir)
    heuristics = list(config.heuristics)
    per_net_rows = []
    failures = []
    for i in range(1, config.count + 1):
        seed = net_seed(config.master_seed, i)
        try:
            net, query = network.random_net(config.net_params(seed))
            per_net_rows.append(
                _rows_for_net(net, query, heuristics, config.machine, i)
            )
        except Exception as exc:  # record and keep going
            failures.append((i, seed, f"{type(exc).__name__}: {exc}"))
    meta = {
        "version": __version__,
        "config": (
            f"count={config.count} seed={config.master_seed} "
            f"nodes={config.node_count_range} arcs={config.avg_arcs_range} "
            f"obs={config.obs_count_range} heuristics={heuristics}"
        ),
        "seed_rule": "net_seed(i) = splitmix64(master xor i)",
        "machine": asdict(config.machine),
        "heuristics": heuristics,
        "memory_tables_heuristic": (
            "set-factoring-c" if "set-factoring-c" in heuristics else heuristics[0]
        ),
        "net_count": len(per_net_rows),
        "failures": len(failures),
        "note": "seq-time is the best sequential time over the heuristics above",
    }
    _write_tables(out, per_net_rows, heuristics, meta)
    if failures:
        lines = ["net_index,seed,error"]
        lines += [f"{i},{s},{msg!r}" for i, s, msg in failures]
        network.write_text("\n".join(lines) + "\n", out / "errors.csv")
    else:
        try:
            (out / "errors.csv").unlink(missing_ok=True)
        except OSError as exc:
            raise ValueError(f"{out / 'errors.csv'}: cannot remove ({exc.strerror})") from exc
    network.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n",
                       out / "metadata.json")
    return meta


def cmd_simulate(args) -> int:
    heuristics = args.heuristic or list(factoring.HEURISTICS)
    _check_distinct(heuristics)
    machine = _machine_from_args(args)
    kind, loaded = _load_net_or_tree(args.input)
    if kind == "net":
        net, query = loaded
        rows = _rows_for_net(net, query, heuristics, machine, 1)
    else:
        if args.heuristic:
            raise ValueError(f"--heuristic applies to net files only; {args.input} is a tree file")
        rows = metrics.build_report_rows(None, None, {"tree": loaded}, machine, 1)
    # written before anything is printed: a failed write leaves stdout empty
    if args.out:
        details = _make_dir(args.out) / "details.csv"
        network.write_text(metrics.details_csv(list(rows.values())), details)
    for heuristic, row in rows.items():
        for columns, title in (
            (metrics.RESULTS_TABLE_COLUMNS, "results"),
            (metrics.MEMORY_TABLE_COLUMNS, "memory/communication"),
            (metrics.TREE_PARALLELISM_COLUMNS, "tree parallelism"),
        ):
            print(metrics.table_text([row], columns, title=f"{title} ({heuristic})"))
    if args.out:
        print(f"wrote {details}")
    return EXIT_OK


def _write_tables(out: Path, per_net_rows, heuristics, meta) -> None:
    header = [f"factorcube {__version__}", f"config {meta['config']}"]
    table_rows = {h: [rows[h] for rows in per_net_rows] for h in heuristics}
    comm_h = meta["memory_tables_heuristic"]
    # (file stem, rows, columns, text title), each written as CSV and text
    tables = [("nets_table", table_rows[heuristics[0]],
               metrics.NET_TABLE_COLUMNS, "random net descriptions")]
    tables += [
        (f"results_{h.replace('-', '_')}", table_rows[h],
         metrics.RESULTS_TABLE_COLUMNS, f"results for {h}")
        for h in heuristics
    ]
    tables += [
        ("memory_comparison", table_rows[comm_h],
         metrics.MEMORY_TABLE_COLUMNS, f"dist-net vs BCA ({comm_h})"),
        ("tree_parallelism", table_rows[comm_h],
         metrics.TREE_PARALLELISM_COLUMNS, f"evaluation-tree parallelism ({comm_h})"),
    ]
    for stem, rows, columns, title in tables:
        network.write_text(metrics.table_csv(rows, columns, header), out / f"{stem}.csv")
        network.write_text(metrics.table_text(rows, columns, title), out / f"{stem}.txt")
    details = [rows[h] for rows in per_net_rows for h in heuristics]
    network.write_text(metrics.details_csv(details, header), out / "details.csv")


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        count=args.count,
        node_count_range=args.nodes,
        avg_arcs_range=args.arcs,
        obs_count_range=args.obs,
        heuristics=tuple(args.heuristic or factoring.HEURISTICS),
        machine=_machine_from_args(args),
        master_seed=args.seed,
    )
    meta = run_experiment(config, args.out)
    print(f"{meta['net_count']} nets simulated, {meta['failures']} failures, "
          f"tables in {args.out}")
    return EXIT_OK


def _add_machine_flags(p) -> None:
    p.add_argument("--machine", help="machine parameter JSON file")
    p.add_argument("--procs", type=int, help="override processor count")
    p.add_argument("--grainsize", type=int, help="override minimum grainsize")


def _add_gen_flags(p) -> None:
    gen = network.NetGenParams
    p.add_argument("--seed", type=int, default=gen.seed)
    p.add_argument("--nodes", type=_range(int, "INT"),
                   default=gen.node_count_range, metavar="A..B")
    p.add_argument("--arcs", type=_range(float, "NUM"),
                   default=gen.avg_arcs_range, metavar="A..B")
    p.add_argument("--obs", type=_range(int, "INT"),
                   default=gen.obs_count_range, metavar="A..B")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorcube",
        description="Belief-net factoring inference and hypercube cost simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random net + query file")
    _add_gen_flags(p)
    p.add_argument("--out", help="output net file (stdout when omitted)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("validate", help="check a net file")
    p.add_argument("net")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("query", help="answer a net file's query numerically")
    p.add_argument("net")
    p.add_argument("--heuristic", choices=factoring.HEURISTICS,
                   default="set-factoring")
    p.add_argument("--check-oracle", action="store_true",
                   help="also report deviation from full joint enumeration")
    p.add_argument("--max-dim", type=int, default=factoring.DEFAULT_EVAL_CAP,
                   help="largest product dimension evaluated numerically")
    _add_machine_flags(p)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("plan", help="build and save an evaluation tree")
    p.add_argument("net")
    p.add_argument("--heuristic", choices=factoring.HEURISTICS,
                   default="set-factoring")
    p.add_argument("--out", help="output tree file (stdout when omitted)")
    _add_machine_flags(p)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("simulate", help="cost-model a net or tree file")
    p.add_argument("input", help="net file or tree file")
    p.add_argument("--heuristic", action="append",
                   choices=factoring.HEURISTICS,
                   help="net files only; repeatable; default: all three")
    p.add_argument("--out", help="also write full-precision CSV here")
    _add_machine_flags(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("experiment", help="run the full random-net protocol")
    p.add_argument("--count", type=int, default=ExperimentConfig.count,
                   help="number of nets")
    _add_gen_flags(p)
    p.add_argument("--heuristic", action="append",
                   choices=factoring.HEURISTICS,
                   help="repeatable; default: all three")
    p.add_argument("--out", required=True, help="output directory")
    _add_machine_flags(p)
    p.set_defaults(fn=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "count", 1) < 1:
        parser.error("--count must be at least 1")
    if getattr(args, "max_dim", 1) < 1:
        parser.error("--max-dim must be at least 1")
    try:
        return args.fn(args)
    except Exception as exc:
        code = next((_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES),
                    EXIT_INTERNAL)
        if isinstance(exc, network.NetValidationError):
            lines = [f"{v.kind}: {v.message}" for v in exc.violations]
        elif code == EXIT_INTERNAL:
            lines = [f"internal: {type(exc).__name__}: {' '.join(str(exc).split())}"]
        else:
            lines = [str(exc)]
        for line in lines:
            print(f"error: {line}", file=sys.stderr)
        return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
