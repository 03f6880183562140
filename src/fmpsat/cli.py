"""Command-line front end.

Exit codes for the membership subcommand: 0 means the feature occurs
in some explanation, 1 means it does not, 2 means any error. All other
subcommands use 0/2. Result lines go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import encode as enc
from . import sdd as sdd_mod
from . import xpg as xpg_mod
from .batch import BatchQuery, batch_run, generate_random_classifier, random_instance
from .errors import FmpsatError
from .explain import (
    DtClassifier,
    ObddClassifier,
    SddClassifier,
    XpgClassifier,
    enumerate_axps_bruteforce,
    enumerate_cxps_bruteforce,
    find_axp,
    find_cxp,
    parse_instance,
)
from .fmp import FmpQuery, build_encoding, collector_paused, decide_membership

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2


def _add_classifier_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sdd", metavar="FILE", help="SDD classifier (needs --vtree)")
    parser.add_argument("--vtree", metavar="FILE", help="vtree for --sdd")
    parser.add_argument("--obdd", metavar="FILE", help="OBDD classifier")
    parser.add_argument("--dt", metavar="FILE", help="decision tree classifier")
    parser.add_argument("--xpg", metavar="FILE", help="prebuilt explanation graph")
    parser.add_argument(
        "--instance",
        metavar="FILE",
        required=False,
        help="instance file (required unless --xpg is used)",
    )
    parser.add_argument(
        "--names", metavar="FILE", help="optional feature names, one per line (display only)"
    )


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=["one-step", "two-step"],
        default="two-step",
        help="encoding shape (default: two-step)",
    )
    parser.add_argument("--time-limit-s", type=float, default=None)


def _load_classifier(args):
    chosen = [name for name in ("sdd", "obdd", "dt", "xpg") if getattr(args, name)]
    if len(chosen) != 1:
        raise FmpsatError(
            "exactly one classifier input is required: --sdd/--vtree, --obdd, --dt or --xpg"
        )
    kind = chosen[0]
    if kind == "sdd":
        if not args.vtree:
            raise FmpsatError("--sdd needs --vtree")
        vtree = sdd_mod.parse_vtree(Path(args.vtree).read_text())
        clf = SddClassifier(sdd_mod.parse_sdd(Path(args.sdd).read_text(), vtree))
    elif kind == "obdd":
        clf = ObddClassifier(xpg_mod.parse_obdd(Path(args.obdd).read_text()))
    elif kind == "dt":
        clf = DtClassifier(xpg_mod.parse_dt(Path(args.dt).read_text()))
    else:
        graph = xpg_mod.parse_xpg(Path(args.xpg).read_text())
        if not graph.zero_terminals():
            raise FmpsatError("classifier is constant; explanation queries are undefined")
        clf = XpgClassifier(graph)

    instance = parse_instance(Path(args.instance).read_text()) if args.instance else None
    if kind == "xpg":  # the graph's one record is keyed None: check the file's arity here
        clf.check_instance(instance)
    elif instance is None:
        raise FmpsatError(f"--{kind} needs --instance")
    # making the record checks the instance, and an OBDD or DT builder
    # refuses a constant classifier; an SDD is constant exactly when the
    # diagram giving the instance class 0 has no model
    source = clf.circuit_for(instance).source
    if kind == "sdd" and not sdd_mod.is_consistent(source):
        raise FmpsatError("classifier is constant; explanation queries are undefined")
    return clf, instance


def _load_names(args, num_features: int) -> list[str] | None:
    if not args.names:
        return None
    names = [line.strip() for line in Path(args.names).read_text().splitlines() if line.strip()]
    if len(names) != num_features:
        raise FmpsatError(f"names file has {len(names)} entries, expected {num_features}")
    return names


def _describe(features, names) -> str:
    if names is None:
        return ""
    return ", ".join(names[i - 1] for i in sorted(features))


def _fmt_features(features) -> str:
    return ",".join(str(i) for i in sorted(features))


def cmd_fmp(args) -> int:
    clf, instance = _load_classifier(args)
    names = _load_names(args, clf.num_features)
    query = FmpQuery(
        classifier=clf,
        instance=instance,
        target=args.target,
        method=args.method,
        time_limit_s=args.time_limit_s,
    )
    outcome = decide_membership(query)
    counters = "".join(f" {name}={count}" for name, count in outcome.stats.items())
    print(
        f"stats: vars={outcome.num_vars} clauses={outcome.num_clauses} "
        f"solve_s={outcome.solve_s:.4f} total_s={outcome.total_s:.4f}{counters}",
        file=sys.stderr,
    )
    if outcome.pre_negated:
        print("note: instance predicted 1, query ran on the negated diagram", file=sys.stderr)
    if outcome.membership:
        print(f"YES witness={_fmt_features(outcome.witness)}")
        if names:
            print(f"witness names: {_describe(outcome.witness, names)}", file=sys.stderr)
        return EXIT_YES
    print("NO")
    return EXIT_NO


def cmd_explain(args) -> int:
    clf, instance = _load_classifier(args)
    names = _load_names(args, clf.num_features)
    find = find_axp if args.command == "axp" else find_cxp
    explanation = find(clf, instance, range(1, clf.num_features + 1))
    print(f"{args.command.upper()} {_fmt_features(explanation)}")
    if names:
        print(f"names: {_describe(explanation, names)}", file=sys.stderr)
    return EXIT_YES


def cmd_enum(args) -> int:
    clf, instance = _load_classifier(args)
    axps = enumerate_axps_bruteforce(clf, instance)
    cxps = enumerate_cxps_bruteforce(clf, instance)

    def fmt(collection) -> str:
        return " ".join(
            "{" + _fmt_features(s) + "}" for s in sorted(collection, key=sorted)
        )

    print(f"AXPS: {fmt(axps)}")
    print(f"CXPS: {fmt(cxps)}")
    return EXIT_YES


def cmd_encode(args) -> int:
    clf, instance = _load_classifier(args)
    cnf, vm, _ = build_encoding(FmpQuery(clf, instance, args.target, method=args.method))
    if args.out:
        with open(args.out, "w") as sink:
            sink.writelines(enc.iter_dimacs(cnf, vm))
        print(
            f"wrote {cnf.num_vars} vars, {cnf.num_clauses} clauses to {args.out}",
            file=sys.stderr,
        )
    else:
        sys.stdout.writelines(enc.iter_dimacs(cnf, vm))
    return EXIT_YES


def cmd_bench(args) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    kind = {"obdd": "obdd", "sdd": "shannon-sdd"}[args.kind]
    methods = ["one-step", "two-step"] if args.method_bench == "both" else [args.method_bench]
    queries: list[BatchQuery] = []
    for c in range(args.count):
        clf = generate_random_classifier(kind, args.m, args.nodes, seed=args.seed + c)
        name = f"{args.kind}-m{args.m}-s{args.seed + c}"
        picks = [
            (random_instance(clf, rng), int(rng.integers(1, args.m + 1)))
            for _ in range(args.queries)
        ]
        for instance, target in picks:
            for method in methods:
                queries.append(
                    BatchQuery(
                        name,
                        FmpQuery(
                            classifier=clf,
                            instance=instance,
                            target=target,
                            method=method,
                            time_limit_s=args.time_limit_s,
                        ),
                    )
                )
    if args.out:
        with open(args.out, "w") as sink:
            batch_run(queries, sink)
        print(f"wrote report to {args.out}", file=sys.stderr)
    else:
        batch_run(queries, sys.stdout)
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmpsat",
        description="Feature membership queries on decision-diagram classifiers via SAT",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fmp", help="decide whether the target occurs in some explanation")
    _add_classifier_args(p)
    _add_solver_args(p)
    p.add_argument("--target", type=int, required=True, help="feature index, 1-based")
    p.set_defaults(func=cmd_fmp)

    for command, kind in (("axp", "abductive"), ("cxp", "contrastive")):
        p = sub.add_parser(command, help=f"one {kind} explanation by deletion")
        _add_classifier_args(p)
        p.set_defaults(func=cmd_explain)

    p = sub.add_parser("enum", help="brute-force enumeration of all explanations (small m)")
    _add_classifier_args(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("encode", help="write the CNF encoding without solving")
    _add_classifier_args(p)
    p.add_argument("--target", type=int, required=True)
    p.add_argument(
        "--method", choices=["one-step", "two-step"], default="two-step"
    )
    p.add_argument("--out", metavar="FILE", help="output path (default: stdout)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("bench", help="batch membership queries on random classifiers")
    p.add_argument("--kind", choices=["obdd", "sdd"], default="obdd")
    p.add_argument("--count", type=int, default=2, help="number of classifiers")
    p.add_argument("--m", type=int, default=10, help="features per classifier")
    p.add_argument("--nodes", type=int, default=50, help="node budget per classifier")
    p.add_argument("--queries", type=int, default=100, help="queries per classifier")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method",
        dest="method_bench",
        choices=["one-step", "two-step", "both"],
        default="both",
    )
    p.add_argument("--time-limit-s", type=float, default=None)
    p.add_argument("--out", metavar="FILE", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # the cyclic parser is garbage before the pause
    try:
        with collector_paused():
            return args.func(args)
    except FmpsatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
