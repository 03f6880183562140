"""The three workloads: what each one sets up, runs and checks.

An operation is one membership query (``desk-scale``, ``relevancy-sdd``)
or one in-process ``fmpsat encode`` invocation (``encode-dimacs``). A
round is the same list of operations every time. ``make_ops`` returns
it as (key, callable) pairs; a callable raises on failure and otherwise
returns a record that ``check`` compares with the oracles once the
timed loop is over. Operations with equal keys ask the same question.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle

DESK_TIME_LIMIT_S = 10.0
# The desk-scale round asks all nine queries once, then the eight others
# DESK_EXTRA_PASSES more times: a median over nine single timings swung
# by 30% between runs on a shared host. The query that fails today (see
# README) stays at one attempt per round, which already costs 25-40 s.
DESK_EXTRA_PASSES = 4
DESK_FAILING_QUERY = "obdd-m100-q2"


@dataclass
class Sizes:
    """Input sizes of one workload; ``smoke`` shrinks them to toy scale."""

    relevancy_classifiers: int = 16
    relevancy_m: int = 16
    relevancy_width: int = 12
    encode_ms: tuple[int, ...] = (60, 80, 100)
    encode_width: int = 16


SMOKE = Sizes(relevancy_classifiers=2, relevancy_m=8, relevancy_width=4,
              encode_ms=(10, 14), encode_width=4)


@dataclass
class Record:
    """What one successful operation returned, for the checks."""

    key: str
    clauses: int
    membership: bool | None = None
    witness: frozenset[int] | None = None
    digest: str | None = None


@dataclass
class Workload:
    fm: object                  # the fmpsat package
    seed: int
    workdir: Path
    sizes: Sizes
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)


# --------------------------------------------------------------------------
# desk-scale: criterion 9's nine two-step queries
# --------------------------------------------------------------------------

class DeskScale(Workload):
    """Frozen inputs from ``data/desk``; the seed only orders the queries.
    At smoke size the same layout is written from small random OBDDs."""

    def prepare(self) -> None:
        self.dir = inputs.DESK_DIR
        if self.sizes is SMOKE:
            self.dir = self.workdir / "desk"
            _write_small_desk(self.dir, self.seed)
        self.queries = inputs.desk_queries(self.dir)
        np.random.default_rng(self.seed).shuffle(self.queries)
        self.sources = {q.classifier: inputs.desk_source(self.dir, q.classifier)
                        for q in self.queries}

    def setup(self) -> None:
        F = self.fm
        self.diagrams = {}   # name -> (adapter class, parsed diagram)
        for name in self.sources:
            sdd_file = self.dir / f"{name}.sdd"
            if sdd_file.exists():
                vtree = F.parse_vtree((self.dir / f"{name}.vtree").read_text())
                self.diagrams[name] = (F.SddClassifier, F.parse_sdd(sdd_file.read_text(), vtree))
            else:
                obdd = F.parse_obdd((self.dir / f"{name}.obdd").read_text())
                self.diagrams[name] = (F.ObddClassifier, obdd)
        self.instances = {q.name: F.parse_instance((self.dir / q.instance_file).read_text())
                          for q in self.queries}
        _warm_up(self)

    def make_ops(self):
        F = self.fm
        again = [q for q in self.queries if q.name != DESK_FAILING_QUERY]
        ops = []
        for q in self.queries + again * DESK_EXTRA_PASSES:
            def op(q=q):
                # a fresh adapter per query, so no query reuses the XpG or
                # negation of another and the seed's order changes nothing
                adapter, diagram = self.diagrams[q.classifier]
                out = F.decide_membership(F.FmpQuery(
                    adapter(diagram), self.instances[q.name], q.target, "two-step",
                    time_limit_s=DESK_TIME_LIMIT_S))
                return Record(q.name, out.num_clauses, out.membership, out.witness)
            ops.append((q.name, op))
        return ops

    def check(self, records: list[Record]) -> None:
        by_name = {q.name: q for q in self.queries}
        answers = {(rec.key, rec.membership, rec.witness): rec for rec in records}
        for rec in answers.values():
            q = by_name[rec.key]
            src = self.sources[q.classifier]
            inst = self.instances[q.name]
            if rec.membership:
                _check_witness(self, src, inst.values, inst.label, q.target, rec)
            else:
                scan = oracle.scan_target_last(src, inst.values, inst.label, q.target)
                if q.target in scan:
                    self.fail(f"{q.name}: No refuted by the AXp {sorted(scan)}")


def _write_small_desk(directory: Path, seed: int) -> None:
    """Toy inputs in the desk layout: one OBDD and one Shannon SDD."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = ["c name classifier target instance-file"]
    for name in ("obdd-small", "sdd-small"):
        text = inputs.random_obdd_text(12, 6, rng)
        (directory / f"{name}.obdd").write_text(text)
        src = oracle.read_obdd(text)
        if name.startswith("sdd"):
            sdd, vtree = inputs.shannon_sdd_text(src)
            (directory / f"{name}.sdd").write_text(sdd)
            (directory / f"{name}.vtree").write_text(vtree)
        for q, label in enumerate((0, 1)):
            values = inputs.draw_instance(src, label, rng)
            (directory / f"{name}-q{q}.inst").write_text(inputs.instance_text(values, label))
            lines.append(f"{name}-q{q} {name} {int(rng.integers(1, 13))} {name}-q{q}.inst")
    (directory / "queries.txt").write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# relevancy-sdd: every feature of each instance, on Shannon SDDs
# --------------------------------------------------------------------------

class RelevancySdd(Workload):
    """One instance per classifier, of class 0 and 1 in turn, so half the
    sweeps run on the negated diagram. Many small classifiers rather than
    many instances of a few keep the round's timings from hinging on one
    seed's diagrams."""

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        s = self.sizes
        self.cases = []   # (name, sdd text, vtree text, source, values, label)
        for c in range(s.relevancy_classifiers):
            text = inputs.random_obdd_text(s.relevancy_m, s.relevancy_width, rng)
            src = oracle.read_obdd(text)
            sdd, vtree = inputs.shannon_sdd_text(src)
            label = c % 2
            values = inputs.draw_instance(src, label, rng)
            self.cases.append((f"c{c}-class{label}", sdd, vtree, src, values, label))
        self.relevant = {name: oracle.relevant_features(src, values, label)
                         for name, _, _, src, values, label in self.cases}

    def setup(self) -> None:
        F = self.fm
        self.parsed = {}
        for name, sdd_text, vtree_text, _, values, label in self.cases:
            vtree = F.parse_vtree(vtree_text)
            sdd = F.parse_sdd(sdd_text, vtree)
            inst = F.parse_instance(inputs.instance_text(values, label))
            self.parsed[name] = (sdd, inst)
        _warm_up(self)

    def make_ops(self):
        F = self.fm
        m = self.sizes.relevancy_m
        ops = []
        for name, *_ in self.cases:
            sdd, inst = self.parsed[name]
            # one adapter per sweep, as a caller would keep; it negates lazily
            clf = F.SddClassifier(sdd)
            for t in range(1, m + 1):
                def op(name=name, clf=clf, inst=inst, t=t):
                    out = F.decide_membership(F.FmpQuery(clf, inst, t))
                    return Record(f"{name}/{t}", out.num_clauses, out.membership, out.witness)
                ops.append((f"{name}/{t}", op))
        return ops

    def check(self, records: list[Record]) -> None:
        """Each answer must match the exhaustive relevancy set, so every
        complete sweep equals it; each Yes carries an AXp with the target."""
        cases = {name: (src, values, label) for name, _, _, src, values, label in self.cases}
        for rec in records:
            name, t = rec.key.split("/")
            t = int(t)
            if rec.membership != (t in self.relevant[name]):
                self.fail(f"{rec.key}: answer {rec.membership}, exhaustive relevancy set "
                          f"is {sorted(self.relevant[name])}")
            if rec.membership:
                _check_witness(self, *cases[name], t, rec)


# --------------------------------------------------------------------------
# encode-dimacs: `fmpsat encode`, one-step and two-step, no solving
# --------------------------------------------------------------------------

METHODS = ("one-step", "two-step")


class EncodeDimacs(Workload):
    """One OBDD per feature count; the target is a feature of a known AXp,
    so the checks have a witness the encoding must accept."""

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cases = []   # (name, source, values, label, target, witness, random set)
        for m in self.sizes.encode_ms:
            name = f"obdd-m{m}"
            text = inputs.random_obdd_text(m, self.sizes.encode_width, rng)
            src = oracle.read_obdd(text)
            label = int(rng.integers(2))
            values = inputs.draw_instance(src, label, rng)
            order = [int(i) for i in rng.permutation(m) + 1]
            witness = oracle.deletion_scan(src, values, label, order)
            target = sorted(witness)[int(rng.integers(len(witness)))]
            extra = {int(i) for i in np.flatnonzero(rng.random(m) < 0.3) + 1}
            (self.workdir / f"{name}.obdd").write_text(text)
            (self.workdir / f"{name}.inst").write_text(inputs.instance_text(values, label))
            self.cases.append((name, src, values, label, target, witness, witness | extra))

    def setup(self) -> None:
        _warm_up(self)

    def out_path(self, name: str, method: str) -> Path:
        return self.workdir / f"{name}-{method}.cnf"

    def make_ops(self):
        cli = self.fm.cli
        ops = []
        for name, _, _, _, target, _, _ in self.cases:
            for method in METHODS:
                argv = ["encode", "--obdd", str(self.workdir / f"{name}.obdd"),
                        "--instance", str(self.workdir / f"{name}.inst"),
                        "--target", str(target), "--method", method,
                        "--out", str(self.out_path(name, method))]

                def op(argv=argv, key=f"{name}/{method}"):
                    code = cli.main(argv)
                    if code != 0:
                        raise OperationFailed(f"fmpsat encode exited with {code}")
                    return Record(key, 0)
                ops.append((f"{name}/{method}", op))
        return ops

    def after_op(self, rec: Record) -> None:
        """Untimed: fingerprint the file and read its clause count."""
        name, method = rec.key.split("/")
        data = self.out_path(name, method).read_bytes()
        rec.digest = hashlib.sha256(data).hexdigest()
        at = data.find(b"p cnf ")
        rec.clauses = int(data[at:data.find(b"\n", at)].split()[3])

    def check(self, records: list[Record]) -> None:
        first: dict[str, str] = {}
        for rec in records:
            if first.setdefault(rec.key, rec.digest) != rec.digest:
                self.fail(f"{rec.key}: the same inputs gave different DIMACS bytes")
        for name, src, values, label, target, witness, randset in self.cases:
            full = frozenset(range(1, src.num_features + 1))
            for method in METHODS:
                key = f"{name}/{method}"
                if key not in first:
                    continue
                try:
                    cnf = oracle.read_dimacs(self.out_path(name, method).read_text())
                except oracle.OracleError as exc:
                    self.fail(f"{key}: {exc}")
                    continue
                selectors = [cnf.legend.get(f"s_{i}") for i in sorted(full)]
                if None in selectors:
                    self.fail(f"{key}: legend lacks a selector name")
                    continue
                selections = (("witness", witness), ("full", full), ("random", randset),
                              ("full without target", full - {target}))
                for label_s, chosen in selections:
                    want = _meets(method, src, values, label, target, chosen)
                    assignment = {v: (i in chosen) for i, v in zip(sorted(full), selectors)}
                    got = oracle.unit_propagate(cnf, assignment)
                    if got == "undetermined" or (got == "satisfied") != want:
                        self.fail(f"{key}: {label_s} selection gives {got}, expected "
                                  f"{'satisfied' if want else 'conflict'}")


def _meets(method, src, values, label, target, chosen) -> bool:
    """The query's condition on a selection, by the oracle."""
    if target not in chosen:
        return False
    if method == "one-step":
        return oracle.is_axp(src, values, label, chosen)
    return (oracle.is_weak_axp(src, values, label, chosen)
            and not oracle.is_weak_axp(src, values, label, set(chosen) - {target}))


# --------------------------------------------------------------------------
# shared
# --------------------------------------------------------------------------

class OperationFailed(Exception):
    """An operation that ended without an answer."""


def _check_witness(wl: Workload, src, values, label, target, rec: Record) -> None:
    w = rec.witness
    if w is None or target not in w:
        wl.fail(f"{rec.key}: witness {sorted(w or [])} misses the target {target}")
    elif not oracle.is_axp(src, values, label, w):
        wl.fail(f"{rec.key}: witness {sorted(w)} is not an AXp of the source diagram")


def _warm_up(wl: Workload) -> None:
    """Run every layer once on Ella, so first-call costs stay out of the timed loop."""
    F = wl.fm
    from fmpsat.sat import warm_up
    warm_up()
    src = oracle.read_obdd(oracle.ELLA_OBDD)
    clf = F.ObddClassifier(F.parse_obdd(oracle.ELLA_OBDD))
    inst = F.Instance(oracle.ELLA_VALUES, oracle.ELLA_LABEL)
    out = F.decide_membership(F.FmpQuery(clf, inst, 3))
    if not (out.membership and oracle.is_axp(src, inst.values, inst.label, out.witness)):
        wl.fail(f"warm-up: Ella, target 3 gave {out.answer} with witness {out.witness}")


WORKLOADS = {
    "desk-scale": DeskScale,
    "relevancy-sdd": RelevancySdd,
    "encode-dimacs": EncodeDimacs,
}
