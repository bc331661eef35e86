"""The four workloads: input generation from a seed, the measured operation,
and the oracle check of its output.

A workload draws a fresh list of inputs for every pass (``make_pass``),
with the same number of inputs of each kind in every pass, so that passes
are comparable and no input object is seen twice by the library. The
library is reached only through the ``circle6`` package object handed in,
looked up at call time, so the tracer's patches are seen.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import oracle

LETTERS = "ABCDEF"
_TAGS = {"A": "A_CP3", "B": "B_Q3", "C": "C_Fano", "D": "D_S6_union",
         "E": "E_BlP_S6", "F": "F_BlC_S6"}


@dataclass
class Op:
    """One workload input. ``origin`` names the kind of input; ``expect``
    holds whatever the oracle needs beyond the input itself."""

    origin: str
    arg: object
    expect: object = None


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _random_params(rng: random.Random, letter: str) -> tuple[int, ...]:
    if letter == "A":
        return tuple(rng.sample(range(1, 11), 3))
    if letter == "C":
        return (rng.choice([a for a in range(-10, 11) if a]),)
    return tuple(rng.randint(1, 8 if letter == "D" else 10) for _ in range(oracle.ARITY[letter]))


class Workload:
    name = ""

    def __init__(self, c6, seed: int, workdir: Path):
        self.c6 = c6
        self.seed = seed

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        """The measured operation; returns a value the check understands."""
        raise NotImplementedError

    def check(self, op: Op, outcome: str, value) -> str | None:
        """None when the outcome ("answer" or "refused") is right, else a
        one-line description."""
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return self.make_pass(-1)[:20]

    def close(self) -> None:
        pass

    def _dataset(self, rows, names):
        return self.c6.dataset(3, zip(names, rows))


# ---------------------------------------------------------------------------

class ClassifyMix(Workload):
    """classify() on members of all six families (half reversed, shuffled
    and renamed), on random 4-point data, and on sphere sums (case D)."""

    name = "classify_mix"
    PER_FAMILY, NOMATCH, SUMS = 30, 60, 60

    def make_pass(self, index):
        c6, rng = self.c6, _rng(self.name, self.seed, index)
        ops = []
        for letter in LETTERS:
            for i in range(self.PER_FAMILY):
                params = _random_params(rng, letter)
                rev = i % 2 == 1
                rows = [list(r) for r in oracle.family_rows(letter, params, rev)]
                for r in rows:
                    rng.shuffle(r)
                rng.shuffle(rows)
                names = [f"x{k}" for k in rng.sample(range(1000), 4)]
                ops.append(Op(letter, self._dataset(rows, names), (letter, params, rev)))
        for _ in range(self.NOMATCH):
            weights = [w for w in range(-9, 10) if w]
            rows = [[rng.choice(weights) for _ in range(3)] for _ in range(4)]
            ops.append(Op("nomatch", self._dataset(rows, ["a", "b", "c", "d"])))
        for _ in range(self.SUMS):
            a, b, c, d = (rng.randint(1, 6) for _ in range(4))
            summed = c6.kustarev_sum(c6.standard_sphere(a, b), None, c6.standard_sphere(c, d), None)
            ops.append(Op("sum", summed.data, ("D", (a, b, c, d), False)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        return tuple((m.case.tag.value[0], m.case.params, m.reversed, m.assignment)
                     for m in self.c6.classify(op.arg).matches)

    def check(self, op, outcome, value):
        if outcome != "answer":
            return f"classify gave {outcome}"
        rows = {p.name: p.weights for p in op.arg.points}
        for letter, params, rev, assignment in value:
            if not oracle.params_ok(letter, params):
                return f"match {letter}{params} breaks the family's constraints"
            tmpl = oracle.family_rows(letter, params, rev)
            if sorted(assignment) != sorted(rows):
                return f"assignment {assignment} is not a permutation of the points"
            if any(sorted(rows[name]) != sorted(t) for name, t in zip(assignment, tmpl)):
                return f"match {letter}{params} rev={rev} does not regenerate the data"
        keys = {(letter, params, rev) for letter, params, rev, _ in value}
        if op.expect is not None and op.expect not in keys:
            return f"generating {op.expect} missing from {sorted(keys)}"
        if op.origin == "nomatch" and value and not oracle.may_match_a_family(rows.values()):
            return f"data whose c1^3 fits no family matched {sorted(keys)}"
        return None


# ---------------------------------------------------------------------------

class ChernSweep(Workload):
    """gen_family + chern_report on family members, or chern_report on a
    disjoint union of 4 to 100 points of consistent data."""

    name = "chern_sweep"
    PER_FAMILY, UNION_OPS = 33, 200

    def make_pass(self, index):
        rng = _rng(self.name, self.seed, index)
        ops = [Op("family", (letter, _random_params(rng, letter)))
               for letter in LETTERS for _ in range(self.PER_FAMILY)]
        for _ in range(self.UNION_OPS):
            target = rng.randint(4, 100)
            rows = []
            while len(rows) < target:
                if target - len(rows) < 4 or rng.random() < 0.3:
                    rows += oracle.sphere_rows(rng.randint(1, 9), rng.randint(1, 9))
                else:
                    letter = rng.choice(LETTERS)
                    rows += oracle.family_rows(letter, _random_params(rng, letter), rng.random() < 0.5)
            data = self._dataset(rows, [f"u{i}" for i in range(len(rows))])
            ops.append(Op("union", data, rows))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        c6 = self.c6
        if op.origin == "family":
            letter, params = op.arg
            data = c6.gen_family(c6.JangCase(c6.CaseTag[_TAGS[letter]], params))
        else:
            data = op.arg
        r = c6.chern_report(data)
        return (r.c1_cubed, r.todd, r.c1c2, r.euler, tuple(r.chi_y_coeffs))

    def check(self, op, outcome, value):
        if outcome != "answer":
            return f"chern_report gave {outcome}"
        if op.origin == "family":
            letter, params = op.arg
            rows = oracle.family_rows(letter, params)
            c1, todd = oracle.c1_cubed_constant(letter, params), oracle.TODD[letter]
        else:
            rows = op.expect
            c1, todd = oracle.c1_cubed(rows), oracle.chi_y(rows)[0]
        expected = (c1, todd, 24 * todd, len(rows), oracle.chi_y(rows))
        if value != expected:
            return f"{op.origin} {op.arg if op.origin == 'family' else len(rows)}: got {value}, want {expected}"
        return None


# ---------------------------------------------------------------------------

class SumGraph(Workload):
    """Iterated fiber connect sums of k standard spheres with weights 1..3,
    then build_multigraphs -> connectivity_verdict -> exoticness_obstruction.
    Two inputs in a hundred are chains of 6 and 7 copies of
    standard_sphere(1, 1), which the enumerator refuses after spending the
    most time of any input (about 0.7 s); they set latency_p99_ms."""

    name = "sum_graph"
    K_COUNTS = {2: 34, 3: 30, 4: 24, 5: 10}
    CHAIN_LENGTHS = (6, 7)

    def make_pass(self, index):
        rng = _rng(self.name, self.seed, index)
        ops = []
        for k, count in self.K_COUNTS.items():
            for _ in range(count):
                ops.append(Op(f"k{k}", [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(k)]))
        ops += [Op("chain", [(1, 1)] * length) for length in self.CHAIN_LENGTHS]
        for op in ops:
            op.expect = oracle.sum_graph_expectation(op.arg)
        rng.shuffle(ops)
        return ops

    def warmup_ops(self):
        return [op for op in self.make_pass(-1) if op.origin in ("k2", "k3")][:20]

    def build_sum(self, spheres):
        c6 = self.c6
        data = c6.standard_sphere(*spheres[0])
        result = None
        for a, b in spheres[1:]:
            result = c6.kustarev_sum(data, None, c6.standard_sphere(a, b), None)
            data = result.data
        return result

    def run(self, op):
        c6 = self.c6
        summed = self.build_sum(op.arg)
        graphs = c6.build_multigraphs(summed.data, cap=oracle.CAP)
        verdict = c6.connectivity_verdict(graphs)
        exotic = c6.exoticness_obstruction(graphs)
        h = summed.homology
        return (h.b2, h.b3, summed.report.diffeotype, len(graphs), verdict.value, exotic)

    def check(self, op, outcome, value):
        exp, k = op.expect, len(op.arg)
        if outcome == "refused":
            return None if exp["refused"] else f"{op.arg}: refused with {exp['distinct']} pairings"
        if outcome != "answer":
            return f"{op.arg}: {outcome}"
        if exp["refused"]:
            return f"{op.arg}: answered past the cap ({exp['distinct']} pairings)"
        want = (k - 1, 0, "S^4 x S^2" if k == 2 else None, exp["distinct"], exp["verdict"],
                exp["verdict"] == "NeverConnected")
        return None if value == want else f"{op.arg}: got {value}, want {want}"


# ---------------------------------------------------------------------------

class CliBatch(Workload):
    """One circle6.cli.run call per op (plus reading back its --out file),
    cycling over every subcommand on small files written at set-up;
    payloads are compared with library results computed at set-up."""

    name = "cli_batch"
    VARIANTS = 3

    def __init__(self, c6, seed, workdir):
        super().__init__(c6, seed, workdir)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.calls = []
        rng = _rng(self.name, seed, 0)
        for v in range(self.VARIANTS):
            self._add_variant(rng, v)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _write(self, stem: str, data) -> str:
        path = self.tmp / f"{stem}.json"
        self.c6.save(data, path)
        return str(path)

    def _add_variant(self, rng, v):
        c6 = self.c6
        letter = rng.choice(LETTERS)
        params = _random_params(rng, letter)
        fam = self._dataset(oracle.family_rows(letter, params, rng.random() < 0.5),
                            [f"p{i}" for i in range(1, 5)])
        s1, s2 = (c6.standard_sphere(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(2))
        summed = c6.kustarev_sum(s1, None, s2, None)
        union_rows = [r for _ in range(rng.randint(2, 6)) for r in oracle.sphere_rows(rng.randint(1, 9), rng.randint(1, 9))]
        union = self._dataset(union_rows, [f"u{i}" for i in range(len(union_rows))])
        f_fam, f_sum, f_union = (self._write(f"{stem}{v}", d) for stem, d in
                                 (("family", fam), ("sum", summed.data), ("union", union)))
        f_s1, f_s2 = self._write(f"s1_{v}", s1), self._write(f"s2_{v}", s2)

        report = c6.chern_report(fam)
        gen_letter = rng.choice(LETTERS)
        gen_params = _random_params(rng, gen_letter)
        graphs = c6.build_multigraphs(summed.data)
        n = rng.randint(2, 6)
        k = rng.randint(1, 2 * n - 1)
        adm = c6.kustarev_admissible(c6.DimensionPair(n, k))
        fa, fb = rng.randint(1, 9), rng.randint(1, 9)
        glue = c6.verify_framing_reversal_identity(samples=10000, seed=self.seed + v)
        sweep_letter = rng.choice("BEF")
        sweep_hi = rng.randint(4, 7)

        def doc(data, homology=None, labels=None):
            d = {"n": 3, "fixed_points": [{"name": p.name, "weights": list(p.weights)} for p in data.points]}
            if homology is not None:
                d["homology"] = {"simply_connected": homology.simply_connected, "b2": homology.b2,
                                 "b3": homology.b3, "torsion_free": homology.torsion_free}
            if labels:
                d["labels"] = dict(labels)
            return d

        def frac(x):
            return f"{x.numerator}/{x.denominator}"

        add = self.calls.append
        add((["validate", f_union], {"ok": True, "violations": []}))
        add((["localize", f_fam], {"c1_cubed": frac(report.c1_cubed), "todd": report.todd, "c1c2": report.c1c2,
                                   "euler": report.euler, "chi_y_coeffs": list(report.chi_y_coeffs)}))
        add((["localize", "--raw", f_union], {
            "c1_cubed": frac(c6.c1_cubed(union)), "chi_y_coeffs": c6.chi_y_profile(union),
            "euler": len(union.points), "todd": c6.todd_genus(union)}))
        for f, data in ((f_fam, fam), (f_sum, summed.data)):
            add((["classify", f], {"matches": [
                {"case": m.case.tag.value, "params": list(m.case.params),
                 "assignment": list(m.assignment), "reversed": m.reversed}
                for m in c6.classify(data).matches]}))
        add((["generate", gen_letter, *map(str, gen_params)],
             doc(c6.gen_family(c6.JangCase(c6.CaseTag[_TAGS[gen_letter]], gen_params)))))
        add((["graph", f_sum], {
            "count": len(graphs), "verdict": c6.connectivity_verdict(graphs).value,
            "graphs": [{"vertices": list(g.vertices), "edges": [list(e) for e in g.edges],
                        "components": [list(c) for c in g.components], "connected": g.is_connected}
                       for g in graphs]}))
        add((["sum", f_s1, f_s2], doc(summed.data, summed.homology, summed.data.labels)))
        add((["admissible", str(n), str(k)], {"n": n, "k": k, "slice_dim": 2 * n - k,
                                              "exists": adm.exists, "unique": adm.unique}))
        framing = c6.equivariant_normal_framing_class(fa, fb)
        add((["framing", str(fa), str(fb)], {
            "a": fa, "b": fb, "rotation_loop_class": c6.rotation_loop_class((-fa, fb, fa + fb)),
            "equivariant_normal_framing_class": framing, "nontrivial": framing == 1}))
        add((["verify-gluing", "--samples", "10000", "--seed", str(self.seed + v)], {
            "passed": glue.passed, "samples": glue.samples, "tolerance": glue.tolerance,
            "worst_deviation": glue.worst_deviation, "seed": glue.seed}))
        c1, todd = oracle.c1_cubed_constant(sweep_letter, (1, 1)), oracle.TODD[sweep_letter]
        add((["sweep", "--case", sweep_letter, "--a", f"1..{sweep_hi}", "--b", f"1..{sweep_hi}",
              "--assert", f"c1_cubed={c1}", "--assert", f"todd={todd}"], {
            "case": _TAGS[sweep_letter], "assertions": [f"c1_cubed={c1}/1", f"todd={todd}/1"],
            "checked": sweep_hi * sweep_hi, "skipped": 0, "failures": [], "failures_not_listed": 0,
            "ok": True}))

    def make_pass(self, index):
        rng = _rng(self.name, self.seed, index)
        ops = [Op(argv[0], argv, expected) for argv, expected in self.calls]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self):
        return self.make_pass(-1)

    def run(self, op):
        out = self.tmp / "out.json"
        code = self.c6.cli.run([*op.arg, "--out", str(out), "--quiet"])
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        out.unlink(missing_ok=True)
        return code, text

    def check(self, op, outcome, value):
        if outcome != "answer":
            return f"{op.arg}: {outcome}"
        code, text = value
        if code != 0:
            return f"{op.arg}: exit code {code}"
        if json.loads(text) != op.expect:
            return f"{op.arg}: payload differs from the library result"
        return None


WORKLOADS = {w.name: w for w in (ClassifyMix, ChernSweep, SumGraph, CliBatch)}
