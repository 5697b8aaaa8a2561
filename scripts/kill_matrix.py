#!/usr/bin/env python3
"""Kill matrix: does some check catch each plausible optimizer bug?

Each mutant below is a literal patch (file, original text, mutated text)
that plants one bug in the uniqueness analysis (src/analysis/), the
rewriter (src/rewrite/) or the equality classifier (src/expr/). Most are
unsound: they let a rewrite fire when the paper's Theorems 1-3 do not
hold, so some test must fail. One (M05) is sound: it drops an IS NULL
test that cannot matter, so every test must still pass.

The script copies the tracked tree (working-tree contents of every file
`git ls-files` lists) into a throwaway directory, builds it once and runs
the suite once as a baseline. Then, for each mutant, it applies the patch,
rebuilds incrementally, runs `ctest -j4 --timeout 120` and restores the
file. It never touches the working tree.

One line per mutant: the verdict (killed, survived, stale when the
original text is not found exactly once, build-failed), the number of
failing tests and the first three names, and whether a verifier test
(VerifyTest.*, VerifySweepTest.*, EquivTest.*) is among them. The exit
status is non-zero when an unsound mutant survives, the sound one is
killed, a mutant is stale or fails to build, or the unmutated baseline
fails. A stale mutant checks nothing, so its anchor must follow the code
it mutates; --dry-run, which scripts/check.sh runs, catches one without
building.

It does one full build and about 20 incremental ones (8 to 12 minutes on a
4-CPU machine), so scripts/check.sh does not run it. Usage:

    scripts/kill_matrix.py                 # every mutant
    scripts/kill_matrix.py --only M05,M13  # a subset
    scripts/kill_matrix.py --dry-run       # only check that patches apply;
                                           # exits 1 if one is stale
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
JOBS = min(4, os.cpu_count() or 1)
VERIFIER_TEST = re.compile(r"(^|/)(VerifyTest|VerifySweepTest|EquivTest)\.")


@dataclass(frozen=True)
class Mutant:
    id: str
    description: str
    path: str
    original: str
    mutated: str
    sound: bool = False


ALGORITHM1 = "src/analysis/algorithm1.cc"
REWRITER = "src/rewrite/rewriter.cc"

MUTANTS = [
    Mutant(
        "M01", "KeyCovered checks only a key's first column", ALGORITHM1,
        "    bool covered =\n"
        "        AttributeSet::FromVector(key.columns).Shifted(shift)"
        ".IsSubsetOf(bound);\n",
        "    bool covered = bound.Contains(shift + key.columns.front());\n"),
    Mutant(
        "M02", "closure propagates Type 2 equalities one way only",
        ALGORITHM1,
        "      } else if (bound.Contains(atom.other_column) &&\n"
        "                 !bound.Contains(atom.column)) {\n",
        "      } else if (false) {\n"),
    Mutant(
        "M03", "closure binds both columns of every Type 2 equality",
        ALGORITHM1,
        "    if (atom.type != AtomType::kType1ColumnConstant) continue;\n",
        "    if (atom.type != AtomType::kType1ColumnConstant) {\n"
        "      bound.Add(atom.column);\n"
        "      bound.Add(atom.other_column);\n"
        "      continue;\n"
        "    }\n"),
    Mutant(
        "M04", "set-op lowering uses plain = on every column", REWRITER,
        "    if (!lc.nullable && !rc.nullable) {\n",
        "    if (true) {\n"),
    Mutant(
        "M05", "plain = when one side is NOT NULL (sound: NULL never "
        "matches a NOT NULL value under =! either)", REWRITER,
        "    if (!lc.nullable && !rc.nullable) {\n",
        "    if (!lc.nullable || !rc.nullable) {\n",
        sound=True),
    Mutant(
        "M06", "set-op lowering drops the last column's conjunct", REWRITER,
        "  for (size_t i = 0; i < left.num_columns(); ++i) {\n"
        "    const Column& lc = left.column(i);\n",
        "  for (size_t i = 0; i + 1 < left.num_columns(); ++i) {\n"
        "    const Column& lc = left.column(i);\n"),
    Mutant(
        "M07", "INTERSECT->EXISTS without a duplicate-free operand",
        REWRITER,
        "      if (left.IsDuplicateFree()) {\n"
        "        ExprPtr corr = MakeNullSafeCorrelation(",
        "      if (true) {\n"
        "        ExprPtr corr = MakeNullSafeCorrelation("),
    Mutant(
        "M08", "EXCEPT->NOT EXISTS without a duplicate-free left", REWRITER,
        "    if (left.IsDuplicateFree()) {\n"
        "      ExprPtr corr = MakeNullSafeCorrelation(",
        "    if (true) {\n"
        "      ExprPtr corr = MakeNullSafeCorrelation("),
    Mutant(
        "M09", "set-op DISTINCT dropped without a duplicate-free operand",
        REWRITER,
        "      bool equivalent =\n"
        "          s->op() == SetOpAlgebra::kIntersect\n"
        "              ? (left.IsDuplicateFree() || "
        "right.IsDuplicateFree())\n"
        "              : left.IsDuplicateFree();\n",
        "      bool equivalent = true;\n"),
    Mutant(
        "M10", "Theorem 2 test skips inner key coverage",
        "src/analysis/subquery.cc",
        "    if (KeyCovered(table, bt.get->alias(), shift, bound, options, "
        "proof)) {\n",
        "    if (KeyCovered(table, bt.get->alias(), shift, bound, options, "
        "proof) ||\n"
        "        true) {\n"),
    Mutant(
        "M11", "FK join elimination skips the NOT NULL check", REWRITER,
        "          ok = ok && !source_def.schema().column(c).nullable;\n",
        "          (void)c;\n"),
    Mutant(
        "M12", "GROUP BY elimination without key cover", REWRITER,
        "    if (!covers_key) {\n",
        "    if (false) {\n"),
    Mutant(
        "M13", "GROUP BY elimination also collapses COUNT(col)", REWRITER,
        "          item.func != AggFunc::kMax) {\n",
        "          item.func != AggFunc::kMax && "
        "item.func != AggFunc::kCount) {\n"),
    Mutant(
        "M14", "proof record marks every key covered", ALGORITHM1,
        "        if (!bound.Contains(pos)) {\n"
        "          outcome.missing_columns.push_back(proof->NameOf(pos));\n",
        "        if (false) {\n"
        "          outcome.missing_columns.push_back(proof->NameOf(pos));\n"),
    Mutant(
        "M15", "Corollary 1 without a duplicate-free outer", REWRITER,
        "      if (outer.IsDuplicateFree()) {\n"
        "        PlanPtr after = rebuild_as_join(DuplicateMode::kDist);\n",
        "      if (true) {\n"
        "        PlanPtr after = rebuild_as_join(DuplicateMode::kDist);\n"),
    Mutant(
        "M16", "derived key of a product is the left key alone",
        "src/analysis/properties.cc",
        "      props.keys.push_back(kl.Union(kr.Shifted(left.width)));\n",
        "      props.keys.push_back(kl);\n"),
    Mutant(
        "M17", "CHECK-implied conjunct dropped on a nullable column",
        REWRITER,
        "      if (verdict == AtomVerdict::kImpliedForNonNull && "
        "column_not_null) {\n",
        "      if (verdict == AtomVerdict::kImpliedForNonNull) {\n"),
    Mutant(
        "M18", "<= classified as an equality", "src/expr/equality.cc",
        "      atom->compare_op() != CompareOp::kEq) {\n",
        "      (atom->compare_op() != CompareOp::kEq &&\n"
        "       atom->compare_op() != CompareOp::kLe)) {\n"),
    Mutant(
        "M19", "DISTINCT gate removes every DISTINCT it analyzes", REWRITER,
        "      if (verdict->distinct_unnecessary) {\n",
        "      if (true) {\n"),
    Mutant(
        "M20", "EXISTS->INTERSECT without a duplicate-free outer", REWRITER,
        "    if (!outer.IsDuplicateFree()) {\n"
        "      Rejected(RewriteRuleId::kExistsToIntersect);\n",
        "    if (false) {\n"
        "      Rejected(RewriteRuleId::kExistsToIntersect);\n"),
]


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def copy_tracked_tree(dest):
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=REPO, check=True,
                            stdout=subprocess.PIPE).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = REPO / rel
        if not src.is_file():  # deleted in the working tree
            continue
        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dest / rel)


def build(tree):
    return run(["cmake", "--build", "build", "--parallel", str(JOBS)], tree)


def failing_tests(tree):
    """Names of the failing ctest tests; None when ctest itself broke."""
    out = run(["ctest", "--test-dir", "build", "-j4", "--timeout", "120"],
              tree).stdout
    if "tests passed" not in out:
        return None
    failed = []
    if "The following tests FAILED:" in out:
        tail = out.split("The following tests FAILED:", 1)[1]
        failed = re.findall(r"^\s*\d+ - (\S+) \(", tail, re.MULTILINE)
    return failed


def run_mutant(tree, m):
    path = tree / m.path
    pristine = path.read_text()
    hits = pristine.count(m.original)
    if hits != 1:
        return "stale", [], f"original text found {hits} time(s)"
    path.write_text(pristine.replace(m.original, m.mutated))
    try:
        built = build(tree)
        if built.returncode != 0:
            return "build-failed", [], built.stdout[-2000:]
        failed = failing_tests(tree)
        if failed is None:
            return "build-failed", [], "ctest did not report a summary"
    finally:
        path.write_text(pristine)
    return ("killed" if failed else "survived"), failed, ""


def is_bad(m, verdict):
    if verdict in ("stale", "build-failed"):
        return True
    if m.sound:
        return verdict == "killed"
    return verdict == "survived"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", help="comma-separated mutant ids")
    parser.add_argument("--dry-run", action="store_true",
                        help="check that every patch applies, build nothing")
    args = parser.parse_args()

    mutants = MUTANTS
    if args.only:
        wanted = set(args.only.split(","))
        mutants = [m for m in MUTANTS if m.id in wanted]
        unknown = wanted - {m.id for m in mutants}
        if unknown:
            parser.error("unknown mutant id(s): " + ", ".join(sorted(unknown)))

    if args.dry_run:
        stale = []
        for m in mutants:
            hits = (REPO / m.path).read_text().count(m.original)
            state = "applies" if hits == 1 else f"stale ({hits} hit(s))"
            print(f"{m.id}  {state:<16} {m.path}: {m.description}")
            if hits != 1:
                stale.append(m.id)
        if stale:
            print("FAIL: stale mutant(s) " + ", ".join(stale) +
                  ": re-anchor each on the code it should mutate")
            return 1
        return 0

    tree = Path(tempfile.mkdtemp(prefix="kill_matrix."))
    try:
        copy_tracked_tree(tree)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configured = run(["cmake", "-S", ".", "-B", "build"] + generator,
                         tree)
        built = configured if configured.returncode else build(tree)
        if built.returncode != 0:
            print(built.stdout[-4000:])
            print("error: the unmutated tree does not build", file=sys.stderr)
            return 1
        baseline = failing_tests(tree)
        if baseline is None or baseline:
            print("error: the unmutated tree fails tests: "
                  f"{baseline}", file=sys.stderr)
            return 1

        print(f"{'id':<4} {'kind':<7} {'verdict':<12} {'fails':>5}  "
              f"{'verifier':<8}  mutant; first failing tests")
        bad = []
        for m in mutants:
            verdict, failed, note = run_mutant(tree, m)
            verifier = any(VERIFIER_TEST.search(t) for t in failed)
            detail = ", ".join(failed[:3]) or \
                (note.strip().splitlines() or [""])[-1]
            print(f"{m.id:<4} {'sound' if m.sound else 'unsound':<7} "
                  f"{verdict:<12} {len(failed):>5}  "
                  f"{'yes' if verifier else 'no':<8}  "
                  f"{m.description}; {detail}", flush=True)
            if is_bad(m, verdict):
                bad.append(m.id)
        if bad:
            print("FAIL: " + ", ".join(bad) + " (an unsound mutant survived, "
                  "the sound one was killed, or a mutant was stale or did "
                  "not build)")
            return 1
        print("OK: every unsound mutant is killed and the sound one survives")
        return 0
    finally:
        shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
