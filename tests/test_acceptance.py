"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Census counts, Smith normal forms and sandpile structures are checked by
exact integer equality; eigenvalue bound sweeps use the documented
tolerance 1e-9 * (1 + matrix max-norm), which is the library default.
"""

import random

import pytest

from graphinv import verify
from graphinv.census import completeness_check, run_census, tree_census
from graphinv.exact import charpoly, snf
from graphinv.generators import generate_connected_graphs
from graphinv.matrices import MatrixKind
from graphinv.spectra import (
    THIRD_MOMENT_EXPANSION,
    THIRD_MOMENT_UNIT_MIXED,
    GraphSpectra,
    check_moments,
)

from oracles import charpoly_cofactor, minor_gcd

NEW_KINDS = (MatrixKind.Atr, MatrixKind.AtrPlus, MatrixKind.Ddeg, MatrixKind.DdegPlus)
CLASSICAL_KINDS = (MatrixKind.A, MatrixKind.L, MatrixKind.Q,
                   MatrixKind.D, MatrixKind.DL, MatrixKind.DQ)

CORPUS_TOTALS = {4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, **CORPUS_TOTALS}  # OEIS A001349
TREE_COUNTS = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}  # A000055

TABLE_NEW = {
    ("Atr", "spectral"): {4: 0, 5: 2, 6: 6, 7: 38, 8: 413},
    ("AtrPlus", "spectral"): {4: 0, 5: 0, 6: 0, 7: 43, 8: 728},
    ("Ddeg", "spectral"): {4: 0, 5: 2, 6: 6, 7: 40, 8: 485},
    ("DdegPlus", "spectral"): {4: 0, 5: 0, 6: 0, 7: 61, 8: 901},
    ("Atr", "invariant"): {4: 0, 5: 2, 6: 4, 7: 22, 8: 240},
    ("AtrPlus", "invariant"): {4: 0, 5: 0, 6: 0, 7: 16, 8: 456},
    ("Ddeg", "invariant"): {4: 2, 5: 2, 6: 6, 7: 34, 8: 538},
    ("DdegPlus", "invariant"): {4: 2, 5: 11, 6: 46, 7: 495, 8: 7169},
}

TABLE_CLASSICAL = {
    ("A", "spectral"): {4: 0, 5: 0, 6: 2, 7: 63, 8: 1353},
    ("L", "spectral"): {4: 0, 5: 0, 6: 4, 7: 115, 8: 1611},
    ("Q", "spectral"): {4: 0, 5: 2, 6: 10, 7: 80, 8: 1047},
    ("D", "spectral"): {4: 0, 5: 0, 6: 0, 7: 22, 8: 658},
    ("DL", "spectral"): {4: 0, 5: 0, 6: 0, 7: 43, 8: 745},
    ("DQ", "spectral"): {4: 0, 5: 2, 6: 6, 7: 38, 8: 453},
    ("A", "invariant"): {4: 4, 5: 20, 6: 112, 7: 853, 8: 11117},
    ("L", "invariant"): {4: 2, 5: 8, 6: 57, 7: 526, 8: 8027},
    ("Q", "invariant"): {4: 2, 5: 11, 6: 78, 7: 620, 8: 7962},
    ("D", "invariant"): {4: 2, 5: 15, 6: 102, 7: 835, 8: 11080},
    ("DL", "invariant"): {4: 0, 5: 0, 6: 0, 7: 18, 8: 455},
    ("DQ", "invariant"): {4: 0, 5: 2, 6: 4, 7: 20, 8: 259},
}

TREE_DDEGPLUS_IN = {9: 2, 10: 6, 11: 20, 12: 46, 13: 148}


def _report(criterion: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {criterion}: {label}")
    assert not failures, failures[:10]


@pytest.fixture(scope="module")
def full_census():
    kinds = CLASSICAL_KINDS + NEW_KINDS
    return {
        n: run_census(generate_connected_graphs(n), kinds)
        for n in range(4, 9)
    }


def test_criterion_01_new_matrix_census(full_census):
    failures = []
    for n in range(4, 9):
        report = full_census[n]
        if report.total != CORPUS_TOTALS[n]:
            failures.append(f"n={n}: corpus size {report.total} != {CORPUS_TOTALS[n]}")
        for (kind_name, mode), per_n in TABLE_NEW.items():
            got = report.get(MatrixKind[kind_name], mode).mate_count
            if got != per_n[n]:
                failures.append(f"n={n} {kind_name}/{mode}: {got} != {per_n[n]}")
    _report(1, "census counts for Atr, AtrPlus, Ddeg, DdegPlus at n=4..8", failures)


def test_criterion_02_classical_matrix_census(full_census):
    failures = []
    for n in range(4, 9):
        report = full_census[n]
        for (kind_name, mode), per_n in TABLE_CLASSICAL.items():
            got = report.get(MatrixKind[kind_name], mode).mate_count
            if got != per_n[n]:
                failures.append(f"n={n} {kind_name}/{mode}: {got} != {per_n[n]}")
    _report(2, "census counts for A, L, Q, D, DL, DQ at n=4..8", failures)


def test_criterion_03_tree_censuses():
    failures = []
    for n in range(4, 15):
        report = tree_census(n, NEW_KINDS)
        vals = {(e.kind, e.mode): e.mate_count for e in report.entries}
        for kind in (MatrixKind.Ddeg, MatrixKind.DdegPlus, MatrixKind.Atr):
            if vals[(kind, "spectral")] != 0:
                failures.append(f"n={n} sp({kind.value}) = {vals[(kind, 'spectral')]} != 0")
        for kind in (MatrixKind.Atr, MatrixKind.AtrPlus):
            if vals[(kind, "invariant")] != 0:
                failures.append(f"n={n} in({kind.value}) = {vals[(kind, 'invariant')]} != 0")
        want_plus = TREE_DDEGPLUS_IN.get(n, 0 if n <= 8 else None)
        if want_plus is not None and vals[(MatrixKind.DdegPlus, "invariant")] != want_plus:
            failures.append(
                f"n={n} in(DdegPlus) = {vals[(MatrixKind.DdegPlus, 'invariant')]} != {want_plus}"
            )
        want_minus = 2 if n == 14 else 0
        if vals[(MatrixKind.Ddeg, "invariant")] != want_minus:
            failures.append(
                f"n={n} in(Ddeg) = {vals[(MatrixKind.Ddeg, 'invariant')]} != {want_minus}"
            )
    _report(3, "tree censuses for n <= 14", failures)


@pytest.fixture(scope="module")
def closed_forms():
    """verify's closed-forms suite at n_max = 30: (objects, checks, failure lines by
    criterion), the cricket's to 4, C5's to 5, the shift identities' to 9, others to 6."""
    objects, checks, failures = verify.run(["closed-forms"], 30)["closed-forms"]
    owner = {"cricket": 4, "C5": 5, "shift": 9}
    return objects, checks, {c: [line for line in failures if owner.get(line.split()[0], 6) == c]
                             for c in (4, 5, 6, 9)}


def test_criterion_04_cricket_cone_example(closed_forms):
    _report(4, "cricket cone: SNF (1,1,1,7,812), group Z_7 + Z_812, tau 5684", closed_forms[2][4])


def test_criterion_05_cycle5_example_set(closed_forms):
    _report(5, "five-cycle SNFs for A, L, Atr, AtrPlus", closed_forms[2][5])


def test_criterion_06_closed_form_oracles(closed_forms):
    cases, comparisons, by_criterion = closed_forms
    failures = list(by_criterion[6])
    if {(2 * m + 1) % 3 == 0 for m in range(1, 31)} != {True, False}:
        failures.append("divisibility branches not both exercised")
    trees = sum(TREE_COUNTS.values())
    # objects: K2..K30, stars m = 1..30, the trees, C3..C12, Petersen, 3 examples; checks:
    # 6 kinds per complete graph plus 2 shift records on K2..K8, 2 kinds per star, SNF and
    # determinant per tree, 2 shift records per cycle and Petersen, 3 + 4 + 1 example values
    want = (29 + 30 + trees + 10 + 1 + 3,
            6 * 29 + 2 * 7 + 2 * 30 + 2 * trees + 2 * 10 + 2 + 8)
    if (cases, comparisons) != want:
        failures.append(f"(cases, comparisons) = {(cases, comparisons)} != {want}")
    _report(6, "closed forms agree with direct SNF (complete n<=30, stars m<=30, trees n<=12)", failures)


def test_criterion_07_complete_graphs_unique_snf():
    failures = []
    for n in range(1, 9):
        for kind, unique in zip(NEW_KINDS, completeness_check(n, NEW_KINDS)):
            if not unique:
                failures.append(f"n={n} kind={kind.value}")
    _report(7, "complete-graph invariant fingerprints unique for n <= 8", failures)


def test_criterion_08_bound_property_suite():
    graphs_checked, records, failures = verify.run(["bounds"], 7)["bounds"]
    if graphs_checked < 992:
        failures.append(f"only {graphs_checked} graphs checked")
    # per graph: 4 extreme, 2 lambda_1, 2 conductance and 2n Weyl records
    want = sum((8 + 2 * n) * CONNECTED_COUNTS[n] for n in range(2, 8))
    if records != want:
        failures.append(f"{records} inequality records read, not {want}")
    _report(8, f"eigenvalue bounds hold on all {graphs_checked} connected graphs with n <= 7", failures)


def test_criterion_09_shift_identities(closed_forms):
    _report(9, "shift identities on cycles (n<=12), complete graphs (n<=8), Petersen", closed_forms[2][9])


def test_criterion_10_exact_algebra_suite():
    failures = []
    rng = random.Random(20240817)

    def random_matrix(n, bound=9):
        return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]

    # SNF structure on random matrices
    for _ in range(150):
        n = rng.randint(1, 6)
        m = random_matrix(n)
        res = snf(m)
        for a, b in zip(res.factors, res.factors[1:]):
            if b % a:
                failures.append(f"divisibility chain broken: {res.factors}")
        if snf([[-x for x in row] for row in m]) != res:
            failures.append("SNF(-M) != SNF(M)")
        perm = list(range(n))
        rng.shuffle(perm)
        pm = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        if snf(pm) != res:
            failures.append("SNF not permutation invariant")

    # minor-gcd oracle
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_matrix(n, bound=6)
        res = snf(m)
        prod = 1
        for k, f in enumerate(res.factors, start=1):
            prod *= f
            if prod != minor_gcd(m, k):
                failures.append(f"minor gcd mismatch at k={k}")

    # characteristic polynomial vs cofactor oracle
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(n)
        if charpoly(m).coeffs != charpoly_cofactor(m):
            failures.append("charpoly disagrees with cofactor oracle")

    # exact moment identities over all connected graphs with n <= 6
    total, records, moment_failures = verify.run(["moments"], 6)["moments"]
    failures += moment_failures
    if (total, records) != (sum(CONNECTED_COUNTS[n] for n in range(1, 7)), 3 * total):
        failures.append(f"moments suite read {records} records on {total} graphs")
    expansion_holds = total - sum(THIRD_MOMENT_EXPANSION in line for line in moment_failures)
    unit_mixed_holds = sum(
        check_moments(GraphSpectra(g)).by_name(THIRD_MOMENT_UNIT_MIXED).holds
        for n in range(1, 7) for g in generate_connected_graphs(n)
    )
    if expansion_holds != total:
        failures.append(f"expansion-form third moment held on {expansion_holds}/{total}")
    print(
        f"third-moment identity: '{THIRD_MOMENT_EXPANSION}' holds on "
        f"{expansion_holds}/{total} graphs; '{THIRD_MOMENT_UNIT_MIXED}' holds on "
        f"{unit_mixed_holds}/{total}"
    )
    _report(10, "exact-algebra property suite (SNF structure, oracles, trace moments)", failures)
