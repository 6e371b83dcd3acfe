"""Acceptance checks, one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
criterion.  Each test also prints the measured numbers it asserted on.
"""

import math
import random
import time

from tandemdup import (
    DuplicationSystem,
    avoidance_capacity,
    build_automaton,
    check_coverage,
    count_accepted,
    count_words,
    dedup_distance,
    dedup_roots,
    derives_from,
    empirical_capacity,
    enumerate_words,
    exact_capacity,
    language_upto,
    spectral_radius,
    tandem_duplicate,
    thue_square_free,
    transfer_matrix,
    verify_witness_absent,
    witness,
)
from helpers import SUPERSTATE, path_table_certificate, square_locations

D = DuplicationSystem.parse
TERNARY = D("012", "012", 3)


def test_criterion_01_capacity_and_spectral_radius():
    started = time.perf_counter()
    report = exact_capacity(TERNARY)
    rho = spectral_radius(transfer_matrix(build_automaton(TERNARY)))
    elapsed = time.perf_counter() - started
    assert abs(report.value - 0.876036) < 1e-6
    assert abs(report.value - math.log((3 + math.sqrt(5)) / 2, 3)) < 1e-12
    assert abs(rho - 2.6180340) < 1e-6
    assert elapsed < 1.0
    print(
        f"criterion 01 PASS: capacity {report.value:.7f}, radius {rho:.7f}, "
        f"{elapsed * 1000:.0f} ms"
    )


def test_criterion_02_automaton_equals_enumeration():
    cases = [
        ("01", "01", 2, 16),
        ("012", "012", 3, 12),
        ("012", "0112", 3, 12),
        ("0123", "0123", 3, 10),
    ]
    started = time.perf_counter()
    for alphabet, seed, kmax, depth in cases:
        sys = D(alphabet, seed, kmax)
        machine = build_automaton(sys)
        enumerated = enumerate_words(sys, depth).by_length
        accepted = language_upto(machine, depth)
        for n in range(len(seed), depth + 1):
            left = set(enumerated.get(n, ()))
            right = set(accepted.get(n, ()))
            assert left == right, (alphabet, seed, kmax, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 02 PASS: 4 systems agree at every length, {elapsed:.1f} s")


def test_criterion_03_binary_counts():
    sys = D("01", "01", 2)
    table = count_words(sys, 16).counts
    machine = build_automaton(sys)
    for n in range(2, 17):
        assert table[n] == 2 ** (n - 2)
        assert count_accepted(machine, n) == 2 ** (n - 2)
    print("criterion 03 PASS: both counters give 2^(n-2) for 2 <= n <= 16")


def test_criterion_04_capacity_special_cases():
    quaternary = exact_capacity(D("0123", "0123", 3))
    assert abs(quaternary.value - 0.694242) < 1e-6
    repeated = exact_capacity(D("012", "0112", 3))
    assert abs(repeated.value - math.log(2, 3)) < 1e-12
    assert abs(repeated.value - 0.630930) < 1e-6
    for alphabet in ("a", "ab", "abc"):
        flat = exact_capacity(D(alphabet, "aaaa", 3))
        assert flat.value == 0.0
    print(
        f"criterion 04 PASS: 0.694242 / 0.630930 / 0 cases "
        f"({quaternary.value:.6f}, {repeated.value:.6f})"
    )


def test_criterion_05_avoidance_capacity():
    from tandemdup import Alphabet

    value = avoidance_capacity(Alphabet("012"), ["210", "021", "102"])
    reference = exact_capacity(TERNARY).value
    assert abs(value - 0.914838) < 1e-4
    assert value > reference
    print(f"criterion 05 PASS: avoidance {value:.6f} > capacity {reference:.6f}")


def test_criterion_06_ternary_negative_expressiveness():
    missing = check_coverage(TERNARY, 3, 12)
    assert missing == {"021", "102", "210"}
    w = witness(TERNARY).word
    assert w == "01210121012101210"
    assert not square_locations(w, 3)
    # the word echoes nothing across either boundary
    assert w[0] != w[2] and w[0] != w[3]
    assert w[-1] != w[-3] and w[-1] != w[-4]
    assert verify_witness_absent(TERNARY, w, 14)
    # a shorter absent window keeps the depth-14 sweep honest
    assert verify_witness_absent(TERNARY, "01210", 14)
    print("criterion 06 PASS: coverage gap {021,102,210}, witness checks out to N=14")


def test_criterion_07_ternary_k4_positive():
    sys4 = D("012", "012", 4)
    assert check_coverage(sys4, 3, 12) == set()
    assert check_coverage(sys4, 4, 14) == set()
    chains = [
        ["012", "01212", "012101212"],
        ["012", "012012", "01202012", "012021202012"],
        ["012", "012012", "01202012", "012020102012"],
    ]
    windows = ["210", "021", "102"]
    for chain, window in zip(chains, windows):
        for earlier, later in zip(chain, chain[1:]):
            steps = [
                (i, k)
                for k in range(1, 5)
                for i in range(0, len(earlier) - k + 1)
                if tandem_duplicate(earlier, i, k) == later
            ]
            assert steps, (earlier, later)
            assert derives_from(sys4, later)
        assert window in chain[-1]
    print("criterion 07 PASS: full coverage and all three generation chains replay")


def test_criterion_08_closure_certificate():
    from tandemdup import verify_duplication_closure

    machine = build_automaton(TERNARY)
    certificate = verify_duplication_closure(machine, 3)
    assert certificate.passed
    assert machine.accepts("012")
    # the label walk: "012" arrives as a length-3 label that does not cycle,
    # and the states it arrives at are closed only through a superstate
    oracle = path_table_certificate(machine, 3)
    deep = {u for (u, j), (verdict, fallbacks, _) in oracle.items()
            if j == 3 and verdict == SUPERSTATE and "012" in fallbacks}
    assert deep
    print(
        f"criterion 08 PASS: closure certified, {len(deep)} states "
        f"lean on a superstate for the length-3 label 012"
    )


def test_criterion_09_dedup():
    result = dedup_roots("012101212", 4)
    assert result.roots == {"012", "0121012"}
    assert dedup_distance("012101212", "012", 4) == 2
    print("criterion 09 PASS: roots {012, 0121012}, distance 2")


def test_criterion_10_square_free_generator():
    word = thue_square_free(1000)
    assert len(word) == 1000
    assert not square_locations(word)
    rng = random.Random(1000)
    for _ in range(200):
        n = rng.randint(1, 1000)
        prefix = thue_square_free(n)
        assert prefix == word[:n]
        assert not square_locations(prefix, 3)
    print("criterion 10 PASS: 1000-symbol word is square-free, prefixes stable")


def test_criterion_11_symbol_gap_invariant():
    rng = random.Random(2026)
    checked = 0
    for _ in range(500):
        m = rng.randint(2, 6)
        kmax = rng.randint(1, 3)
        seed = "012345"[:m]
        word = seed
        for _ in range(rng.randint(0, 20)):
            k = rng.randint(1, min(kmax, len(word)))
            i = rng.randint(0, len(word) - k)
            word = tandem_duplicate(word, i, k)
        for i in range(m - kmax):
            a, b = seed[i], seed[i + kmax]
            last_a = max(j for j, c in enumerate(word) if c == a)
            first_b = min(j for j, c in enumerate(word) if c == b)
            assert last_a < first_b, (seed, kmax, word)
            assert first_b - last_a - 1 >= kmax - 1, (seed, kmax, word)
            checked += 1
    print(f"criterion 11 PASS: 500 random derivations, {checked} symbol pairs checked")


def test_supplementary_empirical_ratio_band():
    table = count_words(TERNARY, 14)
    estimate = empirical_capacity(table)
    target = exact_capacity(TERNARY).value
    assert abs(estimate.estimate - target) < 0.05
    print(
        f"supplementary PASS: window mean {estimate.estimate:.5f} within 0.05 "
        f"of {target:.5f} at N=14"
    )
