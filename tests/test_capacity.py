import math
import random

import numpy as np
import pytest

from tandemdup import (
    ABC_BLOCK_GROWTH,
    Alphabet,
    DuplicationSystem,
    EmptyLanguageError,
    InsufficientDataError,
    UnsupportedDuplicationLength,
    avoidance_capacity,
    build_automaton,
    count_words,
    empirical_capacity,
    exact_capacity,
    spectral_capacity,
    spectral_radius,
    transfer_matrix,
)
from tandemdup import capacity
from tandemdup.automaton import avoidance_automaton
from helpers import canonical_patterns, window_graph

GOLDEN = (1 + math.sqrt(5)) / 2

# adjacency of block overlaps for three distinct symbols, unit weights
BLOCK_MATRIX = np.array(
    [
        [1, 1, 0, 1, 0, 0],
        [0, 1, 1, 0, 1, 0],
        [1, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
    ],
    dtype=np.int64,
)


class TestSpectralRadius:
    def test_block_overlap_matrix(self):
        rho = spectral_radius(BLOCK_MATRIX)
        assert abs(rho - ABC_BLOCK_GROWTH) < 1e-9
        assert abs(rho - (3 + math.sqrt(5)) / 2) < 1e-9

    def test_against_numpy_eigenvalues(self):
        rng = np.random.default_rng(20260816)
        for _ in range(20):
            m = rng.uniform(0, 2, size=(5, 5))
            want = max(abs(v) for v in np.linalg.eigvals(m))
            assert abs(spectral_radius(m) - want) < 1e-7

    @pytest.mark.parametrize(
        "matrix,expected",
        [
            ([[0]], 0.0),
            ([[0, 0], [0, 0]], 0.0),
            ([[2, 0], [0, 3]], 3.0),
            ([[1, 5], [0, 2]], 2.0),
            ([[0, 1], [1, 0]], 1.0),
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1.0),
            ([[0, 2], [3, 0]], math.sqrt(6)),
            ([[1, 1], [1, 1]], 2.0),
        ],
    )
    def test_structured_cases(self, matrix, expected):
        assert abs(spectral_radius(np.array(matrix, dtype=float)) - expected) < 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spectral_radius(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, -1.0], [0.0, 1.0]]))
        nan, inf = float("nan"), float("inf")
        for matrix in ([[nan]], [[0, nan], [0, 0]], [[1, inf], [1, 1]]):
            with pytest.raises(ValueError, match="finite"):
                spectral_radius(matrix)

    def test_empty_matrix_has_radius_zero(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("tol", [-1e-10, float("nan")])
    def test_rejects_a_tolerance_no_estimate_can_meet(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            spectral_radius(BLOCK_MATRIX, tol)

    def test_power_method_runs_once_per_distinct_block(self, monkeypatch):
        # a transient state, which leads into every block, then three copies
        # of one block and a different one
        blocks = [np.zeros((1, 1))] + [BLOCK_MATRIX] * 3 + [np.ones((2, 2), dtype=np.int64)]
        n = sum(map(len, blocks))
        m = np.zeros((n, n))
        at = 0
        for block in blocks:
            m[at : at + len(block), at : at + len(block)] = block
            m[0, at] = at > 0
            at += len(block)
        want = max(capacity._power_radius(np.asarray(b, dtype=float), 1e-10) for b in blocks[1:])
        real, calls = capacity._power_radius, []

        def counted(block, tol):
            calls.append(len(block))
            return real(block, tol)

        monkeypatch.setattr(capacity, "_power_radius", counted)
        rho = spectral_radius(m)
        assert sorted(calls) == [2, 6]
        assert rho == want
        assert abs(rho - max(abs(np.linalg.eigvals(m)))) < 1e-9


def _radius_block_by_block(matrix, tol=1e-10):
    """`spectral_radius` with one power iteration for every block, the
    reference for its reuse of equal blocks."""
    m = np.asarray(matrix, dtype=float)
    adjacency = [list(np.nonzero(row)[0]) for row in m]
    best = 0.0
    for group in capacity._sccs(adjacency):
        block = m[np.ix_(group, group)]
        single = len(group) == 1
        best = max(best, float(block[0, 0]) if single else capacity._power_radius(block, tol))
    return best


@pytest.mark.parametrize("kmax", [2, 3])
def test_spectral_capacity_reuses_blocks_exactly(kmax):
    for pattern in canonical_patterns(6):
        system = DuplicationSystem.parse("0123", pattern, kmax)
        matrix = transfer_matrix(build_automaton(system, minimize=True))
        want = math.log(_radius_block_by_block(matrix)) / math.log(system.base)
        assert spectral_capacity(system) == want, pattern


class TestExactCapacity:
    @pytest.mark.parametrize(
        "alphabet,seed,kmax,case,value,form",
        [
            ("0", "00", 2, "unary-seed", 0.0, "0"),
            ("01", "01", 1, "binary-k1", 0.0, "0"),
            ("01", "01", 2, "two-symbol", 1.0, "log_2(2)"),
            ("012", "012", 2, "two-symbol", math.log(2, 3), "log_3(2)"),
            ("012", "0112", 3, "two-symbol", math.log(2, 3), "log_3(2)"),
            (
                "012",
                "012",
                3,
                "abc-substring",
                math.log((3 + math.sqrt(5)) / 2, 3),
                "log_3((3+sqrt(5))/2)",
            ),
            (
                "0123",
                "0123",
                3,
                "abc-substring",
                math.log((3 + math.sqrt(5)) / 2, 4),
                "log_4((3+sqrt(5))/2)",
            ),
        ],
    )
    def test_case_ladder(self, alphabet, seed, kmax, case, value, form):
        report = exact_capacity(DuplicationSystem.parse(alphabet, seed, kmax))
        assert report.case == case
        assert report.exact_form == form
        assert abs(report.value - value) < 1e-12
        assert report.base == len(alphabet)

    def test_pinned_numbers(self):
        r3 = exact_capacity(DuplicationSystem.parse("012", "012", 3))
        assert abs(r3.value - 0.8760357589718848) < 1e-12
        r4 = exact_capacity(DuplicationSystem.parse("0123", "0123", 3))
        assert abs(r4.value - 0.694242) < 1e-6

    def test_large_kmax_is_out_of_scope(self):
        with pytest.raises(UnsupportedDuplicationLength):
            exact_capacity(DuplicationSystem.parse("012", "012", 4))

    def test_json_shape(self):
        doc = exact_capacity(DuplicationSystem.parse("012", "012", 3)).to_json_dict()
        assert set(doc) == {"value", "base", "case", "exactForm"}

    def test_abc_needs_the_window_in_the_seed(self):
        # 0/1 alternation never shows three distinct symbols in a row
        report = exact_capacity(DuplicationSystem.parse("012", "0101", 3))
        assert report.case == "two-symbol"


def test_block_growth_constant():
    assert abs(ABC_BLOCK_GROWTH - (3 + math.sqrt(5)) / 2) < 1e-15


@pytest.mark.parametrize("kmax", [1, 2, 3])
def test_spectral_capacity_matches_closed_forms(kmax):
    """The measured growth of every small machine equals the formula."""
    for pattern in canonical_patterns(4, max_symbols=4):
        alpha = "".join(sorted(set(pattern)))
        system = DuplicationSystem.parse(alpha, pattern, kmax)
        exact = exact_capacity(system)
        assert abs(exact.value - spectral_capacity(system)) < 1e-8, pattern


def test_spectral_capacity_pinned(ternary_system, quaternary_system):
    assert abs(spectral_capacity(ternary_system) - 0.876036) < 1e-6
    assert abs(spectral_capacity(quaternary_system) - 0.694242) < 1e-6


class TestAvoidance:
    def test_nothing_forbidden(self):
        assert avoidance_capacity(Alphabet("01"), []) == 1.0

    def test_nothing_forbidden_over_one_symbol(self):
        assert avoidance_capacity(Alphabet("0"), []) == 1.0

    def test_forbidding_everything(self):
        with pytest.raises(EmptyLanguageError):
            avoidance_capacity(Alphabet("01"), ["00", "01", "10", "11"])

    def test_golden_ratio_anchor(self):
        # words without 11 are counted by Fibonacci numbers
        got = avoidance_capacity(Alphabet("01"), ["11"])
        assert abs(got - math.log(GOLDEN, 2)) < 1e-6
        assert abs(avoidance_capacity(Alphabet("01"), ["00"]) - got) < 1e-9

    def test_three_window_value(self):
        got = avoidance_capacity(Alphabet("012"), ["210", "021", "102"])
        assert abs(got - 0.914838) < 1e-4

    def test_short_patterns_rejected(self):
        with pytest.raises(ValueError):
            avoidance_capacity(Alphabet("01"), ["0"])

    def test_foreign_symbols_rejected(self):
        with pytest.raises(ValueError):
            avoidance_capacity(Alphabet("01"), ["12"])


def _eigen_radius(matrix):
    m = np.asarray(matrix, dtype=float)
    return float(max(abs(np.linalg.eigvals(m)))) if m.size else 0.0


def test_trie_machine_has_the_window_graph_radius():
    # a nonnegative integer matrix has radius 0 or at least 1, so 0.5
    # separates the empty languages without trusting eigvals near 0
    rng = random.Random(15)
    empty = 0
    for _ in range(200):
        alphabet = rng.choice(["01", "012", "0123"])
        forbidden = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 5)))
            for _ in range(rng.randint(1, 4))
        ]
        case = (alphabet, forbidden)
        window = _eigen_radius(window_graph(alphabet, forbidden))
        machine = avoidance_automaton(Alphabet(alphabet), forbidden)
        trie = _eigen_radius(transfer_matrix(machine))
        if window < 0.5:
            empty += 1
            assert trie < 0.5, case
            with pytest.raises(EmptyLanguageError):
                avoidance_capacity(Alphabet(alphabet), forbidden)
        else:
            assert abs(trie - window) < 1e-9, case
            avoidance_capacity(Alphabet(alphabet), forbidden)
    # the sweep reaches both sides
    assert 0 < empty < 200


class TestEmpirical:
    def test_tracks_the_true_capacity(self, ternary_system):
        table = count_words(ternary_system, 12)
        est = empirical_capacity(table)
        assert abs(est.estimate - 0.876036) < 0.05
        assert est.window == 5

    def test_ratios_climb_toward_the_limit(self, ternary_system):
        table = count_words(ternary_system, 13)
        est = empirical_capacity(table)
        tail = [est.ratios[n] for n in sorted(est.ratios) if n >= 9]
        assert tail == sorted(tail)
        assert all(r < 0.8760358 for r in tail)

    def test_binary_estimate_is_exactly_one(self, binary_system):
        est = empirical_capacity(count_words(binary_system, 10))
        assert abs(est.estimate - 1.0) < 1e-12

    def test_one_symbol_alphabet_grows_at_rate_zero(self):
        unary = DuplicationSystem.parse("0", "0", 2)
        est = empirical_capacity(count_words(unary, 6))
        assert est.ratios == {n: 0.0 for n in range(1, 6)}
        assert est.estimate == 0.0 == exact_capacity(unary).value == spectral_capacity(unary)

    def test_sparse_counts_are_rejected(self, ternary_system):
        from tandemdup.enumeration import CountTable

        sparse = CountTable(ternary_system, 7, {3: 1, 5: 2, 7: 4})
        with pytest.raises(InsufficientDataError):
            empirical_capacity(sparse)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_must_be_positive(self, ternary_system, window):
        with pytest.raises(ValueError, match="window must be at least 1"):
            empirical_capacity(count_words(ternary_system, 10), window=window)

    def test_json_shape(self, ternary_system):
        doc = empirical_capacity(count_words(ternary_system, 10)).to_json_dict()
        assert doc["case"] == "empirical"
        assert {"value", "window", "ratios"} <= set(doc)
