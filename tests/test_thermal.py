"""Thermal memories: Hamiltonians, Gibbs states, sector grouping, c_max."""

import hashlib
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from semibroadcast import config, thermal
from semibroadcast.errors import DimensionMismatch

E_INV = math.exp(-1.0)
W0 = 1.0 / (1.0 + E_INV)  # 0.7310585786300049
W1 = 1.0 - W0

# frozen from the closed form (1 + 3 e^-1) / (1 + e^-1)^3 and an
# explicit 8-level enumeration oracle
CMAX_3_1 = 0.8219163263029533
# frozen from a 50-digit arbitrary-precision class-sum oracle
CMAX_25_1 = 0.99335246451913707
CMAX_101_025 = 0.8957530713949127
CMAX_11_01 = 0.5673390032803908


def dense_cmax(n, beta_omega, d_s=2):
    """Independent oracle: sort all 2^n Boltzmann weights, sum the top 2^n/d_s."""
    energies = np.array([bin(i).count("1") for i in range(2**n)], dtype=float)
    w = np.exp(-beta_omega * energies)
    w /= w.sum()
    return float(np.sort(w)[::-1][: 2**n // d_s].sum())


# ------------------------------------------------------------- hamiltonians


def test_single_qubit_hamiltonian():
    h = thermal.qubit_chain_hamiltonian(1, omega=2.5)
    assert h.dim == 2
    assert np.allclose(h.absolute_energies(), [0.0, 2.5])


def test_chain_multiplicities_are_binomial():
    h = thermal.qubit_chain_hamiltonian(3)
    counts = {m: int(np.sum(h.energies == m)) for m in range(4)}
    assert counts == {m: math.comb(3, m) for m in range(4)}


def test_chain_energy_of_each_level_counts_excitations():
    h = thermal.qubit_chain_hamiltonian(4, omega=0.5)
    for level in range(16):
        assert h.absolute_energies()[level] == 0.5 * bin(level).count("1")


@pytest.mark.parametrize("n", range(1, 13))
def test_chain_energies_equal_the_popcount_of_each_level(n):
    h = thermal.qubit_chain_hamiltonian(n)
    assert h.energies.tolist() == [bin(i).count("1") for i in range(2**n)]


def test_product_hamiltonian_adds_energies():
    a = thermal.qubit_chain_hamiltonian(1)
    b = thermal.qubit_chain_hamiltonian(2)
    prod = thermal.product_hamiltonian([a, b])
    assert prod.dim == 8
    expected = np.add.outer(a.absolute_energies(), b.absolute_energies()).ravel()
    assert np.allclose(prod.absolute_energies(), expected)


def test_hamiltonian_rejects_empty_spectrum():
    with pytest.raises(DimensionMismatch):
        thermal.MemoryHamiltonian([])
    for energies, scale in (([0.0, np.inf], 1.0), ([0.0, np.nan], 1.0), ([0.0, 1.0], 0.0), ([0.0, 1.0], np.inf)):
        with pytest.raises(DimensionMismatch, match="finite"):
            thermal.MemoryHamiltonian(energies, scale)
    with pytest.raises(DimensionMismatch, match="at least one qubit"):
        thermal.qubit_chain_hamiltonian(0)
    with pytest.raises(DimensionMismatch, match="at least one part"):
        thermal.product_hamiltonian([])
    h = thermal.qubit_chain_hamiltonian(1)
    for beta in (-1.0, np.inf, np.nan):
        with pytest.raises(DimensionMismatch, match="beta must be finite"):
            thermal.gibbs(h, beta)
    with pytest.raises(DimensionMismatch, match="state dim 2 != grouping dim 4"):
        thermal.c_max(thermal.group_energies(thermal.qubit_chain_hamiltonian(2), 2), thermal.gibbs(h, 1.0))


# ------------------------------------------------------------- gibbs states


def test_gibbs_qubit_weights():
    tau = thermal.gibbs(thermal.qubit_chain_hamiltonian(1), beta=1.0)
    assert tau.probs == pytest.approx([W0, W1], abs=1e-15)
    assert np.allclose(tau.state.matrix, np.diag([W0, W1]))


def test_gibbs_log_partition_function():
    tau = thermal.gibbs(thermal.qubit_chain_hamiltonian(1), beta=1.0)
    assert tau.log_z == pytest.approx(math.log(1.0 + E_INV), abs=1e-15)


def test_gibbs_mean_energy():
    tau = thermal.gibbs(thermal.qubit_chain_hamiltonian(1), beta=1.0)
    assert tau.mean_energy() == pytest.approx(W1, abs=1e-15)


def test_gibbs_at_infinite_temperature_is_uniform():
    tau = thermal.gibbs(thermal.qubit_chain_hamiltonian(3), beta=0.0)
    assert np.allclose(tau.probs, np.full(8, 1.0 / 8.0))


def test_gibbs_is_extremely_cold_at_large_beta():
    tau = thermal.gibbs(thermal.qubit_chain_hamiltonian(1), beta=60.0)
    assert tau.probs[0] == pytest.approx(1.0, abs=1e-15)
    assert tau.probs[1] < 1e-25


def test_gibbs_handles_large_energies_without_overflow():
    h = thermal.MemoryHamiltonian([0.0, 500.0, 1000.0])
    tau = thermal.gibbs(h, beta=2.0)
    assert np.all(np.isfinite(tau.probs))
    assert tau.probs.sum() == pytest.approx(1.0)


def test_gibbs_refuses_a_beta_that_takes_every_weight_out_of_the_float_range():
    # -beta E overflows on every level, or to +inf on one: ln Z is not finite and the populations
    # would be nan.  A level at 0 keeps a finite ln Z, and its row keeps its bits in a stack
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for energies in ([2.0, 3.0, 4.0, 5.0], [-2.0, 3.0]):
            with pytest.raises(DimensionMismatch, match="float range"):
                thermal.gibbs(thermal.MemoryHamiltonian(energies), 1e308)
        with pytest.raises(DimensionMismatch, match="float range"):
            thermal.gibbs_rows(np.array([[0.0, 1.0], [2.0, 3.0]]), [1e308, 1e308])
        tau = thermal.gibbs(thermal.MemoryHamiltonian([0.0, 3.0]), 1e308)
        assert tau.probs.tolist() == [1.0, 0.0] and tau.log_z == 0.0
    energies = np.array([[0.0, 0.7, 1.2], [0.0, 0.5, 0.5]])
    rows = thermal.gibbs_rows(energies, [1e308, 2.0])
    alone = thermal.gibbs_rows(energies[1:], [2.0])
    assert rows.probs[1].tobytes() == alone.probs[0].tobytes() and rows.log_z[1] == alone.log_z[0]


def test_gibbs_with_ln_z_near_the_float_maximum_warns_nothing():
    # at beta = 1, ln Z is 1e308: -beta E - ln Z overflows to -inf on the level at 1e308, a population of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = thermal.gibbs(thermal.MemoryHamiltonian([0.0, 1e308, -1e308]), 1.0)
    assert tau.probs.tolist() == [0.0, 0.0, 1.0] and tau.log_z == 1e308


def test_gibbs_probs_ordering_follows_energies():
    h = thermal.MemoryHamiltonian([0.3, 0.0, 1.2, 0.7])
    tau = thermal.gibbs(h, beta=1.5)
    assert np.argmax(tau.probs) == 1
    assert np.argmin(tau.probs) == 2


# ---------------------------------------------------------------- log-sum-exp


def assert_segments_are_scipys(a, lengths):
    """Each segment's log-sum-exp from the kernel is scipy's on that segment alone, bit for bit."""
    a = np.asarray(a, dtype=float)
    got = thermal._segment_logsumexp(a, np.asarray(lengths))
    want = [float(scipy.special.logsumexp(seg)) for seg in np.split(a, np.cumsum(lengths)[:-1])]
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=8),
    st.sampled_from([1e-3, 1.0, 30.0, 300.0, 1e4]),
    st.integers(min_value=0, max_value=400),
)
def test_logsumexp_is_bit_identical_to_scipy(seed, lengths, spread, ties):
    # random segments between a length-1 segment at each end, each with its own offset and
    # forced ties at its maximum
    rng = np.random.default_rng(seed)
    lengths = [1, *lengths, 1]
    a = spread * rng.standard_normal(sum(lengths)) + np.repeat(rng.uniform(-50.0, 50.0, len(lengths)), lengths)
    for seg in np.split(a, np.cumsum(lengths)[:-1]):  # views into a
        seg[rng.integers(seg.size, size=min(ties, seg.size))] = seg.max()
    assert_segments_are_scipys(a, lengths)


def test_gibbs_rows_take_each_ln_z_as_scipy_takes_its_row():
    rng = np.random.default_rng(11)
    energies = np.cumsum(rng.uniform(0.0, 2.0, (64, 12)), axis=1)
    beta = np.concatenate([[0.0, 745.0], rng.uniform(0.0, 40.0, 62)])
    log_z = thermal.gibbs_rows(energies, beta).log_z
    want = [float(scipy.special.logsumexp(-b * e)).hex() for b, e in zip(beta, energies)]
    assert [v.hex() for v in log_z.tolist()] == want


EDGE_CASES = [[0.0], [-3.7], [712.5], [2.5] * 7, [-1e300] * 3, [0.0, -800.0], [5.0, 5.0, -745.0, 4.0]]


@pytest.mark.parametrize(
    "a", EDGE_CASES, ids=["one-zero", "one-negative", "one-large", "all-equal", "all-equal-tiny", "underflow", "ties"]
)
def test_logsumexp_edge_cases_are_bit_identical_to_scipy(a):
    # a single element or all elements equal leave s = 0: the result is log(m) + a_max.  The case
    # alone, between length-1 segments, and among every other case gives the same bits
    assert_segments_are_scipys(a, [len(a)])
    assert_segments_are_scipys([-2.0, *a, 1e3], [1, len(a), 1])
    assert_segments_are_scipys([*a, *sum(EDGE_CASES, [])], [len(a), *map(len, EDGE_CASES)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.lists(st.integers(min_value=1, max_value=1100), min_size=1, max_size=40),
)
def test_zero_led_reduceat_is_each_segments_own_sum(seed, lengths):
    # the kernel's sum: add.reduceat over segments each led by an inserted 0.0 equals numpy's
    # pairwise .sum() of each segment; plain reduceat, started from each first element, does not
    rng = np.random.default_rng(seed)
    e = np.exp(rng.uniform(-40.0, 0.0, sum(lengths)))
    starts = np.cumsum(lengths) - lengths
    got = np.add.reduceat(np.insert(e, starts, 0.0), starts + np.arange(len(lengths)))
    assert [v.hex() for v in got.tolist()] == [float(seg.sum()).hex() for seg in np.split(e, starts[1:])]


def test_logsumexp_matches_scipy_on_every_analytic_cmax_input(monkeypatch):
    seen, kernel = [], thermal._segment_logsumexp

    def recording(a, lengths):
        seen.append((a.copy(), lengths.copy()))
        return kernel(a, lengths)

    monkeypatch.setattr(thermal, "_segment_logsumexp", recording)
    for d_s in (2, 4, 8):
        thermal.c_max_qubits_analytic(range(d_s.bit_length() - 1, thermal.ANALYTIC_N_MAX + 1), [0.0, 1.0, 8.0], d_s)
    monkeypatch.undo()
    # at beta omega = 0 the tail of every n is at least 1/2, so every n gets a head and a tail
    assert sum(lengths.size for _, lengths in seen) == 2 * 3 * (1029 + 1028 + 1027)
    for a, lengths in seen:
        assert_segments_are_scipys(a, lengths)


BENCHMARK_BETA_OMEGA = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def test_a_d_s_2_sweep_sums_only_its_tails(monkeypatch):
    # at these beta omega every d_S = 2 ceiling is above 1/2 + 1e-6, so no head can be returned and
    # none is laid out: one segment of classes b..n per (beta omega, n).  A block closes once its
    # tail weights reach CLASS_BLOCK, so each pass but the last lays out CLASS_BLOCK or up to one
    # n's tails (8 (n // 2 + 1) <= 1,640) more
    seen, kernel = [], thermal._segment_logsumexp

    def recording(a, lengths):
        seen.append(lengths.copy())
        return kernel(a, lengths)

    monkeypatch.setattr(thermal, "_segment_logsumexp", recording)
    thermal.c_max_qubits_analytic(range(1, 410), BENCHMARK_BETA_OMEGA)
    monkeypatch.undo()
    tails = 0
    for n in range(1, 410):
        left, b = 2 ** (n - 1), 0
        while math.comb(n, b) <= left:
            left -= math.comb(n, b)
            b += 1
        tails += n + 1 - b
    laid = [int(lengths.sum()) for lengths in seen]
    assert sum(lengths.size for lengths in seen) == len(BENCHMARK_BETA_OMEGA) * 409
    assert sum(laid) == len(BENCHMARK_BETA_OMEGA) * tails
    assert all(thermal.CLASS_BLOCK <= size < thermal.CLASS_BLOCK + 1640 for size in laid[:-1])


def test_a_segment_of_minus_inf_alone_is_scipys_without_warnings():
    # a class log-weight past the float range is -inf, and a tail segment may hold nothing else
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_segments_are_scipys([-np.inf, -np.inf, 0.5, -np.inf, -2.0, -np.inf], [2, 2, 1, 1])


# ---------------------------------------------------------------- grouping


def test_grouping_single_qubit():
    g = thermal.group_energies(thermal.qubit_chain_hamiltonian(1), 2)
    assert g.r == 1
    assert g.groups.tolist() == [[0], [1]]


def test_grouping_three_qubits_keeps_index_order_within_ties():
    # sort oracle: stable argsort of (excitations, level index)
    g = thermal.group_energies(thermal.qubit_chain_hamiltonian(3), 2)
    assert g.groups.tolist() == [[0, 1, 2, 4], [3, 5, 6, 7]]
    assert g.r == 4


def test_grouping_of_fully_degenerate_spectrum_is_index_order():
    g = thermal.group_energies(thermal.MemoryHamiltonian([0.0, 0.0, 0.0, 0.0]), 2)
    assert g.groups.tolist() == [[0, 1], [2, 3]]


def test_grouping_sector_energies_ascend():
    h = thermal.MemoryHamiltonian([0.9, 0.1, 0.5, 0.3, 0.7, 0.2])
    g = thermal.group_energies(h, 3)
    table = h.absolute_energies()[g.groups]
    assert table.max(axis=1)[:-1].tolist() == pytest.approx(
        sorted(table.max(axis=1))[:-1]
    )
    assert np.all(table[:-1, -1] <= table[1:, 0] + 1e-12)


def test_grouping_requires_divisibility():
    with pytest.raises(DimensionMismatch):
        thermal.group_energies(thermal.qubit_chain_hamiltonian(2), 3)
    with pytest.raises(DimensionMismatch):
        thermal.group_energies(thermal.qubit_chain_hamiltonian(1), 1)


def test_groups_partition_the_levels():
    g = thermal.group_energies(thermal.qubit_chain_hamiltonian(3), 4)
    assert sorted(g.groups.ravel().tolist()) == list(range(8))


def test_readout_sums_weights_per_sector():
    h = thermal.qubit_chain_hamiltonian(2)
    g = thermal.group_energies(h, 2)
    tau = thermal.gibbs(h, beta=1.3)
    w = g.readout(tau.probs)
    assert w.tolist() == pytest.approx([tau.probs[g.groups[y]].sum() for y in range(2)], abs=1e-15)
    assert w[0] == pytest.approx(thermal.c_max(g, tau), abs=1e-15)
    # each row of a stack is read out apart; the output always has d_S entries per row
    stack = np.array([[0.25, 0.25, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0]])
    assert g.readout(stack).tolist() == [[0.5, 0.5], [1.0, 0.0]]


# ------------------------------------------------------------------- c_max


def test_cmax_single_qubit_closed_form():
    h = thermal.qubit_chain_hamiltonian(1)
    tau = thermal.gibbs(h, beta=1.0)
    assert thermal.c_max(thermal.group_energies(h, 2), tau) == pytest.approx(W0, abs=1e-15)


def test_cmax_three_qubits_frozen_value():
    h = thermal.qubit_chain_hamiltonian(3)
    tau = thermal.gibbs(h, beta=1.0)
    c = thermal.c_max(thermal.group_energies(h, 2), tau)
    assert c == pytest.approx(CMAX_3_1, abs=1e-14)
    assert c == pytest.approx((1.0 + 3.0 * E_INV) / (1.0 + E_INV) ** 3, abs=1e-14)


def test_cmax_equals_sum_of_largest_gibbs_weights():
    rng = np.random.default_rng(5)
    for d_s in (2, 3, 4):
        for _ in range(10):
            h = thermal.MemoryHamiltonian(rng.uniform(0.0, 2.0, size=d_s * 3))
            tau = thermal.gibbs(h, beta=rng.uniform(0.0, 3.0))
            g = thermal.group_energies(h, d_s)
            top = float(np.sort(tau.probs)[::-1][:3].sum())
            assert thermal.c_max(g, tau) == pytest.approx(top, abs=1e-13)


def test_cmax_at_infinite_temperature_is_uninformative():
    for n in (1, 2, 3):
        h = thermal.qubit_chain_hamiltonian(n)
        tau = thermal.gibbs(h, beta=0.0)
        assert thermal.c_max(thermal.group_energies(h, 2), tau) == pytest.approx(0.5, abs=1e-14)


def test_cmax_grows_with_beta():
    h = thermal.qubit_chain_hamiltonian(2)
    g = thermal.group_energies(h, 2)
    values = [thermal.c_max(g, thermal.gibbs(h, b)) for b in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert values == sorted(values)
    assert values[-1] > 0.99


# ------------------------------------------------------------ analytic path


def test_analytic_cmax_single_qubit():
    assert thermal.c_max_qubits_analytic(1, 1.0) == pytest.approx(W0, abs=1e-15)


def test_analytic_cmax_matches_dense_small_n():
    for n in range(1, 12):
        for bw in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
            assert thermal.c_max_qubits_analytic(n, bw) == pytest.approx(
                dense_cmax(n, bw), abs=1e-12
            )


def test_analytic_cmax_matches_dense_for_larger_d_s():
    for n in (2, 3, 4):
        for d_s in (2, 4):
            for bw in (0.3, 1.0):
                assert thermal.c_max_qubits_analytic(n, bw, d_s) == pytest.approx(
                    dense_cmax(n, bw, d_s), abs=1e-12
                )


# float.hex of c_max_qubits_analytic(n, beta_omega, d_s), keyed by (d_s, beta_omega) then
# n, recorded from commit 428a663; n = log2(d_s) is the one-level sector r = 1.  The
# beta_omega = 0 pins at n >= 51 and (8, 1.0) at n = 51 were re-recorded when the class
# weights moved from gammaln to exact class sizes: each new value is closer to the
# 50-digit oracle below
CMAX_HEX = {
    (2, 0.0): {
        1: "0x1.0000000000000p-1",
        2: "0x1.0000000000000p-1",
        3: "0x1.ffffffffffffep-2",
        51: "0x1.fffffffffffdcp-2",
        408: "0x1.ffffffffffea8p-2",
        409: "0x1.fffffffffff18p-2",
        410: "0x1.fffffffffff08p-2",
    },
    (2, 1.0): {
        1: "0x1.764d4f5d5a2bdp-1",
        2: "0x1.764d4f5d5a2bdp-1",
        3: "0x1.a4d2377b0a0f7p-1",
        51: "0x1.ffe37b05b63fcp-1",
        408: "0x1.0000000000000p+0",
        409: "0x1.0000000000000p+0",
        410: "0x1.0000000000000p+0",
    },
    (2, 8.0): {
        1: "0x1.ffd40b84505a1p-1",
        2: "0x1.ffd40b84505a1p-1",
        3: "0x1.fffff4ae954ffp-1",
        51: "0x1.0000000000000p+0",
        408: "0x1.0000000000000p+0",
        409: "0x1.0000000000000p+0",
        410: "0x1.0000000000000p+0",
    },
    (4, 0.0): {
        2: "0x1.0000000000000p-2",
        3: "0x1.0000000000001p-2",
        51: "0x1.0000000000016p-2",
        408: "0x1.000000000008fp-2",
        409: "0x1.000000000007fp-2",
        410: "0x1.000000000009bp-2",
    },
    (4, 1.0): {
        2: "0x1.11a2fd9ecd1d8p-1",
        3: "0x1.11a2fd9ecd1d8p-1",
        51: "0x1.fea834d1cdcfdp-1",
        408: "0x1.0000000000000p+0",
        409: "0x1.0000000000000p+0",
        410: "0x1.0000000000000p+0",
    },
    (4, 8.0): {
        2: "0x1.ffa81acea638ap-1",
        3: "0x1.ffa81acea638ap-1",
        51: "0x1.0000000000000p+0",
        408: "0x1.0000000000000p+0",
        409: "0x1.0000000000000p+0",
        410: "0x1.0000000000000p+0",
    },
    (8, 0.0): {
        3: "0x1.0000000000001p-3",
        51: "0x1.0000000000019p-3",
        408: "0x1.00000000000a5p-3",
        409: "0x1.000000000007bp-3",
        410: "0x1.000000000006fp-3",
    },
    (8, 1.0): {
        3: "0x1.9016c1615d490p-2",
        51: "0x1.fac9a26d7ab00p-1",
        408: "0x1.0000000000000p+0",
        409: "0x1.0000000000000p+0",
        410: "0x1.0000000000000p+0",
    },
    (8, 8.0): {
        3: "0x1.ff7c2ddeaead0p-1",
        51: "0x1.0000000000000p+0",
        408: "0x1.0000000000000p+0",
        409: "0x1.0000000000000p+0",
        410: "0x1.0000000000000p+0",
    },
}


def test_analytic_cmax_bits_are_pinned():
    got = {
        key: {n: thermal.c_max_qubits_analytic(n, key[1], key[0]).hex() for n in values}
        for key, values in CMAX_HEX.items()
    }
    assert got == CMAX_HEX


# sha256 over the lines float.hex(c_max_qubits_analytic(n, beta_omega, d_s)) + "\n", in the order
# d_s, then beta_omega, then n = log2(d_s)..1029 (33,924 values), recorded from scalar calls at
# commit 3c7ea3c, before the ceiling took arrays
CMAX_DIGEST_BETA_OMEGA = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 300.0)
CMAX_DIGEST = "5aac55ba9f1df953450999978c32303c2b35a12702114dfdd688a8eafebccbe5"


def test_analytic_cmax_digest_is_pinned():
    h = hashlib.sha256()
    for d_s in (2, 4, 8):
        n = range(max(1, d_s.bit_length() - 1), thermal.ANALYTIC_N_MAX + 1)
        for row in thermal.c_max_qubits_analytic(n, CMAX_DIGEST_BETA_OMEGA, d_s).tolist():
            h.update("".join(f"{c.hex()}\n" for c in row).encode())
    assert h.hexdigest() == CMAX_DIGEST


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 4, 8]),
    st.lists(st.one_of(st.integers(3, 60), st.integers(3, thermal.ANALYTIC_N_MAX)), min_size=1, max_size=24),
    st.lists(
        st.one_of(st.sampled_from(CMAX_DIGEST_BETA_OMEGA), st.floats(min_value=0.0, max_value=50.0)),
        min_size=1,
        max_size=6,
    ),
)
def test_the_array_ceiling_is_each_scalar_call(d_s, ns, bws):
    # n in any order and with repeats, so every block and segment boundary falls between
    # values whose scalar calls are independent: no boundary may leak into a value
    got = thermal.c_max_qubits_analytic(ns, bws, d_s)
    assert got.shape == (len(bws), len(ns))
    want = [[thermal.c_max_qubits_analytic(n, bw, d_s).hex() for n in ns] for bw in bws]
    assert [[c.hex() for c in row] for row in got.tolist()] == want


def test_the_array_ceiling_keeps_its_shape():
    assert isinstance(thermal.c_max_qubits_analytic(5, 1.0), float)
    assert thermal.c_max_qubits_analytic([5], 1.0).shape == (1, 1)
    assert thermal.c_max_qubits_analytic(5, [1.0, 2.0]).shape == (2, 1)
    assert thermal.c_max_qubits_analytic([], [1.0]).shape == (1, 0)


def test_the_array_ceiling_is_each_scalar_call_across_pascal_gaps():
    # gaps below, at and just above PASCAL_STEPS, low and up to the cap, then the same n
    # descending and repeated: a scalar call above PASCAL_STEPS walks afresh, so every
    # Pascal-advanced row is compared with a fresh one
    g = thermal.PASCAL_STEPS
    gaps = [g - 1, g, g + 1] * 2
    low = list(itertools.accumulate([3, *gaps]))
    high = list(itertools.accumulate([thermal.ANALYTIC_N_MAX - sum(gaps), *gaps]))
    ns = [*low, *high, *high[::-1], *low[::-1], low[2], high[-1]]
    bws = (0.0, 0.05, 1.0, 8.0, 300.0)
    for d_s in (2, 4, 8):
        got = thermal.c_max_qubits_analytic(ns, bws, d_s)
        want = [[thermal.c_max_qubits_analytic(n, bw, d_s).hex() for n in ns] for bw in bws]
        assert [[c.hex() for c in row] for row in got.tolist()] == want


def test_the_class_walks_are_math_comb_at_every_n():
    # one ascending call per d_s over every n up to the cap, so each row but the first few is
    # Pascal-advanced from the previous n; its half row, b, take and C(n, b) against math.comb
    walks = {
        d_s: thermal._class_walks(range(d_s.bit_length() - 1, thermal.ANALYTIC_N_MAX + 1), d_s.bit_length() - 1)
        for d_s in (2, 4, 8)
    }
    for n in range(1, thermal.ANALYTIC_N_MAX + 1):
        row = [math.comb(n, m) for m in range(n // 2 + 2)]
        for d_s, walk in walks.items():
            if 2**n % d_s:
                continue
            left, b = 2**n // d_s, 0
            while row[b] <= left:  # class b fits whole below the sector boundary
                left -= row[b]
                b += 1
            assert next(walk) == (row[:-1], b, left, row[b]), (n, d_s)
    for walk in walks.values():
        assert next(walk, None) is None


def test_analytic_cmax_refuses_a_non_integer_n():
    # each element is checked as given, so a mixed list names its own non-integer, and a bool is not n = 1
    for n, named in ((5.0, "5.0"), (5.5, "5.5"), (np.float64(5.0), "5.0"), ([3, 5.5], "5.5"), (np.array([3.0]), "3.0")):
        with pytest.raises(DimensionMismatch, match=rf"integer, got n=.*{named}"):
            thermal.c_max_qubits_analytic(n, 1.0)
    for n in (True, [3, True], np.array([True])):
        with pytest.raises(DimensionMismatch, match="integer, got n=True"):
            thermal.c_max_qubits_analytic(n, 1.0)
    want = thermal.c_max_qubits_analytic(5, 1.0)
    assert thermal.c_max_qubits_analytic(np.int64(5), 1.0) == want
    assert thermal.c_max_qubits_analytic(np.array([5, 5], dtype=np.uint16), [1.0]).tolist() == [[want, want]]


@pytest.mark.parametrize("d_s", [2, 4, 8])
def test_analytic_cmax_saturates_at_the_largest_beta_omega_without_warnings(d_s):
    # beta omega m overflows to inf there: a class weight of exactly 0, not a warning
    ns = [n for n in (1, 2, 3, 409, thermal.ANALYTIC_N_MAX) if 2**n % d_s == 0]
    bws = [1e300, 1e308, sys.float_info.max]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = thermal.c_max_qubits_analytic(ns, bws, d_s)
        scalars = [thermal.c_max_qubits_analytic(n, bw, d_s) for bw in bws for n in ns]
    assert got.tolist() == [[1.0] * len(ns)] * len(bws)
    assert scalars == [1.0] * len(ns) * len(bws)


def test_analytic_cmax_frozen_values():
    assert thermal.c_max_qubits_analytic(25, 1.0) == pytest.approx(CMAX_25_1, abs=1e-12)
    assert thermal.c_max_qubits_analytic(101, 0.25) == pytest.approx(CMAX_101_025, abs=1e-12)
    assert thermal.c_max_qubits_analytic(11, 0.1) == pytest.approx(CMAX_11_01, abs=1e-12)


def mp_cmax_by_n(mpmath, beta_omega, d_s, n_max, ns=None):
    """60-digit c_max of the n-qubit chain for every n up to n_max, or for the n in `ns`.

    The level weights x^m, x = e^{-beta omega}, are held as integers
    floor(x^m 2^bits), so the weight of the 2^n / d_s coldest levels (exact
    class sizes from Pascal's rule) is an integer sum off by at most 2^(n+1)
    units.  Dividing by 2^bits (1 + x)^n adds at most 2^(n + 1 - bits) to the
    60-digit rounding, and bits = n_max + 256 makes that 2^-255.
    """
    bits = n_max + 256
    with mpmath.workprec(bits + 64):
        x = mpmath.exp(-mpmath.mpf(beta_omega))
        scaled = [int(mpmath.floor(x**m * 2**bits)) for m in range(n_max + 1)]
    out = {}
    row = [1]
    with mpmath.workdps(60):
        z = 1 + mpmath.exp(-mpmath.mpf(beta_omega))
        for n in range(1, n_max + 1):
            row = [a + b for a, b in zip(row + [0], [0] + row)]
            if 2**n % d_s or (ns is not None and n not in ns):
                continue
            left, head = 2**n // d_s, 0
            for count, weight in zip(row, scaled):
                take = min(count, left)
                head += take * weight
                left -= take
                if not left:
                    break
            out[n] = mpmath.mpf(head) / 2**bits / z**n
    return out


def test_analytic_cmax_matches_a_50_digit_oracle():
    mpmath = pytest.importorskip("mpmath")
    bad = []
    for bw in (0.0, 0.05, 0.25, 1.0, 4.0, 8.0):
        for d_s in (2, 4, 8):
            for n, exact in mp_cmax_by_n(mpmath, bw, d_s, 409).items():
                err = abs(float(thermal.c_max_qubits_analytic(n, bw, d_s) - exact))
                if err > 5e-14:
                    bad.append((n, bw, d_s, err))
    assert not bad


def test_analytic_cmax_beyond_409_matches_a_60_digit_oracle():
    # up to the cap a sweep config accepts, ANALYTIC_N_MAX; the worst error is 4.3e-14, at beta*omega = 0 and n = 1029
    mpmath = pytest.importorskip("mpmath")
    ns = (411, 500, 617, 800, 999, thermal.ANALYTIC_N_MAX)
    bad = []
    for bw in (0.0, 0.05, 0.25, 1.0, 4.0):
        for d_s in (2, 4, 8):
            got = thermal.c_max_qubits_analytic(ns, bw, d_s)
            for n, exact in mp_cmax_by_n(mpmath, bw, d_s, max(ns), ns).items():
                err = abs(float(got[0, ns.index(n)] - exact))
                if err > 5e-14:
                    bad.append((n, bw, d_s, err))
    assert not bad


def ceiling_by_the_half_rule(n, beta_omega, d_s):
    """c_max as the head where it is at most 1/2, else 1 - tail, each side summed alone by scipy
    from math.comb class sizes, with the class log-weights formed as the ceiling forms them."""
    row = [math.comb(n, m) for m in range(n + 1)]
    take, b = 2**n // d_s, 0
    while row[b] <= take:
        take -= row[b]
        b += 1
    m = np.arange(n + 1)
    log_c = np.log(np.array(row[: n // 2 + 1], dtype=float))[np.minimum(m, n - m)]
    head = [*log_c[:b], *([math.log(take)] if take else [])]
    tail = [math.log(row[b] - take), *log_c[b + 1 :]]
    log_zn = n * np.logaddexp(0.0, -beta_omega)
    head = np.exp(scipy.special.logsumexp(np.array(head) - beta_omega * m[: len(head)] - log_zn))
    tail = np.exp(scipy.special.logsumexp(np.array(tail) - beta_omega * m[b:] - log_zn))
    return float(head if head <= 0.5 else 1.0 - tail)


def test_the_ceiling_is_exact_where_it_crosses_one_half():
    # at d_S = 4 and 8 the ceiling crosses 1/2 as beta omega grows: below 1/2 the head is returned,
    # just above it (up to the head margin 1e-6) the head is summed and 1 - tail returned, and
    # beyond the margin the head is not summed.  On a grid that brackets each crossing, one array
    # call with every n is each scalar call and the rule on each side alone, bit for bit, and
    # within 5e-14 of the oracle
    mpmath = pytest.importorskip("mpmath")
    steps = (-1e-2, -1e-4, -1e-6, -1e-8, 0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2)
    for d_s, ns in ((4, (2, 3, 8, 33, 200)), (8, (3, 4, 9, 64, 409))):
        bws = []
        for n in ns:
            lo, hi = 0.0, 50.0
            for _ in range(60):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if thermal.c_max_qubits_analytic(n, mid, d_s) < 0.5 else (lo, mid)
            bws += [hi * (1 + k) for k in steps]
        got = thermal.c_max_qubits_analytic(ns, bws, d_s)
        for j, n in enumerate(ns):
            own = got[j * len(steps) : (j + 1) * len(steps), j]
            assert (own < 0.5).any() and ((own >= 0.5) & (own < 0.5 + 1e-6)).any() and (own >= 0.5 + 1e-6).any()
        want = [[thermal.c_max_qubits_analytic(n, bw, d_s).hex() for n in ns] for bw in bws]
        assert [[c.hex() for c in row] for row in got.tolist()] == want
        for i, bw in enumerate(bws):
            n = ns[i // len(steps)]
            c = float(got[i, ns.index(n)])
            assert c.hex() == ceiling_by_the_half_rule(n, bw, d_s).hex(), (d_s, n, bw)
            assert abs(c - mp_cmax_by_n(mpmath, bw, d_s, n, [n])[n]) <= 5e-14, (d_s, n, bw)


def test_analytic_cmax_deep_chain_saturates_without_leaving_unit_interval():
    c = thermal.c_max_qubits_analytic(409, 1.0)
    assert c > 1.0 - 1e-6
    assert c <= 1.0
    for n in (101, 201, 301, 409):
        assert thermal.c_max_qubits_analytic(n, 0.1) <= 1.0


def test_analytic_cmax_monotone_in_n_odd():
    for bw in config.SweepConfig().beta_omega:
        values = [thermal.c_max_qubits_analytic(n, bw) for n in range(1, 52, 2)]
        assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))


def test_analytic_cmax_at_infinite_temperature():
    for n in (1, 4, 9, 50):
        assert thermal.c_max_qubits_analytic(n, 0.0) == pytest.approx(0.5, abs=1e-13)


def test_analytic_cmax_input_validation():
    with pytest.raises(DimensionMismatch):
        thermal.c_max_qubits_analytic(0, 1.0)
    with pytest.raises(DimensionMismatch):  # C(1030, 515) overflows a float
        thermal.c_max_qubits_analytic(1030, 1.0)
    assert thermal.c_max_qubits_analytic(1029, 0.0) == pytest.approx(0.5, abs=1e-13)
    with pytest.raises(DimensionMismatch):
        thermal.c_max_qubits_analytic(3, -0.5)
    with pytest.raises(DimensionMismatch):
        thermal.c_max_qubits_analytic(3, 1.0, d_s=3)
    with pytest.raises(DimensionMismatch):
        thermal.c_max_qubits_analytic(1, 1.0, d_s=4)
    with pytest.raises(DimensionMismatch, match="n=1030"):  # any value of a sequence is checked
        thermal.c_max_qubits_analytic([3, 1030], 1.0)
    with pytest.raises(DimensionMismatch, match="-0.5"):
        thermal.c_max_qubits_analytic([3], [1.0, -0.5])
    with pytest.raises(DimensionMismatch):
        thermal.c_max_qubits_analytic([3, 1], [1.0], d_s=4)
