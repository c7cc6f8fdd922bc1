"""Tests for crypto cores and hardware-security analyses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AesConstantTime,
    AesLeaky,
    encrypt_block,
    expand_key,
    gmul,
    hamming_weight,
    montgomery_ladder,
    square_and_multiply,
    xtime,
)
from repro.security import (
    CELL_PITCH_UM,
    FaultAttackDetector,
    Floorplan,
    LaserShot,
    audit_timing,
    candidate_key_bytes,
    clean_program_trace,
    collect_traces,
    cpa_attack,
    dfa_with_redundancy_countermeasure,
    evaluate_detector,
    faulted_trace,
    fire,
    full_dfa_attack,
    invert_key_schedule,
    recover_exponent_hw,
    recover_key,
    success_rate_curve,
    targeted_attack,
    tvla,
    unlock_register_attack,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


class TestAes:
    def test_fips197_appendix_b(self):
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert encrypt_block(pt, KEY).hex() == \
            "3925841d02dc09fbdc118597196a0b32"

    def test_fips197_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert encrypt_block(pt, key).hex() == \
            "69c4e0d86a7b0430d8cdb78070b4c55a"

    def test_key_schedule_first_last_words(self):
        rks = expand_key(KEY)
        assert bytes(rks[0]) == KEY
        assert bytes(rks[10]).hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"

    def test_variants_match_reference(self):
        pt = bytes(range(16))
        ct = encrypt_block(pt, KEY)
        assert AesLeaky(KEY).encrypt(pt)[0] == ct
        assert AesConstantTime(KEY).encrypt(pt)[0] == ct

    def test_gf_arithmetic(self):
        assert xtime(0x80) == 0x1B
        assert gmul(0x57, 0x13) == 0xFE  # FIPS-197 example
        assert gmul(1, 0xAB) == 0xAB

    def test_gmul_tables_match_schoolbook_product(self):
        # the log / antilog lookup against shift-and-add over xtime, on
        # every pair of bytes
        def schoolbook(a, b):
            product = 0
            for _ in range(8):
                if b & 1:
                    product ^= a
                b >>= 1
                a = xtime(a)
            return product

        assert all(gmul(a, b) == schoolbook(a, b)
                   for a in range(256) for b in range(256))
        assert [hamming_weight(x) for x in (0, 1, 0xFF, 0x1234, -5)] == [
            bin(x).count("1") for x in (0, 1, 0xFF, 0x1234, -5)]

    def test_fault_hook_changes_ciphertext(self):
        pt = bytes(16)
        clean = encrypt_block(pt, KEY)
        faulty = encrypt_block(pt, KEY, fault=(10, 3, 0x01))
        assert clean != faulty
        diff = sum(1 for a, b in zip(clean, faulty) if a != b)
        assert diff == 1  # a round-10 byte fault hits exactly one ct byte

    def test_leaky_timing_varies_constant_does_not(self):
        rng = random.Random(1)
        leaky_times, const_times = set(), set()
        leaky, const = AesLeaky(KEY), AesConstantTime(KEY)
        for _ in range(20):
            pt = bytes(rng.randrange(256) for _ in range(16))
            leaky_times.add(leaky.encrypt(pt)[1].cycles)
            const_times.add(const.encrypt(pt)[1].cycles)
        assert len(leaky_times) > 1
        assert len(const_times) == 1


class TestModExp:
    def test_agree_with_pow(self):
        for base, exp, mod in [(7, 181, 1009), (2, 65537, 99991), (5, 1, 7)]:
            assert square_and_multiply(base, exp, mod).value == pow(base, exp, mod)
            assert montgomery_ladder(base, exp, mod).value == pow(base, exp, mod)

    def test_sm_time_tracks_hamming_weight(self):
        light = square_and_multiply(3, 0b10000000, 10007)
        heavy = square_and_multiply(3, 0b11111111, 10007)
        assert heavy.cycles > light.cycles
        assert heavy.multiplies == 8 and light.multiplies == 1

    def test_ladder_time_constant_per_length(self):
        t1 = montgomery_ladder(3, 0b10000001, 10007).cycles
        t2 = montgomery_ladder(3, 0b11111111, 10007).cycles
        assert t1 == t2

    def test_modulus_validated(self):
        with pytest.raises(ValueError):
            square_and_multiply(2, 3, 0)


class TestTimingAudit:
    def test_square_multiply_flagged(self):
        report = audit_timing(
            "sm", lambda s, d: square_and_multiply(d or 3, s, 65537).cycles)
        assert report.leaks
        assert abs(report.hw_correlation) > 0.9

    def test_ladder_passes(self):
        report = audit_timing(
            "ladder", lambda s, d: montgomery_ladder(d or 3, s, 65537).cycles)
        assert not report.leaks
        assert report.verdict == "constant-time"

    def test_aes_variants_audited(self):
        leaky, const = AesLeaky(KEY), AesConstantTime(KEY)
        rep_leaky = audit_timing(
            "aes-leaky",
            lambda s, d: leaky.encrypt(s.to_bytes(16, "little"))[1].cycles,
            secret_bits=128)
        rep_const = audit_timing(
            "aes-const",
            lambda s, d: const.encrypt(s.to_bytes(16, "little"))[1].cycles,
            secret_bits=128)
        assert rep_leaky.leaks
        assert not rep_const.leaks

    def test_hw_recovery_from_timing(self):
        rng = random.Random(9)
        calibration = [rng.randrange(1, 1 << 16) for _ in range(50)]
        secret = 0b1011001110001111
        estimate = recover_exponent_hw(
            lambda s, d: square_and_multiply(3, s, 65537).cycles,
            secret, calibration)
        assert estimate == bin(secret).count("1")


class TestPowerAnalysis:
    def test_cpa_recovers_key_from_leaky(self):
        traces = collect_traces(AesLeaky(KEY), 60, seed=3)
        assert recover_key(traces) == KEY

    def test_cpa_fails_against_masking(self):
        traces = collect_traces(AesConstantTime(KEY), 60, seed=3)
        recovered = recover_key(traces)
        correct = sum(1 for a, b in zip(recovered, KEY) if a == b)
        assert correct <= 3  # chance level

    def test_success_rate_monotone(self):
        curve = success_rate_curve(lambda: AesLeaky(KEY), KEY,
                                   [5, 25, 60], seed=4)
        assert curve[-1][1] >= curve[0][1]
        assert curve[-1][1] == 1.0

    def test_tvla_separates_implementations(self):
        assert tvla(AesLeaky(KEY), 80, seed=5).leaks
        assert not tvla(AesConstantTime(KEY), 80, seed=5).leaks

    def test_cpa_correlation_ranks_true_key_first(self):
        traces = collect_traces(AesLeaky(KEY), 80, seed=6)
        guess, correlations = cpa_attack(traces, 0)
        assert guess == KEY[0]
        assert correlations[KEY[0]] == max(correlations)


class TestLaserFi:
    def test_single_bit_repeatable_at_250nm(self):
        stats = unlock_register_attack("250nm", attempts=50, seed=7)
        assert stats.single_bit_success_rate > 0.9

    def test_multibit_collateral_at_28nm(self):
        stats = unlock_register_attack("28nm", attempts=50, seed=7)
        assert stats.single_bit_success_rate < 0.1
        assert stats.collateral > stats.exact_hits

    def test_energy_threshold(self):
        plan = Floorplan.grid("250nm", ["r0", "r1"])
        weak = fire(plan, LaserShot(0, 0, 2.0, energy=0.1))
        assert not weak.flipped
        strong = fire(plan, LaserShot(0, 0, 2.0, energy=2.0))
        assert "r0" in strong.flipped

    def test_unknown_target_raises(self):
        plan = Floorplan.grid("250nm", ["r0"])
        with pytest.raises(ValueError):
            targeted_attack(plan, "ghost")

    def test_pitch_table_monotone(self):
        pitches = [CELL_PITCH_UM[t] for t in ("250nm", "130nm", "65nm", "28nm")]
        assert pitches == sorted(pitches, reverse=True)


class TestDfa:
    def test_full_attack_recovers_master_key(self):
        assert full_dfa_attack(KEY, seed=2) == KEY

    def test_key_schedule_inversion(self):
        round10 = bytes(expand_key(KEY)[10])
        assert invert_key_schedule(round10) == KEY

    def test_candidate_filter_contains_truth(self):
        pt = bytes(range(16))
        clean = encrypt_block(pt, KEY)
        faulty = encrypt_block(pt, KEY, fault=(10, 0, 0x04))
        candidates = candidate_key_bytes(clean, faulty, 0)
        true_byte = expand_key(KEY)[10][0]
        assert true_byte in candidates
        assert len(candidates) < 256

    def test_redundancy_countermeasure_blocks_attack(self):
        released_without, released_with = \
            dfa_with_redundancy_countermeasure(KEY, seed=3)
        assert released_without == 32
        assert released_with == 0


class TestDetector:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = random.Random(7)
        train = [clean_program_trace(rng) for _ in range(100)]
        detector = FaultAttackDetector(epochs=200, seed=1).fit(train)
        return detector, rng

    def test_low_false_positive_rate(self, fitted):
        detector, rng = fitted
        clean = [clean_program_trace(rng) for _ in range(50)]
        fpr = sum(detector.is_attack(t) for t in clean) / 50
        assert fpr < 0.1

    def test_detects_seen_and_unseen_attacks(self, fitted):
        detector, rng = fitted
        attacks = {
            kind: [faulted_trace(clean_program_trace(rng), kind, rng)
                   for _ in range(25)]
            for kind in ("skip", "loop_exit", "wrong_branch", "double_round")
        }
        clean = [clean_program_trace(rng) for _ in range(40)]
        report = evaluate_detector(detector, clean, attacks)
        assert report.auc > 0.95
        for kind, rate in report.detection_rate.items():
            assert rate > 0.8, kind

    def test_unknown_attack_kind_raises(self, fitted):
        _detector, rng = fitted
        with pytest.raises(ValueError):
            faulted_trace(clean_program_trace(rng), "meltdown", rng)

    def test_score_before_fit_raises(self):
        detector = FaultAttackDetector()
        with pytest.raises(RuntimeError):
            detector.is_attack(["alu"])


@settings(max_examples=15, deadline=None)
@given(key=st.binary(min_size=16, max_size=16),
       pt=st.binary(min_size=16, max_size=16))
def test_aes_variants_agree_property(key, pt):
    """Property: all three AES paths produce identical ciphertext."""
    reference = encrypt_block(pt, key)
    assert AesLeaky(key).encrypt(pt)[0] == reference
    assert AesConstantTime(key).encrypt(pt)[0] == reference


@settings(max_examples=15, deadline=None)
@given(base=st.integers(2, 1000), exp=st.integers(1, 10_000),
       mod=st.integers(3, 100_000))
def test_modexp_property(base, exp, mod):
    assert square_and_multiply(base, exp, mod).value == pow(base, exp, mod)
    assert montgomery_ladder(base, exp, mod).value == pow(base, exp, mod)
