"""Tests for the AutoSoC benchmark and the SIMT GPGPU core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autosoc import (
    APPLICATIONS,
    AutoSoC,
    SocConfig,
    UnitFault,
    assemble,
    compare_configurations,
    decode,
    disassemble,
    encode,
    make_injections,
    run_injection,
)
from repro.autosoc.fi import DETECTED_LOCKSTEP, MASKED, SDC, SocInjection
from repro.autosoc.isa import Instruction, OPCODES, AsmError
from repro.gpgpu import (
    MaskFault,
    PipeRegFault,
    SchedulerFault,
    SimtCore,
    encoding_style_study,
    run_sbst_suite,
    seu_campaign_on_kernel,
    vector_add_kernel,
)


class TestIsa:
    def test_all_opcodes_encode_decode(self):
        samples = {
            "add": Instruction("add", rd=1, ra=2, rb=3),
            "addi": Instruction("addi", rd=1, ra=2, imm=-5),
            "lw": Instruction("lw", rd=4, ra=5, imm=16),
            "beq": Instruction("beq", ra=1, rb=2, imm=-3),
            "j": Instruction("j", target=0x123),
            "jr": Instruction("jr", ra=31),
            "halt": Instruction("halt"),
        }
        for name, ins in samples.items():
            assert decode(encode(ins)) == ins, name

    def test_assembler_labels(self):
        words = assemble("""
            addi r1, r0, 3
        top:
            addi r1, r1, -1
            bne r1, r0, top
            halt
        """)
        assert len(words) == 4
        branch = decode(words[2])
        assert branch.op == "bne" and branch.imm == -2

    def test_assembler_errors(self):
        with pytest.raises(AsmError):
            assemble("frobnicate r1, r2")
        with pytest.raises(AsmError):
            assemble("add r1, r2")
        with pytest.raises(AsmError):
            assemble("addi r99, r0, 1")

    def test_disassemble_roundtrip_all_apps(self):
        for app in APPLICATIONS.values():
            program = app.program()
            assert assemble("\n".join(disassemble(program))) == program

    def test_instruction_classes(self):
        assert Instruction("lw").clazz == "load"
        assert Instruction("beq").clazz == "branch"
        assert Instruction("jal").clazz == "call"


class TestApplications:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_golden_run_passes_oracle(self, name):
        app = APPLICATIONS[name]
        soc = AutoSoC(app.program(), SocConfig.QM)
        result = soc.run(app.max_cycles)
        assert result.halted
        assert app.oracle(result)

    def test_fibonacci_values(self):
        app = APPLICATIONS["fibonacci"]
        result = AutoSoC(app.program(), SocConfig.QM).run()
        assert result.ram[:10] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_cruise_control_converges(self):
        app = APPLICATIONS["cruise_control"]
        result = AutoSoC(app.program(), SocConfig.QM).run()
        final_speed = result.ram[24]
        assert abs(final_speed - 90) <= 4  # P-controller steady-state band

    def test_can_frames_have_crcs(self):
        app = APPLICATIONS["can_telemetry"]
        result = AutoSoC(app.program(), SocConfig.QM).run()
        assert len(result.can_crcs) == 2
        assert result.can_crcs[0] != result.can_crcs[1]

    def test_trace_collected(self):
        app = APPLICATIONS["fibonacci"]
        result = AutoSoC(app.program(), SocConfig.QM).run()
        assert "branch" in result.trace
        assert result.trace[-1] == "ret"  # halt


class TestSafetyMechanisms:
    def test_lockstep_detects_cpu_transient(self):
        app = APPLICATIONS["fibonacci"]
        soc = AutoSoC(app.program(), SocConfig.LOCKSTEP)
        soc.inject_cpu_fault(UnitFault("alu", "transient", 5,
                                       from_cycle=12, to_cycle=13))
        result = soc.run()
        assert result.lockstep_mismatch_cycle is not None
        assert result.lockstep_mismatch_cycle >= 12

    def test_lockstep_clean_run_silent(self):
        app = APPLICATIONS["fibonacci"]
        result = AutoSoC(app.program(), SocConfig.LOCKSTEP).run()
        assert result.lockstep_mismatch_cycle is None

    def test_ecc_corrects_ram_seu(self):
        app = APPLICATIONS["fibonacci"]
        soc = AutoSoC(app.program(), SocConfig.ECC)
        result = soc.run()
        assert app.oracle(result)
        # now flip a stored bit after the run would have written it
        soc2 = AutoSoC(app.program(), SocConfig.ECC)
        for _ in range(40):
            soc2.main.step()
        soc2.bus.inject_ram_bitflip(0, 2)
        result2 = soc2.run()
        assert app.oracle(result2)  # data still correct via correction

    def test_qm_ram_seu_corrupts(self):
        app = APPLICATIONS["fibonacci"]
        soc = AutoSoC(app.program(), SocConfig.QM)
        soc.run()
        soc.bus.inject_ram_bitflip(0, 2)
        snapshot = soc.bus.ram_snapshot(0, 10)
        assert snapshot[0] != 0  # fib(0)=0 corrupted without ECC

    def test_aes_security_block(self):
        source = """
            movhi r10, 0x0000
            ori  r10, r10, 0xF100
            addi r1, r0, 0
            sw   r1, 0(r10)
            sw   r1, 1(r10)
            sw   r1, 2(r10)
            sw   r1, 3(r10)
            sw   r1, 4(r10)
            sw   r1, 5(r10)
            sw   r1, 6(r10)
            sw   r1, 7(r10)
            sw   r1, 8(r10)
            lw   r2, 9(r10)
            movhi r11, 0x0000
            ori  r11, r11, 0x2000
            sw   r2, 0(r11)
            halt
        """
        soc = AutoSoC(assemble(source), SocConfig.QM)
        result = soc.run()
        from repro.crypto import encrypt_block
        expected = encrypt_block(bytes(16), bytes(16))
        assert result.ram[0] == int.from_bytes(expected[:4], "little")


class TestSocCampaign:
    def test_lockstep_eliminates_sdc(self):
        app = APPLICATIONS["fibonacci"]
        results = compare_configurations(
            app, [SocConfig.QM, SocConfig.LOCKSTEP], n_cpu=25, n_ram=0, seed=3)
        qm, lockstep = results[SocConfig.QM], results[SocConfig.LOCKSTEP]
        assert lockstep.rate(SDC) < qm.rate(SDC) or qm.rate(SDC) == 0
        assert lockstep.rate(SDC) == 0.0

    def test_ecc_handles_ram_faults(self):
        app = APPLICATIONS["fibonacci"]
        results = compare_configurations(
            app, [SocConfig.QM, SocConfig.ECC], n_cpu=0, n_ram=25, seed=4)
        assert results[SocConfig.ECC].dangerous_rate <= \
            results[SocConfig.QM].dangerous_rate

    def test_detection_latency_small(self):
        app = APPLICATIONS["fibonacci"]
        injections = make_injections(app, n_cpu=20, n_ram=0, seed=5)
        latencies = []
        for injection in injections:
            outcome, latency = run_injection(app, SocConfig.LOCKSTEP, injection)
            if outcome == DETECTED_LOCKSTEP and latency is not None:
                latencies.append(latency)
        assert latencies
        assert sum(latencies) / len(latencies) < 10

    def test_injection_outcomes_partition(self):
        app = APPLICATIONS["can_telemetry"]
        injections = make_injections(app, n_cpu=10, n_ram=5, seed=6)
        from repro.autosoc import run_campaign
        campaign = run_campaign(app, SocConfig.FULL, injections)
        assert campaign.total == 15
        assert sum(campaign.outcomes.values()) == 15


class TestSimtCore:
    def test_vector_add(self):
        core = SimtCore(vector_add_kernel(), n_warps=2, warp_size=8)
        for i in range(16):
            core.memory[i] = i
            core.memory[64 + i] = 2 * i
        core.run()
        assert core.memory[128:144] == [3 * i for i in range(16)]

    def test_divergence_reconverges(self):
        from repro.gpgpu import saturating_add_branchy
        core = SimtCore(saturating_add_branchy(100), n_warps=1, warp_size=8)
        for i in range(8):
            core.memory[i] = 95 + i  # some exceed the limit with b=3
            core.memory[64 + i] = 3
        core.run()
        expected = [min(95 + i + 3, 100) for i in range(8)]
        assert core.memory[128:136] == expected

    def test_starved_warp_never_issues(self):
        core = SimtCore(vector_add_kernel(), n_warps=2, warp_size=8)
        core.inject(SchedulerFault("starve", 1))
        core.run(max_issues=200)
        assert 1 not in core.schedule_trace

    def test_mask_stuck0_suppresses_lane(self):
        core = SimtCore(vector_add_kernel(), n_warps=1, warp_size=8)
        for i in range(8):
            core.memory[i] = 5
        core.inject(MaskFault(0, 3, 0))
        core.run()
        assert core.memory[128 + 3] == 0    # lane 3 never stored
        assert core.memory[128 + 2] == 5    # neighbours unaffected

    def test_pipe_fault_corrupts_single_value(self):
        golden = SimtCore(vector_add_kernel(), n_warps=1, warp_size=8)
        faulty = SimtCore(vector_add_kernel(), n_warps=1, warp_size=8)
        faulty.inject(PipeRegFault(0, 0, 4, at_issue=3))
        golden.run()
        faulty.run()
        diffs = sum(1 for a, b in zip(golden.memory, faulty.memory) if a != b)
        assert diffs == 1


class TestGpgpuStudies:
    def test_sbst_suite_full_coverage(self):
        report = run_sbst_suite(n_warps=2, warp_size=8)
        assert report.effective_coverage == 1.0

    def test_untestable_configuration_gap(self):
        report = run_sbst_suite(n_warps=4, warp_size=8, launched_warps=2)
        assert report.untestable
        assert report.raw_coverage < report.effective_coverage
        assert report.effective_coverage == 1.0

    def test_encoding_styles_differ_in_cost(self):
        results = encoding_style_study(n_injections=30, seed=1)
        by_name = {r.encoding: r for r in results}
        assert by_name["branchy"].issue_slots != \
            by_name["predicated"].issue_slots
        for r in results:
            assert r.masked + r.sdc == r.injections

    def test_encoding_style_study_records_one_campaign_per_encoding(self):
        # was: both encodings ran as one fused campaign, recorded as
        # ``composite[gpgpu-seu x2]`` with every row under simt-branchy
        from repro.core import CampaignDb

        db = CampaignDb()
        results = encoding_style_study(n_injections=20, executor="serial",
                                       db=db)
        circuits = [row[0] for row in db.conn.execute(
            "SELECT circuit FROM campaigns ORDER BY id")]
        assert circuits == ["simt-branchy", "simt-predicated"]
        assert db.campaigns_for("simt-predicated")
        for result in results:
            (campaign,) = db.campaigns_for(f"simt-{result.encoding}")
            summary = db.summary(campaign)
            assert summary.total == result.injections == 20
            assert summary.outcomes.get("masked", 0) == result.masked
            assert summary.outcomes.get("sdc", 0) == result.sdc
        db.close()

    def test_seu_campaign_rates_sum(self):
        rates = seu_campaign_on_kernel(vector_add_kernel(), 40, seed=2)
        assert rates["masked"] + rates["sdc"] == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(op=st.sampled_from(sorted(OPCODES)),
       rd=st.integers(0, 31), ra=st.integers(0, 31), rb=st.integers(0, 31),
       imm=st.integers(-32768, 32767), target=st.integers(0, (1 << 26) - 1))
def test_encode_decode_roundtrip_property(op, rd, ra, rb, imm, target):
    """Property: encode/decode is the identity on canonical instructions."""
    from repro.autosoc.isa import B_TYPE, I_TYPE, J_TYPE, R_TYPE
    if op in R_TYPE:
        ins = Instruction(op, rd=rd, ra=ra, rb=rb)
    elif op in I_TYPE:
        ins = Instruction(op, rd=rd, ra=ra, imm=imm)
    elif op in B_TYPE:
        ins = Instruction(op, ra=ra, rb=rb, imm=imm)
    elif op in J_TYPE:
        ins = Instruction(op, target=target)
    elif op == "jr":
        ins = Instruction(op, ra=ra)
    else:
        ins = Instruction(op)
    assert decode(encode(ins)) == ins
