// Tests for the dual-issue CPU timing model (iCPI).
#include <gtest/gtest.h>

#include "sim/cpu.h"

namespace l96::sim {
namespace {

MachineInstr in(InstrClass cls, bool taken = false) {
  return MachineInstr{0, cls, 0, taken};
}

Cpu::Config always_pair() {
  Cpu::Config c;
  c.pair_success_permille = 1000;
  return c;
}

TEST(Cpu, EmptyTrace) {
  Cpu cpu;
  auto s = cpu.time_trace({});
  EXPECT_EQ(s.instructions, 0u);
  EXPECT_EQ(s.issue_cycles, 0u);
  EXPECT_DOUBLE_EQ(s.icpi(), 0.0);
}

TEST(Cpu, SingleIssueBaseline) {
  Cpu::Config c;
  c.dual_issue = false;
  Cpu cpu(c);
  MachineTrace t(100, in(InstrClass::kIAlu));
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.issue_cycles, 100u);
  EXPECT_EQ(s.dual_issues, 0u);
  EXPECT_DOUBLE_EQ(s.icpi(), 1.0);
}

TEST(Cpu, PairsIntegerWithMemory) {
  Cpu cpu(always_pair());
  MachineTrace t;
  for (int i = 0; i < 50; ++i) {
    t.push_back(in(InstrClass::kIAlu));
    t.push_back(in(InstrClass::kLoad));
  }
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.dual_issues, 50u);
  EXPECT_EQ(s.issue_cycles, 50u);
  EXPECT_DOUBLE_EQ(s.icpi(), 0.5);
}

TEST(Cpu, TwoIntegerOpsDoNotPair) {
  Cpu cpu(always_pair());
  MachineTrace t(10, in(InstrClass::kIAlu));
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.dual_issues, 0u);
  EXPECT_EQ(s.issue_cycles, 10u);
}

TEST(Cpu, TwoMemoryOpsDoNotPair) {
  Cpu cpu(always_pair());
  MachineTrace t(10, in(InstrClass::kLoad));
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.dual_issues, 0u);
}

TEST(Cpu, TakenBranchEndsIssueGroup) {
  Cpu cpu(always_pair());
  MachineTrace t;
  t.push_back(in(InstrClass::kCondBranch, /*taken=*/true));
  t.push_back(in(InstrClass::kIAlu));
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.dual_issues, 0u);  // taken branch cannot lead a pair
}

TEST(Cpu, NotTakenBranchCanPair) {
  Cpu cpu(always_pair());
  MachineTrace t;
  t.push_back(in(InstrClass::kCondBranch, /*taken=*/false));
  t.push_back(in(InstrClass::kIAlu));
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.dual_issues, 1u);
}

TEST(Cpu, TakenBranchPenalty) {
  Cpu::Config c;
  c.dual_issue = false;
  c.taken_branch_penalty = 3;
  Cpu cpu(c);
  MachineTrace t;
  t.push_back(in(InstrClass::kJump, true));
  t.push_back(in(InstrClass::kIAlu));
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.taken_branches, 1u);
  EXPECT_EQ(s.issue_cycles, 2u + 3u);
}

TEST(Cpu, CallAndRetCountAsTaken) {
  Cpu::Config c;
  c.dual_issue = false;
  Cpu cpu(c);
  MachineTrace t;
  t.push_back(in(InstrClass::kCall, true));
  t.push_back(in(InstrClass::kRet, true));
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.taken_branches, 2u);
}

TEST(Cpu, IMulPenaltyAndNoPairing) {
  Cpu::Config c;
  c.imul_penalty = 19;
  c.pair_success_permille = 1000;
  Cpu cpu(c);
  MachineTrace t;
  t.push_back(in(InstrClass::kIMul));
  t.push_back(in(InstrClass::kLoad));
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.imul_count, 1u);
  EXPECT_EQ(s.dual_issues, 0u);
  EXPECT_EQ(s.issue_cycles, 2u + 19u);
}

TEST(Cpu, PairSuccessZeroDisablesPairing) {
  Cpu::Config c;
  c.pair_success_permille = 0;
  Cpu cpu(c);
  MachineTrace t;
  for (int i = 0; i < 20; ++i) {
    t.push_back(in(InstrClass::kIAlu));
    t.push_back(in(InstrClass::kLoad));
  }
  auto s = cpu.time_trace(t);
  EXPECT_EQ(s.dual_issues, 0u);
}

// Property: iCPI is bounded below by 0.5 (max dual issue) and is monotone
// in the taken-branch count.
TEST(CpuProperty, IcpiBounds) {
  Cpu cpu(always_pair());
  MachineTrace t;
  for (int i = 0; i < 1000; ++i) {
    t.push_back(in(i % 2 == 0 ? InstrClass::kIAlu : InstrClass::kLoad));
  }
  auto s = cpu.time_trace(t);
  EXPECT_GE(s.icpi(), 0.5);
  EXPECT_LE(s.icpi(), 1.0);

  // Turning some ops into taken branches can only increase cycles.
  MachineTrace t2 = t;
  for (std::size_t i = 0; i < t2.size(); i += 10) {
    t2[i] = in(InstrClass::kCondBranch, true);
  }
  auto s2 = cpu.time_trace(t2);
  EXPECT_GT(s2.issue_cycles, s.issue_cycles);
}

TEST(Cpu, TimingWithAReplacedLastInstructionEqualsTimingTheEditedCopy) {
  Cpu cpu(always_pair());
  MachineTrace t;
  for (int i = 0; i < 9; ++i) {
    t.push_back(in(i % 3 == 0 ? InstrClass::kLoad : InstrClass::kIAlu));
  }
  // A taken branch in place of the final ALU op breaks its pairing with
  // the load before it and pays the branch penalty.
  const MachineInstr last = in(InstrClass::kCondBranch, true);
  MachineTrace edited = t;
  edited.back() = last;
  const CpuStats a = cpu.time_trace(t, last);
  const CpuStats b = cpu.time_trace(edited);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.dual_issues, b.dual_issues);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_NE(a.issue_cycles, cpu.time_trace(t).issue_cycles);
  EXPECT_EQ(cpu.time_trace({}, last).instructions, 0u);
}

}  // namespace
}  // namespace l96::sim
