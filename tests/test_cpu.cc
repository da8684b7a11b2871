// Tests for the dual-issue CPU timing model (iCPI).
#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/experiment.h"
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
  const CpuStats a = cpu.time_split(t, t.size(), last).prefix;
  const CpuStats b = cpu.time_trace(edited);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.issue_cycles, b.issue_cycles);
  EXPECT_EQ(a.dual_issues, b.dual_issues);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_NE(a.issue_cycles, cpu.time_trace(t).issue_cycles);
  EXPECT_EQ(cpu.time_split({}, 0, last).prefix.instructions, 0u);
}

/// The issue model stated directly: walk the trace group by group, pairing
/// two adjacent instructions when the position's dependency draw succeeds
/// and the pipes allow it, and charge each taken control transfer and
/// multiply in the group.
CpuStats greedy_time(const Cpu::Config& cfg, const MachineTrace& t) {
  const auto int_pipe = [](InstrClass c) {
    return c == InstrClass::kIAlu || c == InstrClass::kIMul ||
           c == InstrClass::kNop;
  };
  CpuStats s;
  s.instructions = t.size();
  for (std::size_t i = 0; i < t.size();) {
    const MachineInstr& a = t[i];
    std::size_t issued = 1;
    if (i + 1 < t.size() &&
        ((i * 2654435761u) >> 7) % 1000 < cfg.pair_success_permille &&
        cfg.dual_issue && !(is_control(a.cls) && a.taken) &&
        a.cls != InstrClass::kIMul && t[i + 1].cls != InstrClass::kIMul &&
        int_pipe(a.cls) != int_pipe(t[i + 1].cls)) {
      issued = 2;
      ++s.dual_issues;
    }
    s.issue_cycles += 1;
    for (std::size_t k = i; k < i + issued; ++k) {
      if (is_control(t[k].cls) && t[k].taken) {
        ++s.taken_branches;
        s.issue_cycles += cfg.taken_branch_penalty;
      }
      if (t[k].cls == InstrClass::kIMul) {
        ++s.imul_count;
        s.issue_cycles += cfg.imul_penalty;
      }
    }
    i += issued;
  }
  return s;
}

// prepare_side times a paper trace and its critical prefix in one scan;
// at every split, and with the prefix's last instruction kept or rewritten,
// that equals timing the trace and an edited copy of the prefix apart, by
// time_trace and by the group-by-group walk.
TEST(Cpu, OneScanTimesTraceAndPrefix) {
  const auto expect_same = [](const CpuStats& a, const CpuStats& b) {
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.issue_cycles, b.issue_cycles);
    EXPECT_EQ(a.dual_issues, b.dual_issues);
    EXPECT_EQ(a.taken_branches, b.taken_branches);
    EXPECT_EQ(a.imul_count, b.imul_count);
  };
  const Cpu cpu;
  for (net::StackKind kind : {net::StackKind::kTcpIp, net::StackKind::kRpc}) {
    harness::Experiment e(kind, code::StackConfig::Std(),
                          code::StackConfig::Std());
    const MachineTrace t = e.lower_client();
    SCOPED_TRACE(net::to_string(kind));
    ASSERT_GT(t.size(), 1000u);
    const CpuStats whole = cpu.time_trace(t);
    expect_same(whole, greedy_time(cpu.config(), t));
    MachineTrace edited;
    edited.reserve(t.size());
    for (std::size_t k = 0; k <= t.size(); ++k) {
      const MachineInstr kept = k > 0 ? t[k - 1] : MachineInstr{};
      MachineInstr rewritten = kept;
      rewritten.cls = InstrClass::kJump;
      rewritten.taken = !kept.taken;
      for (const MachineInstr& last : {kept, rewritten}) {
        const Cpu::SplitTiming got = cpu.time_split(t, k, last);
        edited.assign(t.begin(), t.begin() + static_cast<long>(k));
        if (k > 0) edited.back() = last;
        expect_same(got.trace, whole);
        expect_same(got.prefix, greedy_time(cpu.config(), edited));
        if (k % 256 == 0) expect_same(got.prefix, cpu.time_trace(edited));
        if (::testing::Test::HasFailure()) {
          FAIL() << "prefix of " << k;
        }
      }
    }
  }
  EXPECT_THROW(cpu.time_split({}, 1, MachineInstr{}), std::invalid_argument);
}

}  // namespace
}  // namespace l96::sim
