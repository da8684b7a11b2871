#include "sim/cpu.h"

#include <array>
#include <stdexcept>
#include <string>

namespace l96::sim {

namespace {

// What the pairing rule and the charges read of an instruction's class.
constexpr unsigned kIntegerPipe = 1;  // IAlu, IMul, Nop; the rest use the other
constexpr unsigned kMultiply = 2;
constexpr unsigned kControl = 4;

constexpr std::array<std::uint8_t, 256> kClassBits = [] {
  std::array<std::uint8_t, 256> bits{};
  for (unsigned c = 0; c < bits.size(); ++c) {
    const auto cls = static_cast<InstrClass>(c);
    bits[c] = static_cast<std::uint8_t>(
        (cls == InstrClass::kIAlu || cls == InstrClass::kIMul ||
                 cls == InstrClass::kNop
             ? kIntegerPipe
             : 0) |
        (cls == InstrClass::kIMul ? kMultiply : 0) |
        (is_control(cls) ? kControl : 0));
  }
  return bits;
}();

unsigned class_bits(const MachineInstr& in) noexcept {
  return kClassBits[static_cast<std::uint8_t>(in.cls)];
}

bool taken_control(const MachineInstr& in) noexcept {
  return (class_bits(in) & kControl) != 0 && in.taken;
}

/// A greedy pairing scan, counted without jumping along the trace.  Greedy
/// issue pairs at every group start i where pairs(i) holds and enters each
/// maximal run of such positions at its first (the position before it
/// issued alone, or paired and skipped onto it), so a run of L positions
/// issues ceil(L/2) pairs and every other instruction issues alone.
struct Tally {
  CpuStats s;
  std::uint64_t run = 0;  ///< pairable positions in the open run

  /// Instruction `in`, pairable with its successor or not.
  void add(const MachineInstr& in, bool pairable) {
    s.taken_branches += taken_control(in);
    s.imul_count += (class_bits(in) & kMultiply) != 0;
    s.dual_issues += pairable ? 0 : (run + 1) / 2;
    run = pairable ? run + 1 : 0;
  }
  /// The stats of `n` instructions, every run closed.
  CpuStats done(std::size_t n, const Cpu::Config& cfg) const {
    CpuStats out = s;
    out.instructions = n;
    out.issue_cycles = n - s.dual_issues +
                       s.taken_branches * cfg.taken_branch_penalty +
                       s.imul_count * cfg.imul_penalty;
    return out;
  }
};

}  // namespace

bool Cpu::pairs(std::size_t i, const MachineInstr& a,
                const MachineInstr& b) const noexcept {
  // Bitwise, not short-circuit: the outcome is data-dependent, so branches
  // on it mispredict.  A taken control transfer ends the issue group;
  // integer multiplies occupy the integer pipe for many cycles and never
  // pair; otherwise exactly one of the two may use the integer pipe, the
  // other the load/store/branch/fp pipe.  A pairable pair still fails
  // when the position's dependency draw does.
  const unsigned fa = class_bits(a);
  const unsigned fb = class_bits(b);
  const bool dep_ok =
      ((i * 2654435761u) >> 7) % 1000 < cfg_.pair_success_permille;
  const bool no_multiply = ((fa | fb) & kMultiply) == 0;
  const bool two_pipes = ((fa ^ fb) & kIntegerPipe) != 0;
  return cfg_.dual_issue & dep_ok & !taken_control(a) & no_multiply &
         two_pipes;
}

CpuStats Cpu::time_trace(std::span<const MachineInstr> trace) const {
  return time_split(trace, 0, MachineInstr{}).trace;
}

Cpu::SplitTiming Cpu::time_split(std::span<const MachineInstr> trace,
                                 std::size_t prefix,
                                 const MachineInstr& prefix_last) const {
  const std::size_t n = trace.size();
  if (prefix > n) {
    throw std::invalid_argument(
        "Cpu::time_split: prefix of " + std::to_string(prefix) +
        " instructions in a trace of " + std::to_string(n));
  }
  Tally whole, part;
  // Positions [from, to), each with a successor in the trace.
  const auto scan = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      whole.add(trace[i], pairs(i, trace[i], trace[i + 1]));
    }
  };
  // Position i's pairing reads instruction i+1, the prefix's last from
  // position prefix-2 on; up to there the prefix's tally is the trace's.
  const std::size_t shared = prefix >= 2 ? prefix - 2 : 0;
  scan(0, shared);
  if (prefix > 0) {
    part = whole;
    const auto own = [&](std::size_t j) -> const MachineInstr& {
      return j + 1 == prefix ? prefix_last : trace[j];
    };
    for (std::size_t j = shared; j < prefix; ++j) {
      part.add(own(j), j + 1 < prefix && pairs(j, own(j), own(j + 1)));
    }
  }
  if (n > 0) {
    scan(shared, n - 1);
    whole.add(trace[n - 1], false);
  }
  return {whole.done(n, cfg_), part.done(prefix, cfg_)};
}

}  // namespace l96::sim
