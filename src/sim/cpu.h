// Issue-timing model of the 21064 ("EV4") used to compute the instruction
// CPI (iCPI) of a trace assuming a perfect memory system, exactly the
// methodology of Section 4.4.2: "feeding the trace into a CPU simulator, we
// can compute the CPI of the traced code assuming a perfect memory system".
//
// The 21064 is a dual-issue in-order design with one integer pipe and one
// pipe shared by loads/stores/branches/floating point.  We model issue as
// greedy pairing over the trace: two adjacent instructions dual-issue when
// exactly one of them needs the integer pipe and the other needs the other
// pipe, and the first is not a taken control transfer.  Taken control
// transfers add a fixed penalty (the paper: "the CPU simulator adds a fixed
// penalty for each taken branch"); integer multiplies add their long fixed
// latency (the 21064 has no integer divide at all — division is a software
// routine, which the code model represents as executed instructions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/instr.h"

namespace l96::sim {

struct CpuStats {
  std::uint64_t instructions = 0;
  std::uint64_t issue_cycles = 0;     ///< cycles assuming perfect memory
  std::uint64_t dual_issues = 0;      ///< instruction pairs issued together
  std::uint64_t taken_branches = 0;
  std::uint64_t imul_count = 0;

  double icpi() const noexcept {
    return instructions == 0
               ? 0.0
               : static_cast<double>(issue_cycles) /
                     static_cast<double>(instructions);
  }
  void reset() noexcept { *this = CpuStats{}; }
};

class Cpu {
 public:
  struct Config {
    std::uint32_t taken_branch_penalty = 2;  ///< extra cycles per taken branch
    std::uint32_t imul_penalty = 19;         ///< extra cycles per integer mul
    bool dual_issue = true;                  ///< enable pairing (EV4 = true)
    /// Probability (per mille) that a structurally pairable pair actually
    /// dual-issues — models register dependencies and load-use stalls the
    /// class-level model cannot see.  1000 = always.
    std::uint32_t pair_success_permille = 300;
    std::uint64_t frequency_hz = 175'000'000;

    bool operator==(const Config&) const = default;
  };

  Cpu() = default;
  explicit Cpu(const Config& cfg) : cfg_(cfg) {}

  /// Compute issue cycles for a whole trace.  Stateless: each call times
  /// its trace from scratch.
  CpuStats time_trace(std::span<const MachineInstr> trace) const;

  struct SplitTiming {
    CpuStats trace;
    CpuStats prefix;
  };
  /// time_trace(trace), and the timing of its first `prefix` instructions
  /// with the last of them replaced by `prefix_last` (a prefix as its own
  /// lowering leaves it, when a longer lowering rewrote its terminator),
  /// from one scan.  Taken-branch and multiply charges are per-instruction
  /// sums, and the prefix's pairing decisions are the trace's until its
  /// last two instructions, so the scan copies its tally there and decides
  /// those two on their own.  An empty prefix times to zero (`prefix_last`
  /// unread).  Throws std::invalid_argument when `prefix` exceeds the
  /// trace.
  SplitTiming time_split(std::span<const MachineInstr> trace,
                         std::size_t prefix,
                         const MachineInstr& prefix_last) const;

  const Config& config() const noexcept { return cfg_; }

 private:
  /// Whether a group starting at instruction `i`, `a`, issues `b` with it.
  bool pairs(std::size_t i, const MachineInstr& a,
             const MachineInstr& b) const noexcept;

  Config cfg_;
};

}  // namespace l96::sim
