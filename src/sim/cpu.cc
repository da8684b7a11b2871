#include "sim/cpu.h"

namespace l96::sim {

bool Cpu::can_pair(const MachineInstr& a, const MachineInstr& b) const noexcept {
  if (!cfg_.dual_issue) return false;
  // A taken control transfer ends the issue group.
  if (is_control(a.cls) && a.taken) return false;
  // Integer multiplies occupy the integer pipe for many cycles; don't pair.
  if (a.cls == InstrClass::kIMul || b.cls == InstrClass::kIMul) return false;
  // Exactly one of the two may use the integer pipe; the other must use the
  // load/store/branch/fp pipe.
  return needs_integer_pipe(a.cls) != needs_integer_pipe(b.cls);
}

template <class At>
CpuStats Cpu::time(std::size_t n, At at) const {
  CpuStats s;
  s.instructions = n;

  for (std::size_t i = 0; i < n;) {
    const MachineInstr& a = at(i);
    std::size_t issued = 1;
    const bool dep_ok =
        ((i * 2654435761u) >> 7) % 1000 < cfg_.pair_success_permille;
    if (i + 1 < n && dep_ok && can_pair(a, at(i + 1))) {
      issued = 2;
      ++s.dual_issues;
    }
    s.issue_cycles += 1;
    for (std::size_t k = 0; k < issued; ++k) {
      const MachineInstr& in = at(i + k);
      if (is_control(in.cls) && in.taken) {
        ++s.taken_branches;
        s.issue_cycles += cfg_.taken_branch_penalty;
      }
      if (in.cls == InstrClass::kIMul) {
        ++s.imul_count;
        s.issue_cycles += cfg_.imul_penalty;
      }
    }
    i += issued;
  }
  return s;
}

CpuStats Cpu::time_trace(std::span<const MachineInstr> trace) const {
  return time(trace.size(),
              [trace](std::size_t i) -> const MachineInstr& {
                return trace[i];
              });
}

CpuStats Cpu::time_trace(std::span<const MachineInstr> trace,
                         const MachineInstr& last) const {
  const std::size_t n = trace.size();
  return time(n, [trace, &last, n](std::size_t i) -> const MachineInstr& {
    return i + 1 == n ? last : trace[i];
  });
}

}  // namespace l96::sim
