// Lowering: expand a recorded PathTrace into a machine-level instruction
// trace under a concrete CodeImage.
//
// This is the reproduction's "execution" of compiled code: every kBlock
// event becomes that block's instructions at its placed addresses; kCall /
// kReturn events become call sequences, prologues and epilogues; explicit
// kLoad/kStore events become memory instructions at the recorded simulated
// data addresses; generic stack traffic is synthesized against the
// simulated stack frame.  Control-flow discontinuities become taken
// branches, so outlining (adjacent mainline blocks) and path-inlining
// (no call overhead, composite blocks in execution order) naturally reduce
// both the instruction count and the taken-branch count, exactly the
// effects the paper measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "code/image.h"
#include "code/model.h"
#include "code/trace.h"
#include "sim/instr.h"

namespace l96::code {

struct LowerParams {
  sim::Addr stack_top = 0x9008'0000;
  /// Emit the GOT load for call sequences that need one (adds d-cache
  /// traffic for indirect calls, as on the real Alpha).
  bool got_loads = true;
  /// Implicit per-block frame traffic beyond the declared references:
  /// compiled protocol code is roughly 38% memory operations (spills,
  /// field accesses the descriptors do not itemize).  One extra frame load
  /// every `implicit_load_every` slots and one store every
  /// `implicit_store_every` slots.  0 disables.
  std::uint32_t implicit_load_every = 3;
  std::uint32_t implicit_store_every = 9;
  /// Per-function static data (globals, protocol statistics, tables):
  /// implicit loads alternate between the stack frame and a 256-byte
  /// globals region per function, so the d-cache sees realistic spread.
  sim::Addr globals_base = 0xB004'0000;
  std::uint32_t globals_span_bytes = 256;
};

/// A named data region for the load/store side of an OwnerMap (e.g. the
/// SimAlloc message-buffer arena, which code/ cannot name itself).
struct DataRegionSpec {
  std::string name;
  sim::Addr lo = 0;
  sim::Addr hi = 0;  ///< exclusive
};

/// Build the full address→owner map for `img`: every placed instruction
/// region (CodeImage::export_regions) plus the data regions lowering
/// synthesizes traffic against — the stack frames below params.stack_top,
/// the per-function globals windows, and the GOT — plus any caller-supplied
/// extra regions.  The returned map is sealed and ready for a
/// sim::MissProfiler.
sim::OwnerMap build_owner_map(const CodeRegistry& reg, const CodeImage& img,
                              const LowerParams& params = {},
                              const std::vector<DataRegionSpec>& extra = {});

/// One trace lowered together with a prefix of its events (the critical
/// path before the transmit point), in a single pass.
///
/// A basic block runs whole, so a split that falls on data references
/// joining an open block ends where that block flushes: the prefix is the
/// first s' events, where s' is the split moved past those references.
/// Their own lowering, lower(first s' events), is the first `prefix_size`
/// instructions of `trace` with the final one replaced by `prefix_last`:
/// the rest of the trace may rewrite that terminator (its class and taken
/// flag; never its PC, and never a memory instruction).
struct SplitLowering {
  sim::MachineTrace trace;  ///< the whole trace's lowering
  std::size_t prefix_size = 0;
  sim::MachineInstr prefix_last{};  ///< meaningful when prefix_size > 0

  /// The prefix's instructions; its final one is `prefix_last` in the
  /// prefix's own lowering.
  std::span<const sim::MachineInstr> prefix() const noexcept {
    return std::span<const sim::MachineInstr>(trace).first(prefix_size);
  }
};

class Lowering {
 public:
  Lowering(const CodeRegistry& reg, const CodeImage& img,
           const StackConfig& cfg, LowerParams params = {})
      : reg_(reg), img_(img), cfg_(cfg), params_(params) {}

  sim::MachineTrace lower(const PathTrace& trace) const;
  /// lower(trace) plus the lowering of its first `split` events (all of
  /// them when `split` exceeds the trace), the split moved to a block end
  /// as SplitLowering describes.
  SplitLowering lower_split(const PathTrace& trace, std::size_t split) const;

 private:
  const CodeRegistry& reg_;
  const CodeImage& img_;
  StackConfig cfg_;  ///< by value: callers may pass a temporary config
  LowerParams params_;
};

}  // namespace l96::code
