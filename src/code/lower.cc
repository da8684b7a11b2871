#include "code/lower.h"

#include <algorithm>
#include <vector>

namespace l96::code {

namespace {

using sim::InstrClass;
using sim::MachineInstr;
using sim::MachineTrace;

struct Frame {
  FnId fn = kInvalidFn;
  const FnPlacement* pl = nullptr;
  bool inlined = false;  ///< absorbed into the enclosing path composite
  sim::Addr ret_cursor = 0;
  sim::Addr sp = 0;
};

class LowerState {
 public:
  LowerState(const CodeRegistry& reg, const CodeImage& img,
             const StackConfig& cfg, const LowerParams& params)
      : reg_(reg), img_(img), cfg_(cfg), params_(params) {
    sp_ = params_.stack_top;
  }

  /// Lower `trace`, noting where the prefix split at event `split` ends
  /// (mark_*; see SplitLowering).
  MachineTrace run(const PathTrace& trace, std::size_t split) {
    out_.reserve(estimate_size(trace));
    bool marked = false;
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      const Event& ev = trace.events[i];
      if (!marked && i >= split && !joins_open_block(ev)) {
        // Every other event starts by flushing the open block, so
        // flushing here leaves out_ as the prefix's own lowering ends.
        flush_block();
        note_mark();
        marked = true;
      }
      switch (ev.kind) {
        case EventKind::kCall:
          flush_block();
          on_call(ev.fn);
          break;
        case EventKind::kReturn:
          flush_block();
          on_return();
          break;
        case EventKind::kBlock:
          flush_block();
          open_block(ev.fn, ev.block);
          break;
        case EventKind::kLoad:
        case EventKind::kStore:
          if (block_open_) {
            refs_.push_back(ev);
          } else {
            emit(ev.kind == EventKind::kLoad ? InstrClass::kLoad
                                             : InstrClass::kStore,
                 ev.addr);
          }
          break;
        case EventKind::kMarker:
          flush_block();
          if (ev.addr == Marker::kSlowPathBegin) force_slow_ = true;
          if (ev.addr == Marker::kSlowPathEnd) force_slow_ = false;
          break;
      }
    }
    flush_block();
    if (!marked) note_mark();
    return std::move(out_);
  }

  /// Where the prefix's lowering ends in out_.
  std::size_t mark_size = 0;
  MachineInstr mark_last{};

 private:
  /// Instructions about to be lowered for `trace`: each block's placed
  /// words, each call's prologue and each epilogue (plus call sequences),
  /// and each data reference, so the output vector is allocated once.
  std::size_t estimate_size(const PathTrace& trace) const {
    std::size_t n = 0;
    for (const Event& ev : trace.events) {
      switch (ev.kind) {
        case EventKind::kCall: {
          const Function& fn = reg_.fn(ev.fn);
          n += 2 + fn.prologue_instrs + fn.epilogue_instrs;
          break;
        }
        case EventKind::kBlock:
          n += 1 + reg_.fn(ev.fn).blocks.at(ev.block).instructions;
          break;
        case EventKind::kLoad:
        case EventKind::kStore:
          n += 1;
          break;
        default:
          break;
      }
    }
    return n;
  }

  /// A data reference inside an open block belongs to that block.
  bool joins_open_block(const Event& ev) const {
    return block_open_ &&
           (ev.kind == EventKind::kLoad || ev.kind == EventKind::kStore);
  }

  void note_mark() {
    mark_size = out_.size();
    if (!out_.empty()) mark_last = out_.back();
  }

  // --- emission helpers ----------------------------------------------------

  void emit(InstrClass cls, sim::Addr ea = 0, bool taken = false) {
    out_.push_back(MachineInstr{cursor_, cls, ea, taken});
    cursor_ += 4;
  }

  /// Redirect the instruction stream to `addr`.  If the previous
  /// instruction does not already transfer control, it becomes a taken
  /// conditional branch (blocks reserve their final slot as an ALU op for
  /// exactly this purpose); memory ops get an appended jump instead.
  void move_to(sim::Addr addr) {
    if (!out_.empty() && cursor_ != addr) {
      MachineInstr& last = out_.back();
      if (sim::is_control(last.cls)) {
        last.taken = true;
      } else if (sim::is_memory(last.cls) || last.cls == InstrClass::kIMul) {
        emit(InstrClass::kJump, 0, /*taken=*/true);
      } else {
        last.cls = InstrClass::kCondBranch;
        last.taken = true;
      }
    } else if (!out_.empty() && cursor_ == addr) {
      // Fall-through: a conditional branch that was not taken costs nothing
      // extra; leave the instruction as-is.
    }
    cursor_ = addr;
  }

  // --- block handling --------------------------------------------------------

  void open_block(FnId fn, BlockId block) {
    block_open_ = true;
    block_fn_ = fn;
    block_id_ = block;
    refs_.clear();
  }

  const FnPlacement& placement_for(FnId fn) const {
    if (!frames_.empty() && frames_.back().fn == fn && frames_.back().pl) {
      return *frames_.back().pl;
    }
    const bool in_path =
        !force_slow_ && cfg_.path_inlining && img_.composite_of(fn) >= 0 &&
        !frames_.empty() && frames_.back().pl &&
        frames_.back().pl->composite == img_.composite_of(fn);
    return img_.placement(fn, in_path);
  }

  void flush_block() {
    if (!block_open_) return;
    block_open_ = false;

    const FnPlacement& pl = placement_for(block_fn_);
    const BlockPlacement& bp = pl.blocks.at(block_id_);
    const BasicBlock& desc = reg_.fn(block_fn_).blocks.at(block_id_);

    move_to(bp.addr);

    const std::uint32_t n = std::max<std::uint32_t>(
        std::max<std::uint32_t>(bp.words, 1),
        static_cast<std::uint32_t>(refs_.size()) + 1);

    // Build the slot schedule: explicit data refs spread through the block,
    // generic stack traffic and multiplies filling further slots, ALU ops
    // elsewhere; the final slot stays ALU so move_to can turn it into the
    // block terminator.
    std::uint32_t ref_i = 0;
    std::uint32_t stack_r = desc.stack_reads;
    std::uint32_t stack_w = desc.stack_writes;
    std::uint32_t imuls = desc.imuls;
    const std::uint32_t refs_n = static_cast<std::uint32_t>(refs_.size());
    const std::uint32_t stride = refs_n ? std::max(1u, (n - 1) / refs_n) : n;

    const sim::Addr frame_base = frames_.empty() ? sp_ : frames_.back().sp;
    const std::uint32_t frame_slots =
        std::max<std::uint32_t>(1, reg_.fn(block_fn_).frame_bytes / 8);

    for (std::uint32_t i = 0; i < n; ++i) {
      const bool last = (i + 1 == n);
      if (!last && ref_i < refs_n && (i % stride) == stride - 1) {
        const Event& ev = refs_[ref_i++];
        emit(ev.kind == EventKind::kLoad ? InstrClass::kLoad
                                         : InstrClass::kStore,
             ev.addr);
      } else if (!last && stack_w > 0) {
        --stack_w;
        emit(InstrClass::kStore,
             frame_base + 8ull * ((i + 1) % frame_slots));
      } else if (!last && stack_r > 0) {
        --stack_r;
        emit(InstrClass::kLoad, frame_base + 8ull * ((i + 3) % frame_slots));
      } else if (!last && imuls > 0) {
        --imuls;
        emit(InstrClass::kIMul);
      } else if (!last && params_.implicit_load_every != 0 &&
                 (i % params_.implicit_load_every) ==
                     params_.implicit_load_every - 1) {
        if ((i / params_.implicit_load_every) % 2 == 0) {
          emit(InstrClass::kLoad,
               frame_base + 8ull * ((i + 5) % frame_slots));
        } else {
          const sim::Addr g = params_.globals_base +
                              sim::Addr{block_fn_} *
                                  params_.globals_span_bytes;
          emit(InstrClass::kLoad,
               g + 8ull * ((i * 3 + block_id_ * 5) %
                           (params_.globals_span_bytes / 8)));
        }
      } else if (!last && params_.implicit_store_every != 0 &&
                 (i % params_.implicit_store_every) ==
                     params_.implicit_store_every - 1) {
        emit(InstrClass::kStore, frame_base + 8ull * ((i + 7) % frame_slots));
      } else {
        emit(InstrClass::kIAlu);
      }
    }
    // Any explicit refs that did not get a slot (very dense blocks).
    while (ref_i < refs_n) {
      const Event& ev = refs_[ref_i++];
      emit(ev.kind == EventKind::kLoad ? InstrClass::kLoad
                                       : InstrClass::kStore,
           ev.addr);
    }
    refs_.clear();
  }

  // --- call / return -----------------------------------------------------

  void on_call(FnId callee) {
    const int callee_comp =
        (cfg_.path_inlining && !force_slow_) ? img_.composite_of(callee) : -1;
    const bool caller_in_same_comp =
        callee_comp >= 0 && !frames_.empty() && frames_.back().pl &&
        frames_.back().pl->composite == callee_comp;

    if (caller_in_same_comp) {
      // Internal path call: absorbed by path-inlining.  No instructions;
      // the callee's blocks live in the same composite.
      Frame f;
      f.fn = callee;
      f.pl = &img_.placement(callee, /*in_path=*/true);
      f.inlined = true;
      f.ret_cursor = cursor_;
      f.sp = frames_.back().sp;  // shares the composite's frame
      frames_.push_back(f);
      return;
    }

    const bool use_path_pl = callee_comp >= 0 && !force_slow_;
    const FnPlacement& pl = img_.placement(callee, use_path_pl);
    const Function& fn = reg_.fn(callee);

    if (!frames_.empty()) {
      // Call sequence at the call site.
      if (params_.got_loads && pl.got_load_on_call) {
        emit(InstrClass::kLoad, img_.got_addr(callee));
      }
      emit(InstrClass::kCall, 0, /*taken=*/true);
    }

    Frame f;
    f.fn = callee;
    f.pl = &pl;
    f.ret_cursor = cursor_;
    f.sp = (frames_.empty() ? sp_ : frames_.back().sp) - fn.frame_bytes;
    frames_.push_back(f);

    cursor_ = pl.entry;
    // Prologue: stack adjust + register saves.
    for (std::uint32_t i = 0; i < pl.prologue_words; ++i) {
      if (i < 2) {
        emit(InstrClass::kIAlu);
      } else {
        emit(InstrClass::kStore, f.sp + 8ull * (i - 2));
      }
    }
  }

  void on_return() {
    if (frames_.empty()) return;
    Frame f = frames_.back();
    frames_.pop_back();

    if (f.inlined) {
      cursor_ = f.ret_cursor;
      return;
    }
    if (f.pl && f.pl->epilogue_words > 0) {
      move_to(f.pl->epilogue_addr);
      for (std::uint32_t i = 0; i + 1 < f.pl->epilogue_words; ++i) {
        emit(InstrClass::kLoad, f.sp + 8ull * i);
      }
      emit(InstrClass::kRet, 0, /*taken=*/true);
    }
    cursor_ = f.ret_cursor;
  }

  const CodeRegistry& reg_;
  const CodeImage& img_;
  const StackConfig& cfg_;
  const LowerParams& params_;

  MachineTrace out_;
  sim::Addr cursor_ = 0;
  sim::Addr sp_ = 0;
  std::vector<Frame> frames_;

  bool force_slow_ = false;
  bool block_open_ = false;
  FnId block_fn_ = kInvalidFn;
  BlockId block_id_ = 0;
  std::vector<Event> refs_;
};

}  // namespace

sim::MachineTrace Lowering::lower(const PathTrace& trace) const {
  LowerState st(reg_, img_, cfg_, params_);
  return st.run(trace, trace.events.size());
}

SplitLowering Lowering::lower_split(const PathTrace& trace,
                                    std::size_t split) const {
  LowerState st(reg_, img_, cfg_, params_);
  SplitLowering out;
  out.trace = st.run(trace, split);
  out.prefix_size = st.mark_size;
  out.prefix_last = st.mark_last;
  return out;
}

sim::OwnerMap build_owner_map(const CodeRegistry& reg, const CodeImage& img,
                              const LowerParams& params,
                              const std::vector<DataRegionSpec>& extra) {
  sim::OwnerMap map;
  img.export_regions(reg, map);

  auto add_data = [&map](const std::string& name, sim::Addr lo, sim::Addr hi) {
    map.add_region(lo, hi, map.add_owner(name), sim::OwnerSegment::kData);
  };
  // Stack frames nest downward from stack_top (call depth is bounded far
  // below this window); the trailing block covers frame_base slots at the
  // top frame itself.
  add_data("data:stack", params.stack_top - 0x8'0000,
           params.stack_top + 0x1000);
  add_data("data:globals", params.globals_base,
           params.globals_base +
               sim::Addr{reg.size()} * params.globals_span_bytes);
  add_data("data:got", img.got_base(), img.got_addr(static_cast<FnId>(
                                           reg.size())));
  for (const DataRegionSpec& r : extra) add_data(r.name, r.lo, r.hi);

  map.seal();
  return map;
}

}  // namespace l96::code
