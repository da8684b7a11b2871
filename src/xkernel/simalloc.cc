#include "xkernel/simalloc.h"

namespace l96::xk {

SimAddr SimAlloc::alloc(std::uint64_t bytes, std::uint64_t align) {
  ++alloc_count_;
  const std::uint64_t cls = size_class(bytes);
  live_bytes_ += cls;

  auto it = free_lists_.find(cls);
  if (it != free_lists_.end() && !it->second.empty()) {
    const SimAddr a = it->second.back();
    it->second.pop_back();
    return a;
  }
  cursor_ = (cursor_ + align - 1) / align * align;
  const SimAddr a = cursor_;
  cursor_ += cls;
  return a;
}

void SimAlloc::free(SimAddr addr, std::uint64_t bytes) {
  ++free_count_;
  const std::uint64_t cls = size_class(bytes);
  live_bytes_ -= cls;
  free_lists_[cls].push_back(addr);
}

HostChunk* SimAlloc::acquire_chunk(std::uint64_t bytes) {
  std::unique_ptr<HostChunk> chunk;
  if (spare_chunks_.empty()) {
    chunk = std::make_unique<HostChunk>();
  } else {
    chunk = std::move(spare_chunks_.back());
    spare_chunks_.pop_back();
  }
  chunk->bytes.assign(bytes, 0);
  chunk->sim = alloc(bytes);
  chunk->refs = 1;
  chunk->owner = this;
  return chunk.release();
}

void SimAlloc::release_chunk(HostChunk* chunk) {
  std::unique_ptr<HostChunk> owned(chunk);
  free(owned->sim, owned->bytes.size());
  if (spare_chunks_.size() < kSpareChunks) {
    spare_chunks_.push_back(std::move(owned));
  }
}

}  // namespace l96::xk
