#include "util/arena.h"

#include <cstdlib>

namespace tft {

namespace {

std::size_t align_up(std::size_t v, std::size_t align) noexcept {
  return (v + align - 1) & ~(align - 1);
}

}  // namespace

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  while (true) {
    if (active_ < blocks_.size()) {
      Block& b = blocks_[active_];
      const std::size_t start = align_up(used_, align);
      if (start + bytes <= b.size) {
        used_ = start + bytes;
        return b.data + start;
      }
      // Active block exhausted: move to the first later block that fits
      // (pre-existing blocks are reused after a rewind), skipping the ones
      // too small for this request — they serve later small requests after
      // the next rewind. Growing while a later block fits would add a block
      // per rewind cycle for the life of the thread.
      std::size_t next = active_ + 1;
      while (next < blocks_.size() && blocks_[next].size < bytes + align) ++next;
      if (next < blocks_.size()) {
        active_ = next;
        used_ = 0;
        continue;
      }
    }
    add_block(bytes + align);
    // No block fits: the new one is last; make it active.
    active_ = blocks_.size() - 1;
    used_ = 0;
  }
}

void Arena::add_block(std::size_t min_bytes) {
  std::size_t size = blocks_.empty() ? kMinBlockBytes
                                     : std::min(blocks_.back().size * 2, kMaxBlockBytes);
  if (size < min_bytes) size = align_up(min_bytes, std::size_t{4} << 10);
  auto* data = static_cast<std::byte*>(::operator new(size, std::align_val_t{64}));
  arena_charge(size);
  blocks_.push_back({data, size});
}

void Arena::trim(std::size_t keep_bytes) {
  std::size_t kept = 0;
  std::size_t out = 0;
  for (Block& b : blocks_) {
    if (kept + b.size <= keep_bytes) {
      kept += b.size;
      blocks_[out++] = b;
    } else {
      arena_release(b.size);
      ::operator delete(b.data, std::align_val_t{64});
    }
  }
  blocks_.resize(out);
  active_ = 0;
  used_ = 0;
}

std::size_t Arena::capacity_bytes() const noexcept {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

std::size_t Arena::used_bytes() const noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < active_ && i < blocks_.size(); ++i) total += blocks_[i].size;
  return total + used_;
}

Arena& thread_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace tft
