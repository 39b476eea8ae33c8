#include "text/scratch.h"

#include <algorithm>
#include <iterator>

namespace skyex::text {

void ByteMasks::Load(std::string_view pattern) {
  if (++generation_ == 0) {  // stamp wrap: invalidate the table once
    std::fill(std::begin(stamp_), std::end(stamp_), 0u);
    generation_ = 1;
  }
  for (size_t i = 0; i < pattern.size(); ++i) {
    const auto c = static_cast<unsigned char>(pattern[i]);
    if (stamp_[c] != generation_) {
      stamp_[c] = generation_;
      mask_[c] = 0;
    }
    mask_[c] |= uint64_t{1} << i;
  }
}

ByteMasks& ScratchArena::Masks() {
  if (byte_masks_ == nullptr) byte_masks_ = std::make_unique<ByteMasks>();
  return *byte_masks_;
}

ScratchArena& ScratchArena::Get() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace skyex::text
