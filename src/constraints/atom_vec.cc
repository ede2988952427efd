#include "constraints/atom_vec.h"

#include <algorithm>
#include <cstring>

namespace dodb {

AtomArena::~AtomArena() {
  for (DenseAtom* chunk : chunks_) delete[] chunk;
}

const DenseAtom* AtomArena::Place(const DenseAtom* atoms, size_t n) {
  if (last_capacity_ - last_used_ < n) {
    const size_t capacity = std::max(kMinChunkAtoms, n);
    chunks_.push_back(new DenseAtom[capacity]);
    last_capacity_ = capacity;
    last_used_ = 0;
    bytes_ += capacity * sizeof(DenseAtom);
  }
  DenseAtom* dst = chunks_.back() + last_used_;
  std::memcpy(dst, atoms, n * sizeof(DenseAtom));
  last_used_ += n;
  return dst;
}

AtomVec::AtomVec(std::vector<DenseAtom> atoms) {
  size_ = static_cast<uint32_t>(atoms.size());
  if (atoms.size() <= kInlineAtoms) {
    // std::copy, not memcpy: an empty vector's data() may be null.
    std::copy(atoms.begin(), atoms.end(), inline_);
    return;
  }
  rep_ = Rep::kHeap;
  heap_ = std::move(atoms);
}

void AtomVec::DetachSpan() {
  if (size_ <= kInlineAtoms) {
    std::memcpy(inline_, span_, size_ * sizeof(DenseAtom));
    rep_ = Rep::kInline;
  } else {
    heap_.assign(span_, span_ + size_);
    rep_ = Rep::kHeap;
  }
  span_ = nullptr;
  keepalive_.reset();
}

void AtomVec::push_back(const DenseAtom& atom) {
  if (rep_ == Rep::kSpan) DetachSpan();
  if (rep_ == Rep::kInline) {
    if (size_ < kInlineAtoms) {
      inline_[size_++] = atom;
      return;
    }
    heap_.reserve(kInlineAtoms * 2);
    heap_.assign(inline_, inline_ + size_);
    rep_ = Rep::kHeap;
  }
  heap_.push_back(atom);
  ++size_;
}

void AtomVec::clear() {
  rep_ = Rep::kInline;
  size_ = 0;
  heap_.clear();
  heap_.shrink_to_fit();
  span_ = nullptr;
  keepalive_.reset();
}

uint64_t AtomVec::PlaceIn(const std::shared_ptr<AtomArena>& arena) {
  if (rep_ != Rep::kHeap) return 0;
  const uint64_t before = arena->bytes();
  span_ = arena->Place(heap_.data(), size_);
  keepalive_ = arena;
  rep_ = Rep::kSpan;
  heap_.clear();
  heap_.shrink_to_fit();
  return arena->bytes() - before;
}

}  // namespace dodb
