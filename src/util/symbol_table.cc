#include "src/util/symbol_table.h"

#include <bit>

namespace whodunit::util {
namespace {

const std::string kEmptyName;

thread_local SymbolTable* tls_symbol_table = nullptr;

// Chunk index and slot of an id: ids [0, 16) fill chunk 0, [16, 48)
// chunk 1, and so on, each chunk twice the size of the one before.
struct Slot {
  size_t chunk;
  size_t index;
};

Slot SlotOf(SymId id) {
  constexpr int kFirstShift = std::countr_zero(SymbolTable::kFirstChunkSize);
  const uint64_t v = uint64_t{id} + SymbolTable::kFirstChunkSize;
  const auto chunk = static_cast<size_t>(std::bit_width(v) - 1 - kFirstShift);
  return {chunk, static_cast<size_t>(v - (SymbolTable::kFirstChunkSize << chunk))};
}

}  // namespace

SymbolTable::SymbolTable() { Intern(""); }

SymbolTable::~SymbolTable() { Clear(); }

SymbolTable::SymbolTable(const SymbolTable& other) : SymbolTable() { MergeFrom(other); }

SymbolTable& SymbolTable::operator=(const SymbolTable& other) {
  if (this != &other) {
    Clear();
    Intern("");
    MergeFrom(other);
  }
  return *this;
}

void SymbolTable::Clear() {
  for (auto& slot : chunks_) {
    delete[] slot.exchange(nullptr, std::memory_order_relaxed);
  }
  ids_.clear();
  size_.store(0, std::memory_order_release);
}

SymId SymbolTable::Intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const uint32_t id = size_.load(std::memory_order_relaxed);
  const Slot slot = SlotOf(id);
  if (slot.chunk >= kMaxChunks) {
    // Table full — fold the overflow onto the empty symbol rather than
    // crash a production collector; 1M distinct names means the
    // publisher is interning per-transaction data, which is a bug.
    return 0;
  }
  std::string* chunk = chunks_[slot.chunk].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new std::string[kFirstChunkSize << slot.chunk];
    // Publish the chunk before the size that makes its slots visible.
    chunks_[slot.chunk].store(chunk, std::memory_order_release);
  }
  chunk[slot.index] = std::string(name);
  size_.store(id + 1, std::memory_order_release);
  ids_.emplace(chunk[slot.index], id);
  return id;
}

SymId SymbolTable::Find(std::string_view name) const {
  const auto it = ids_.find(name);
  return it != ids_.end() ? it->second : kNotFound;
}

const std::string& SymbolTable::Name(SymId id) const {
  if (id >= size_.load(std::memory_order_acquire)) {
    return kEmptyName;
  }
  const Slot slot = SlotOf(id);
  return chunks_[slot.chunk].load(std::memory_order_acquire)[slot.index];
}

std::vector<SymId> SymbolTable::MergeFrom(const SymbolTable& other) {
  const size_t n = other.size();
  std::vector<SymId> remap(n);
  for (SymId id = 0; id < n; ++id) {
    remap[id] = Intern(other.Name(id));
  }
  return remap;
}

SymbolTable& GlobalSymbolTable() {
  static SymbolTable table;
  return table;
}

SymbolTable& Syms() {
  return tls_symbol_table != nullptr ? *tls_symbol_table : GlobalSymbolTable();
}

ScopedSymbolTable::ScopedSymbolTable(SymbolTable& table) : prev_(tls_symbol_table) {
  tls_symbol_table = &table;
}

ScopedSymbolTable::~ScopedSymbolTable() { tls_symbol_table = prev_; }

}  // namespace whodunit::util
