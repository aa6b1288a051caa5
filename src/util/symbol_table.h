// The name interner: stable small integer ids for names.
//
// Every name the profiler handles more than once is interned here
// exactly once and referenced by a 32-bit SymId afterwards: function
// names (callpath::FunctionRegistry), event-handler names, crosstalk
// tag names in a merged profile, and the stage/type names the live
// publish pipeline hands the whodunitd daemon. Call paths and
// transaction contexts are then cheap vectors of ids, and strings are
// resolved only where a human (or an export format) needs them.
//
// Concurrency contract: one writer (the shard that owns the table),
// any number of lock-free readers. Interned entries live in chunks
// that are never moved or mutated after publication, and the table
// publishes its size with release ordering, so a reader that observes
// id < size() can resolve Name(id) without synchronization. Interning
// itself is single-writer (each shard interns only into its own
// table).
#ifndef SRC_UTIL_SYMBOL_TABLE_H_
#define SRC_UTIL_SYMBOL_TABLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace whodunit::util {

// 0 is always the empty string — the "no name yet" id, rendered as
// "(untyped)" where a transaction type never arrived.
using SymId = uint32_t;

class SymbolTable {
 public:
  // Chunk k holds kFirstChunkSize << k names, so kMaxChunks chunks
  // hold about 1M symbols while an empty table stays small.
  static constexpr size_t kFirstChunkSize = 16;
  static constexpr size_t kMaxChunks = 16;
  static constexpr SymId kNotFound = 0xffffffffu;

  SymbolTable();
  ~SymbolTable();
  // A copy interns `other`'s names in its id order, so every id is
  // the same in the copy. Writer-side only, like Intern.
  SymbolTable(const SymbolTable& other);
  SymbolTable& operator=(const SymbolTable& other);

  // Returns the id of `name`, interning it first if new. Writer-side
  // only; ids are assigned in first-intern order and never change.
  SymId Intern(std::string_view name);

  // The id of `name`, or kNotFound if it was never interned.
  // Writer-side only.
  SymId Find(std::string_view name) const;

  // Resolves an id to its name. Lock-free; safe concurrently with the
  // writer's Intern calls. Out-of-range ids resolve to "".
  const std::string& Name(SymId id) const;

  // Number of interned symbols (ids are [0, size)).
  size_t size() const { return size_.load(std::memory_order_acquire); }

  // Interns every symbol of `other` into this table, in the other
  // table's id order (deterministic), and returns the translation:
  // remap[other_id] == the id here (the shard merge's name-based id
  // translation).
  std::vector<SymId> MergeFrom(const SymbolTable& other);

 private:
  void Clear();

  std::atomic<std::string*> chunks_[kMaxChunks] = {};
  // Writer-side reverse index; readers never touch it.
  std::map<std::string, SymId, std::less<>> ids_;
  std::atomic<uint32_t> size_{0};
};

// The calling thread's current symbol table. Defaults to the
// process-wide table; a ParallelRunner shard installs its own through
// ScopedSymbolTable (ShardEnv::Scope) so shards never share a writer.
SymbolTable& Syms();
SymbolTable& GlobalSymbolTable();

// Installs `table` as the calling thread's Syms() for the scope's
// lifetime; restores the previous table on destruction.
class ScopedSymbolTable {
 public:
  explicit ScopedSymbolTable(SymbolTable& table);
  ~ScopedSymbolTable();
  ScopedSymbolTable(const ScopedSymbolTable&) = delete;
  ScopedSymbolTable& operator=(const ScopedSymbolTable&) = delete;

 private:
  SymbolTable* prev_;
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_SYMBOL_TABLE_H_
