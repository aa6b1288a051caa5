// Data locations, as seen by the shared-memory flow algorithm.
//
// Paper §3.2: "The union of the virtual address space and the name
// space of annotated registers is the complete name space of all
// locations where application data reside." A Loc names either a
// memory word or a (thread, register) pair.
#ifndef SRC_VM_LOC_H_
#define SRC_VM_LOC_H_

#include <cstdint>
#include <string>

namespace whodunit::vm {

using ThreadId = uint32_t;
using Addr = uint64_t;

struct Loc {
  enum class Kind : uint8_t { kMem, kReg };

  Kind kind;
  ThreadId thread;  // meaningful for registers only (reg_ti in the paper)
  uint64_t addr;    // memory address, or register number

  static Loc Mem(Addr a) { return Loc{Kind::kMem, 0, a}; }
  static Loc Reg(ThreadId t, uint8_t r) { return Loc{Kind::kReg, t, r}; }

  bool is_mem() const { return kind == Kind::kMem; }

  friend bool operator==(const Loc& a, const Loc& b) {
    if (a.kind != b.kind || a.addr != b.addr) {
      return false;
    }
    return a.kind == Kind::kMem || a.thread == b.thread;
  }

  std::string ToString() const {
    std::string out(kind == Kind::kMem ? "[" : "r");
    out += std::to_string(addr);
    if (kind == Kind::kMem) {
      out += ']';
    } else {
      out += "@t";
      out += std::to_string(thread);
    }
    return out;
  }
};

struct LocHash {
  size_t operator()(const Loc& l) const {
    uint64_t h = l.addr * 0x9e3779b97f4a7c15ull;
    h ^= static_cast<uint64_t>(l.kind) << 62;
    if (l.kind == Loc::Kind::kReg) {
      h ^= static_cast<uint64_t>(l.thread) * 0xbf58476d1ce4e5b9ull;
    }
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

}  // namespace whodunit::vm

#endif  // SRC_VM_LOC_H_
