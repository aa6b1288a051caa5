// MiniVM instruction set.
//
// The reproduction's stand-in for the QEMU CPU-emulator core the paper
// extracts (§7.2). The flow-detection algorithm of §3 only needs to
// see, for code inside critical sections:
//   * MOV-class operations that move a value location-to-location,
//   * non-MOV writes (immediates, arithmetic results), and
//   * reads (to detect post-critical-section consumption).
// MiniVM is a small register machine (16 general registers, 64-bit
// words, base+displacement addressing) whose interpreter reports
// exactly those events.
#ifndef SRC_VM_ISA_H_
#define SRC_VM_ISA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace whodunit::vm {

inline constexpr int kNumRegs = 16;

// Memory operand: effective address = regs[base] + disp.
struct MemRef {
  uint8_t base = 0;
  int64_t disp = 0;
};

enum class Opcode : uint8_t {
  kMovRR,  // r1 <- r2
  kMovRI,  // r1 <- imm          (value creation, not a data move)
  kMovRM,  // r1 <- [m1]
  kMovMR,  // [m1] <- r1
  kMovMI,  // [m1] <- imm        (value creation, not a data move)
  kMovMM,  // [m1] <- [m2]
  kAddRR,  // r1 += r2
  kAddRI,  // r1 += imm
  kSubRI,  // r1 -= imm
  kMulRI,  // r1 *= imm
  kIncM,   // [m1] += 1
  kDecM,   // [m1] -= 1
  kAddMI,  // [m1] += imm
  kCmpRI,  // flags <- compare(r1, imm)
  kCmpRR,  // flags <- compare(r1, r2)
  kCmpMI,  // flags <- compare([m1], imm)
  kJmp,    // pc <- target
  kJe,     // if equal
  kJne,    // if not equal
  kJl,     // if less (signed)
  kJge,    // if greater-or-equal (signed)
  kLock,   // critical-section begin marker; imm = lock id
  kUnlock, // critical-section end marker; imm = lock id
  kNop,
  kHalt,
};

struct Instruction {
  Opcode op = Opcode::kNop;
  uint8_t r1 = 0;
  uint8_t r2 = 0;
  MemRef m1;
  MemRef m2;
  int64_t imm = 0;
  int32_t target = 0;  // jump destination (instruction index)
};

inline constexpr int kNumOpcodes = static_cast<int>(Opcode::kHalt) + 1;

// Guest-cycle cost model, as constexpr tables indexed by opcode so the
// interpreter's inner loop is a single indexed load (no branchy
// switch). Table order must match the Opcode enum above.
//
// Direct execution ("native" in Table 3): a simple per-class model of
// a 2007-era x86. Lock/Unlock model an uncontended atomic + fence, the
// dominant direct-execution cost of the tiny Apache critical sections
// (Table 3: ~110-130 cycles total, mostly lock/unlock).
inline constexpr int64_t kDirectCycles[kNumOpcodes] = {
    /*kMovRR*/ 1,  /*kMovRI*/ 1,  /*kMovRM*/ 3, /*kMovMR*/ 3, /*kMovMI*/ 3,
    /*kMovMM*/ 5,  /*kAddRR*/ 1,  /*kAddRI*/ 1, /*kSubRI*/ 1, /*kMulRI*/ 3,
    /*kIncM*/ 5,   /*kDecM*/ 5,   /*kAddMI*/ 5, /*kCmpRI*/ 1, /*kCmpRR*/ 1,
    /*kCmpMI*/ 3,  /*kJmp*/ 2,    /*kJe*/ 2,    /*kJne*/ 2,   /*kJl*/ 2,
    /*kJge*/ 2,    /*kLock*/ 45,  /*kUnlock*/ 45, /*kNop*/ 1, /*kHalt*/ 0,
};

// Emulation from the translation cache: dispatch + operand decode +
// hook delivery per instruction; memory operations pay an extra
// soft-TLB-ish cost. The constants put the Table 3 magnitudes (~10^2
// direct, ~10^4 cached emulation, ~10^4-10^5 translate+emulate) in the
// paper's regime; the *ordering* is a property of the design
// (translation >> cached emulation >> direct).
inline constexpr int64_t kEmulateCycles[kNumOpcodes] = {
    /*kMovRR*/ 800,  /*kMovRI*/ 800,  /*kMovRM*/ 1400, /*kMovMR*/ 1400,
    /*kMovMI*/ 1400, /*kMovMM*/ 1400, /*kAddRR*/ 800,  /*kAddRI*/ 800,
    /*kSubRI*/ 800,  /*kMulRI*/ 800,  /*kIncM*/ 1400,  /*kDecM*/ 1400,
    /*kAddMI*/ 1400, /*kCmpRI*/ 800,  /*kCmpRR*/ 800,  /*kCmpMI*/ 1400,
    /*kJmp*/ 800,    /*kJe*/ 800,     /*kJne*/ 800,    /*kJl*/ 800,
    /*kJge*/ 800,    /*kLock*/ 1500,  /*kUnlock*/ 1500, /*kNop*/ 800,
    /*kHalt*/ 80,
};

// True for opcodes whose emulation delivers observer hooks (data
// movement, reads, compares, conditional branches, lock markers).
// Unconditional control flow, nops and halt report nothing, which is
// what lets the interpreter batch their retire bookkeeping.
// Conditional jumps deliver OnBranch — the point where the flags value
// is *consumed*, which effect recorders use to decide whether a
// symbolic compare result must be pinned.
inline constexpr bool kDeliversHooks[kNumOpcodes] = {
    /*kMovRR*/ true,  /*kMovRI*/ true,  /*kMovRM*/ true, /*kMovMR*/ true,
    /*kMovMI*/ true,  /*kMovMM*/ true,  /*kAddRR*/ true, /*kAddRI*/ true,
    /*kSubRI*/ true,  /*kMulRI*/ true,  /*kIncM*/ true,  /*kDecM*/ true,
    /*kAddMI*/ true,  /*kCmpRI*/ true,  /*kCmpRR*/ true, /*kCmpMI*/ true,
    /*kJmp*/ false,   /*kJe*/ true,     /*kJne*/ true,   /*kJl*/ true,
    /*kJge*/ true,    /*kLock*/ true,   /*kUnlock*/ true, /*kNop*/ false,
    /*kHalt*/ false,
};

// Guest-cycle cost of one instruction when run natively.
inline int64_t DirectCycles(Opcode op) {
  return kDirectCycles[static_cast<int>(op)];
}

// Guest-cycle cost of emulating one instruction from the translation
// cache, and of translating it the first time.
inline int64_t EmulateCycles(Opcode op) {
  return kEmulateCycles[static_cast<int>(op)];
}

// Decoding guest code, building the intermediate representation, and
// emitting the translated block: one-time cost, far larger than
// executing the cached translation (QEMU's behaviour in Table 3).
inline int64_t TranslateCycles(Opcode) { return 4200; }

const char* OpcodeName(Opcode op);

struct Program {
  std::string name;
  std::vector<Instruction> code;
  uint64_t id = 0;  // unique per program; translation-cache key
};

std::string Disassemble(const Program& program);

}  // namespace whodunit::vm

#endif  // SRC_VM_ISA_H_
