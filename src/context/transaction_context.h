// Transaction contexts (paper §2).
//
// A transaction context is the execution history of a request across
// stages: an ordered sequence of elements, each one either a call path
// (at a message-send point), an event-handler name, or a stage name.
// Appending applies the paper's §4.1 pruning: consecutive duplicate
// elements collapse (an event handler re-scheduled to finish an I/O),
// and loops of length > 1 are pruned by cutting the suffix that closes
// the loop (requests on a persistent connection, RPC-style ping-pong).
#ifndef SRC_CONTEXT_TRANSACTION_CONTEXT_H_
#define SRC_CONTEXT_TRANSACTION_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace whodunit::context {

enum class ElementKind : uint8_t {
  kCallPath = 0,  // a node of the deployment's path tree at a produce/send point
  kHandler = 1,   // an event handler (event-driven stage)
  kStage = 2,     // a SEDA stage
};

// One step of a transaction's execution history.
struct Element {
  ElementKind kind;
  uint32_t id;

  friend bool operator==(const Element&, const Element&) = default;
  uint64_t Packed() const { return (static_cast<uint64_t>(kind) << 32) | id; }
};

class TransactionContext {
 public:
  TransactionContext() = default;
  explicit TransactionContext(std::vector<Element> elements)
      : elements_(std::move(elements)) {}

  // Appends with pruning (enabled by default, per the paper; the full
  // unpruned history can be kept for debugging by passing false).
  void Append(Element e, bool prune = true);

  // Returns prefix-then-suffix with pruning applied at the seam.
  static TransactionContext Concat(const TransactionContext& prefix,
                                   const TransactionContext& suffix, bool prune = true);

  const std::vector<Element>& elements() const { return elements_; }
  bool empty() const { return elements_.empty(); }
  size_t size() const { return elements_.size(); }

  // True if `p` is a (not necessarily proper) prefix of *this.
  bool HasPrefix(const TransactionContext& p) const;

  friend bool operator==(const TransactionContext&, const TransactionContext&) = default;

  // Stable 64-bit hash (FNV-1a over packed elements).
  uint64_t Hash() const;

  // Debug form like "[H:accept|H:read]" given a namer for (kind, id).
  std::string ToString(
      const std::function<std::string(ElementKind, uint32_t)>& namer) const;

 private:
  std::vector<Element> elements_;
};

struct TransactionContextHash {
  size_t operator()(const TransactionContext& c) const { return static_cast<size_t>(c.Hash()); }
};

}  // namespace whodunit::context

#endif  // SRC_CONTEXT_TRANSACTION_CONTEXT_H_
