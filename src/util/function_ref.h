// Non-owning reference to a callable: an object pointer and a call
// thunk, never an allocation.
//
// A std::function built from a lambda that captures more than two
// pointers heap-allocates its copy of the lambda. Callbacks that are
// only invoked while the call that receives them runs (the database's
// per-query charge, step and lock-wait hooks) need no copy at all: a
// FunctionRef borrows the caller's callable, which must outlive every
// invocation. A lambda written in the call expression does, including
// across the co_await of a coroutine call.
#ifndef SRC_UTIL_FUNCTION_REF_H_
#define SRC_UTIL_FUNCTION_REF_H_

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace whodunit::util {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;
  // Implicit, like std::function: nullptr is an absent hook.
  FunctionRef(std::nullptr_t) {}

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }
  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace whodunit::util

#endif  // SRC_UTIL_FUNCTION_REF_H_
