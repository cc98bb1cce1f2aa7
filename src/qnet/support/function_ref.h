// Non-owning, trivially-copyable callable reference (the std::function_ref of P0792,
// reduced to what this library needs). Unlike std::function it never heap-allocates:
// a capturing lambda bigger than the small-object buffer would make every
// ShardedSweepScheduler::RunBuckets call allocate. The referenced callable must
// outlive the FunctionRef — pass it straight down the call stack only.

#ifndef QNET_SUPPORT_FUNCTION_REF_H_
#define QNET_SUPPORT_FUNCTION_REF_H_

#include <type_traits>
#include <utility>

namespace qnet {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef> &&
                                        std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor): mirrors std::function_ref
      : object_(const_cast<void*>(static_cast<const void*>(&f))),
        invoke_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return invoke_(object_, std::forward<Args>(args)...); }

 private:
  void* object_;
  R (*invoke_)(void*, Args...);
};

}  // namespace qnet

#endif  // QNET_SUPPORT_FUNCTION_REF_H_
