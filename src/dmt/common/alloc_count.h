// Per-thread heap-allocation counters, used by the allocation-regression
// test and the bench_micro binary to pin training and scoring at zero
// allocations per sample in steady state.
//
// Usage: a binary that wants counting places DMT_DEFINE_COUNTING_ALLOCATOR()
// at file scope in exactly one translation unit. That macro defines the
// counter storage and replaces the global operator new / delete with
// counting forwarders to malloc / free. Binaries that never invoke the
// macro are unaffected -- the header alone only declares the counters.
//
// The counters are thread_local: measurements on one thread are not
// polluted by allocation on another (e.g. pool workers), and no atomics are
// needed on the hot path.
#ifndef DMT_COMMON_ALLOC_COUNT_H_
#define DMT_COMMON_ALLOC_COUNT_H_

#include <cstddef>
#include <cstdlib>
#include <new>

namespace dmt::alloc_count {

// Number of operator-new (allocations) and operator-delete (deallocation)
// calls on this thread since Reset(). Only meaningful in binaries that used
// DMT_DEFINE_COUNTING_ALLOCATOR().
extern thread_local std::size_t allocations;
extern thread_local std::size_t deallocations;

inline void Reset() {
  allocations = 0;
  deallocations = 0;
}

}  // namespace dmt::alloc_count

// Defines the counter storage and the counting global allocator. Must
// appear at file scope (outside any namespace) in exactly one translation
// unit of the binary.
// The aligned operators pair std::aligned_alloc with std::free, which is
// well-defined on POSIX but trips GCC's heuristic new/delete matcher.
#define DMT_DEFINE_COUNTING_ALLOCATOR()                                     \
  _Pragma("GCC diagnostic push")                                            \
  _Pragma("GCC diagnostic ignored \"-Wmismatched-new-delete\"")             \
  namespace dmt::alloc_count {                                              \
  thread_local std::size_t allocations = 0;                                 \
  thread_local std::size_t deallocations = 0;                               \
  }                                                                         \
  void* operator new(std::size_t size) {                                    \
    ++dmt::alloc_count::allocations;                                        \
    if (void* p = std::malloc(size)) return p;                              \
    throw std::bad_alloc();                                                 \
  }                                                                         \
  void* operator new[](std::size_t size) {                                  \
    ++dmt::alloc_count::allocations;                                        \
    if (void* p = std::malloc(size)) return p;                              \
    throw std::bad_alloc();                                                 \
  }                                                                         \
  void* operator new(std::size_t size, std::align_val_t align) {            \
    ++dmt::alloc_count::allocations;                                        \
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),       \
                                     size)) {                               \
      return p;                                                             \
    }                                                                       \
    throw std::bad_alloc();                                                 \
  }                                                                         \
  void operator delete(void* p) noexcept {                                  \
    ++dmt::alloc_count::deallocations;                                      \
    std::free(p);                                                           \
  }                                                                         \
  void operator delete[](void* p) noexcept {                                \
    ++dmt::alloc_count::deallocations;                                      \
    std::free(p);                                                           \
  }                                                                         \
  void operator delete(void* p, std::size_t) noexcept {                     \
    ++dmt::alloc_count::deallocations;                                      \
    std::free(p);                                                           \
  }                                                                         \
  void operator delete[](void* p, std::size_t) noexcept {                   \
    ++dmt::alloc_count::deallocations;                                      \
    std::free(p);                                                           \
  }                                                                         \
  void operator delete(void* p, std::align_val_t) noexcept {                \
    ++dmt::alloc_count::deallocations;                                      \
    std::free(p);                                                           \
  }                                                                         \
  _Pragma("GCC diagnostic pop")                                             \
  static_assert(true, "")  // swallow the trailing semicolon

#endif  // DMT_COMMON_ALLOC_COUNT_H_
