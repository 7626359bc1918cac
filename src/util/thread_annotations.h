// Portable Clang thread-safety-analysis annotations.
//
// BrowserFlow's concurrency invariants (which field is guarded by which
// mutex, which private helper requires which lock) are encoded with these
// macros so that `clang -Wthread-safety -Werror=thread-safety` proves them
// at compile time. Under GCC (and any compiler without the capability
// attributes) every macro expands to nothing, so the annotations are pure
// documentation there — the build is identical.
//
// Conventions (see DESIGN.md "Static analysis & concurrency invariants"):
//  - every field shared between threads carries BF_GUARDED_BY(mutex);
//  - every private helper that assumes a held lock carries BF_REQUIRES and
//    is named *Locked;
//  - public entry points that must NOT be called with a lock held carry
//    BF_EXCLUDES;
//  - raw std::mutex is banned outside src/util (scripts/bflint.py enforces
//    it) — use bf::util::Mutex / MutexLock from util/mutex.h, which carry
//    these annotations and the debug lock-rank assertion.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define BF_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define BF_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op off clang
#endif

/// Marks a class as a capability (lockable type).
#define BF_CAPABILITY(x) BF_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define BF_SCOPED_CAPABILITY BF_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Field may only be read/written while holding `x`.
#define BF_GUARDED_BY(x) BF_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointee may only be read/written while holding `x` (the pointer itself
/// is unguarded).
#define BF_PT_GUARDED_BY(x) BF_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Static lock-order declarations (checked under -Wthread-safety-beta; the
/// runtime rank assertion in util/mutex.h checks the same order always).
#define BF_ACQUIRED_BEFORE(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define BF_ACQUIRED_AFTER(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function may only be called while holding the listed capabilities.
#define BF_REQUIRES(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function acquires / releases the listed capabilities.
#define BF_ACQUIRE(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define BF_RELEASE(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define BF_TRY_ACQUIRE(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding the listed capabilities
/// (deadlock prevention for self-locking public entry points).
#define BF_EXCLUDES(...) BF_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Asserts (without acquiring) that the calling thread holds `x`.
#define BF_ASSERT_CAPABILITY(x) \
  BF_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

/// Function returns a reference to the capability `x`.
#define BF_RETURN_CAPABILITY(x) BF_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables analysis inside one function. Used only where a
/// reference to guarded state legitimately escapes under a documented
/// external-serialisation contract (e.g. FlowTracker::segmentDb()).
#define BF_NO_THREAD_SAFETY_ANALYSIS \
  BF_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)
