// Clang thread-safety annotations and the annotated lock types built on
// them.
//
// The concurrency surface of this codebase — Worker_pool's scheduler
// state, Kernel_cache's memoization maps and in-flight request latches,
// Batch_engine's and Stream_session's run serialization — is
// lock-and-condition-variable code whose invariants ("states_ is only
// touched under mutex_", "the pool is never shared between two
// batches") were previously enforced by convention and by tests that
// happen to interleave the right way. These macros make the invariants
// machine-checked: under clang, `-Wthread-safety -Werror=thread-safety`
// (enabled unconditionally for clang builds in the top-level
// CMakeLists) rejects any access to a CELLSYNC_GUARDED_BY member
// without its capability held and any call to a CELLSYNC_REQUIRES
// function without the named lock. Under other compilers the macros
// expand to nothing and the wrappers are zero-cost shims over
// std::mutex, so gcc builds (and the TSan leg) see identical code.
//
// Discipline that keeps the analysis sound:
//  - lock with Annotated_lock (scoped), never raw lock()/unlock() pairs;
//  - wait on std::condition_variable_any with an explicit
//    `while (!predicate) cv.wait(lock);` loop, not a predicate lambda —
//    clang analyzes lambdas as separate functions and cannot see that
//    the enclosing scope holds the capability;
//  - internal helpers that assume the lock take CELLSYNC_REQUIRES.
//
// The source analyzer (tools/cellsync_archcheck) enforces the entry ticket: no
// naked std::mutex / std::condition_variable members in src/ outside
// this header, so every new mutex-protected field starts out
// annotatable.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define CELLSYNC_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CELLSYNC_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define CELLSYNC_CAPABILITY(x) CELLSYNC_THREAD_ANNOTATION(capability(x))
/// Marks an RAII class whose lifetime acquires/releases a capability.
#define CELLSYNC_SCOPED_CAPABILITY CELLSYNC_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the capability held.
#define CELLSYNC_GUARDED_BY(x) CELLSYNC_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose pointee is protected by the capability.
#define CELLSYNC_PT_GUARDED_BY(x) CELLSYNC_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (held on return, not on entry).
#define CELLSYNC_ACQUIRE(...) \
    CELLSYNC_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability (held on entry, not on return).
#define CELLSYNC_RELEASE(...) \
    CELLSYNC_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function may only be called with the capability already held.
#define CELLSYNC_REQUIRES(...) \
    CELLSYNC_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function may only be called with the capability NOT held.
#define CELLSYNC_EXCLUDES(...) CELLSYNC_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function acquires the capability iff it returns `result`.
#define CELLSYNC_TRY_ACQUIRE(result, ...) \
    CELLSYNC_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))
/// Function returns a reference to the named capability.
#define CELLSYNC_RETURN_CAPABILITY(x) CELLSYNC_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: function body is exempt from the analysis.
#define CELLSYNC_NO_THREAD_SAFETY_ANALYSIS \
    CELLSYNC_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cellsync {

/// std::mutex as a clang capability. Identical layout and cost; the
/// annotations let `CELLSYNC_GUARDED_BY(mutex_)` members participate in
/// the compile-time locking-discipline proof.
class CELLSYNC_CAPABILITY("mutex") Annotated_mutex {
  public:
    Annotated_mutex() = default;
    Annotated_mutex(const Annotated_mutex&) = delete;
    Annotated_mutex& operator=(const Annotated_mutex&) = delete;

    void lock() CELLSYNC_ACQUIRE() { mutex_.lock(); }
    void unlock() CELLSYNC_RELEASE() { mutex_.unlock(); }
    bool try_lock() CELLSYNC_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  private:
    std::mutex mutex_;  // cellsync-lint: allow(naked-mutex)
};

/// Scoped lock over Annotated_mutex — the one way code takes a lock.
/// Satisfies BasicLockable, so std::condition_variable_any can wait on
/// it directly (wait() releases and reacquires; the capability is held
/// on both sides of the call, which is exactly what the analysis
/// assumes for an unannotated callee). lock()/unlock() are public for
/// the drop-the-lock-around-work pattern (see Worker_pool::drain).
class CELLSYNC_SCOPED_CAPABILITY Annotated_lock {
  public:
    explicit Annotated_lock(Annotated_mutex& mutex) CELLSYNC_ACQUIRE(mutex)
        : mutex_(mutex), owned_(true) {
        mutex_.lock();
    }
    ~Annotated_lock() CELLSYNC_RELEASE() {
        if (owned_) mutex_.unlock();
    }

    Annotated_lock(const Annotated_lock&) = delete;
    Annotated_lock& operator=(const Annotated_lock&) = delete;

    void lock() CELLSYNC_ACQUIRE() {
        mutex_.lock();
        owned_ = true;
    }
    void unlock() CELLSYNC_RELEASE() {
        mutex_.unlock();
        owned_ = false;
    }

  private:
    Annotated_mutex& mutex_;
    bool owned_;
};

/// The condition variable to pair with Annotated_lock. (The plain
/// std::condition_variable only accepts std::unique_lock<std::mutex>,
/// which would force the capability type back out of the wait path.)
using Annotated_condition_variable = std::condition_variable_any;

}  // namespace cellsync
