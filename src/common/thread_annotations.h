// Clang Thread Safety Analysis annotation macros (the Abseil/LLVM idiom).
//
// These expand to Clang's `capability` attribute family when the compiler
// supports it (clang with -Wthread-safety) and to nothing elsewhere (GCC,
// MSVC), so annotated headers stay portable. The analysis is purely static:
// it checks, per translation unit, that every read/write of a GUARDED_BY
// field happens while its capability (mutex) is held, that REQUIRES
// contracts hold at call sites, and that ACQUIRE/RELEASE pairings balance.
//
// Capability tiers in this codebase (see DESIGN.md "Concurrency
// discipline"):
//   1. strand-confined state — no lock at all; correctness comes from the
//      Strand's serialized execution. TSA cannot model this tier; it is
//      covered by scripts/snapper_analyze.py's coroutine rules and
//      SNAPPER_DCHECK_ON_STRAND runtime checks instead.
//   2. mutex-guarded state — annotate the field GUARDED_BY(mu_) and take a
//      MutexLock in every accessor.
//   3. atomics — std::atomic fields, no annotation needed.
//
// Build with `cmake -DSNAPPER_THREAD_SAFETY=ON` (requires clang) to enforce
// the annotations under -Wthread-safety -Werror.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define SNAPPER_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SNAPPER_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a class as a capability (a lockable resource). The string names the
/// capability kind in diagnostics ("mutex").
#define CAPABILITY(x) SNAPPER_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases a
/// capability.
#define SCOPED_CAPABILITY SNAPPER_THREAD_ANNOTATION(scoped_lockable)

/// Field annotation: may only be read or written while holding `x`.
#define GUARDED_BY(x) SNAPPER_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field annotation: the pointed-to data is protected by `x` (the
/// pointer itself may be read freely).
#define PT_GUARDED_BY(x) SNAPPER_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function-level contract: callers must hold the listed capabilities
/// exclusively (e.g. private helpers called with the lock already taken).
#define REQUIRES(...) \
  SNAPPER_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function-level contract: callers must hold the capabilities shared.
#define REQUIRES_SHARED(...) \
  SNAPPER_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability and does not release it.
#define ACQUIRE(...) \
  SNAPPER_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) \
  SNAPPER_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// The function releases a held capability.
#define RELEASE(...) \
  SNAPPER_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) \
  SNAPPER_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `b`.
#define TRY_ACQUIRE(b, ...) \
  SNAPPER_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Callers must NOT hold the listed capabilities (deadlock prevention for
/// functions that take them internally).
#define EXCLUDES(...) SNAPPER_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the given capability (accessor for a
/// member mutex).
#define RETURN_CAPABILITY(x) SNAPPER_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the pattern is safe but inexpressible.
#define NO_THREAD_SAFETY_ANALYSIS \
  SNAPPER_THREAD_ANNOTATION(no_thread_safety_analysis)
