// Clang thread-safety annotation macros (docs/STATIC_ANALYSIS.md,
// "Concurrency contracts").
//
// Every concurrency invariant in this repository — which mutex guards which
// field, which functions require or exclude a lock — is written in these
// macros so Clang's -Wthread-safety analysis can check it at compile time.
// Under any other compiler the macros expand to nothing (verified by
// tests/test_thread_annotations.cpp), so the annotations cost exactly zero
// at runtime and GCC builds are unaffected. The CMake helper
// cnd_thread_safety() turns the analysis into a hard error gate on Clang
// builds; the CI clang-thread-safety job runs it over every annotated TU.
//
// This header is dependency-free and, together with
// runtime/annotated_mutex.hpp, sits BELOW the layer DAG: any layer
// (including src/obs, the bottom layer) may include it. cnd_analyze's
// layering rule carries an explicit exemption for the pair.
//
// The macro set mirrors the canonical mutex.h example from the Clang
// thread-safety docs, CND_-prefixed to stay out of other libraries' way.
#pragma once

#if defined(__clang__)
#define CND_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define CND_THREAD_ANNOTATION(x)  // expands to nothing: annotations are free
#endif

/// Marks a type as a lockable capability ("mutex" names the capability kind
/// in diagnostics).
#define CND_CAPABILITY(x) CND_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases a
/// capability (std::lock_guard shape).
#define CND_SCOPED_CAPABILITY CND_THREAD_ANNOTATION(scoped_lockable)

/// Field/variable may only be read or written while holding `x`.
#define CND_GUARDED_BY(x) CND_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the pointed-to data (not the pointer) is guarded by `x`.
#define CND_PT_GUARDED_BY(x) CND_THREAD_ANNOTATION(pt_guarded_by(x))

/// Declared lock-acquisition order between two capabilities.
#define CND_ACQUIRED_BEFORE(...) CND_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define CND_ACQUIRED_AFTER(...) CND_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Caller must hold the capability when calling this function.
#define CND_REQUIRES(...) CND_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define CND_ACQUIRE(...) CND_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (caller must hold it on entry).
#define CND_RELEASE(...) CND_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define CND_TRY_ACQUIRE(...) CND_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard for re-entry).
#define CND_EXCLUDES(...) CND_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define CND_RETURN_CAPABILITY(x) CND_THREAD_ANNOTATION(lock_returned(x))

/// Opt one function out of the analysis (init/teardown paths that the
/// analysis cannot model; justify in a comment).
#define CND_NO_THREAD_SAFETY_ANALYSIS CND_THREAD_ANNOTATION(no_thread_safety_analysis)
