#pragma once

/// \file fp_env.hpp
/// Denormal flushing for the compute lanes (DESIGN.md §1, §9).
///
/// Subnormal floats cost a microcode assist per operation on most x86
/// cores; a saturated sigmoid backward alone emits thousands of them
/// per training step, and the GEMMs that consume them slow down ~5x.
/// Every parallelFor chunk and every pool lane therefore computes with
/// subnormal inputs read as zero and subnormal results written as zero:
///  - x86-64: MXCSR FTZ (bit 15) | DAZ (bit 6), SSE and AVX alike,
///  - AArch64: FPCR.FZ (bit 24),
///  - anything else: no-op (denormalsFlushed() stays false).
///
/// This file and fp_env.cpp are the only places that touch the FP
/// control register (dp_lint DP008). The scoped guard puts the caller's
/// flush bits back on scope exit, return or throw alike, so the library
/// never leaves a mode change behind in the host program.

#include <cstdint>

namespace dp {

/// Flushes denormals on the calling thread for the guard's lifetime and
/// restores the caller's flush bits afterwards. Other control bits
/// (rounding mode, exception masks) and the sticky exception flags are
/// left untouched. Nesting is free: an already-flushed thread is not
/// written to at all.
class ScopedFlushDenormals {
 public:
  ScopedFlushDenormals();
  ~ScopedFlushDenormals();

  ScopedFlushDenormals(const ScopedFlushDenormals&) = delete;
  ScopedFlushDenormals& operator=(const ScopedFlushDenormals&) = delete;

 private:
  std::uint64_t saved_;  ///< the caller's control word at entry
};

/// Whether the calling thread currently flushes denormals (both FTZ and
/// DAZ on x86-64). Always false where flushing is unsupported.
[[nodiscard]] bool denormalsFlushed();

/// Sets (true) or clears (false) the calling thread's flush bits for
/// good. Pool workers, which run nothing but parallelFor chunks, set
/// them once at start; tests use it to pick a known starting mode.
void setDenormalsFlushed(bool on);

}  // namespace dp
