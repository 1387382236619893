#include "common/fp_env.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

namespace dp {

namespace {

#if defined(__x86_64__) || defined(_M_X64)
constexpr std::uint64_t kFlushBits = 0x8040;  // MXCSR FTZ (15) | DAZ (6)

std::uint64_t readControl() { return _mm_getcsr(); }
void writeControl(std::uint64_t v) {
  _mm_setcsr(static_cast<unsigned int>(v));
}
#elif defined(__aarch64__)
constexpr std::uint64_t kFlushBits = std::uint64_t{1} << 24;  // FPCR.FZ

std::uint64_t readControl() {
  std::uint64_t v;
  __asm__ __volatile__("mrs %0, fpcr" : "=r"(v));
  return v;
}
void writeControl(std::uint64_t v) {
  __asm__ __volatile__("msr fpcr, %0" : : "r"(v));
}
#else
constexpr std::uint64_t kFlushBits = 0;

std::uint64_t readControl() { return 0; }
void writeControl(std::uint64_t) {}
#endif

/// Replaces only the flush bits of the live control word, so exception
/// flags raised in between survive a restore.
void writeFlushBits(std::uint64_t bits) {
  writeControl((readControl() & ~kFlushBits) | (bits & kFlushBits));
}

}  // namespace

ScopedFlushDenormals::ScopedFlushDenormals() : saved_(readControl()) {
  if ((saved_ & kFlushBits) != kFlushBits) writeFlushBits(kFlushBits);
}

ScopedFlushDenormals::~ScopedFlushDenormals() {
  if ((saved_ & kFlushBits) != kFlushBits) writeFlushBits(saved_);
}

bool denormalsFlushed() {
  return kFlushBits != 0 && (readControl() & kFlushBits) == kFlushBits;
}

void setDenormalsFlushed(bool on) { writeFlushBits(on ? kFlushBits : 0); }

}  // namespace dp
