// dp-lint fixture: FP control-register access outside
// src/common/fp_env.cpp — every read and write fires DP008 (and, being
// SSE-baseline control calls, none of them fires DP005).
// dp-lint-path: src/nn/fake_flush.cpp
// dp-lint-expect: DP008 DP008 DP008 DP008 DP008 DP008
#include <cfenv>
#include <xmmintrin.h>

void flushForever() {
  _mm_setcsr(_mm_getcsr() | 0x8040);
  _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);
  __builtin_ia32_ldmxcsr(0x9fc0);
  std::fenv_t env;
  fesetenv(&env);
}

void flushArm(unsigned long v) {
  __asm__ __volatile__("msr fpcr, %0" : : "r"(v));
}
