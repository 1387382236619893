// dp-lint fixture: the FP environment's own TU may read and write the
// control register; neither DP008 nor DP005 fires there.
// dp-lint-path: src/common/fp_env.cpp
// dp-lint-expect: none
#include <xmmintrin.h>

unsigned readControl() { return _mm_getcsr(); }
void writeControl(unsigned v) { _mm_setcsr(v); }
