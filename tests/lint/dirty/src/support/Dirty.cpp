// omegatidy negative fixture (never compiled): expression-level
// violations — assert in src/, naked allocation, unnamed TraceSpan,
// retired global-knob setters, an unannotated thread_local.

#include <assert.h>

void leaky() {
  assert(2 + 2 == 4);
  int *P = new int(3);
  char *Buf = static_cast<char *>(malloc(16));
  TraceSpan("phase");
  omega::TraceSpan("sub");
  free(Buf);
  delete P;
}

void knobs() {
  setWorkerCount(4);
  omega::setConjunctCacheCapacity(1 << 12);
  setArithOpCounting(true);
}

thread_local unsigned PerQueryDepth = 0;
