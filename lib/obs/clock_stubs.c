/* CLOCK_MONOTONIC for Obs.Clock: nanoseconds since an arbitrary fixed
   point, never stepped by wall-clock adjustments. */
#include <time.h>
#include <caml/mlvalues.h>

CAMLprim value obs_clock_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
