/* Monotonic clock for the benchmark's span wrappers.  The unboxed entry
   point lets OCaml read the clock without allocating, so the wrappers
   do not perturb the minor-word counts they record. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_now(value unit)
{
  return caml_copy_double(perfbench_now_unboxed(unit));
}
