// The workloads. Each runs its warm-up, then whole rounds of the
// same operations until the run's seconds are spent, checks every
// output, and returns the end-to-end metrics (or, traced, the per-layer
// ones).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

Result RunColdSearch(const Args& args);
Result RunWarmServe(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
