// A fixed reference kernel that times the host, not the simulator. Shared hosts change speed
// by tens of percent from one minute to the next as other tenants come and go, and a kernel
// of the same kind of work as the simulator's (node allocation, ordered-map and heap
// operations, dependent loads over a table larger than the private caches) slows down with
// them. Dividing a pass's run time by the kernel's time measured around it takes most of
// that drift out, while a change to the simulator moves the ratio in full, since the kernel
// does not call it.
#ifndef HARMONY_PERFBENCH_CALIBRATE_H_
#define HARMONY_PERFBENCH_CALIBRATE_H_

#include <cstdint>

namespace perfbench {

struct Calibration {
  double seconds = 0.0;
  std::uint64_t checksum = 0;  // the kernel's result, the same on every call
};

// Runs the reference kernel once.
Calibration Calibrate();

}  // namespace perfbench

#endif  // HARMONY_PERFBENCH_CALIBRATE_H_
