// Wall-clock timing for the efficiency experiments (Figs. 9-10).
#ifndef EDSR_SRC_UTIL_STOPWATCH_H_
#define EDSR_SRC_UTIL_STOPWATCH_H_

#include <chrono>

namespace edsr::util {

class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace edsr::util

#endif  // EDSR_SRC_UTIL_STOPWATCH_H_
