// In-memory span recorder. The benchmark opens a span around every public call it makes
// into a simulator layer (and around its own pass/setup/run grouping); spans stay in memory
// and are written out once the run ends. A disabled tracer records nothing, so untraced
// passes pay only a branch per call.
#ifndef HARMONY_PERFBENCH_TRACER_H_
#define HARMONY_PERFBENCH_TRACER_H_

#include <chrono>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Seconds since the tracer was created.
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one JSON object per span (name, start, end, parent, id) to `path`.
  bool Dump(const std::string& path) const;

  // RAII span: opened on construction, closed on Close() or destruction. Nested spans take
  // the innermost open span as their parent.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int id = -1);
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    // Closes the span and returns its duration in seconds (measured even when tracing is
    // off, so callers time with the same clock reads the span records).
    double Close();

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
    double start_ = 0.0;
    double duration_ = 0.0;
    bool open_ = true;
  };

 private:
  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  int current_ = -1;  // innermost open span
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // HARMONY_PERFBENCH_TRACER_H_
