#include "tracer.h"

#include <fstream>
#include <utility>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, std::string name, int id)
    : tracer_(tracer), saved_parent_(tracer->current_), start_(tracer->Now()) {
  if (tracer_->enabled_) {
    index_ = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back(Span{std::move(name), start_, start_, tracer_->current_, id});
    tracer_->current_ = index_;
  }
}

double Tracer::Scope::Close() {
  if (!open_) {
    return duration_;
  }
  open_ = false;
  const double end = tracer_->Now();
  duration_ = end - start_;
  if (index_ >= 0) {
    tracer_->spans_[static_cast<std::size_t>(index_)].end = end;
    tracer_->current_ = saved_parent_;
  }
  return duration_;
}

bool Tracer::Dump(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start\":" << FormatNumber(span.start)
        << ",\"end\":" << FormatNumber(span.end) << ",\"parent\":" << span.parent
        << ",\"id\":" << span.id << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
