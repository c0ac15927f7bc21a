#include "tracer.h"

#include <cstdio>

namespace perfbench {

int Tracer::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  add(name, Clock::now(), {});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(const char* name, Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, start, end, open_.empty() ? -1 : open_.back(), op_});
}

std::map<int, double> Tracer::per_op_ms(const std::string& name) const {
  std::map<int, double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out[span.op] += ms_between(span.start, span.end);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\top\tname\tstart_us\tend_us\n");
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%d\t%s\t%.3f\t%.3f\n", i, s.parent, s.op, s.name,
                 us(s.start), us(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
