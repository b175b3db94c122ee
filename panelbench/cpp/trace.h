// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's side of each layer call (name, start, end, parent), kept in
// memory, and written out once at exit.
#pragma once

#include <chrono>
#include <fstream>
#include <string>
#include <vector>

namespace panelbench {

struct Span {
  const char* name = "";  // a string literal
  double start = 0.0;     // seconds since the tracer was created
  double end = 0.0;
  int parent = -1;        // index into Tracer::spans(), -1 = top level
};

class Tracer {
 public:
  Tracer() : origin_(clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }

  /// Open a span under the innermost open one; returns its index.
  int open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start = now();
    return stack_.back();
  }

  /// Close span `id`, which must be the innermost open one.
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  /// Per span: its duration minus the durations of its direct children
  /// (children never overlap: the traced run is serial).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end - spans_[i].start;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    return self;
  }

  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    out << "id,name,start_s,end_s,parent\n";
    out.precision(9);
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out << i << ',' << spans_[i].name << ',' << spans_[i].start << ','
          << spans_[i].end << ',' << spans_[i].parent << '\n';
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Scoped span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace panelbench
