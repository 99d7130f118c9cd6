#include "trace/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>

namespace trace {

const char* component_name(int c) noexcept {
  switch (static_cast<Component>(c)) {
    case Component::o: return "o";
    case Component::L: return "L";
    case Component::G: return "G";
    case Component::o_block: return "o_block";
    case Component::G_pack: return "G_pack";
    case Component::copy: return "copy";
    case Component::idle: return "idle";
    case Component::fault: return "fault";
  }
  return "?";
}

const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::send_post: return "send_post";
    case EventKind::recv_post: return "recv_post";
    case EventKind::recv_complete: return "recv_complete";
    case EventKind::copy: return "copy";
    case EventKind::phase: return "phase";
    case EventKind::section_begin: return "section_begin";
    case EventKind::section_end: return "section_end";
    case EventKind::fault_retry: return "fault_retry";
    case EventKind::wait_block: return "wait_block";
  }
  return "?";
}

void TraceConfig::apply_env() {
  if (const char* p = std::getenv("MPL_TRACE"); p && *p) chrome_path = p;
  if (const char* p = std::getenv("MPL_TRACE_CAPACITY"); p && *p) {
    const long long n = std::atoll(p);
    if (n > 0) capacity = static_cast<std::size_t>(n);
  }
}

void Tracer::configure(const TraceConfig& cfg, int nprocs) {
  cfg_ = cfg;
  trace_armed_ = cfg.trace_armed();
  ranks_.clear();
  if (trace_armed_) {
    ranks_.reserve(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
      ranks_.push_back(std::make_unique<RankTrace>(r, cfg.capacity, true,
                                                   cfg.start_enabled));
    }
  }
  wall_base_ = std::chrono::steady_clock::now();
}

namespace {

// Doubles are printed with enough digits to round-trip exactly, so the
// attribution in tools/trace_report reproduces the virtual clocks bit-wise.
void put_num(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

void put_str(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  // Chrome trace-event format ("JSON object format"): one "X" complete
  // event per recorded event; tid = rank, pid = section + 2 so every traced
  // section gets its own process group in Perfetto (pid 1 holds events
  // recorded outside any section). Timestamps are microseconds: virtual
  // time when the network model ran, wall time otherwise; both raw stamps
  // are always preserved in args.
  os << "{\n\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](auto&& fn) {
    if (!first) os << ",\n";
    first = false;
    fn();
  };

  std::map<int, std::string> section_labels;
  for (const auto& rt : ranks_) {
    if (!rt) continue;
    const int rank = rt->rank();
    for (const Event& e : rt->snapshot()) {
      const int pid = e.section + 2;
      if (e.kind == EventKind::section_begin && !e.label.empty()) {
        section_labels.emplace(pid, e.label);
      }
      emit([&] {
        const double ts = model_enabled_ ? e.v_start : e.w_start;
        const double dur = model_enabled_ ? (e.v_end - e.v_start)
                                          : (e.w_end - e.w_start);
        os << "{\"name\": \"" << event_kind_name(e.kind)
           << "\", \"cat\": \"cartcomm\", \"ph\": \"X\", \"pid\": " << pid
           << ", \"tid\": " << rank << ", \"ts\": ";
        put_num(os, ts * 1e6);
        os << ", \"dur\": ";
        put_num(os, dur * 1e6);
        os << ", \"args\": {\"kind\": \"" << event_kind_name(e.kind)
           << "\", \"peer\": " << e.peer << ", \"tag\": " << e.tag
           << ", \"phase\": " << e.phase << ", \"round\": " << e.round
           << ", \"section\": " << e.section << ", \"ctx\": " << e.ctx
           << ", \"bytes\": " << e.bytes << ", \"blocks\": " << e.blocks
           << ", \"v_start\": ";
        put_num(os, e.v_start);
        os << ", \"v_end\": ";
        put_num(os, e.v_end);
        os << ", \"w_start\": ";
        put_num(os, e.w_start);
        os << ", \"w_end\": ";
        put_num(os, e.w_end);
        os << ", \"depart\": ";
        put_num(os, e.depart);
        os << ", \"arrive_wall\": ";
        put_num(os, e.arrive_wall);
        for (int c = 0; c < kComponents; ++c) {
          os << ", \"" << component_name(c) << "\": ";
          put_num(os, e.comp[static_cast<std::size_t>(c)]);
        }
        if (!e.label.empty()) {
          os << ", \"label\": ";
          put_str(os, e.label);
        }
        os << "}}";
      });
    }
    // Name the rank's track once per process group it appears in.
  }
  // Metadata: track and process-group names.
  std::map<int, bool> pids_seen;
  for (const auto& rt : ranks_) {
    if (!rt) continue;
    for (const Event& e : rt->snapshot()) pids_seen[e.section + 2] = true;
  }
  for (const auto& [pid, seen] : pids_seen) {
    (void)seen;
    emit([&] {
      std::string name = pid == 1 ? std::string("untraced") : "section";
      if (auto it = section_labels.find(pid); it != section_labels.end()) {
        name = it->second;
      }
      os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
         << ", \"tid\": 0, \"args\": {\"name\": ";
      put_str(os, name);
      os << "}}";
    });
    for (const auto& rt : ranks_) {
      if (!rt) continue;
      emit([&] {
        os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
           << ", \"tid\": " << rt->rank() << ", \"args\": {\"name\": \"rank "
           << rt->rank() << "\"}}";
      });
    }
  }
  os << "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"nprocs\": "
     << nprocs() << ", \"clock\": \""
     << (model_enabled_ ? "virtual" : "wall") << "\", \"netConfig\": {";
  for (std::size_t i = 0; i < model_meta_.size(); ++i) {
    if (i) os << ", ";
    put_str(os, model_meta_[i].first);
    os << ": ";
    put_num(os, model_meta_[i].second);
  }
  os << "}, \"dropped_events\": [";
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (r) os << ", ";
    os << (ranks_[r] ? ranks_[r]->dropped() : 0);
  }
  os << "]}\n}\n";
}

std::string Tracer::flush() const {
  if (trace_armed_ && !cfg_.chrome_path.empty()) {
    std::ofstream os(cfg_.chrome_path);
    if (!os) return "trace: cannot open " + cfg_.chrome_path;
    write_chrome_json(os);
    if (!os) return "trace: write failed for " + cfg_.chrome_path;
  }
  return {};
}

}  // namespace trace
