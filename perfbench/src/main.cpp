// Runs one benchmark workload and prints one JSON line with its outputs:
// operations attempted and failed, check errors, end-to-end metrics,
// per-layer metrics (traced run) and run-record fields. perfbench/run.py
// builds this binary, adds the machine record, and prints the result.
//
//   perfbench --workload serve_steady --seed 1 --seconds 10 --trace 0 --workdir DIR
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace cnd::perfbench;

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Outcome::Value>& m) {
  std::string s = "{";
  for (const auto& [name, v] : m) {
    if (s.size() > 1) s += ",";
    s += "\"" + name + "\":{\"value\":" + number(v.value) + ",\"unit\":\"" + v.unit + "\"}";
  }
  return s + "}";
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const RunArgs args = parse(argc, argv);
    // Observability stays off in the end-to-end run; the traced run switches
    // it on to read the program's own training-path timers.
    cnd::obs::set_enabled(args.trace);
    Tracer tracer(args.trace);
    Outcome out;
    if (args.workload == "serve_steady") out = run_serve_steady(args, tracer);
    else if (args.workload == "serve_adapt") out = run_serve_adapt(args, tracer);
    else if (args.workload == "protocol") out = run_protocol(args, tracer);
    else if (args.workload == "knn_ann") out = run_knn_ann(args, tracer);
    else throw std::invalid_argument("unknown workload " + args.workload);
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");

    for (const auto& [name, v] : out.end_to_end)
      if (!std::isfinite(v.value)) out.check_errors.push_back(name + " is not finite");
    if (args.trace) {
      const std::string trace_path = args.workdir + "/" + args.workload + "-spans.jsonl";
      tracer.write_jsonl(trace_path);
      out.note("spans_file", trace_path);
    }

    std::string errors = "[";
    for (const std::string& e : out.check_errors)
      errors += (errors.size() > 1 ? ",\"" : "\"") + e + "\"";
    errors += "]";
    std::string record = "{";
    for (const auto& [k, v] : out.record)
      record += (record.size() > 1 ? ",\"" : "\"") + k + "\":" + v;
    record += "}";
    std::printf("{\"attempted\":%llu,\"failed\":%llu,\"check_errors\":%s,"
                "\"end_to_end\":%s,\"per_layer\":%s,\"record\":%s}\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), errors.c_str(),
                metrics_json(out.end_to_end).c_str(), metrics_json(out.per_layer).c_str(),
                record.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
