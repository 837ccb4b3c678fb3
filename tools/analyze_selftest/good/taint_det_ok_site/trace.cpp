// cnd-analyze-path: src/eval/trace.cpp
// A single sanctioned clock read waived at the site with a trailing
// `// cnd-det-ok(<reason>)`; the tree-wide no-clock ban takes its own allow.
namespace cnd::eval {

void write_trace(double v) {
  const auto t = std::chrono::steady_clock::now();  // cnd-analyze: allow(no-clock) cnd-det-ok(timestamp column is documented as wall-clock)
  emit_row(t, v);
}

}  // namespace cnd::eval
