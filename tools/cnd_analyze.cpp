// cnd_analyze — the static checker for the cnd tree's determinism,
// layering, and serving contracts (docs/STATIC_ANALYSIS.md).
//
// It tokenizes every source file under src/, tests/, bench/, tools/, and
// examples/ with its own lexer — no libclang — and runs two kinds of rule.
//
// Call-graph rules. Function definitions in src/ are extracted with
// qualified names by a pragmatic C++ heuristic parser, call sites are linked
// to definitions by qualified-suffix name matching, and seven checks run on
// the resulting approximate call graph:
//
//   hot-path-alloc       functions annotated `// cnd-hot` must not
//                        transitively reach heap allocation (operator new,
//                        make_unique/make_shared, malloc family, growing
//                        container calls) except through functions annotated
//                        `// cnd-alloc-ok(<reason>)`.
//   layering             src/<layer> files include, and make qualified calls
//                        into, only layers below them in the DAG of
//                        src/CMakeLists.txt — so a forward declaration cannot
//                        smuggle an illegal call past a legal include list.
//   wait-free            functions annotated `// cnd-wait-free` (the
//                        admission path and the shard-worker score path)
//                        must not transitively reach mutex acquisition,
//                        condition-variable waits, I/O / sleeps, or the
//                        hot-path alloc set, except through functions
//                        annotated `// cnd-block-ok(<reason>)` (which also
//                        waives a single site when placed on/above its line).
//   lock-order           an approximate mutex-acquisition graph is built
//                        from MutexLock/lock_guard construction sites (a
//                        lock held when another is taken adds an edge,
//                        including through followed calls); any cycle —
//                        an ABBA inversion or a re-acquisition of a held
//                        mutex — is a finding.
//   snapshot-completeness
//                        every class that implements both snapshot() and
//                        restore() must reference each of its data members
//                        in *both* bodies, or carry a
//                        `// cnd-snapshot: skip(<reason>)` annotation on the
//                        member — the add-a-field-forget-to-serialize bug.
//   determinism-taint    nothing reachable from an output root (cnd-hot /
//                        cnd-wait-free scoring, snapshot streams, CSV/JSONL
//                        writers) may read a nondeterminism source (wall
//                        clocks, pointer→integer casts, std::hash over a
//                        pointer, thread ids, unordered-container types)
//                        except through `// cnd-det-ok(<reason>)` barriers.
//   throw-free-hot       `// cnd-hot` roots must not reach `throw` or
//                        `require()` — a shard worker must not abort a
//                        batch mid-stream — except through
//                        `// cnd-throw-ok(<reason>)` barriers.
//
// Tree-wide rules ban a construct in every scanned file, reachable or not:
// rng-confinement (std distributions, raw engines, std::rand / srand and
// raw engine draws outside src/tensor/rng.{hpp,cpp}, the portable-stream
// home of DESIGN.md §4), no-clock (outside src/obs), no-unordered-iter
// (range-for), no-pointer-hash, no-float (bit-exactness layers),
// no-banned-fn, no-naked-mutex, include-hygiene, and registry-coverage
// (tools/check_determinism.sh names every registered detector). The clock,
// pointer-hash, and unordered-container matchers are the ones
// determinism-taint uses.
//
// Findings print as `file:line: rule: message`, one per line, to stdout.
// Any finding can be waived with a `// cnd-analyze: allow(rule[, rule])`
// comment on its line or the line above. `--sarif <file>` additionally
// writes the findings as SARIF 2.1.0 for CI upload; `--rule=<name>` restricts
// the scan to one rule; `--json` appends a one-line machine-readable
// summary. Exit status: 0 clean, 1 findings (or self-test mismatch), 2
// usage/IO error. `--help` lists the rules.
//
// Usage:
//   cnd_analyze --root .
//   cnd_analyze --selftest tools/analyze_selftest
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

bool operator<(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) <
         std::tie(b.file, b.line, b.rule, b.message);
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tk { Ident, Number, Punct, Str };

struct Tok {
  Tk kind;
  std::string text;
  int line = 0;
};

/// Per-file annotation state, harvested from comments while lexing.
struct Annotations {
  std::set<int> hot_lines;                       // `cnd-hot`
  std::set<int> wait_free_lines;                 // `cnd-wait-free`
  std::map<int, std::string> alloc_ok_lines;     // `cnd-alloc-ok(reason)`
  std::map<int, std::string> block_ok_lines;     // `cnd-block-ok(reason)`
  std::map<int, std::string> det_ok_lines;       // `cnd-det-ok(reason)`
  std::map<int, std::string> throw_ok_lines;     // `cnd-throw-ok(reason)`
  std::map<int, std::string> snapshot_skips;     // `cnd-snapshot: skip(r)`
  std::map<int, std::set<std::string>> allows;   // `cnd-analyze: allow(r)`
};

/// One `#include` directive: its target as written, between `<>` or `""`.
struct Include {
  std::string target;
  bool angled = false;
  int line = 0;
};

struct FileInfo {
  std::string vpath;  // repo-relative path used for layer / rule decisions
  std::string text;   // raw contents (registry-coverage reads these)
  Annotations ann;
  std::vector<Tok> toks;          // code tokens: what the parser sees
  std::vector<Tok> pp;            // preprocessor-directive tokens
  std::vector<Include> includes;  // `#include` targets
};

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return std::string(s.substr(b, e - b));
}

/// True if `marker` occurs in `s` as a standalone word (no identifier or
/// hyphen characters butted up against either side).
bool has_marker(std::string_view s, std::string_view marker,
                std::size_t* at = nullptr) {
  std::size_t pos = 0;
  while ((pos = s.find(marker, pos)) != std::string_view::npos) {
    const bool left_ok =
        pos == 0 || (!ident_char(s[pos - 1]) && s[pos - 1] != '-');
    const std::size_t end = pos + marker.size();
    const bool right_ok =
        end >= s.size() || (!ident_char(s[end]) && s[end] != '-');
    if (left_ok && right_ok) {
      if (at) *at = pos;
      return true;
    }
    pos += marker.size();
  }
  return false;
}

/// Pull `(...)`-enclosed text that immediately follows position `at`.
std::string paren_payload(std::string_view s, std::size_t at) {
  const std::size_t open = s.find('(', at);
  if (open == std::string_view::npos) return {};
  // Balanced scan so free-text reasons may themselves mention `forward()`.
  int depth = 0;
  for (std::size_t k = open; k < s.size(); ++k) {
    if (s[k] == '(') ++depth;
    if (s[k] == ')' && --depth == 0)
      return trim(s.substr(open + 1, k - open - 1));
  }
  return trim(s.substr(open + 1));
}

void scan_comment(std::string_view text, int line, Annotations& ann) {
  std::size_t at = 0;
  if (has_marker(text, "cnd-hot")) ann.hot_lines.insert(line);
  if (has_marker(text, "cnd-wait-free")) ann.wait_free_lines.insert(line);
  if (has_marker(text, "cnd-alloc-ok", &at))
    ann.alloc_ok_lines[line] = paren_payload(text, at);
  if (has_marker(text, "cnd-block-ok", &at))
    ann.block_ok_lines[line] = paren_payload(text, at);
  if (has_marker(text, "cnd-det-ok", &at))
    ann.det_ok_lines[line] = paren_payload(text, at);
  if (has_marker(text, "cnd-throw-ok", &at))
    ann.throw_ok_lines[line] = paren_payload(text, at);
  if ((at = text.find("cnd-snapshot:")) != std::string_view::npos) {
    const std::size_t skip_at = text.find("skip", at);
    if (skip_at != std::string_view::npos)
      ann.snapshot_skips[line] = paren_payload(text, skip_at);
  }
  if ((at = text.find("cnd-analyze:")) != std::string_view::npos) {
    std::size_t allow_at = text.find("allow", at);
    if (allow_at != std::string_view::npos) {
      std::istringstream rules(paren_payload(text, allow_at));
      std::string rule;
      while (std::getline(rules, rule, ','))
        if (!trim(rule).empty()) ann.allows[line].insert(trim(rule));
    }
  }
}

/// Tokenize one C++ source file. Comments feed the annotation maps and are
/// dropped; string/char literal *contents* are dropped (a bare Str token
/// remains). Preprocessor directives (with continuations) are tokenized into
/// `fi.pp`, out of the parser's sight, and `#include` targets are recorded.
void lex(FileInfo& fi) {
  const std::string& src = fi.text;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool line_start = true;              // only whitespace since last newline
  std::vector<Tok>* out = &fi.toks;    // &fi.pp inside a directive

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };
  auto skip_blanks = [&](std::size_t j) {
    while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
    return j;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = true;
      out = &fi.toks;
      continue;
    }
    if (c == '\\' && peek(1) == '\n') {  // line splice: the line goes on
      ++line;
      i += 2;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    if (c == '#' && line_start) {
      out = &fi.pp;
      line_start = false;
      ++i;
      std::size_t j = skip_blanks(i);
      if (src.compare(j, 7, "include") == 0) {
        j = skip_blanks(j + 7);
        const char close = j < n && src[j] == '<' ? '>' : '"';
        if (j < n && (src[j] == '<' || src[j] == '"')) {
          const std::size_t end = src.find_first_of(std::string{close, '\n'}, j + 1);
          if (end != std::string::npos && src[end] == close) {
            fi.includes.push_back(
                {src.substr(j + 1, end - j - 1), close == '>', line});
            i = end + 1;
          }
        }
      }
      continue;
    }
    line_start = false;
    if (c == '/' && peek(1) == '/') {
      const std::size_t eol = src.find('\n', i);
      const std::size_t end = eol == std::string::npos ? n : eol;
      scan_comment(std::string_view(src).substr(i + 2, end - i - 2), line,
                   fi.ann);
      i = end;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        ++j;
      }
      scan_comment(std::string_view(src).substr(i + 2, j - i - 2), start_line,
                   fi.ann);
      i = j + 2 > n ? n : j + 2;
      continue;
    }
    if (c == 'R' && peek(1) == '"') {  // raw string literal
      std::size_t d = i + 2;
      while (d < n && src[d] != '(') ++d;
      const std::string close =
          ")" + src.substr(i + 2, d - (i + 2)) + "\"";
      const std::size_t end = src.find(close, d);
      const std::size_t stop = end == std::string::npos ? n : end + close.size();
      for (std::size_t j = i; j < stop; ++j)
        if (src[j] == '\n') ++line;
      out->push_back({Tk::Str, "", line});
      i = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      // An unterminated literal (an apostrophe in `#error don't`) ends at
      // the newline instead of swallowing the file.
      std::size_t j = i + 1;
      while (j < n && src[j] != c && src[j] != '\n') {
        if (src[j] == '\\' && j + 1 < n) {
          if (src[j + 1] == '\n') ++line;
          ++j;
        }
        ++j;
      }
      out->push_back({Tk::Str, "", line});
      i = j < n && src[j] == c ? j + 1 : j;
      continue;
    }
    if (ident_char(c) && !(c >= '0' && c <= '9')) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out->push_back({Tk::Ident, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if ((c >= '0' && c <= '9') ||
        (c == '.' && peek(1) >= '0' && peek(1) <= '9')) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' || src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P'))))
        ++j;
      out->push_back({Tk::Number, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation. `::` and `->` are kept as single tokens (the parser
    // walks qualified names and member accesses); everything else is one
    // character so bracket/angle counting stays simple.
    if (c == ':' && peek(1) == ':') {
      out->push_back({Tk::Punct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && peek(1) == '>') {
      out->push_back({Tk::Punct, "->", line});
      i += 2;
      continue;
    }
    out->push_back({Tk::Punct, std::string(1, c), line});
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Parsed model
// ---------------------------------------------------------------------------

struct CallSite {
  std::vector<std::string> name;  // as written: {"kernels","matmul_into"}
  bool member = false;            // preceded by `.` or `->`
  bool grow = false;              // terminal is a container grow method
  int line = 0;
};

struct AllocSite {
  std::string what;
  int line = 0;
};

/// A site that can sleep the calling thread without taking a lock: a
/// condition-variable wait, file I/O, or an explicit sleep. Lock
/// acquisitions are carried by ConcEvent::kLock instead.
struct BlockSite {
  std::string what;
  int line = 0;
};

/// A site that can unwind: a `throw` expression or a `require()` precondition
/// check (which throws std::invalid_argument on failure). CND_CHECK /
/// CND_DCHECK are macros and stay invisible to the token stream — by design:
/// dchecks vanish in Release, and CND_CHECK marks programmer errors, not
/// data-dependent batch aborts.
struct ThrowSite {
  std::string what;
  int line = 0;
};

/// A read of something the determinism contract forbids in any result:
/// wall clocks, pointer→integer casts, pointer hashing, thread ids,
/// unordered-container iteration order.
struct TaintSite {
  std::string what;
  int line = 0;
};

/// One entry of a function's ordered concurrency-event stream, replayed by
/// the lock-order check to know which mutexes are held at each point.
struct ConcEvent {
  enum Kind {
    kLock,    // scoped-lock construction or manual `.lock()`
    kUnlock,  // manual `.unlock()`
    kClose,   // a `}` closed a block: scoped locks deeper than `depth` die
    kCall     // def.calls[call] happened here
  };
  Kind kind = kLock;
  std::string node;      // kLock/kUnlock: approximate mutex identity
  int line = 0;
  int depth = 0;         // brace depth at the site (kClose: depth after `}`)
  std::size_t call = 0;  // kCall: index into FuncDef::calls
};

struct FuncDef {
  std::vector<std::string> qname;  // {"cnd","nn","Linear","forward_into"}
  std::string display;             // qname joined with "::"
  int file = -1;                   // index into Model::files
  int line = 0;
  bool hot = false;
  bool wait_free = false;          // `// cnd-wait-free` root
  bool alloc_ok = false;
  std::string alloc_reason;
  bool block_ok = false;           // `// cnd-block-ok(reason)` barrier
  std::string block_reason;
  bool det_ok = false;             // `// cnd-det-ok(reason)` barrier
  std::string det_reason;
  bool throw_ok = false;           // `// cnd-throw-ok(reason)` barrier
  std::string throw_reason;
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
  std::vector<BlockSite> blocks;
  std::vector<ThrowSite> throws;
  std::vector<TaintSite> taints;
  std::vector<ConcEvent> events;
  std::set<std::string> idents;    // every identifier in the body
};

/// One data member of a parsed class definition (snapshot-completeness).
struct MemberVar {
  std::string name;
  int line = 0;
};

struct ClassInfo {
  std::vector<std::string> qname;  // {"cnd","core","CndIds"}
  std::string display;             // qname joined with "::"
  int file = -1;
  int line = 0;
  std::vector<MemberVar> members;
};

struct Model {
  std::vector<FileInfo> files;
  std::vector<FuncDef> defs;
  std::vector<ClassInfo> classes;
  std::multimap<std::string, std::size_t> by_terminal;

  void index() {
    by_terminal.clear();
    for (std::size_t i = 0; i < defs.size(); ++i)
      by_terminal.insert({defs[i].qname.back(), i});
  }

  /// All definitions whose qualified name ends with the call's written
  /// name, component-wise. `A::b` matches `cnd::A::b` but not `cnd::X::b`.
  std::vector<std::size_t> candidates(const CallSite& c) const {
    std::vector<std::size_t> out;
    auto [lo, hi] = by_terminal.equal_range(c.name.back());
    for (auto it = lo; it != hi; ++it) {
      const auto& q = defs[it->second].qname;
      if (q.size() < c.name.size()) continue;
      bool match = true;
      for (std::size_t k = 0; k < c.name.size(); ++k)
        if (q[q.size() - 1 - k] != c.name[c.name.size() - 1 - k]) {
          match = false;
          break;
        }
      if (match) out.push_back(it->second);
    }
    return out;
  }
};

const std::set<std::string>& keywords_not_calls() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",    "switch",        "return",
      "sizeof",   "alignof",  "alignas",  "catch",         "throw",
      "new",      "delete",   "decltype", "noexcept",      "requires",
      "typeid",   "static_assert",        "co_await",      "co_yield",
      "co_return"};
  return kw;
}

/// Container methods that can grow the backing allocation. A grow call that
/// resolves to a first-party definition (e.g. Matrix::resize) is treated as
/// a call edge instead — the callee is then checked transitively.
const std::set<std::string>& grow_methods() {
  static const std::set<std::string> g = {
      "push_back", "emplace_back", "emplace",       "resize",
      "reserve",   "insert",       "append",        "assign",
      "push_front", "emplace_front"};
  return g;
}

/// Free functions / factory templates that allocate directly.
const std::set<std::string>& alloc_idents() {
  static const std::set<std::string> a = {"make_unique", "make_shared",
                                          "malloc",      "calloc",
                                          "realloc",     "strdup",
                                          "to_string"};
  return a;
}

// Matchers for the nondeterminism sources that both determinism-taint (on
// reachable code) and the tree-wide bans (everywhere) look for. Each takes
// a token stream and an index and describes the source found there, or
// returns "" when there is none.

/// A wall-clock read: `X::now` where X ends in "clock" in any case (so
/// aliases like `using clock = steady_clock` count), the C clock calls,
/// `time()` with no or a null argument, and `clock()`.
std::string clock_read(const std::vector<Tok>& t, std::size_t i) {
  const std::string& s = t[i].text;
  const auto at = [&](std::size_t k, std::string_view v) {
    return i + k < t.size() && t[i + k].text == v;
  };
  if (s == "now" && i >= 2 && t[i - 1].text == "::" &&
      t[i - 2].kind == Tk::Ident) {
    std::string tail = t[i - 2].text;
    tail = tail.substr(tail.size() >= 5 ? tail.size() - 5 : 0);
    for (char& ch : tail) ch = ch >= 'A' && ch <= 'Z' ? char(ch + 32) : ch;
    if (tail == "clock") return "wall-clock read '" + t[i - 2].text + "::now()'";
    return {};
  }
  if (t[i].kind != Tk::Ident || !at(1, "(")) return {};
  static const std::set<std::string> c_clocks = {
      "clock_gettime", "gettimeofday", "timespec_get", "ftime", "__rdtsc",
      "_rdtsc"};
  const bool no_arg = at(2, ")");
  const bool null_arg = at(3, ")") && (at(2, "nullptr") || at(2, "NULL") ||
                                       at(2, "0"));
  if (c_clocks.count(s) || (s == "clock" && no_arg) ||
      (s == "time" && (no_arg || null_arg)))
    return "wall-clock read '" + s + "()'";
  return {};
}

/// `hash<…*…>`: std::hash over a pointer type, spelled with or without
/// `std::` (an explicit hasher of a pointer-keyed container included).
std::string pointer_hash(const std::vector<Tok>& t, std::size_t i) {
  if (t[i].text != "hash" || i + 1 >= t.size() || t[i + 1].text != "<")
    return {};
  int depth = 0;
  for (std::size_t p = i + 1; p < t.size(); ++p) {
    const std::string& a = t[p].text;
    if (a == "<") ++depth;
    else if (a == ">" && --depth == 0) break;
    else if (a == "*") return "'std::hash' over a pointer type (addresses vary per run)";
    else if (a == ";" || a == "{" || a == "}") break;
  }
  return {};
}

/// An unordered container type (std, absl, and boost spellings alike):
/// its iteration order is unspecified.
bool is_unordered(const std::string& name) {
  return name.rfind("unordered_", 0) == 0;
}

/// Integer targets that make a `reinterpret_cast` a pointer-to-integer
/// conversion (the only cast form that turns an address into data).
const std::set<std::string>& int_type_names() {
  static const std::set<std::string> t = {
      "uintptr_t", "intptr_t", "size_t",   "ptrdiff_t", "uintmax_t",
      "intmax_t",  "uint64_t", "int64_t",  "uint32_t",  "int32_t",
      "uint16_t",  "int16_t",  "unsigned", "int",       "long",
      "short"};
  return t;
}

// ---------------------------------------------------------------------------
// Heuristic parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(Model& model, int file_idx) : model_(model), file_(file_idx) {}

  void run() {
    const auto& toks = model_.files[static_cast<std::size_t>(file_)].toks;
    n_ = toks.size();
    i_ = 0;
    while (i_ < n_) parse_statement();
  }

 private:
  struct Scope {
    std::vector<std::string> comps;  // may be empty (anonymous)
    bool is_class = false;           // class/struct/union body
    std::size_t class_idx = 0;       // into Model::classes when is_class
  };

  const std::vector<Tok>& toks() const {
    return model_.files[static_cast<std::size_t>(file_)].toks;
  }
  const Annotations& ann() const {
    return model_.files[static_cast<std::size_t>(file_)].ann;
  }
  const Tok& at(std::size_t k) const { return toks()[k]; }
  bool is(std::size_t k, std::string_view t) const {
    return k < n_ && at(k).text == t;
  }

  void skip_balanced(std::string_view open, std::string_view close) {
    // Assumes toks()[i_] == open.
    int depth = 0;
    while (i_ < n_) {
      if (at(i_).text == open) ++depth;
      else if (at(i_).text == close && --depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  /// Collect one statement's header tokens until a top-level `;` (discard)
  /// or `{` (classify). Tracks () and [] depth; template argument lists
  /// after the `template` keyword are skipped outright.
  void parse_statement() {
    std::vector<std::size_t> head;  // indices of header tokens
    int depth = 0;
    while (i_ < n_) {
      const Tok& t = at(i_);
      if (t.text == "}" && depth == 0) {  // scope close
        if (!scopes_.empty()) scopes_.pop_back();
        ++i_;
        if (is(i_, ";")) ++i_;
        return;
      }
      if (t.text == "template" && depth == 0) {
        ++i_;
        if (is(i_, "<")) skip_balanced("<", ">");
        continue;
      }
      if (t.text == ";" && depth == 0) {
        maybe_member(head);  // class-scope declaration → data member?
        ++i_;
        return;  // declaration / expression statement at scope level
      }
      if (t.text == ":" && depth == 0 && head.size() == 1 &&
          (at(head[0]).text == "public" || at(head[0]).text == "private" ||
           at(head[0]).text == "protected")) {
        head.clear();  // access specifier label
        ++i_;
        continue;
      }
      if (t.text == "{" && depth == 0) {
        classify_braced(head);
        return;
      }
      if (t.text == "(" || t.text == "[") ++depth;
      if (t.text == ")" || t.text == "]") --depth;
      head.push_back(i_);
      ++i_;
    }
  }

  void classify_braced(const std::vector<std::size_t>& head) {
    // i_ points at the `{`.
    if (head.empty()) {  // bare block at scope level
      scopes_.push_back({});
      ++i_;
      return;
    }
    if (at(head[0]).text == "namespace") {
      Scope s;
      for (std::size_t k = 1; k < head.size(); ++k)
        if (at(head[k]).kind == Tk::Ident) s.comps.push_back(at(head[k]).text);
      scopes_.push_back(std::move(s));
      ++i_;
      return;
    }
    if (at(head[0]).text == "enum") {  // enum bodies carry no calls
      skip_balanced("{", "}");
      if (is(i_, ";")) ++i_;
      return;
    }
    int depth = 0;
    bool has_eq = false, has_class = false;
    std::size_t class_kw = 0;
    for (std::size_t k = 0; k < head.size(); ++k) {
      const std::string& t = at(head[k]).text;
      if (t == "(" || t == "[") ++depth;
      if (t == ")" || t == "]") --depth;
      // Only a bare assignment `=` marks an initializer statement.
      // `operator=` / `operator==` headers are function definitions, and a
      // multi-char operator (`==`, `<=`, …) lexes as single chars here, so
      // an `=` adjacent to `operator` or another punctuator doesn't count.
      if (depth == 0 && t == "=") {
        static const std::set<std::string> not_assign = {
            "operator", "=", "!", "<", ">", "+", "-", "*", "/", "%",
            "&",        "|", "^"};
        const bool prev_op = k > 0 && not_assign.count(at(head[k - 1]).text) &&
                             at(head[k - 1]).kind != Tk::Ident;
        const bool prev_operator_kw =
            k > 0 && at(head[k - 1]).text == "operator";
        const bool next_eq = k + 1 < head.size() && at(head[k + 1]).text == "=";
        if (!prev_op && !prev_operator_kw && !next_eq) has_eq = true;
      }
      if (depth == 0 && !has_class &&
          (t == "class" || t == "struct" || t == "union")) {
        has_class = true;
        class_kw = k;
      }
    }
    if (has_class && !has_eq) {
      Scope s;
      for (std::size_t k = class_kw + 1; k < head.size(); ++k) {
        const Tok& t = at(head[k]);
        if (t.text == ":" || t.text == "final") break;
        // Thread-safety attribute macros (`class CND_CAPABILITY("mutex") M`)
        // sit between the keyword and the class name; skip them — and any
        // argument list they carry — so they neither name the scope nor
        // truncate the scan at their `(`.
        if (t.kind == Tk::Ident && t.text.rfind("CND_", 0) == 0) {
          if (k + 1 < head.size() && at(head[k + 1]).text == "(") {
            int pd = 0;
            ++k;
            for (; k < head.size(); ++k) {
              if (at(head[k]).text == "(") ++pd;
              if (at(head[k]).text == ")" && --pd == 0) break;
            }
          }
          continue;
        }
        if (t.kind == Tk::Ident && !is(head[k] + 1, "("))
          s.comps.push_back(t.text);
        if (t.text == "::") continue;
        if (t.kind == Tk::Punct && t.text != "::") break;
      }
      if (!s.comps.empty()) {
        ClassInfo ci;
        ci.file = file_;
        ci.line = at(head[0]).line;
        for (const Scope& sc : scopes_)
          for (const std::string& c : sc.comps) ci.qname.push_back(c);
        for (const std::string& c : s.comps) ci.qname.push_back(c);
        for (std::size_t q = 0; q < ci.qname.size(); ++q)
          ci.display += (q ? "::" : "") + ci.qname[q];
        s.is_class = true;
        s.class_idx = model_.classes.size();
        model_.classes.push_back(std::move(ci));
      }
      scopes_.push_back(std::move(s));
      ++i_;
      return;
    }
    if (!has_eq) {
      std::size_t paren = head.size();  // first top-level fn-name paren
      int d = 0;
      for (std::size_t k = 0; k < head.size(); ++k) {
        const std::string& t = at(head[k]).text;
        if (t == "(" && d == 0 && k > 0 && plausible_name_end(head, k)) {
          paren = k;
          break;
        }
        if (t == "(" || t == "[") ++d;
        if (t == ")" || t == "]") --d;
      }
      if (paren < head.size()) {
        parse_function(head, paren);
        return;
      }
    }
    // Initializer, lambda assignment, or something we don't model: swallow
    // the braces, then the rest of the statement. At class scope a
    // brace-initialized data member (`std::atomic<u64> swaps_{0};`) lands
    // here — record it before swallowing the initializer.
    maybe_member(head);
    skip_balanced("{", "}");
    int d2 = 0;
    while (i_ < n_) {
      const std::string& t = at(i_).text;
      if (t == ";" && d2 == 0) {
        ++i_;
        return;
      }
      if (t == "}" && d2 == 0) return;  // enclosing scope closes; don't eat it
      if (t == "{" && d2 == 0) {
        skip_balanced("{", "}");
        continue;
      }
      if (t == "(" || t == "[") ++d2;
      if (t == ")" || t == "]") --d2;
      ++i_;
    }
  }

  /// At class scope, decide whether a `;`- or `{`-terminated statement head
  /// declares a data member, and if so record it on the enclosing
  /// ClassInfo. Heuristic: drop default initializers (`= …`), trailing
  /// thread-safety attribute macros (`CND_GUARDED_BY(mu_)`) and array
  /// bounds; what remains must be `Type name` with no parameter list.
  /// Function declarations, using/typedef/friend/static statements, and
  /// nested type declarations are rejected. Bitfields and function-pointer
  /// members are unmodeled (none exist in the tree).
  void maybe_member(const std::vector<std::size_t>& head) {
    if (scopes_.empty() || !scopes_.back().is_class || head.empty()) return;
    static const std::set<std::string> skip_lead = {
        "using",    "typedef",  "friend",    "static",    "inline",
        "template", "explicit", "virtual",   "operator",  "enum",
        "class",    "struct",   "union",     "public",    "private",
        "protected", "constexpr", "consteval", "constinit", "extern"};
    if (skip_lead.count(at(head[0]).text)) return;
    // Truncate at the first top-level `=` (default member initializer).
    std::vector<std::size_t> h;
    int depth = 0;
    for (std::size_t k : head) {
      const std::string& t = at(k).text;
      if (t == "operator") return;  // any operator form is a function
      if (t == "(" || t == "[") ++depth;
      if (t == ")" || t == "]") --depth;
      if (depth == 0 && t == "=") break;
      h.push_back(k);
    }
    // Strip trailing `CND_*(…)` attribute groups and `[N]` array bounds.
    while (!h.empty()) {
      const std::string& last = at(h.back()).text;
      if (last == ")" || last == "]") {
        const std::string open = last == ")" ? "(" : "[";
        const std::string close = last;
        int d = 0;
        std::size_t j = h.size();
        while (j > 0) {
          --j;
          const std::string& t = at(h[j]).text;
          if (t == close) ++d;
          if (t == open && --d == 0) break;
        }
        if (d != 0 || j == 0) return;
        if (last == ")") {
          const Tok& before = at(h[j - 1]);
          if (before.kind != Tk::Ident || before.text.rfind("CND_", 0) != 0)
            return;  // a real parameter list: function declaration
          h.resize(j - 1);
        } else {
          h.resize(j);
        }
        continue;
      }
      break;
    }
    if (h.size() < 2) return;  // need at least `Type name`
    for (std::size_t k : h)
      if (at(k).text == "(") return;  // `T f() const;` and friends
    const Tok& nm = at(h.back());
    if (nm.kind != Tk::Ident || keywords_not_calls().count(nm.text)) return;
    model_.classes[scopes_.back().class_idx].members.push_back(
        {nm.text, nm.line});
  }

  /// Is the token before head[k] (a top-level `(`) the end of a function
  /// name — an identifier that is not a keyword, or an operator form?
  bool plausible_name_end(const std::vector<std::size_t>& head,
                          std::size_t k) const {
    const Tok& prev = at(head[k - 1]);
    if (prev.kind == Tk::Ident && !keywords_not_calls().count(prev.text) &&
        prev.text != "class" && prev.text != "struct" && prev.text != "union" &&
        prev.text != "void" && prev.text != "bool" && prev.text != "int" &&
        prev.text != "double" && prev.text != "char" && prev.text != "auto" &&
        prev.text != "float" && prev.text != "long" && prev.text != "short" &&
        prev.text != "unsigned" && prev.text != "signed" &&
        prev.text != "const" && prev.text != "constexpr")
      return true;
    // operator+, operator==, operator[], operator() …
    for (std::size_t back = 1; back <= 3 && back < k; ++back)
      if (at(head[k - back]).text == "operator") return true;
    return false;
  }

  void parse_function(const std::vector<std::size_t>& head, std::size_t paren) {
    FuncDef def;
    def.file = file_;
    def.line = at(head[0]).line;

    // Name: walk back from the paren through `ident (:: ident)*`, with
    // `operator…` and `~Dtor` forms.
    std::vector<std::string> name;
    std::size_t k = paren;  // head index just past the name
    bool is_operator = false;
    for (std::size_t back = 1; back <= 3 && back < paren; ++back)
      if (at(head[paren - back]).text == "operator") {
        is_operator = true;
        break;
      }
    if (is_operator) {
      name.push_back("operator()");
    } else {
      std::size_t j = paren;  // index of token after current name component
      while (j >= 1 && at(head[j - 1]).kind == Tk::Ident) {
        std::string comp = at(head[j - 1]).text;
        std::size_t step = 1;
        if (j >= 2 && at(head[j - 2]).text == "~") {
          comp = "~" + comp;
          ++step;
        }
        name.insert(name.begin(), comp);
        j -= step;
        if (j >= 2 && at(head[j - 1]).text == "::" &&
            at(head[j - 2]).kind == Tk::Ident)
          j -= 1;  // consume `::`, loop picks up the qualifier
        else
          break;
      }
      (void)k;
    }
    if (name.empty()) {  // could not name it; treat as opaque braces
      skip_balanced("{", "}");
      return;
    }
    for (const Scope& s : scopes_)
      for (const std::string& c : s.comps) def.qname.push_back(c);
    for (const std::string& c : name) def.qname.push_back(c);
    for (std::size_t q = 0; q < def.qname.size(); ++q)
      def.display += (q ? "::" : "") + def.qname[q];

    // Annotations bind to the header's line span (plus the line above).
    const int h0 = at(head[0]).line;
    const int h1 = at(i_).line;  // the `{`
    for (int ln = h0 - 1; ln <= h1; ++ln) {
      if (ann().hot_lines.count(ln)) def.hot = true;
      if (ann().wait_free_lines.count(ln)) def.wait_free = true;
      auto it = ann().alloc_ok_lines.find(ln);
      if (it != ann().alloc_ok_lines.end()) {
        def.alloc_ok = true;
        def.alloc_reason = it->second;
      }
      auto bo = ann().block_ok_lines.find(ln);
      if (bo != ann().block_ok_lines.end()) {
        def.block_ok = true;
        def.block_reason = bo->second;
      }
      auto det = ann().det_ok_lines.find(ln);
      if (det != ann().det_ok_lines.end()) {
        def.det_ok = true;
        def.det_reason = det->second;
      }
      auto th = ann().throw_ok_lines.find(ln);
      if (th != ann().throw_ok_lines.end()) {
        def.throw_ok = true;
        def.throw_reason = th->second;
      }
    }

    // Body: everything from the matching `)` of the parameter list to the
    // end of the braced body — so constructor init lists are covered, while
    // default-argument expressions inside the parameter list are not.
    scan_body(def);
    model_.defs.push_back(std::move(def));
  }

  void scan_body(FuncDef& def) {
    // i_ points at the `{` that opens the body; ctor-init calls between the
    // parameter list and the `{` were part of the header and are rescanned
    // here via `head` — simpler: scan from the `{` only, then walk the
    // header tail separately? The header tail tokens are already gone, so
    // scan the braced body plus nothing else. Ctor-init member "calls"
    // (`gen_(seed)`) carry no first-party definitions, so skipping them
    // loses nothing that the tests don't cover elsewhere.
    int depth = 0;
    while (i_ < n_) {
      const Tok& t = at(i_);
      if (t.text == "{") ++depth;
      if (t.text == "}") {
        if (--depth == 0) {
          ++i_;
          return;
        }
        // A block closed: scoped locks declared inside it are released. Only
        // functions that actually lock need the replay event.
        if (!def.events.empty())
          def.events.push_back(
              {ConcEvent::kClose, std::string{}, t.line, depth, 0});
      }
      if (t.kind == Tk::Ident) {
        def.idents.insert(t.text);
        record_ident(def, depth);
      }
      ++i_;
    }
  }

  /// Scoped-lock types whose construction acquires the mutex passed as the
  /// first argument. The std names are matched so fixtures (and any future
  /// backsliding) are seen too, even though first-party code goes through
  /// MutexLock.
  static const std::set<std::string>& scoped_lock_types() {
    static const std::set<std::string> s = {"MutexLock", "lock_guard",
                                            "unique_lock", "scoped_lock",
                                            "shared_lock"};
    return s;
  }

  static const std::set<std::string>& cv_wait_names() {
    static const std::set<std::string> s = {"wait", "wait_for", "wait_until"};
    return s;
  }

  /// Calls that sleep or do I/O — hostile to a wait-free contract even when
  /// no lock is involved.
  static const std::set<std::string>& io_call_names() {
    static const std::set<std::string> s = {
        "fopen",  "freopen", "fclose",  "fread",     "fwrite",   "fprintf",
        "vfprintf", "fscanf", "fgets",  "fputs",     "fputc",    "fgetc",
        "fflush", "printf",  "vprintf", "puts",      "getline",  "getchar",
        "system", "popen",   "sleep",   "usleep",    "nanosleep", "sleep_for",
        "sleep_until"};
    return s;
  }

  static const std::set<std::string>& io_stream_types() {
    static const std::set<std::string> s = {"ofstream", "ifstream", "fstream"};
    return s;
  }

  /// Approximate identity of a mutex expression from its trailing identifier
  /// chain (`mu_`, `r.mutex`, `g_config_mutex`). Members (trailing `_` by
  /// style) are qualified with the enclosing class so `RingBuffer::mu_` and
  /// `ThreadPool::mutex_` stay distinct across the whole tree; anything else
  /// is kept verbatim. Instance-level aliasing is deliberately ignored — the
  /// lock-order graph is class-granular.
  static std::string mutex_node(const FuncDef& def,
                                const std::vector<std::string>& chain) {
    const std::string& t = chain.back();
    if (!t.empty() && t.back() == '_' && def.qname.size() >= 2)
      return def.qname[def.qname.size() - 2] + "::" + t;
    return t;
  }

  void record_ident(FuncDef& def, int depth) {
    const Tok& t = at(i_);
    // `MutexLock lk(mu_)` / `std::lock_guard<std::mutex> lk(mu)`: a scoped
    // acquisition of the first constructor argument.
    if (scoped_lock_types().count(t.text)) {
      std::size_t k = i_ + 1;
      if (is(k, "<")) {  // template argument list
        int ad = 0;
        for (; k < n_; ++k) {
          if (at(k).text == "<") ++ad;
          if (at(k).text == ">" && --ad == 0) {
            ++k;
            break;
          }
        }
      }
      if (k < n_ && at(k).kind == Tk::Ident && is(k + 1, "(")) {
        // Trailing ident chain of the first argument only (defer_lock and
        // friends come after a comma).
        std::vector<std::string> chain;
        int pd = 0;
        for (std::size_t p = k + 1; p < n_; ++p) {
          const Tok& a = at(p);
          if (a.text == "(") {
            ++pd;
            continue;
          }
          if (a.text == ")") {
            if (--pd == 0) break;
            continue;
          }
          if (pd == 1 && a.text == ",") break;
          if (a.kind == Tk::Ident)
            chain.push_back(a.text);
          else if (a.text != "::" && a.text != "." && a.text != "->")
            chain.clear();
        }
        if (!chain.empty())
          def.events.push_back({ConcEvent::kLock, mutex_node(def, chain),
                                t.line, depth, 0});
      }
      return;
    }
    // Manual `x.lock()` / `x.unlock()`. Recorded as events, not calls: the
    // wrapper bodies add nothing the event stream doesn't already say.
    if ((t.text == "lock" || t.text == "unlock") && i_ >= 2 &&
        (at(i_ - 1).text == "." || at(i_ - 1).text == "->") &&
        is(i_ + 1, "(") && is(i_ + 2, ")")) {
      std::vector<std::string> chain;
      std::size_t p = i_ - 1;  // the `.` / `->`
      while (p >= 1 && at(p - 1).kind == Tk::Ident) {
        chain.insert(chain.begin(), at(p - 1).text);
        if (p >= 3 && (at(p - 2).text == "." || at(p - 2).text == "->" ||
                       at(p - 2).text == "::"))
          p -= 2;
        else
          break;
      }
      if (!chain.empty())
        def.events.push_back(
            {t.text == "lock" ? ConcEvent::kLock : ConcEvent::kUnlock,
             mutex_node(def, chain), t.line, depth, 0});
      return;
    }
    // `cv.wait(lk)` and friends: the thread parks. Not recorded as a call —
    // descending into the wrapper would double-report the same park.
    if (cv_wait_names().count(t.text) && i_ >= 1 &&
        (at(i_ - 1).text == "." || at(i_ - 1).text == "->") &&
        is(i_ + 1, "(")) {
      def.blocks.push_back(
          {"condition-variable " + t.text + "()", t.line});
      return;
    }
    if (io_call_names().count(t.text) && is(i_ + 1, "(")) {
      def.blocks.push_back({"I/O or sleep call '" + t.text + "()'", t.line});
      return;
    }
    if (io_stream_types().count(t.text)) {
      def.blocks.push_back({"file stream '" + t.text + "'", t.line});
      return;
    }
    // `throw` expressions and `require()` precondition checks unwind —
    // throw-free-hot sites. `require` is recorded as a site, not a call
    // edge: every require() funnels into one definition in
    // src/tensor/assert.hpp, and descending there would collapse every
    // violation onto that single `throw`.
    if (t.text == "throw") {
      def.throws.push_back({"'throw' expression", t.line});
      return;
    }
    if (t.text == "require" && is(i_ + 1, "(") &&
        !(i_ >= 1 && (at(i_ - 1).text == "." || at(i_ - 1).text == "->"))) {
      def.throws.push_back({"'require()' precondition check", t.line});
      return;
    }
    // Determinism-taint sources. A `X::now()` read only taints when X looks
    // like a clock; `Timer::now()`-style wrappers are followed as ordinary
    // calls instead, so the taint is reported inside the wrapper. Any
    // appearance of an unordered container type is flagged — a token-level
    // scan cannot prove the container is never iterated.
    std::string taint = clock_read(toks(), i_);
    if (taint.empty()) taint = pointer_hash(toks(), i_);
    if (taint.empty() && is_unordered(t.text))
      taint = "unordered container '" + t.text +
              "' (iteration order is unspecified)";
    if (!taint.empty()) {
      def.taints.push_back({taint, t.line});
      return;
    }
    if (t.text == "get_id" && is(i_ + 1, "(") && i_ >= 1 &&
        (at(i_ - 1).text == "::" || at(i_ - 1).text == "." ||
         at(i_ - 1).text == "->")) {
      def.taints.push_back({"thread id 'get_id()'", t.line});
      return;
    }
    if (t.text == "reinterpret_cast" && is(i_ + 1, "<")) {
      // reinterpret_cast to an integer type is only valid from a pointer —
      // the address becomes data. Casts whose target mentions `*` or `&`
      // (pointer/reference targets, e.g. the byte views in src/io) carry no
      // address value into results.
      bool has_int = false, has_ptr = false;
      int ad = 0;
      for (std::size_t p = i_ + 1; p < n_; ++p) {
        const Tok& a = at(p);
        if (a.text == "<") ++ad;
        else if (a.text == ">" && --ad == 0) break;
        else if (a.text == "*" || a.text == "&") has_ptr = true;
        else if (a.kind == Tk::Ident && int_type_names().count(a.text))
          has_int = true;
      }
      if (has_int && !has_ptr)
        def.taints.push_back(
            {"pointer-to-integer 'reinterpret_cast' (addresses vary per run)",
             t.line});
      return;
    }
    if (t.text == "new") {
      if (i_ == 0 || at(i_ - 1).text != "operator")
        def.allocs.push_back({"operator new", t.line});
      return;
    }
    if (alloc_idents().count(t.text) && (is(i_ + 1, "(") || is(i_ + 1, "<"))) {
      def.allocs.push_back({t.text + "()", t.line});
      return;
    }
    if (!is(i_ + 1, "(")) return;
    if (keywords_not_calls().count(t.text)) return;
    CallSite call;
    call.line = t.line;
    call.name.push_back(t.text);
    std::size_t j = i_;
    while (j >= 2 && at(j - 1).text == "::" && at(j - 2).kind == Tk::Ident) {
      call.name.insert(call.name.begin(), at(j - 2).text);
      j -= 2;
    }
    call.member =
        j >= 1 && (at(j - 1).text == "." || at(j - 1).text == "->");
    if (!call.member && j >= 1) {
      // `Type name(args)` is a local declaration, not a call: skip when the
      // (chain-leading) name is directly preceded by another identifier or
      // the closing `>` of a template argument list
      // (`std::vector<std::size_t> assign(x.rows())`). Keyword contexts
      // (`return f(x)`, `else f()`, …) still count as calls.
      static const std::set<std::string> call_ctx = {
          "return", "else",      "do",       "throw",    "case",
          "goto",   "co_return", "co_yield", "co_await", "new",
          "delete", "sizeof"};
      const Tok& before = at(j - 1);
      if ((before.kind == Tk::Ident && !call_ctx.count(before.text)) ||
          before.text == ">")
        return;
    }
    call.grow = grow_methods().count(call.name.back()) > 0;
    def.events.push_back(
        {ConcEvent::kCall, std::string{}, t.line, depth, def.calls.size()});
    def.calls.push_back(std::move(call));
  }

  Model& model_;
  int file_;
  std::size_t n_ = 0;
  std::size_t i_ = 0;
  std::vector<Scope> scopes_;
};

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// `// cnd-analyze: allow(rule)` on the finding's line or the line above.
bool line_allowed(const Model& m, int file, int line, const std::string& rule) {
  const auto& allows = m.files[static_cast<std::size_t>(file)].ann.allows;
  for (const int l : {line, line - 1}) {
    auto it = allows.find(l);
    if (it != allows.end() && it->second.count(rule) > 0) return true;
  }
  return false;
}

const std::string& vpath_of(const Model& m, int file) {
  return m.files[static_cast<std::size_t>(file)].vpath;
}

/// The layer DAG, mirroring the target graph in src/CMakeLists.txt: a file
/// in src/<layer>/ may depend on its own layer and the layers listed here.
const std::map<std::string, std::set<std::string>>& layer_deps() {
  static const std::map<std::string, std::set<std::string>> deps = {
      {"obs", {}},
      {"runtime", {"obs"}},
      {"tensor", {"runtime", "obs"}},
      {"linalg", {"tensor", "runtime", "obs"}},
      {"nn", {"linalg", "tensor", "runtime", "obs"}},
      {"ml", {"nn", "linalg", "tensor", "runtime", "obs"}},
      {"data", {"ml", "nn", "linalg", "tensor", "runtime", "obs"}},
      {"scenario", {"data", "ml", "nn", "linalg", "tensor", "runtime", "obs"}},
      {"eval", {"tensor", "runtime", "obs"}},
      {"core",
       {"eval", "data", "ml", "nn", "linalg", "tensor", "runtime", "obs"}},
      {"io",
       {"core", "eval", "data", "ml", "nn", "linalg", "tensor", "runtime",
        "obs"}},
      {"baselines",
       {"core", "eval", "data", "ml", "nn", "linalg", "tensor", "runtime",
        "obs"}},
      {"serve",
       {"io", "core", "eval", "data", "ml", "nn", "linalg", "tensor",
        "runtime", "obs"}},
  };
  return deps;
}

/// Layer of a repo-relative path, or "" when the file is outside the DAG.
std::string layer_of(const std::string& vpath) {
  if (vpath.rfind("src/", 0) != 0) return {};
  const std::size_t slash = vpath.find('/', 4);
  if (slash == std::string::npos) return {};
  const std::string layer = vpath.substr(4, slash - 4);
  return layer_deps().count(layer) ? layer : std::string{};
}

/// May code at `vpath` (in layer `from`) depend on layer `to`? cnd_factory
/// spans core+baselines by design (src/CMakeLists.txt).
bool layer_allows(const std::string& vpath, const std::string& from,
                  const std::string& to) {
  return to == from || layer_deps().at(from).count(to) > 0 ||
         (to == "baselines" && (vpath == "src/core/detector_factory.cpp" ||
                                vpath == "src/core/detector_factory.hpp"));
}

void check_hot_paths(const Model& m, std::vector<Finding>& out) {
  const std::string rule = "hot-path-alloc";
  std::set<std::pair<std::string, int>> reported;
  for (std::size_t root = 0; root < m.defs.size(); ++root) {
    if (!m.defs[root].hot) continue;
    std::vector<std::size_t> stack = {root};
    std::set<std::size_t> visited = {root};
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      stack.pop_back();
      const FuncDef& d = m.defs[cur];
      for (const AllocSite& a : d.allocs) {
        if (line_allowed(m, d.file, a.line, rule)) continue;
        if (!reported.insert({vpath_of(m, d.file), a.line}).second) continue;
        out.push_back({vpath_of(m, d.file), a.line, rule,
                       "'" + d.display + "' (reachable from hot '" +
                           m.defs[root].display + "') allocates: " + a.what});
      }
      for (const CallSite& c : d.calls) {
        const auto cands = m.candidates(c);
        if (c.grow && cands.empty()) {
          if (line_allowed(m, d.file, c.line, rule)) continue;
          if (!reported.insert({vpath_of(m, d.file), c.line}).second) continue;
          std::string name;
          for (std::size_t q = 0; q < c.name.size(); ++q)
            name += (q ? "::" : "") + c.name[q];
          out.push_back({vpath_of(m, d.file), c.line, rule,
                         "'" + d.display + "' (reachable from hot '" +
                             m.defs[root].display +
                             "') calls growing container method '" + name +
                             "()'"});
          continue;
        }
        for (std::size_t cand : cands) {
          if (m.defs[cand].alloc_ok) continue;  // annotated barrier
          if (visited.insert(cand).second) stack.push_back(cand);
        }
      }
    }
  }
}

/// A site-level `// cnd-block-ok(reason)` waiver: on the site's line or the
/// line above. (The same marker on a function header is a descent barrier —
/// see check_wait_free.)
bool site_block_ok(const Model& m, int file, int line) {
  const auto& lines =
      m.files[static_cast<std::size_t>(file)].ann.block_ok_lines;
  return lines.count(line) > 0 || lines.count(line - 1) > 0;
}

/// Everything transitively reachable from a `// cnd-wait-free` root must be
/// free of mutex acquisition, condition-variable waits, I/O / sleeps, and
/// the hot-path alloc set. `// cnd-block-ok(reason)` on a function header
/// vouches for that whole subtree (descent stops); on a site's line it
/// waives just that site. A `// cnd-alloc-ok` function is vouched bounded
/// work off the steady-state path, so the walk stops there exactly as the
/// hot-path walk does — block-ok exists for the cases where only the
/// blocking contract, not the alloc contract, is being vouched.
void check_wait_free(const Model& m, std::vector<Finding>& out) {
  const std::string rule = "wait-free";
  std::set<std::pair<std::string, int>> reported;
  for (std::size_t root = 0; root < m.defs.size(); ++root) {
    if (!m.defs[root].wait_free) continue;
    std::vector<std::size_t> stack = {root};
    std::set<std::size_t> visited = {root};
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      stack.pop_back();
      const FuncDef& d = m.defs[cur];
      auto flag = [&](int line, const std::string& what) {
        if (site_block_ok(m, d.file, line)) return;
        if (line_allowed(m, d.file, line, rule)) return;
        if (!reported.insert({vpath_of(m, d.file), line}).second) return;
        out.push_back({vpath_of(m, d.file), line, rule,
                       "'" + d.display + "' (reachable from wait-free '" +
                           m.defs[root].display + "') " + what});
      };
      for (const ConcEvent& e : d.events)
        if (e.kind == ConcEvent::kLock)
          flag(e.line, "acquires mutex '" + e.node + "'");
      for (const BlockSite& b : d.blocks) flag(b.line, "may block: " + b.what);
      for (const AllocSite& a : d.allocs) flag(a.line, "allocates: " + a.what);
      for (const CallSite& c : d.calls) {
        const auto cands = m.candidates(c);
        if (c.grow && cands.empty()) {
          std::string name;
          for (std::size_t q = 0; q < c.name.size(); ++q)
            name += (q ? "::" : "") + c.name[q];
          flag(c.line, "calls growing container method '" + name + "()'");
          continue;
        }
        for (std::size_t cand : cands) {
          if (m.defs[cand].block_ok || m.defs[cand].alloc_ok)
            continue;  // vouched barrier
          if (visited.insert(cand).second) stack.push_back(cand);
        }
      }
    }
  }
}

/// Follow a call edge when propagating lock acquisitions? Single-name member
/// calls are excluded outright — `slots_.size()` would suffix-match an
/// unrelated first-party `size()` and fabricate edges — and ambiguous
/// single-name free calls likewise.
bool follow_for_locks(const CallSite& c,
                      const std::vector<std::size_t>& cands) {
  if (cands.empty()) return false;
  if (c.member && c.name.size() < 2) return false;
  if (c.name.size() < 2 && cands.size() > 1) return false;
  return true;
}

struct LockOrderCtx {
  const Model& m;
  std::vector<int> state;  // 0 = unvisited, 1 = in progress / done
  std::vector<std::set<std::string>> acq;
};

/// Memoized transitive acquire set of defs[f]. Call-graph cycles return the
/// partial in-progress set — an under-approximation that terminates.
const std::set<std::string>& trans_acquires(LockOrderCtx& ctx,
                                            std::size_t f) {
  if (ctx.state[f] != 0) return ctx.acq[f];
  ctx.state[f] = 1;
  const FuncDef& d = ctx.m.defs[f];
  for (const ConcEvent& e : d.events)
    if (e.kind == ConcEvent::kLock) ctx.acq[f].insert(e.node);
  for (const CallSite& c : d.calls) {
    const auto cands = ctx.m.candidates(c);
    if (!follow_for_locks(c, cands)) continue;
    for (std::size_t cand : cands) {
      if (cand == f) continue;
      const std::set<std::string>& sub = trans_acquires(ctx, cand);
      ctx.acq[f].insert(sub.begin(), sub.end());
    }
  }
  return ctx.acq[f];
}

/// Replay each function's event stream to learn which mutexes are held when
/// another is acquired (directly, or transitively through a followed call).
/// Every held→acquired pair is an edge; a cycle in the resulting graph is an
/// ABBA inversion (or a self-deadlock when both ends are the same mutex).
/// `// cnd-analyze: allow(lock-order)` on an acquisition site drops that
/// site's edges.
void check_lock_order(const Model& m, std::vector<Finding>& out) {
  const std::string rule = "lock-order";
  LockOrderCtx ctx{m, std::vector<int>(m.defs.size(), 0),
                   std::vector<std::set<std::string>>(m.defs.size())};

  struct EdgeSite {
    std::string file;
    int line = 0;
    std::string caller;
  };
  std::map<std::pair<std::string, std::string>, EdgeSite> edges;

  for (const FuncDef& d : m.defs) {
    std::vector<std::pair<std::string, int>> active;  // (node, depth)
    for (const ConcEvent& e : d.events) {
      switch (e.kind) {
        case ConcEvent::kClose:
          while (!active.empty() && active.back().second > e.depth)
            active.pop_back();
          break;
        case ConcEvent::kUnlock:
          for (auto it = active.rbegin(); it != active.rend(); ++it)
            if (it->first == e.node) {
              active.erase(std::next(it).base());
              break;
            }
          break;
        case ConcEvent::kLock:
          if (!line_allowed(m, d.file, e.line, rule))
            for (const auto& held : active)
              edges.emplace(std::make_pair(held.first, e.node),
                            EdgeSite{vpath_of(m, d.file), e.line, d.display});
          active.push_back({e.node, e.depth});
          break;
        case ConcEvent::kCall: {
          if (active.empty()) break;
          if (line_allowed(m, d.file, e.line, rule)) break;
          const CallSite& c = d.calls[e.call];
          const auto cands = m.candidates(c);
          if (!follow_for_locks(c, cands)) break;
          std::set<std::string> acquired;
          for (std::size_t cand : cands) {
            const std::set<std::string>& sub = trans_acquires(ctx, cand);
            acquired.insert(sub.begin(), sub.end());
          }
          for (const auto& held : active)
            for (const std::string& node : acquired)
              edges.emplace(std::make_pair(held.first, node),
                            EdgeSite{vpath_of(m, d.file), c.line, d.display});
          break;
        }
      }
    }
  }

  // Adjacency + a BFS cycle probe per edge; the graph has one node per
  // distinct mutex, so this stays tiny.
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [key, site] : edges) adj[key.first].insert(key.second);
  for (const auto& [key, site] : edges) {
    const std::string& from = key.first;
    const std::string& to = key.second;
    bool cyclic = from == to;
    if (!cyclic) {
      std::set<std::string> seen = {to};
      std::vector<std::string> stack = {to};
      while (!stack.empty()) {
        const std::string n = stack.back();
        stack.pop_back();
        if (n == from) {
          cyclic = true;
          break;
        }
        auto it = adj.find(n);
        if (it == adj.end()) continue;
        for (const std::string& nxt : it->second)
          if (seen.insert(nxt).second) stack.push_back(nxt);
      }
    }
    if (!cyclic) continue;
    const std::string msg =
        from == to
            ? "'" + site.caller + "' acquires '" + to +
                  "' while already holding it (self-deadlock)"
            : "'" + site.caller + "' acquires '" + to + "' while holding '" +
                  from +
                  "', and the reverse order exists elsewhere — lock-order "
                  "cycle (ABBA deadlock risk)";
    out.push_back({site.file, site.line, rule, msg});
  }
}

/// layering: every quoted first-party include and every qualified call edge
/// from src/<layer> lands in a layer the DAG allows. The two concurrency
/// headers below the DAG — dependency-free, guarding src/obs's own
/// registries — are includable from any layer.
void check_layering(const Model& m, std::vector<Finding>& out) {
  const std::string rule = "layering";
  static const std::set<std::string> neutral = {
      "tensor/thread_annotations.hpp", "runtime/annotated_mutex.hpp"};
  for (std::size_t f = 0; f < m.files.size(); ++f) {
    const std::string& vpath = m.files[f].vpath;
    const std::string from = layer_of(vpath);
    if (from.empty()) continue;
    for (const Include& inc : m.files[f].includes) {
      const std::string to = layer_of("src/" + inc.target);
      if (inc.angled || neutral.count(inc.target) || to.empty() ||
          layer_allows(vpath, from, to))
        continue;
      if (line_allowed(m, static_cast<int>(f), inc.line, rule)) continue;
      out.push_back({vpath, inc.line, rule,
                     "src/" + from + " must not include from src/" + to +
                         " (layer order: src/CMakeLists.txt)"});
    }
  }
  std::set<std::tuple<std::string, int, std::string>> reported;
  for (const FuncDef& d : m.defs) {
    const std::string caller_layer = layer_of(vpath_of(m, d.file));
    if (caller_layer.empty()) continue;
    for (const CallSite& c : d.calls) {
      // Unqualified single-name calls (`x.size()`, a local's `operator()`,
      // an ADL call) match any definition with that terminal name — pure
      // noise at layer granularity. An object of a cross-layer type cannot
      // appear without an illegal include, which the include half above
      // catches; this half earns its keep on qualified calls, including
      // those through forward declarations no include list shows.
      if (c.name.size() < 2) continue;
      const auto cands = m.candidates(c);
      if (cands.empty()) continue;
      // Flag only when *every* plausible target is illegal: name matching
      // is approximate, so one legal candidate vetoes the finding.
      bool all_bad = true;
      std::string example;
      for (std::size_t cand : cands) {
        const std::string callee_layer =
            layer_of(vpath_of(m, m.defs[cand].file));
        if (callee_layer.empty() ||
            layer_allows(vpath_of(m, d.file), caller_layer, callee_layer)) {
          all_bad = false;
          break;
        }
        example = "'" + m.defs[cand].display + "' (layer " + callee_layer + ")";
      }
      if (!all_bad) continue;
      if (line_allowed(m, d.file, c.line, rule)) continue;
      if (!reported.insert({vpath_of(m, d.file), c.line, example}).second)
        continue;
      out.push_back({vpath_of(m, d.file), c.line, rule,
                     "'" + d.display + "' (layer " + caller_layer +
                         ") calls " + example +
                         ", not reachable in the layer DAG"});
    }
  }
}

/// Both token streams of a file: code, then preprocessor directives.
template <class Fn>
void for_each_token(const FileInfo& fi, Fn&& fn) {
  for (const std::vector<Tok>* t : {&fi.toks, &fi.pp})
    for (std::size_t i = 0; i < t->size(); ++i) fn(*t, i);
}

/// A raw randomness source: a std distribution adapter, a raw engine type,
/// `std::rand` / `srand`, or a draw straight from `.engine()()`.
std::string raw_rng(const std::vector<Tok>& t, std::size_t i) {
  static const std::string kDist = "_distribution";
  const std::string& s = t[i].text;
  const auto at = [&](std::size_t k, std::string_view v) {
    return i + k < t.size() && t[i + k].text == v;
  };
  if (s.size() > kDist.size() &&
      s.compare(s.size() - kDist.size(), kDist.size(), kDist) == 0)
    return "std distribution '" + s + "'";
  if (s.rfind("mt19937", 0) == 0 || s.rfind("minstd_rand", 0) == 0 ||
      s.rfind("ranlux", 0) == 0 || s == "knuth_b" ||
      s == "default_random_engine" || s == "random_device")
    return "raw RNG engine '" + s + "'";
  if ((s == "rand" && i >= 2 && t[i - 1].text == "::" &&
       t[i - 2].text == "std") ||
      (s == "srand" && at(1, "(")))
    return "C RNG '" + s + "' (time-seeded, unportable stream)";
  if (s == "engine" && i >= 1 &&
      (t[i - 1].text == "." || t[i - 1].text == "->") && at(1, "(") &&
      at(2, ")") && at(3, "("))
    return "raw engine draw via '.engine()()'";
  return {};
}

/// Tree-wide bans: constructs no scanned file may contain, reachable or
/// not, each with the path exemptions of its contract.
///   rng-confinement    raw randomness outside src/tensor/rng.{hpp,cpp}, the
///                      portable-stream home (DESIGN.md §4)
///   no-clock           clock reads outside src/obs (the clock matcher of
///                      determinism-taint)
///   no-unordered-iter  range-for over an unordered container, named by type
///                      or by a variable declared with one
///   no-pointer-hash    std::hash over a pointer type
///   no-float           `float` in the bit-exactness layers
///   no-banned-fn       unbounded or silently truncating C calls
///   no-naked-mutex     raw std lock primitives outside the annotated
///                      wrappers' own header
///   include-hygiene    "../" and <bits/...> includes, and first-party
///                      headers included with <>
void check_tree_bans(const Model& m, std::vector<Finding>& out,
                     const std::string& only_rule) {
  static const std::set<std::string> banned_fns = {
      "sprintf", "vsprintf", "strcpy", "strcat", "gets",  "tmpnam",
      "atoi",    "atol",     "atof",   "asctime", "ctime"};
  static const std::set<std::string> naked_locks = {
      "mutex",       "timed_mutex", "recursive_mutex",  "shared_mutex",
      "shared_timed_mutex", "lock_guard", "unique_lock", "shared_lock",
      "scoped_lock", "condition_variable", "condition_variable_any"};
  for (std::size_t f = 0; f < m.files.size(); ++f) {
    const FileInfo& fi = m.files[f];
    const std::string& vpath = fi.vpath;
    const auto flag = [&](int line, const std::string& rule, std::string msg) {
      if ((only_rule.empty() || only_rule == rule) &&
          !line_allowed(m, static_cast<int>(f), line, rule))
        out.push_back({vpath, line, rule, std::move(msg)});
    };
    const bool rng_home =
        vpath == "src/tensor/rng.cpp" || vpath == "src/tensor/rng.hpp";
    const bool clock_home = vpath.rfind("src/obs/", 0) == 0;
    const bool float_banned =
        vpath.rfind("src/tensor/", 0) == 0 || vpath.rfind("src/linalg/", 0) == 0 ||
        vpath.rfind("src/nn/", 0) == 0 || vpath.rfind("src/runtime/", 0) == 0;
    const bool lock_home = vpath == "src/runtime/annotated_mutex.hpp";

    for_each_token(fi, [&](const std::vector<Tok>& t, std::size_t i) {
      if (t[i].kind != Tk::Ident) return;
      const std::string& s = t[i].text;
      const int line = t[i].line;
      if (!rng_home) {
        const std::string what = raw_rng(t, i);
        if (!what.empty())
          flag(line, "rng-confinement",
               what + " outside src/tensor/rng.cpp — portable streams live "
                      "there (DESIGN.md §4)");
      }
      if (!clock_home) {
        const std::string what = clock_read(t, i);
        if (!what.empty())
          flag(line, "no-clock",
               what + " outside src/obs; route timing through the "
                      "observability layer");
      }
      const std::string hashed = pointer_hash(t, i);
      if (!hashed.empty())
        flag(line, "no-pointer-hash",
             hashed + "; hash a stable id (index, name, flow key) instead");
      if (float_banned && s == "float")
        flag(line, "no-float",
             "float in a bit-exactness layer; the determinism contract is "
             "stated for double accumulation");
      if (banned_fns.count(s) && i + 1 < t.size() && t[i + 1].text == "(")
        flag(line, "no-banned-fn",
             "'" + s + "' is banned; use the bounded/checked alternative "
             "(snprintf, strtol/stod, std::string)");
      if (!lock_home && naked_locks.count(s) && i >= 2 &&
          t[i - 1].text == "::" && t[i - 2].text == "std")
        flag(line, "no-naked-mutex",
             "raw std::" + s + "; lock through runtime::AnnotatedMutex / "
             "MutexLock / CondVar (runtime/annotated_mutex.hpp) so the "
             "thread-safety and lock-order checks can see it");
    });

    // Range-for over an unordered container: the sequence names an
    // unordered type, or is a variable this file declares with one.
    std::set<std::string> unordered_vars;
    for_each_token(fi, [&](const std::vector<Tok>& t, std::size_t i) {
      if (!is_unordered(t[i].text) || i + 1 >= t.size() || t[i + 1].text != "<")
        return;
      std::size_t p = i + 1;
      for (int depth = 0; p < t.size(); ++p) {
        if (t[p].text == "<") ++depth;
        if (t[p].text == ">" && --depth == 0) break;
      }
      do ++p;
      while (p < t.size() && (t[p].text == "&" || t[p].text == "*"));
      if (p < t.size() && t[p].kind == Tk::Ident) unordered_vars.insert(t[p].text);
    });
    for_each_token(fi, [&](const std::vector<Tok>& t, std::size_t i) {
      if (t[i].text != "for" || i + 1 >= t.size() || t[i + 1].text != "(")
        return;
      std::size_t colon = 0, close = i + 1;
      for (int depth = 0; close < t.size(); ++close) {
        const std::string& a = t[close].text;
        if (a == "(") ++depth;
        if (a == ")" && --depth == 0) break;
        if (depth == 1 && a == ";") break;  // a classic three-clause for
        if (depth == 1 && a == ":" && colon == 0) colon = close;
      }
      if (colon == 0 || close >= t.size() || t[close].text != ")") return;
      std::vector<std::string> seq;
      bool typed = false;
      for (std::size_t p = colon + 1; p < close; ++p) {
        typed = typed || is_unordered(t[p].text);
        if (t[p].text != "&" && t[p].text != "*" && t[p].text != "const")
          seq.push_back(t[p].text);
      }
      if (typed || (seq.size() == 1 && unordered_vars.count(seq[0])))
        flag(t[i].line, "no-unordered-iter",
             "iteration over an unordered container has unspecified order; "
             "use an ordered container or sort before emitting");
    });

    for (const Include& inc : fi.includes) {
      if (inc.target.find("../") != std::string::npos)
        flag(inc.line, "include-hygiene",
             "parent-relative include; include repo headers by their "
             "src-rooted path");
      if (inc.target.rfind("bits/", 0) == 0)
        flag(inc.line, "include-hygiene", "libstdc++ internal header <bits/...>");
      if (inc.angled && !layer_of("src/" + inc.target).empty())
        flag(inc.line, "include-hygiene",
             "first-party header <" + inc.target + "> must use quotes");
    }
  }
}

/// registry-coverage: tools/check_determinism.sh must name every detector
/// core::make_detector registers (`add("<name>"` in detector_factory.cpp),
/// so the end-to-end determinism check cannot silently skip a detector.
/// The rule is active when the model holds either file: always in a tree
/// scan, in the one fixture case that supplies them.
void check_registry_coverage(const Model& m, std::vector<Finding>& out) {
  const std::string rule = "registry-coverage";
  const std::string factory_path = "src/core/detector_factory.cpp",
                    script_path = "tools/check_determinism.sh";
  const auto find = [&](const std::string& vpath) -> const std::string* {
    for (const FileInfo& fi : m.files)
      if (fi.vpath == vpath) return &fi.text;
    return nullptr;
  };
  const std::string* factory = find(factory_path);
  const std::string* script = find(script_path);
  if (!factory && !script) return;
  const auto flag = [&](const std::string& file, const std::string& msg) {
    out.push_back({file, 1, rule, msg});
  };
  for (const auto& [path, text] : {std::pair{&factory_path, factory},
                                   std::pair{&script_path, script}})
    if (!text) flag(*path, "cannot read " + *path);
  if (!factory || !script) return;

  // Quoted names that follow `add("` at an identifier boundary.
  const std::string_view prefix = "add(\"";
  std::set<std::string> detectors;
  for (std::size_t at = factory->find(prefix); at != std::string::npos;
       at = factory->find(prefix, at + 1)) {
    if (at > 0 && ident_char((*factory)[at - 1])) continue;
    const std::size_t b = at + prefix.size();
    const std::size_t e = factory->find_first_of("\"\n", b);
    if (e != std::string::npos && e > b && (*factory)[e] == '"')
      detectors.insert(factory->substr(b, e - b));
  }

  if (detectors.empty())
    flag(factory_path, "no registered detectors found (parser drift?)");
  for (const std::string& name : detectors)
    if (script->find(name) == std::string::npos)
      flag(script_path, "registered detector '" + name +
                            "' is not covered by check_determinism.sh");
}

/// Site-level `// cnd-det-ok(reason)` / `// cnd-throw-ok(reason)` waivers:
/// on the site's line or the line above (the same convention as block-ok).
bool site_marked(const std::map<int, std::string>& lines, int line) {
  return lines.count(line) > 0 || lines.count(line - 1) > 0;
}

/// Do `class_q` (a class definition) and `def_q` (a member function
/// definition, terminal stripped by the caller) name the same class? The
/// shorter qualified name must be a component-wise suffix of the longer —
/// an out-of-line `cnd::core::CndIds::snapshot` matches the in-class
/// definition of `CndIds` seen under namespace scopes.
bool owner_matches(const std::vector<std::string>& class_q,
                   const std::vector<std::string>& owner_q) {
  if (class_q.empty() || owner_q.empty()) return false;
  const std::size_t n = std::min(class_q.size(), owner_q.size());
  for (std::size_t k = 0; k < n; ++k)
    if (class_q[class_q.size() - 1 - k] != owner_q[owner_q.size() - 1 - k])
      return false;
  return true;
}

/// snapshot-completeness: every class implementing both snapshot() and
/// restore() must reference each data member in *both* bodies (a direct
/// identifier mention — helpers that serialize a member wholesale should
/// keep the member name visible in the caller) or carry a
/// `// cnd-snapshot: skip(<reason>)` on or above the member's line.
void check_snapshot_completeness(const Model& m, std::vector<Finding>& out) {
  const std::string rule = "snapshot-completeness";
  for (const ClassInfo& ci : m.classes) {
    const FuncDef* snap = nullptr;
    const FuncDef* rest = nullptr;
    for (const FuncDef& d : m.defs) {
      const std::string& t = d.qname.back();
      if ((t != "snapshot" && t != "restore") || d.qname.size() < 2) continue;
      std::vector<std::string> owner(d.qname.begin(), d.qname.end() - 1);
      if (!owner_matches(ci.qname, owner)) continue;
      if (t == "snapshot") snap = &d;
      else rest = &d;
    }
    if (snap == nullptr || rest == nullptr) continue;
    const auto& skips =
        m.files[static_cast<std::size_t>(ci.file)].ann.snapshot_skips;
    for (const MemberVar& mv : ci.members) {
      if (site_marked(skips, mv.line)) continue;
      if (line_allowed(m, ci.file, mv.line, rule)) continue;
      const bool in_snap = snap->idents.count(mv.name) > 0;
      const bool in_rest = rest->idents.count(mv.name) > 0;
      if (in_snap && in_rest) continue;
      const std::string missing = !in_snap && !in_rest
                                      ? "snapshot() or restore()"
                                  : !in_snap ? "snapshot()"
                                             : "restore()";
      out.push_back(
          {vpath_of(m, ci.file), mv.line, rule,
           "data member '" + mv.name + "' of '" + ci.display +
               "' is not referenced in " + missing +
               " — a restored replica would diverge; serialize it or "
               "annotate `// cnd-snapshot: skip(<reason>)`"});
    }
  }
}

/// Output roots of the determinism-taint check: the scoring hot paths, the
/// wait-free admission/score paths, snapshot streams, and the CSV/JSONL
/// writer entry points (by naming convention).
bool det_taint_root(const FuncDef& d) {
  if (d.hot || d.wait_free) return true;
  const std::string& t = d.qname.back();
  if (t == "snapshot" || t == "emit" || t == "emit_raw") return true;
  if (t.rfind("write_", 0) == 0 || t.rfind("dump_", 0) == 0) return true;
  return t == "save_artifact";
}

/// determinism-taint: nothing reachable from an output root may read a
/// nondeterminism source. `// cnd-det-ok(reason)` on a function header
/// vouches that whole subtree (descent stops — e.g. obs-gated telemetry
/// that never feeds a result); on a site's line or the line above it waives
/// just that site.
void check_determinism_taint(const Model& m, std::vector<Finding>& out) {
  const std::string rule = "determinism-taint";
  std::set<std::pair<std::string, int>> reported;
  for (std::size_t root = 0; root < m.defs.size(); ++root) {
    if (!det_taint_root(m.defs[root]) || m.defs[root].det_ok) continue;
    std::vector<std::size_t> stack = {root};
    std::set<std::size_t> visited = {root};
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      stack.pop_back();
      const FuncDef& d = m.defs[cur];
      for (const TaintSite& s : d.taints) {
        const auto& ok =
            m.files[static_cast<std::size_t>(d.file)].ann.det_ok_lines;
        if (site_marked(ok, s.line)) continue;
        if (line_allowed(m, d.file, s.line, rule)) continue;
        if (!reported.insert({vpath_of(m, d.file), s.line}).second) continue;
        out.push_back(
            {vpath_of(m, d.file), s.line, rule,
             "'" + d.display + "' (reachable from output root '" +
                 m.defs[root].display + "') reads a nondeterminism source: " +
                 s.what + " — results must be bit-stable; vouch with "
                 "`// cnd-det-ok(<reason>)`"});
      }
      for (const CallSite& c : d.calls)
        for (std::size_t cand : m.candidates(c)) {
          if (m.defs[cand].det_ok) continue;  // vouched barrier
          if (visited.insert(cand).second) stack.push_back(cand);
        }
    }
  }
}

/// throw-free-hot: a `// cnd-hot` root must not reach a `throw` expression
/// or a `require()` check — a shard worker aborting a batch mid-stream is a
/// serving outage, not error handling. `// cnd-throw-ok(reason)` on a
/// function header vouches that subtree (descent stops — e.g. a
/// batch-boundary guard helper); on a site's line or the line above it
/// waives just that site. The walk also stops at `// cnd-alloc-ok`
/// functions: they are vouched off the steady-state batch path, and an
/// allocating path can already throw bad_alloc — the no-throw contract
/// only binds the allocation-free steady state the alloc rule proves.
void check_throw_free(const Model& m, std::vector<Finding>& out) {
  const std::string rule = "throw-free-hot";
  std::set<std::pair<std::string, int>> reported;
  for (std::size_t root = 0; root < m.defs.size(); ++root) {
    if (!m.defs[root].hot || m.defs[root].throw_ok) continue;
    std::vector<std::size_t> stack = {root};
    std::set<std::size_t> visited = {root};
    while (!stack.empty()) {
      const std::size_t cur = stack.back();
      stack.pop_back();
      const FuncDef& d = m.defs[cur];
      for (const ThrowSite& s : d.throws) {
        const auto& ok =
            m.files[static_cast<std::size_t>(d.file)].ann.throw_ok_lines;
        if (site_marked(ok, s.line)) continue;
        if (line_allowed(m, d.file, s.line, rule)) continue;
        if (!reported.insert({vpath_of(m, d.file), s.line}).second) continue;
        out.push_back({vpath_of(m, d.file), s.line, rule,
                       "'" + d.display + "' (reachable from hot '" +
                           m.defs[root].display + "') can abort the batch: " +
                           s.what + " — guard at the batch boundary or vouch "
                           "with `// cnd-throw-ok(<reason>)`"});
      }
      for (const CallSite& c : d.calls)
        for (std::size_t cand : m.candidates(c)) {
          // Vouched barriers: throw-ok subtrees, and alloc-ok functions —
          // already off the allocation-free steady state this rule binds.
          if (m.defs[cand].throw_ok || m.defs[cand].alloc_ok) continue;
          if (visited.insert(cand).second) stack.push_back(cand);
        }
    }
  }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool is_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

/// Add one file to the model: C++ sources are lexed (and parsed into
/// definitions when `parse_defs`); anything else is kept as text only.
void add_file(Model& m, const std::string& vpath, std::string text,
              bool parse_defs) {
  FileInfo fi;
  fi.vpath = vpath;
  fi.text = std::move(text);
  const bool source = is_source(vpath);
  if (source) lex(fi);
  m.files.push_back(std::move(fi));
  if (source && parse_defs)
    Parser(m, static_cast<int>(m.files.size()) - 1).run();
}

/// Every rule this tool knows, with the one-line description used in SARIF
/// rule metadata and `--help`.
const std::vector<std::pair<std::string, std::string>>& rule_catalog() {
  static const std::vector<std::pair<std::string, std::string>> rules = {
      {"hot-path-alloc",
       "cnd-hot roots must not transitively reach heap allocation outside "
       "cnd-alloc-ok barriers"},
      {"wait-free",
       "cnd-wait-free roots must not reach locks, waits, I/O, or allocation "
       "outside cnd-block-ok barriers"},
      {"lock-order",
       "the mutex-acquisition graph must stay acyclic (no ABBA inversions, "
       "no re-acquisition of a held mutex)"},
      {"layering",
       "src/<layer> includes and qualified calls stay inside the layer DAG "
       "of src/CMakeLists.txt, even through forward declarations"},
      {"snapshot-completeness",
       "every data member of a snapshot()/restore() class is referenced in "
       "both bodies or carries cnd-snapshot: skip(<reason>)"},
      {"determinism-taint",
       "no nondeterminism source (clocks, pointer casts/hashes, thread ids, "
       "unordered containers) reaches an output root outside cnd-det-ok "
       "barriers"},
      {"throw-free-hot",
       "cnd-hot roots must not reach throw/require outside cnd-throw-ok "
       "barriers"},
      {"rng-confinement",
       "std distributions, raw engines, std::rand/srand and raw engine draws "
       "live in src/tensor/rng.{hpp,cpp} only"},
      {"no-clock", "clock reads live in src/obs only"},
      {"no-unordered-iter",
       "no range-for over an unordered container (unspecified order)"},
      {"no-pointer-hash",
       "no std::hash over a pointer type (ASLR leaks into the value)"},
      {"no-float",
       "no float in the bit-exactness layers (src/tensor, src/linalg, "
       "src/nn, src/runtime)"},
      {"no-banned-fn",
       "no unbounded or silently truncating C calls (sprintf, strcpy, "
       "atoi, ...)"},
      {"no-naked-mutex",
       "raw std lock primitives only inside runtime/annotated_mutex.hpp"},
      {"include-hygiene",
       "no \"../\" or <bits/...> includes; first-party headers in quotes"},
      {"registry-coverage",
       "tools/check_determinism.sh names every registered detector"},
  };
  return rules;
}

bool known_rule(const std::string& name) {
  for (const auto& [r, desc] : rule_catalog())
    if (r == name) return true;
  return false;
}

std::vector<Finding> run_checks(Model& m, const std::string& only_rule = {}) {
  m.index();
  std::vector<Finding> findings;
  const auto want = [&](std::string_view r) {
    return only_rule.empty() || only_rule == r;
  };
  if (want("hot-path-alloc")) check_hot_paths(m, findings);
  if (want("wait-free")) check_wait_free(m, findings);
  if (want("lock-order")) check_lock_order(m, findings);
  if (want("layering")) check_layering(m, findings);
  if (want("snapshot-completeness")) check_snapshot_completeness(m, findings);
  if (want("determinism-taint")) check_determinism_taint(m, findings);
  if (want("throw-free-hot")) check_throw_free(m, findings);
  check_tree_bans(m, findings, only_rule);
  if (want("registry-coverage")) check_registry_coverage(m, findings);
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return !(a < b) && !(b < a);
                             }),
                 findings.end());
  return findings;
}

void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& f : findings)
    std::printf("%s:%d: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
}

/// One machine-readable summary line (consumed by check_determinism.sh):
/// total finding count plus a per-rule breakdown.
void print_json_summary(const std::vector<Finding>& findings) {
  std::map<std::string, std::size_t> counts;
  for (const auto& [r, desc] : rule_catalog()) counts[r] = 0;
  for (const Finding& f : findings) ++counts[f.rule];
  std::string line = "{\"tool\":\"cnd_analyze\",\"findings\":" +
                     std::to_string(findings.size()) + ",\"rules\":{";
  bool first = true;
  for (const auto& [r, n] : counts) {
    if (!first) line += ",";
    first = false;
    line += "\"" + r + "\":" + std::to_string(n);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0 output (tools/check_sarif.py validates the shape in CI)
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool write_sarif(const fs::path& path, const std::vector<Finding>& findings) {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  os << "{\n"
     << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n    {\n"
     << "      \"tool\": {\n        \"driver\": {\n"
     << "          \"name\": \"cnd_analyze\",\n"
     << "          \"informationUri\": "
        "\"docs/STATIC_ANALYSIS.md\",\n"
     << "          \"rules\": [\n";
  bool first = true;
  for (const auto& [r, desc] : rule_catalog()) {
    if (!first) os << ",\n";
    first = false;
    os << "            {\"id\": \"" << json_escape(r)
       << "\", \"shortDescription\": {\"text\": \"" << json_escape(desc)
       << "\"}}";
  }
  os << "\n          ]\n        }\n      },\n      \"results\": [\n";
  first = true;
  for (const Finding& f : findings) {
    if (!first) os << ",\n";
    first = false;
    os << "        {\"ruleId\": \"" << json_escape(f.rule)
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << json_escape(f.message)
       << "\"}, \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << json_escape(f.file) << "\"}, \"region\": {\"startLine\": "
       << (f.line > 0 ? f.line : 1) << "}}}]}";
  }
  os << "\n      ]\n    }\n  ]\n}\n";
  os.flush();
  return os.good();
}

struct TreeOptions {
  bool list_hot = false;
  bool json_summary = false;
  std::string only_rule;   // empty = all rules
  std::string sarif_path;  // empty = no SARIF output
};

int run_tree(const fs::path& root, const TreeOptions& opt) {
  const fs::path root_abs = fs::weakly_canonical(root);

  // Every source file under the first-party directories: headers (inline
  // hot-path code) and sources outside any build target alike, so the
  // tree-wide bans see the whole tree.
  std::set<std::string> vpaths;  // repo-relative, deduped
  for (const char* dir : {"src", "tests", "bench", "tools", "examples"}) {
    const fs::path base = root_abs / dir;
    if (!fs::exists(base)) continue;
    for (const auto& e : fs::recursive_directory_iterator(base)) {
      if (!e.is_regular_file() || !is_source(e.path())) continue;
      const std::string vpath =
          e.path().lexically_relative(root_abs).generic_string();
      if (vpath.find("analyze_selftest") == std::string::npos)
        vpaths.insert(vpath);
    }
  }
  if (vpaths.empty()) {
    std::fprintf(stderr, "cnd_analyze: no first-party files found under %s\n",
                 root_abs.string().c_str());
    return 2;
  }

  Model m;
  for (const std::string& vpath : vpaths) {
    std::string text;
    if (!read_file(root_abs / vpath, text)) {
      std::fprintf(stderr, "cnd_analyze: cannot read %s\n", vpath.c_str());
      return 2;
    }
    // The call-graph model covers src/ — the library code the contracts
    // bind. Tests/bench/tools/examples get the token-level rules.
    add_file(m, vpath, std::move(text), vpath.rfind("src/", 0) == 0);
  }
  // registry-coverage reads the determinism script; a missing script is
  // that rule's finding.
  std::string script;
  if (read_file(root_abs / "tools/check_determinism.sh", script))
    add_file(m, "tools/check_determinism.sh", std::move(script), false);

  const std::vector<Finding> findings = run_checks(m, opt.only_rule);

  std::size_t hot = 0, barriers = 0, wait_free = 0, block_barriers = 0;
  for (const FuncDef& d : m.defs) {
    hot += d.hot ? 1 : 0;
    barriers += d.alloc_ok ? 1 : 0;
    wait_free += d.wait_free ? 1 : 0;
    block_barriers += d.block_ok ? 1 : 0;
  }
  if (hot == 0) {
    std::fprintf(stderr,
                 "cnd_analyze: no `cnd-hot` roots found — annotations "
                 "missing or parser regression\n");
    return 2;
  }
  if (wait_free == 0) {
    std::fprintf(stderr,
                 "cnd_analyze: no `cnd-wait-free` roots found — annotations "
                 "missing or parser regression\n");
    return 2;
  }
  if (opt.list_hot) {
    for (const FuncDef& d : m.defs) {
      if (d.hot)
        std::printf("hot       %s (%s:%d)\n", d.display.c_str(),
                    vpath_of(m, d.file).c_str(), d.line);
      if (d.wait_free)
        std::printf("wait-free %s (%s:%d)\n", d.display.c_str(),
                    vpath_of(m, d.file).c_str(), d.line);
      if (d.alloc_ok)
        std::printf("alloc-ok  %s (%s:%d) — %s\n", d.display.c_str(),
                    vpath_of(m, d.file).c_str(), d.line,
                    d.alloc_reason.c_str());
      if (d.block_ok)
        std::printf("block-ok  %s (%s:%d) — %s\n", d.display.c_str(),
                    vpath_of(m, d.file).c_str(), d.line,
                    d.block_reason.c_str());
      if (d.det_ok)
        std::printf("det-ok    %s (%s:%d) — %s\n", d.display.c_str(),
                    vpath_of(m, d.file).c_str(), d.line,
                    d.det_reason.c_str());
      if (d.throw_ok)
        std::printf("throw-ok  %s (%s:%d) — %s\n", d.display.c_str(),
                    vpath_of(m, d.file).c_str(), d.line,
                    d.throw_reason.c_str());
    }
  }
  print_findings(findings);
  if (!opt.sarif_path.empty() &&
      !write_sarif(opt.sarif_path, findings)) {
    std::fprintf(stderr, "cnd_analyze: cannot write SARIF to %s\n",
                 opt.sarif_path.c_str());
    return 2;
  }
  if (opt.json_summary) print_json_summary(findings);
  std::fprintf(stderr,
               "cnd_analyze: %zu files, %zu functions, %zu classes, %zu hot "
               "roots, %zu alloc-ok barriers, %zu wait-free roots, %zu "
               "block-ok barriers, %zu findings\n",
               m.files.size(), m.defs.size(), m.classes.size(), hot, barriers,
               wait_free, block_barriers, findings.size());
  return findings.empty() ? 0 : 1;
}

/// Every value of a `marker value` header line in `text`.
std::vector<std::string> header_values(const std::string& text,
                                       std::string_view marker) {
  std::vector<std::string> out;
  for (std::size_t at = text.find(marker); at != std::string::npos;
       at = text.find(marker, at + 1)) {
    const std::size_t b = at + marker.size();
    const std::size_t e = text.find('\n', b);
    const std::string value = trim(std::string_view(text).substr(
        b, e == std::string::npos ? std::string::npos : e - b));
    if (!value.empty()) out.push_back(value);
  }
  return out;
}

int run_selftest(const fs::path& dir, const std::string& sarif_path) {
  if (!fs::exists(dir)) {
    std::fprintf(stderr, "cnd_analyze: no such fixture dir %s\n",
                 dir.string().c_str());
    return 2;
  }
  std::size_t failures = 0, cases = 0;
  std::vector<Finding> all_findings;  // across cases, for --sarif
  for (const char* kind : {"good", "bad"}) {
    const fs::path base = dir / kind;
    if (!fs::exists(base)) continue;
    std::vector<fs::path> case_dirs;
    for (const auto& e : fs::directory_iterator(base))
      if (e.is_directory()) case_dirs.push_back(e.path());
    std::sort(case_dirs.begin(), case_dirs.end());
    for (const fs::path& cdir : case_dirs) {
      ++cases;
      Model m;
      std::set<std::string> expected;
      std::vector<fs::path> files;
      for (const auto& e : fs::directory_iterator(cdir))
        if (e.is_regular_file()) files.push_back(e.path());
      std::sort(files.begin(), files.end());
      bool io_error = false;
      for (const fs::path& f : files) {
        std::string text;
        if (!read_file(f, text)) {
          std::fprintf(stderr, "cnd_analyze: cannot read %s\n",
                       f.string().c_str());
          io_error = true;
          break;
        }
        // Fixture headers, one per line in any comment syntax: the virtual
        // path the rules see the file at, and each rule the case must trip.
        const std::vector<std::string> path =
            header_values(text, "cnd-analyze-path:");
        for (std::string& r : header_values(text, "cnd-analyze-expect:"))
          expected.insert(std::move(r));
        add_file(m, path.empty() ? f.filename().string() : path.front(),
                 std::move(text), true);
      }
      if (io_error) {
        ++failures;
        continue;
      }
      std::set<std::string> found;
      const std::vector<Finding> findings = run_checks(m);
      all_findings.insert(all_findings.end(), findings.begin(),
                          findings.end());
      for (const Finding& f : findings) found.insert(f.rule);
      const std::string label =
          std::string(kind) + "/" + cdir.filename().string();
      if (found == expected) {
        std::printf("[PASS] %s\n", label.c_str());
      } else {
        ++failures;
        auto join = [](const std::set<std::string>& s) {
          std::string out;
          for (const std::string& r : s) out += (out.empty() ? "" : ", ") + r;
          return out.empty() ? std::string("none") : out;
        };
        std::printf("[FAIL] %s: expected {%s}, found {%s}\n", label.c_str(),
                    join(expected).c_str(), join(found).c_str());
        print_findings(findings);
      }
    }
  }
  std::printf("cnd_analyze selftest: %zu cases, %zu failures\n", cases,
              failures);
  std::sort(all_findings.begin(), all_findings.end());
  if (!sarif_path.empty() && !write_sarif(sarif_path, all_findings)) {
    std::fprintf(stderr, "cnd_analyze: cannot write SARIF to %s\n",
                 sarif_path.c_str());
    return 2;
  }
  return failures == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cnd_analyze --root <repo-root>\n"
      "              [--rule=<name>] [--sarif <file>] [--json] [--list-hot]\n"
      "  cnd_analyze --selftest <fixture-dir> [--sarif <file>]\n"
      "(--help for the rule list and exit codes)\n");
}

void help() {
  std::printf(
      "cnd_analyze — the static checker for the cnd tree's contracts.\n"
      "\n"
      "usage:\n"
      "  cnd_analyze --root <repo-root>\n"
      "              [--rule=<name>] [--sarif <file>] [--json] [--list-hot]\n"
      "  cnd_analyze --selftest <fixture-dir> [--sarif <file>]\n"
      "\n"
      "options:\n"
      "  --root <dir>               scan every source file under src/ tests/\n"
      "                             bench/ tools/ examples/ of this repo root\n"
      "  --rule=<name>              run a single rule (tree scan only)\n"
      "  --sarif <file>             also write findings as SARIF 2.1.0\n"
      "  --json                     append a one-line JSON summary\n"
      "                             (rule -> finding count) to stdout\n"
      "  --list-hot                 list annotated roots and barriers\n"
      "  --selftest <dir>           run the good/bad fixture corpus; with\n"
      "                             --sarif, the corpus findings are written\n"
      "                             (schema-checked by tools/check_sarif.py)\n"
      "\n"
      "rules:\n");
  for (const auto& [r, desc] : rule_catalog())
    std::printf("  %-22s %s\n", r.c_str(), desc.c_str());
  std::printf(
      "\n"
      "exit codes:\n"
      "  0  clean — no findings (or self-test corpus fully green)\n"
      "  1  findings were reported (or a self-test case mismatched)\n"
      "  2  usage error, unreadable input, unknown --rule, unwritable\n"
      "     --sarif file, or an annotation/parser regression (zero cnd-hot\n"
      "     or cnd-wait-free roots found in a tree scan)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root, selftest;
  TreeOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (!v) {
        usage();
        return 2;
      }
      root = v;
    } else if (arg == "--selftest") {
      const char* v = next();
      if (!v) {
        usage();
        return 2;
      }
      selftest = v;
    } else if (arg == "--sarif") {
      const char* v = next();
      if (!v) {
        usage();
        return 2;
      }
      opt.sarif_path = v;
    } else if (arg.rfind("--sarif=", 0) == 0) {
      opt.sarif_path = arg.substr(8);
    } else if (arg == "--rule") {
      const char* v = next();
      if (!v) {
        usage();
        return 2;
      }
      opt.only_rule = v;
    } else if (arg.rfind("--rule=", 0) == 0) {
      opt.only_rule = arg.substr(7);
    } else if (arg == "--json") {
      opt.json_summary = true;
    } else if (arg == "--list-hot") {
      opt.list_hot = true;
    } else if (arg == "--help" || arg == "-h") {
      help();
      return 0;
    } else {
      usage();
      return 2;
    }
  }
  if (!opt.only_rule.empty() && !known_rule(opt.only_rule)) {
    std::fprintf(stderr,
                 "cnd_analyze: unknown rule '%s' (--help lists them)\n",
                 opt.only_rule.c_str());
    return 2;
  }
  if (!selftest.empty()) return run_selftest(selftest, opt.sarif_path);
  if (root.empty()) {
    usage();
    return 2;
  }
  return run_tree(root, opt);
}
