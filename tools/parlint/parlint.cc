// parlint — static enforcement of the parallel-determinism contract.
//
// DESIGN.md §9 makes parallel results scheduling-independent through a
// four-rule contract (fixed chunking, disjoint writes, ordered
// reduction, per-chunk ChunkSeed RNG streams). It was a hand-enforced
// convention: a reviewer could merge a `[&]`-capturing ParallelFor body
// and nothing failed until a seed or a TSan run happened to hit it.
// parlint turns it into machine-checked invariants.
//
// Like detlint, this is a heuristic token-level pack built on the
// shared liblint driver (tools/liblint/), not a compiler plugin. Rules
// 2–5 are conservative approximations over lexical call extents (see
// DESIGN.md §11 for why); intentional deviations carry inline
//
//     // parlint:allow(<rule>[,<rule>...]): justification
//
// waivers on the offending line or the line above.
//
// Usage: shardlint parlint [flags] <dir-or-file>... (liblint::Main).

#include <cctype>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "packs.h"

namespace {

using liblint::EmitFinding;
using liblint::FindIn;
using liblint::Finding;
using liblint::IdentAt;
using liblint::IdentBefore;
using liblint::IsIdentChar;
using liblint::MatchBrace;
using liblint::MatchParen;
using liblint::ParallelCall;
using liblint::PrevNonWs;
using liblint::RuleInfo;
using liblint::SkipWs;
using liblint::Source;
using liblint::TokenAt;

constexpr RuleInfo kRules[] = {
    {"raw-threading",
     "std::thread/async/future/promise/call_once/mutex/atomic/"
     "condition_variable (and friends) or a thread_local declaration "
     "outside src/parallel/; all concurrency must go through the §9 "
     "primitives so the determinism contract stays in one place"},
    {"parallel-ref-capture",
     "[&] or by-reference default capture on a lambda at a "
     "ParallelFor/ParallelReduce/ParallelChunks call site; §9 rule 2 "
     "(disjoint writes) is only reviewable when every captured name is "
     "explicit"},
    {"unseeded-parallel-rng",
     "RNG constructed inside a parallel body without a ChunkSeed(...)-"
     "derived seed; §9 rule 4 requires per-chunk streams, anything else "
     "makes results depend on chunk scheduling"},
    {"shared-accumulation",
     "+=/push_back on a captured non-local inside a ParallelFor body; "
     "accumulate into per-chunk slots or use ParallelReduce's ordered "
     "fold"},
    {"nested-parallel",
     "ParallelFor/ParallelReduce/ParallelChunks lexically inside another "
     "parallel body; legal but it serializes inline, so it must carry an "
     "explicit waiver acknowledging the flattened schedule"},
};

// raw-threading does not apply here: src/parallel/ is the one place
// allowed to touch the primitives it wraps.
constexpr char kParallelDir[] = "src/parallel/";

const std::set<std::string>& ThreadingNames() {
  static const std::set<std::string> kNames = {
      "thread",
      "jthread",
      "this_thread",
      "async",
      "future",
      "shared_future",
      "promise",
      "packaged_task",
      "mutex",
      "timed_mutex",
      "recursive_mutex",
      "recursive_timed_mutex",
      "shared_mutex",
      "shared_timed_mutex",
      "lock_guard",
      "unique_lock",
      "shared_lock",
      "scoped_lock",
      "condition_variable",
      "condition_variable_any",
      "atomic",
      "atomic_flag",
      "atomic_ref",
      "atomic_thread_fence",
      "counting_semaphore",
      "binary_semaphore",
      "latch",
      "barrier",
      "call_once",
      "once_flag",
  };
  return kNames;
}

const std::set<std::string>& RngTypeNames() {
  static const std::set<std::string> kNames = {
      "Rng",          "mt19937",       "mt19937_64",
      "minstd_rand",  "minstd_rand0",  "default_random_engine",
      "knuth_b",      "ranlux24",      "ranlux48",
      "ranlux24_base", "ranlux48_base",
  };
  return kNames;
}

bool IsKeyword(const std::string& ident) {
  static const std::set<std::string> kKeywords = {
      "if",     "else",  "while",  "for",      "do",    "return",
      "switch", "case",  "const",  "auto",     "break", "continue",
      "void",   "throw", "static", "constexpr"};
  return kKeywords.count(ident) > 0;
}

// ------------------------------ Scanner ---------------------------------

class Scanner {
 public:
  Scanner(const Source& src, std::vector<Finding>* out)
      : src_(src), code_(src.code()), out_(out) {}

  void ScanFile() {
    calls_ = liblint::ParallelCalls(code_, 0, code_.size());
    ScanRawThreading();
    ScanRefCaptures();
    ScanParallelRng();
    ScanSharedAccumulation();
    ScanNestedParallel();
  }

 private:
  void Emit(size_t offset, const char* rule) {
    EmitFinding(src_, offset, rule, out_);
  }

  // Rule 1: raw-threading — `std::` followed by a threading name, or a
  // bare `thread_local` declaration (per-thread state makes results a
  // function of the schedule), anywhere outside src/parallel/.
  void ScanRawThreading() {
    if (src_.path().find(kParallelDir) != std::string::npos) return;
    size_t pos = 0;
    while ((pos = code_.find("std::", pos)) != std::string::npos) {
      const std::string ident = IdentAt(code_, pos + 5);
      if (!ident.empty() && ThreadingNames().count(ident) > 0) {
        Emit(pos, "raw-threading");
      }
      pos += 5;
    }
    pos = 0;
    while ((pos = code_.find("thread_local", pos)) != std::string::npos) {
      if (TokenAt(code_, pos, "thread_local")) {
        Emit(pos, "raw-threading");
      }
      pos += 12;
    }
  }

  // Rule 2: parallel-ref-capture — `[&]` / `[&, ...]` anywhere inside a
  // parallel call's argument list.
  void ScanRefCaptures() {
    for (const ParallelCall& call : calls_) {
      for (size_t i = call.open + 1; i < call.close; ++i) {
        if (code_[i] != '[') continue;
        size_t j = SkipWs(code_, i + 1);
        if (j >= call.close || code_[j] != '&') continue;
        j = SkipWs(code_, j + 1);
        if (j < code_.size() && (code_[j] == ']' || code_[j] == ',')) {
          Emit(i, "parallel-ref-capture");
        }
      }
    }
  }

  // Rule 3: unseeded-parallel-rng — an RNG constructed inside a
  // parallel call extent whose constructor arguments never mention
  // ChunkSeed.
  void ScanParallelRng() {
    for (const ParallelCall& call : calls_) {
      for (const std::string& type : RngTypeNames()) {
        size_t pos = call.open;
        while ((pos = FindIn(code_, type, pos, call.close)) !=
               std::string::npos) {
          if (!TokenAt(code_, pos, type)) {
            pos += type.size();
            continue;
          }
          size_t after = SkipWs(code_, pos + type.size());
          // `Rng name(args)`, `Rng name{args}`, `Rng name;`,
          // `Rng name = expr;`, or a bare temporary `Rng(args)`.
          std::string seed_expr;
          bool is_construction = false;
          if (after < call.close && IsIdentChar(code_[after]) &&
              !std::isdigit(static_cast<unsigned char>(code_[after]))) {
            const std::string name = IdentAt(code_, after);
            size_t next = SkipWs(code_, after + name.size());
            if (next < call.close &&
                (code_[next] == '(' || code_[next] == '{')) {
              const size_t end = code_[next] == '('
                                     ? MatchParen(code_, next)
                                     : MatchBrace(code_, next);
              if (end != std::string::npos && end <= call.close) {
                is_construction = true;
                seed_expr = code_.substr(next + 1, end - next - 1);
              }
            } else if (next < call.close && code_[next] == ';') {
              is_construction = true;  // Default-constructed: no seed.
            } else if (next < call.close && code_[next] == '=' &&
                       next + 1 < call.close && code_[next + 1] != '=') {
              const size_t semi = code_.find(';', next);
              if (semi != std::string::npos && semi <= call.close) {
                is_construction = true;
                seed_expr = code_.substr(next + 1, semi - next - 1);
              }
            }
          } else if (after < call.close && code_[after] == '(') {
            const size_t end = MatchParen(code_, after);
            if (end != std::string::npos && end <= call.close) {
              is_construction = true;
              seed_expr = code_.substr(after + 1, end - after - 1);
            }
          }
          if (is_construction && seed_expr.find("ChunkSeed") ==
                                     std::string::npos) {
            Emit(pos, "unseeded-parallel-rng");
          }
          pos += type.size();
        }
      }
    }
  }

  // True when `name` looks locally declared inside [begin, end): some
  // occurrence is preceded by a type-ish token (identifier that is not
  // `return`-like, or `&`/`*`/`>` that itself follows a type). Capture
  // lists (`[&name`) and address-of arguments (`(&name`, `, &name`) do
  // NOT count as declarations.
  bool LocallyDeclared(const std::string& name, size_t begin,
                       size_t end) const {
    size_t pos = begin;
    while ((pos = FindIn(code_, name, pos, end)) != std::string::npos) {
      if (!TokenAt(code_, pos, name)) {
        pos += name.size();
        continue;
      }
      const size_t prev = PrevNonWs(code_, pos);
      if (prev == std::string::npos) return false;
      const char c = code_[prev];
      if (IsIdentChar(c)) {
        const std::string before = IdentBefore(code_, prev + 1);
        static const std::set<std::string> kNotTypes = {
            "return", "throw", "new", "delete", "goto", "case", "co_return"};
        if (kNotTypes.count(before) == 0) return true;
      } else if (c == '&' || c == '*' || c == '>') {
        const size_t prev2 = PrevNonWs(code_, prev);
        if (prev2 != std::string::npos &&
            (IsIdentChar(code_[prev2]) || code_[prev2] == '>')) {
          return true;  // `SubslotPartial& p`, `vector<T>* v`, `T> x`.
        }
      }
      pos += name.size();
    }
    return false;
  }

  // Root identifier of the statement containing `op_pos`: the first
  // non-keyword identifier after the previous ';'/'{'/'}'.
  std::string StatementRoot(size_t op_pos, size_t extent_begin) const {
    size_t start = op_pos;
    while (start > extent_begin) {
      const char c = code_[start - 1];
      if (c == ';' || c == '{' || c == '}') break;
      --start;
    }
    for (size_t i = start; i < op_pos; ++i) {
      if (IsIdentChar(code_[i]) &&
          (i == 0 || !IsIdentChar(code_[i - 1])) &&
          !std::isdigit(static_cast<unsigned char>(code_[i]))) {
        const std::string ident = IdentAt(code_, i);
        if (!IsKeyword(ident)) return ident;
        i += ident.size();
      }
    }
    return {};
  }

  // Rule 4: shared-accumulation — `+=` / push_back / emplace_back on a
  // captured (not locally declared) target inside a ParallelFor body.
  void ScanSharedAccumulation() {
    for (const ParallelCall& call : calls_) {
      if (!call.is_for) continue;
      // `+=` sites.
      for (size_t i = call.open + 1; i + 1 < call.close; ++i) {
        if (code_[i] != '+' || code_[i + 1] != '=') continue;
        if (i > 0 && code_[i - 1] == '+') continue;  // `++` then `=`? no.
        const std::string root = StatementRoot(i, call.open + 1);
        if (!root.empty() &&
            !LocallyDeclared(root, call.open + 1, call.close)) {
          Emit(i, "shared-accumulation");
        }
      }
      // Growth calls.
      for (const char* member : {"push_back", "emplace_back"}) {
        const std::string name = member;
        size_t pos = call.open;
        while ((pos = FindIn(code_, name, pos, call.close)) !=
               std::string::npos) {
          if (!TokenAt(code_, pos, name)) {
            pos += name.size();
            continue;
          }
          const size_t prev = PrevNonWs(code_, pos);
          const bool member_call =
              prev != std::string::npos &&
              (code_[prev] == '.' ||
               (code_[prev] == '>' && prev > 0 && code_[prev - 1] == '-'));
          if (member_call) {
            const std::string root = StatementRoot(pos, call.open + 1);
            if (!root.empty() &&
                !LocallyDeclared(root, call.open + 1, call.close)) {
              Emit(pos, "shared-accumulation");
            }
          }
          pos += name.size();
        }
      }
    }
  }

  // Rule 5: nested-parallel — a parallel call whose name sits inside
  // another parallel call's argument extent.
  void ScanNestedParallel() {
    for (const ParallelCall& inner : calls_) {
      for (const ParallelCall& outer : calls_) {
        if (inner.name_pos > outer.open && inner.name_pos < outer.close) {
          Emit(inner.name_pos, "nested-parallel");
          break;
        }
      }
    }
  }

  const Source& src_;
  const std::string& code_;
  std::vector<Finding>* out_;
  // The lexical extents rules 2–5 scan: a conservative approximation
  // of "the parallel body".
  std::vector<ParallelCall> calls_;
};

}  // namespace

liblint::Tool ParlintPack() {
  liblint::Tool tool;
  tool.name = "parlint";
  tool.tagline = "the §9 parallel-determinism contract";
  tool.rules = kRules;
  tool.rule_count = std::size(kRules);
  tool.scan = [](const Source& src, std::vector<Finding>* out) {
    Scanner scanner(src, out);
    scanner.ScanFile();
  };
  return tool;
}
