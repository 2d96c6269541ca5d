// detlint — determinism lint for the consensus-critical path.
//
// The parameter-unification scheme (Sec. IV-C) requires every miner to
// recompute Algorithms 1–3 bit-identically from the leader's unified
// inputs. Any nondeterminism in that path — unordered-container
// iteration order, stray RNG, wall-clock reads, pointer-keyed ordering,
// iteration-order-dependent float accumulation — is a consensus-
// splitting bug: two honest miners derive different plans from the same
// broadcast and fork the shard.
//
// This pack scans src/, bench/, examples/, and tools/ itself (timing
// reads and lookup-only indexes there carry inline waivers) for those
// hazard patterns. The calls it flags come from liblint's shared
// nondeterminism-source table, the one flowlint seeds its taints from;
// file walking, comment/literal stripping, `detlint:allow(...)`
// waivers, reports, and `--check-waivers` are the shared driver
// (tools/liblint/). This file holds only the rule table and the rule
// scanners. See also tools/parlint, the sibling pack enforcing the
// DESIGN.md §9 parallel contract.
//
// Usage: shardlint detlint [flags] <dir-or-file>... (liblint::Main).

#include <cctype>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "packs.h"

namespace {

using liblint::EmitFinding;
using liblint::Finding;
using liblint::IsIdentChar;
using liblint::MatchAngle;
using liblint::RuleInfo;
using liblint::SkipWs;
using liblint::Source;
using liblint::TokenAt;

constexpr RuleInfo kRules[] = {
    {"unordered-container",
     "std::unordered_* declared in consensus-critical code; iteration "
     "order varies across builds and processes"},
    {"unordered-iteration",
     "iteration over an unordered container; order is not part of the "
     "container's contract"},
    {"order-dependent-accumulation",
     "floating-point accumulation inside unordered iteration; FP "
     "addition is not associative, so the sum depends on visit order"},
    {"std-rand", "global C RNG; stream is process-wide, unseeded state"},
    {"random-device",
     "hardware entropy source; values differ on every call"},
    {"wall-clock",
     "wall-clock or monotonic time read; differs across miners"},
    {"pointer-keyed-order",
     "ordered container keyed on a pointer; address order is decided by "
     "the allocator, not the data"},
};

// ------------------------------ Scanner ---------------------------------

class Scanner {
 public:
  explicit Scanner(std::vector<Finding>* out) : out_(out) {}

  void ScanFile(const Source& src) {
    CollectUnorderedNames(src);
    ScanDeclarations(src);
    ScanIteration(src);
    ScanCalls(src);
    ScanPointerKeys(src);
  }

 private:
  void Emit(const Source& src, size_t offset, const std::string& rule) {
    EmitFinding(src, offset, rule, out_);
  }

  // Identifier declared right after a type's template argument list.
  static std::string DeclaredName(const std::string& s, size_t after_type) {
    size_t i = after_type;
    while (i < s.size() &&
           (std::isspace(static_cast<unsigned char>(s[i])) || s[i] == '&' ||
            s[i] == '*')) {
      ++i;
    }
    size_t end = i;
    while (end < s.size() && IsIdentChar(s[end])) ++end;
    return s.substr(i, end - i);
  }

  // Pass 1: names of variables/members declared with unordered types in
  // this file, so the iteration pass knows what to look for.
  void CollectUnorderedNames(const Source& src) {
    const std::string& code = src.code();
    for (const char* type :
         {"unordered_map", "unordered_set", "unordered_multimap",
          "unordered_multiset"}) {
      size_t pos = 0;
      while ((pos = code.find(type, pos)) != std::string::npos) {
        if (!TokenAt(code, pos, type)) {
          pos += std::strlen(type);
          continue;
        }
        const size_t open = code.find('<', pos);
        if (open != std::string::npos && open < pos + std::strlen(type) + 2) {
          const size_t close = MatchAngle(code, open);
          if (close != std::string::npos) {
            const std::string name = DeclaredName(code, close + 1);
            if (!name.empty()) unordered_names_.insert(name);
          }
        }
        pos += std::strlen(type);
      }
    }
  }

  // Rule: unordered-container (the declarations themselves).
  void ScanDeclarations(const Source& src) {
    const std::string& code = src.code();
    for (const char* type :
         {"unordered_map", "unordered_set", "unordered_multimap",
          "unordered_multiset"}) {
      size_t pos = 0;
      while ((pos = code.find(type, pos)) != std::string::npos) {
        if (TokenAt(code, pos, type) &&
            code.find('<', pos) == pos + std::strlen(type)) {
          Emit(src, pos, "unordered-container");
        }
        pos += std::strlen(type);
      }
    }
  }

  // The identifier a range-for loops over: the last identifier of the
  // range expression (handles `m`, `this->m`, `obj.m`, `*ptr`).
  static std::string RangeIdent(std::string expr) {
    while (!expr.empty() && !IsIdentChar(expr.back())) {
      expr.pop_back();
    }
    size_t begin = expr.size();
    while (begin > 0 && IsIdentChar(expr[begin - 1])) --begin;
    return expr.substr(begin);
  }

  // Rules: unordered-iteration + order-dependent-accumulation.
  void ScanIteration(const Source& src) {
    if (unordered_names_.empty()) return;
    const std::string& code = src.code();
    size_t pos = 0;
    while ((pos = code.find("for", pos)) != std::string::npos) {
      if (!TokenAt(code, pos, "for")) {
        pos += 3;
        continue;
      }
      const size_t paren = SkipWs(code, pos + 3);
      if (paren >= code.size() || code[paren] != '(') {
        pos += 3;
        continue;
      }
      // Find the ':' at depth 1 (range-for) and the closing ')'.
      int depth = 0;
      size_t colon = std::string::npos, close = std::string::npos;
      for (size_t i = paren; i < code.size(); ++i) {
        if (code[i] == '(') ++depth;
        if (code[i] == ')') {
          if (--depth == 0) {
            close = i;
            break;
          }
        }
        if (code[i] == ':' && depth == 1 && colon == std::string::npos &&
            (i + 1 >= code.size() || code[i + 1] != ':') &&
            (i == 0 || code[i - 1] != ':')) {
          colon = i;
        }
        if (code[i] == ';') break;  // Classic for; not a range-for.
      }
      if (colon != std::string::npos && close != std::string::npos) {
        const std::string ident =
            RangeIdent(code.substr(colon + 1, close - colon - 1));
        if (unordered_names_.count(ident) > 0) {
          Emit(src, pos, "unordered-iteration");
          ScanAccumulation(src, close);
        }
      }
      pos = close == std::string::npos ? pos + 3 : close;
    }
    // `.begin()` / `.cbegin()` on a known unordered name.
    for (const std::string& name : unordered_names_) {
      for (const char* member : {".begin", ".cbegin", "->begin", "->cbegin"}) {
        const std::string pattern = name + member;
        size_t p = 0;
        while ((p = code.find(pattern, p)) != std::string::npos) {
          if (TokenAt(code, p, name)) {
            Emit(src, p, "unordered-iteration");
          }
          p += pattern.size();
        }
      }
    }
  }

  // Inside the loop body that starts after `close` (the range-for's
  // closing paren): flag `+=` — under unordered iteration even integer
  // accumulation is suspect, and float accumulation is a guaranteed
  // hazard, so the rule is emitted for any compound addition.
  void ScanAccumulation(const Source& src, size_t close) {
    const std::string& code = src.code();
    const size_t i = SkipWs(code, close + 1);
    size_t end;
    if (i < code.size() && code[i] == '{') {
      int depth = 0;
      end = i;
      for (; end < code.size(); ++end) {
        if (code[end] == '{') ++depth;
        if (code[end] == '}' && --depth == 0) break;
      }
    } else {
      end = code.find(';', i);
      if (end == std::string::npos) end = code.size();
    }
    for (size_t p = i; p + 1 < end; ++p) {
      if (code[p] == '+' && code[p + 1] == '=') {
        Emit(src, p, "order-dependent-accumulation");
      }
    }
  }

  // Rules: std-rand, random-device, wall-clock — the table rows that
  // carry a detlint rule.
  void ScanCalls(const Source& src) {
    liblint::MatchSources(
        src.code(), 0, src.code().size(), liblint::kNondetSources,
        std::size(liblint::kNondetSources),
        [&](const liblint::NondetSource& row, size_t pos) {
          if (row.detlint_rule != nullptr) Emit(src, pos, row.detlint_rule);
        });
  }

  // Rule: pointer-keyed-order — std::map< T* , ...> / std::set<T*>.
  void ScanPointerKeys(const Source& src) {
    for (size_t pos :
         liblint::PointerKeyedContainers(src.code(), 0, src.code().size())) {
      Emit(src, pos, "pointer-keyed-order");
    }
  }

  std::vector<Finding>* out_;
  std::set<std::string> unordered_names_;
};

}  // namespace

liblint::Tool DetlintPack() {
  liblint::Tool tool;
  tool.name = "detlint";
  tool.tagline =
      "nondeterminism hazards on the consensus-critical path (DESIGN.md §7)";
  tool.rules = kRules;
  tool.rule_count = std::size(kRules);
  tool.scan = [](const Source& src, std::vector<Finding>* out) {
    Scanner scanner(out);
    scanner.ScanFile(src);
  };
  return tool;
}
