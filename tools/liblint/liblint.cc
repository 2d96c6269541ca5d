#include "liblint/liblint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string_view>

namespace liblint {

namespace fs = std::filesystem;

// --------------------------- Text utilities -----------------------------

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool TokenAt(const std::string& s, size_t pos, const std::string& token) {
  if (s.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && IsIdentChar(s[pos - 1]) && IsIdentChar(token.front())) {
    return false;
  }
  const size_t end = pos + token.size();
  if (end < s.size() && IsIdentChar(token.back()) && IsIdentChar(s[end])) {
    return false;
  }
  return true;
}

size_t FindIn(const std::string& s, const std::string& token, size_t pos,
              size_t end) {
  if (end == 0 || token.empty()) return std::string::npos;
  const size_t limit =
      end >= s.size() ? s.size() : std::min(s.size(), end - 1 + token.size());
  return std::string_view(s.data(), limit).find(token, pos);
}

size_t SkipWs(const std::string& s, size_t pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos;
}

size_t PrevNonWs(const std::string& s, size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(s[pos]))) return pos;
  }
  return std::string::npos;
}

std::string IdentAt(const std::string& s, size_t pos) {
  size_t end = pos;
  while (end < s.size() && IsIdentChar(s[end])) ++end;
  return s.substr(pos, end - pos);
}

std::string IdentBefore(const std::string& s, size_t end) {
  size_t begin = end;
  while (begin > 0 && IsIdentChar(s[begin - 1])) --begin;
  return s.substr(begin, end - begin);
}

std::string LastComponent(const std::string& qualified) {
  const size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

std::string ClassPrefix(const std::string& qualified) {
  const size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? std::string() : qualified.substr(0, sep);
}

size_t MatchAngle(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>') {
      if (--depth == 0) return i;
    }
    if (s[i] == ';' || s[i] == '{') return std::string::npos;
  }
  return std::string::npos;
}

namespace {

size_t MatchPair(const std::string& s, size_t open, char lhs, char rhs) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == lhs) ++depth;
    if (s[i] == rhs && --depth == 0) return i;
  }
  return std::string::npos;
}

}  // namespace

size_t MatchParen(const std::string& s, size_t open) {
  return MatchPair(s, open, '(', ')');
}

size_t MatchBrace(const std::string& s, size_t open) {
  return MatchPair(s, open, '{', '}');
}

// ------------------------- Preprocessed source --------------------------

Source::Source(std::string path, std::string raw, std::string tool)
    : path_(std::move(path)),
      tag_(std::move(tool) + ":allow("),
      code_(std::move(raw)) {
  IndexLines();
  StripCommentsAndLiterals();
}

void Source::IndexLines() {
  line_starts_.push_back(0);
  for (size_t i = 0; i < code_.size(); ++i) {
    if (code_[i] == '\n' && i + 1 < code_.size()) {
      line_starts_.push_back(i + 1);
    }
  }
}

size_t Source::LineOf(size_t offset) const {
  // line_starts_ is sorted; find the last start <= offset.
  auto it =
      std::upper_bound(line_starts_.begin(), line_starts_.end(), offset);
  return static_cast<size_t>(it - line_starts_.begin());  // 1-based.
}

std::string Source::LineText(size_t line) const {
  if (line == 0 || line > line_starts_.size()) return {};
  const size_t begin = line_starts_[line - 1];
  size_t end = line < line_starts_.size() ? line_starts_[line] : raw_.size();
  while (end > begin && (raw_[end - 1] == '\n' || raw_[end - 1] == '\r' ||
                         raw_[end - 1] == ' ' || raw_[end - 1] == '\t')) {
    --end;
  }
  std::string text = raw_.substr(begin, end - begin);
  const size_t first = text.find_first_not_of(" \t");
  return first == std::string::npos ? std::string() : text.substr(first);
}

bool Source::Suppressed(size_t line, const std::string& rule) const {
  return SuppressedOn(line, rule) || SuppressedOn(line - 1, rule);
}

bool Source::SuppressedOn(size_t line, const std::string& rule) const {
  auto it = allow_.find(line);
  if (it == allow_.end()) return false;
  const std::set<std::string>& rules = it->second;
  return rules.count("*") > 0 || rules.count(rule) > 0;
}

namespace {

/// Rule names are identifiers-plus-dashes, or the `*` wildcard. Anything
/// else (e.g. the `...` in prose that merely mentions `tool:allow(...)`)
/// is not a waiver.
bool IsRuleName(const std::string& s) {
  if (s == "*") return true;
  if (s.empty()) return false;
  for (char c : s) {
    if (!IsIdentChar(c) && c != '-') return false;
  }
  return true;
}

}  // namespace

void Source::ParseAllow(const std::string& comment, size_t comment_start) {
  size_t pos = comment.find(tag_);
  while (pos != std::string::npos) {
    // `detlint:allow(` must not match inside e.g. `notdetlint:allow(`.
    if (pos > 0 && IsIdentChar(comment[pos - 1])) {
      pos = comment.find(tag_, pos + 1);
      continue;
    }
    const size_t open = pos + tag_.size();
    const size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    // The waiver registers on the line the tag sits on — which, in a
    // multi-line block comment or a backslash-continued line comment,
    // may be later than the comment's first line.
    const size_t line = LineOf(comment_start + pos);
    std::string list = comment.substr(open, close - open);
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const size_t a = rule.find_first_not_of(" \t");
      const size_t b = rule.find_last_not_of(" \t");
      if (a == std::string::npos) continue;
      std::string name = rule.substr(a, b - a + 1);
      if (IsRuleName(name)) allow_[line].insert(std::move(name));
    }
    pos = comment.find(tag_, close);
  }
}

void Source::StripCommentsAndLiterals() {
  raw_ = code_;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRawString };
  State state = State::kCode;
  size_t token_start = 0;
  std::string raw_delim;  // For R"delim( ... )delim".
  for (size_t i = 0; i < code_.size(); ++i) {
    const char c = code_[i];
    const char next = i + 1 < code_.size() ? code_[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          token_start = i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          token_start = i;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !IsIdentChar(code_[i - 1]))) {
          const size_t paren = code_.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + code_.substr(i + 2, paren - i - 2) + "\"";
            state = State::kRawString;
            token_start = i;
            i = paren;
          }
        } else if (c == '"') {
          state = State::kString;
          token_start = i;
        } else if (c == '\'' &&
                   !(i > 0 && std::isdigit(
                                  static_cast<unsigned char>(code_[i - 1])))) {
          // Skip digit separators like 1'000'000.
          state = State::kChar;
          token_start = i;
        }
        break;
      case State::kLine: {
        if (c != '\n') break;
        // A `//` comment whose line ends in a backslash logically
        // continues onto the next physical line ([lex.phases] splicing)
        // — the continuation is still comment text, so blanking must
        // not stop at this newline.
        size_t tail = i;
        while (tail > token_start && code_[tail - 1] == '\r') --tail;
        if (tail > token_start && code_[tail - 1] == '\\') break;
        ParseAllow(code_.substr(token_start, i - token_start), token_start);
        Blank(token_start, i);
        state = State::kCode;
        break;
      }
      case State::kBlock:
        if (c == '*' && next == '/') {
          ParseAllow(code_.substr(token_start, i + 2 - token_start),
                     token_start);
          Blank(token_start, i + 2);
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"' || c == '\n') {
          Blank(token_start + 1, i);
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'' || c == '\n') {
          Blank(token_start + 1, i);
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (code_.compare(i, raw_delim.size(), raw_delim) == 0) {
          Blank(token_start + 1, i + raw_delim.size() - 1);
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  if (state == State::kLine) {
    ParseAllow(code_.substr(token_start), token_start);
    Blank(token_start, code_.size());
  }
}

void Source::Blank(size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < code_.size(); ++i) {
    if (code_[i] != '\n') code_[i] = ' ';
  }
}

void EmitFinding(const Source& src, size_t offset, const std::string& rule,
                 std::vector<Finding>* out) {
  const size_t line = src.LineOf(offset);
  Finding f;
  f.file = src.path();
  f.line = line;
  f.rule = rule;
  f.snippet = src.LineText(line);
  f.suppressed = src.Suppressed(line, rule);
  out->push_back(std::move(f));
}

void EmitFinding(const Source& src, size_t offset, const std::string& rule,
                 const std::string& chain, std::vector<Finding>* out) {
  EmitFinding(src, offset, rule, out);
  out->back().chain = chain;
}

// --------------------- Function & call extraction -----------------------

namespace {

// Matches backward from `close` (indexing ')' or '}') to its opener.
size_t MatchBackward(const std::string& s, size_t close, char lhs, char rhs) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (s[i] == rhs) ++depth;
    if (s[i] == lhs && --depth == 0) return i;
  }
  return std::string::npos;
}

// Reads the (possibly ::-qualified) name ending at `end` (exclusive):
// "BuildBlock", "Ledger::BuildBlock", "Foo::~Foo". Empty when the text
// before `end` is not a name. `begin_out` receives the start offset.
std::string QualifiedNameBefore(const std::string& s, size_t end,
                                size_t* begin_out) {
  size_t b = end;
  while (b > 0 && IsIdentChar(s[b - 1])) --b;
  if (b == end) return {};
  if (b > 0 && s[b - 1] == '~') --b;
  while (b >= 2 && s[b - 1] == ':' && s[b - 2] == ':') {
    size_t nb = b - 2;
    const size_t ne = nb;
    while (nb > 0 && IsIdentChar(s[nb - 1])) --nb;
    if (nb == ne) break;  // Leading `::` (global qualifier): stop.
    b = nb;
  }
  *begin_out = b;
  return s.substr(b, end - b);
}

// class/struct body extents, innermost resolvable by extent size; used
// to qualify inline member definitions.
struct ClassScope {
  std::string name;
  size_t open;
  size_t close;
};

std::vector<ClassScope> CollectClassScopes(const std::string& code) {
  std::vector<ClassScope> scopes;
  for (const char* kw : {"class", "struct"}) {
    const std::string key = kw;
    size_t pos = 0;
    while ((pos = code.find(key, pos)) != std::string::npos) {
      if (!TokenAt(code, pos, key)) {
        pos += key.size();
        continue;
      }
      size_t i = SkipWs(code, pos + key.size());
      size_t name_end = i;
      while (name_end < code.size() && IsIdentChar(code[name_end])) {
        ++name_end;
      }
      if (name_end == i) {  // Anonymous — nothing to qualify with.
        pos += key.size();
        continue;
      }
      const std::string name = code.substr(i, name_end - i);
      // Body '{' before any ';' (otherwise: forward declaration, or a
      // `struct X* p;` style mention).
      size_t j = name_end;
      while (j < code.size() && code[j] != '{' && code[j] != ';') ++j;
      if (j < code.size() && code[j] == '{') {
        const size_t close = MatchBrace(code, j);
        if (close != std::string::npos) scopes.push_back({name, j, close});
      }
      pos = name_end;
    }
  }
  return scopes;
}

bool IsFunctionNameKeyword(const std::string& name) {
  static const std::set<std::string> kNot = {
      "if", "for", "while", "switch", "catch", "return", "sizeof",
      "alignof", "decltype", "operator"};
  return kNot.count(name) > 0;
}

}  // namespace

std::vector<FunctionDef> ExtractFunctions(const Source& src) {
  const std::string& code = src.code();
  const std::vector<ClassScope> classes = CollectClassScopes(code);
  std::vector<FunctionDef> out;
  for (size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '{') continue;
    const size_t body_close = MatchBrace(code, i);
    if (body_close == std::string::npos) continue;

    // Backward over trailing specifiers (`) const noexcept {`) to the
    // ')' that must close either the parameter list or the last item
    // of a constructor initializer list.
    size_t at = PrevNonWs(code, i);
    bool plausible = true;
    while (at != std::string::npos && IsIdentChar(code[at])) {
      static const std::set<std::string> kSpecifiers = {
          "const", "noexcept", "override", "final", "mutable"};
      const std::string ident = IdentBefore(code, at + 1);
      if (kSpecifiers.count(ident) == 0) {
        plausible = false;
        break;
      }
      at = PrevNonWs(code, at + 1 - ident.size());
    }
    // A '}' is also admissible: the last ctor-initializer item may be
    // brace-initialized (`: a_(x), b_{y} {`). The hop loop below then
    // requires the chain to end at a real '(' parameter list.
    if (!plausible || at == std::string::npos ||
        (code[at] != ')' && code[at] != '}')) {
      continue;
    }

    // Hop backward through ctor-initializer items (`: a_(x), b_{y}`)
    // until the name before the parameter list.
    std::string name;
    size_t name_pos = 0;
    size_t params_open = 0;
    size_t item_close = at;
    for (int guard = 0; guard < 64; ++guard) {
      const size_t open =
          code[item_close] == ')'
              ? MatchBackward(code, item_close, '(', ')')
              : MatchBackward(code, item_close, '{', '}');
      if (open == std::string::npos) break;
      const size_t p = PrevNonWs(code, open);
      if (p == std::string::npos || code[p] == ']' ||
          !IsIdentChar(code[p])) {
        break;  // Lambda or expression — not a definition.
      }
      size_t nb = 0;
      const std::string candidate = QualifiedNameBefore(code, p + 1, &nb);
      if (candidate.empty() ||
          IsFunctionNameKeyword(LastComponent(candidate))) {
        break;
      }
      const size_t q = PrevNonWs(code, nb);
      const bool after_comma = q != std::string::npos && code[q] == ',';
      const bool after_init_colon =
          q != std::string::npos && code[q] == ':' &&
          (q == 0 || code[q - 1] != ':') &&
          IdentBefore(code, q) != "public" &&
          IdentBefore(code, q) != "protected" &&
          IdentBefore(code, q) != "private";
      if (after_comma || after_init_colon) {
        // `candidate` was an initializer item; the previous ')'/'}' is
        // one more item (after ',') or the parameter list (after ':').
        const size_t r = PrevNonWs(code, q);
        if (r == std::string::npos ||
            (code[r] != ')' && code[r] != '}')) {
          break;
        }
        item_close = r;
        continue;
      }
      if (q != std::string::npos && IsIdentChar(code[q]) &&
          IdentBefore(code, q + 1) == "operator") {
        break;  // Conversion operator: `operator bool() {`.
      }
      if (code[item_close] != ')') {
        break;  // `ident{...} {` with no initializer list: not a def.
      }
      name = candidate;
      name_pos = nb;
      params_open = open;
      break;
    }
    if (name.empty()) continue;

    // Qualify inline member definitions with their enclosing class
    // scopes, innermost last-prepended.
    if (name.find("::") == std::string::npos) {
      std::vector<const ClassScope*> enclosing;
      for (const ClassScope& c : classes) {
        if (c.open < name_pos && name_pos < c.close) {
          enclosing.push_back(&c);
        }
      }
      std::sort(enclosing.begin(), enclosing.end(),
                [](const ClassScope* a, const ClassScope* b) {
                  return a->close - a->open < b->close - b->open;
                });
      for (const ClassScope* c : enclosing) {
        name = c->name + "::" + name;
      }
    }

    FunctionDef fn;
    fn.name = std::move(name);
    fn.name_pos = name_pos;
    fn.params_open = params_open;
    fn.params_close = item_close;
    fn.body_open = i;
    fn.body_close = body_close;
    out.push_back(std::move(fn));
  }
  return out;
}

namespace {

// The plain identifier `x` in `x.f(` / `x->f(` for a member name
// starting at `name_pos`; empty when the object is anything else (a
// call result, an element, a member of another object).
std::string ReceiverOf(const std::string& code, size_t name_pos) {
  const size_t p = PrevNonWs(code, name_pos);
  if (p == std::string::npos || p == 0) return {};
  size_t obj_end;
  if (code[p] == '.') {
    obj_end = PrevNonWs(code, p);
  } else if (code[p] == '>' && code[p - 1] == '-') {
    obj_end = PrevNonWs(code, p - 1);
  } else {
    return {};
  }
  if (obj_end == std::string::npos || !IsIdentChar(code[obj_end])) return {};
  const std::string receiver = IdentBefore(code, obj_end + 1);
  const size_t before = PrevNonWs(code, obj_end + 1 - receiver.size());
  if (before != std::string::npos &&
      (code[before] == '.' || code[before] == '>' || code[before] == ':')) {
    return {};
  }
  return receiver;
}

}  // namespace

std::vector<CallSite> ExtractCallSites(const Source& src, size_t begin,
                                       size_t end) {
  const std::string& code = src.code();
  std::vector<CallSite> out;
  end = std::min(end, code.size());
  size_t i = begin;
  while (i < end) {
    const char c = code[i];
    if (!IsIdentChar(c) ||
        std::isdigit(static_cast<unsigned char>(c)) ||
        (i > 0 && IsIdentChar(code[i - 1]))) {
      ++i;
      continue;
    }
    // Start of an identifier chain; consume `A::B::C` with tight `::`.
    const size_t chain_start = i;
    std::string chain;
    size_t j = i;
    while (true) {
      size_t e = j;
      while (e < code.size() && IsIdentChar(code[e])) ++e;
      chain.append(code, j, e - j);
      if (e + 2 < code.size() && code[e] == ':' && code[e + 1] == ':' &&
          IsIdentChar(code[e + 2])) {
        chain += "::";
        j = e + 2;
      } else {
        j = e;
        break;
      }
    }
    // Optional template argument list between name and '('.
    size_t after = SkipWs(code, j);
    if (after < code.size() && code[after] == '<') {
      const size_t close = MatchAngle(code, after);
      if (close != std::string::npos && close < end) {
        after = SkipWs(code, close + 1);
      }
    }
    if (after < end && code[after] == '(') {
      static const std::set<std::string> kNotCalls = {
          "if",         "for",
          "while",      "switch",
          "catch",      "return",
          "sizeof",     "alignof",
          "decltype",   "static_assert",
          "static_cast", "dynamic_cast",
          "reinterpret_cast", "const_cast",
          "new",        "delete",
          "throw",      "defined",
          "assert"};
      if (kNotCalls.count(LastComponent(chain)) == 0) {
        out.push_back(
            {std::move(chain), chain_start, ReceiverOf(code, chain_start)});
      }
    }
    i = j;
  }
  return out;
}

// ------------------------- Record extraction ----------------------------

namespace {

// A record candidate before nesting qualification and deduplication.
struct RawRecord {
  std::string name;
  std::string kind;  // "struct", "class", "enum".
  size_t name_pos = 0;
  size_t body_open = 0;
  size_t body_close = 0;
};

// Collects every `class/struct/enum Name ... {` with a body. The scan
// is per-keyword, so `enum class E {` is found by both the enum and
// the class pass, and `template <class T> struct S {` yields a bogus
// "T" candidate whose forward scan lands on S's body — both collapse
// in the dedup below (same body_open: prefer the enum kind, then the
// name closest to the brace).
std::vector<RawRecord> CollectRawRecords(const std::string& code) {
  std::vector<RawRecord> out;
  for (const char* kw : {"enum", "class", "struct"}) {
    const std::string key = kw;
    size_t pos = 0;
    while ((pos = code.find(key, pos)) != std::string::npos) {
      if (!TokenAt(code, pos, key)) {
        pos += key.size();
        continue;
      }
      size_t i = SkipWs(code, pos + key.size());
      if (key == "enum") {
        // `enum class E` / `enum struct E`: the scoped-enum keyword.
        for (const char* scoped : {"class", "struct"}) {
          if (TokenAt(code, i, scoped)) {
            i = SkipWs(code, i + std::string(scoped).size());
            break;
          }
        }
      }
      size_t name_end = i;
      while (name_end < code.size() && IsIdentChar(code[name_end])) {
        ++name_end;
      }
      if (name_end == i) {  // Anonymous record: nothing to pair with.
        pos += key.size();
        continue;
      }
      const std::string name = code.substr(i, name_end - i);
      // Body '{' before any ';' (otherwise: forward declaration or a
      // `struct X* p;` style mention).
      size_t j = name_end;
      while (j < code.size() && code[j] != '{' && code[j] != ';') ++j;
      if (j < code.size() && code[j] == '{') {
        const size_t close = MatchBrace(code, j);
        if (close != std::string::npos) {
          out.push_back({name, key, i, j, close});
        }
      }
      pos = name_end;
    }
  }
  // Dedup by body: prefer enums (so `enum class E` is an enum, not a
  // class), then the candidate whose name sits closest to the brace
  // (so `template <class T> struct S` keeps S, not T).
  std::sort(out.begin(), out.end(), [](const RawRecord& a,
                                       const RawRecord& b) {
    if (a.body_open != b.body_open) return a.body_open < b.body_open;
    const bool ae = a.kind == "enum", be = b.kind == "enum";
    if (ae != be) return ae;
    return a.name_pos > b.name_pos;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const RawRecord& a, const RawRecord& b) {
                          return a.body_open == b.body_open;
                        }),
            out.end());
  return out;
}

bool IsCppKeywordName(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "const",   "constexpr", "static",  "mutable", "inline",  "virtual",
      "struct",  "class",     "enum",    "union",   "operator", "return",
      "void",    "true",      "false",   "default", "delete",  "this",
      "public",  "private",   "protected"};
  return kKeywords.count(s) > 0;
}

// Parses one member-declaration statement (code[begin, end), already
// known to contain no function parameter list, method body, or nested
// record). Appends a field when the statement reads `specifiers type
// name [init]`.
void ParseFieldStatement(const std::string& code, size_t begin, size_t end,
                         bool in_private, std::vector<RecordField>* out) {
  size_t b = SkipWs(code, begin);
  if (b >= end) return;
  // Leading declaration specifiers; `const` stays in the type text.
  RecordField field;
  field.is_private = in_private;
  while (b < end) {
    if (TokenAt(code, b, "static")) {
      field.is_static = true;
      b = SkipWs(code, b + 6);
    } else if (TokenAt(code, b, "mutable")) {
      field.is_mutable = true;
      b = SkipWs(code, b + 7);
    } else if (TokenAt(code, b, "inline")) {
      b = SkipWs(code, b + 6);
    } else if (TokenAt(code, b, "constexpr")) {
      b = SkipWs(code, b + 9);
    } else {
      break;
    }
  }
  static const char* kNotFields[] = {"using",  "typedef",  "friend",
                                     "static_assert", "template", "public",
                                     "private", "protected", "struct",
                                     "class",  "enum",      "union"};
  for (const char* kw : kNotFields) {
    if (TokenAt(code, b, kw)) return;
  }
  // Find the declarator stop: the first depth-0 `=`, `{`, `[`, or
  // single `:` (bit-field), else the statement end. Template argument
  // lists are skipped by angle tracking (safe here: comparison
  // operators only occur in initializers, which are past the stop).
  size_t stop = end;
  std::string stop_kind;
  int angle = 0;
  for (size_t i = b; i < end; ++i) {
    const char c = code[i];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (angle > 0) continue;
    if (c == '=' || c == '{' || c == '[') {
      stop = i;
      stop_kind = c;
      break;
    }
    if (c == ':' && (i + 1 >= end || code[i + 1] != ':') &&
        (i == 0 || code[i - 1] != ':')) {
      stop = i;
      stop_kind = c;
      break;
    }
  }
  // The field name is the identifier directly before the stop.
  size_t name_end = stop;
  while (name_end > b &&
         std::isspace(static_cast<unsigned char>(code[name_end - 1]))) {
    --name_end;
  }
  size_t name_begin = name_end;
  while (name_begin > b && IsIdentChar(code[name_begin - 1])) --name_begin;
  if (name_begin == name_end) return;
  const std::string name = code.substr(name_begin, name_end - name_begin);
  if (std::isdigit(static_cast<unsigned char>(name[0])) ||
      IsCppKeywordName(name)) {
    return;
  }
  // Type text before the name; empty means this was not a declaration
  // (e.g. a stray expression statement).
  size_t type_end = name_begin;
  while (type_end > b &&
         std::isspace(static_cast<unsigned char>(code[type_end - 1]))) {
    --type_end;
  }
  if (type_end == b) return;
  field.name = name;
  field.name_pos = name_begin;
  field.type = code.substr(b, type_end - b);
  if (stop < end && (stop_kind == "=" || stop_kind == "{")) {
    size_t init_end = end;
    while (init_end > stop &&
           std::isspace(static_cast<unsigned char>(code[init_end - 1]))) {
      --init_end;
    }
    field.init = code.substr(stop, init_end - stop);
  }
  out->push_back(std::move(field));
}

// Enumerators: the body split on depth-0 commas; each item is
// `name [= value]`.
void ParseEnumBody(const std::string& code, const RawRecord& rec,
                   std::vector<RecordField>* out) {
  size_t item_begin = rec.body_open + 1;
  int depth = 0;
  for (size_t i = rec.body_open + 1; i <= rec.body_close; ++i) {
    const char c = code[i];
    if (c == '(' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == ']') --depth;
    if ((c == ',' && depth == 0) || i == rec.body_close) {
      size_t b = SkipWs(code, item_begin);
      size_t name_end = b;
      while (name_end < i && IsIdentChar(code[name_end])) ++name_end;
      if (name_end > b) {
        RecordField field;
        field.name = code.substr(b, name_end - b);
        field.name_pos = b;
        const size_t eq = code.find('=', name_end);
        if (eq != std::string::npos && eq < i) {
          size_t init_end = i;
          while (init_end > eq && std::isspace(static_cast<unsigned char>(
                                      code[init_end - 1]))) {
            --init_end;
          }
          field.init = code.substr(eq, init_end - eq);
        }
        out->push_back(std::move(field));
      }
      item_begin = i + 1;
    }
  }
}

// Data members of a non-enum record: scan the body at nesting depth 1,
// skipping nested record bodies and function definitions, splitting
// the rest into `;`-terminated statements.
void ParseRecordFields(const std::string& code, const RawRecord& rec,
                       const std::vector<RawRecord>& all,
                       std::vector<RecordField>* out) {
  // Directly and transitively nested record extents are skipped whole;
  // their members belong to the inner record.
  std::vector<std::pair<size_t, size_t>> nested;
  for (const RawRecord& r : all) {
    if (rec.body_open < r.body_open && r.body_close < rec.body_close) {
      nested.emplace_back(r.body_open, r.body_close);
    }
  }
  bool in_private = rec.kind == "class";  // Default access.
  size_t stmt_begin = rec.body_open + 1;
  size_t i = rec.body_open + 1;
  bool saw_eq = false;    // A depth-0 '=' in the current statement.
  bool saw_paren = false;
  int angle = 0;
  auto reset = [&](size_t next) {
    stmt_begin = next;
    saw_eq = false;
    saw_paren = false;
    angle = 0;
  };
  while (i < rec.body_close) {
    const char c = code[i];
    bool is_nested_open = false;
    for (const auto& [open, close] : nested) {
      if (i == open) {
        // Jump past the nested record body and its trailing ';'.
        i = SkipWs(code, close + 1);
        if (i < rec.body_close && code[i] == ';') ++i;
        is_nested_open = true;
        break;
      }
    }
    if (is_nested_open) {
      reset(i);
      continue;
    }
    if (!saw_eq) {
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
    }
    if (c == '(' && !saw_eq && angle == 0) {
      // A parameter list: this statement declares a function. Skip to
      // its terminating ';' or past its inline body (tracking nesting
      // so default arguments and ctor-initializers do not end it).
      saw_paren = true;
      const size_t close = MatchParen(code, i);
      if (close == std::string::npos) break;
      size_t j = close + 1;
      while (j < rec.body_close) {
        const char cj = code[j];
        if (cj == '(') {
          // Ctor-initializer item `a_(x)` or a default argument group.
          const size_t pc = MatchParen(code, j);
          if (pc == std::string::npos) break;
          j = pc + 1;
          continue;
        }
        if (cj == '{') {
          // Either a brace-initialized ctor-initializer item `b_{y}`
          // or the inline body. Disambiguate by what follows: a comma
          // continues the initializer list, another brace is the body
          // of an item-terminated list, anything else means this brace
          // WAS the body.
          const size_t bc = MatchBrace(code, j);
          if (bc == std::string::npos) {
            j = rec.body_close;
            break;
          }
          const size_t nx = SkipWs(code, bc + 1);
          if (nx < rec.body_close && code[nx] == ',') {
            j = nx + 1;
            continue;
          }
          if (nx < rec.body_close && code[nx] == '{') {
            j = nx;
            continue;
          }
          j = bc + 1;
          if (nx < rec.body_close && code[nx] == ';') j = nx + 1;
          break;
        }
        if (cj == ';') {
          ++j;
          break;
        }
        ++j;
      }
      i = j;
      reset(i);
      continue;
    }
    if (c == '{') {
      // Brace initializer (or a lambda in a default member init):
      // include the whole extent in the statement so inner `;` do not
      // split it.
      const size_t close = MatchBrace(code, i);
      if (close == std::string::npos) break;
      i = close + 1;
      continue;
    }
    if (c == '=' && angle == 0) saw_eq = true;
    if (c == ':' && !saw_eq && angle == 0 &&
        (i + 1 >= rec.body_close || code[i + 1] != ':') &&
        (i == 0 || code[i - 1] != ':')) {
      // Access label? Only when the pending statement is exactly the
      // keyword.
      const size_t b = SkipWs(code, stmt_begin);
      const std::string pending =
          b < i ? code.substr(b, i - b) : std::string();
      std::string trimmed = pending;
      while (!trimmed.empty() &&
             std::isspace(static_cast<unsigned char>(trimmed.back()))) {
        trimmed.pop_back();
      }
      if (trimmed == "public") {
        in_private = false;
        ++i;
        reset(i);
        continue;
      }
      if (trimmed == "private" || trimmed == "protected") {
        in_private = true;
        ++i;
        reset(i);
        continue;
      }
    }
    if (c == ';') {
      if (!saw_paren) {
        ParseFieldStatement(code, stmt_begin, i, in_private, out);
      }
      ++i;
      reset(i);
      continue;
    }
    ++i;
  }
}

}  // namespace

std::vector<RecordDef> ExtractRecords(const Source& src) {
  const std::string& code = src.code();
  const std::vector<RawRecord> raw = CollectRawRecords(code);
  std::vector<RecordDef> out;
  out.reserve(raw.size());
  for (const RawRecord& rec : raw) {
    RecordDef def;
    def.kind = rec.kind;
    def.name_pos = rec.name_pos;
    def.body_open = rec.body_open;
    def.body_close = rec.body_close;
    // Qualify with enclosing records, innermost last-prepended.
    def.name = rec.name;
    std::vector<const RawRecord*> enclosing;
    for (const RawRecord& outer : raw) {
      if (outer.body_open < rec.body_open &&
          rec.body_close < outer.body_close) {
        enclosing.push_back(&outer);
      }
    }
    std::sort(enclosing.begin(), enclosing.end(),
              [](const RawRecord* a, const RawRecord* b) {
                return a->body_close - a->body_open <
                       b->body_close - b->body_open;
              });
    for (const RawRecord* outer : enclosing) {
      def.name = outer->name + "::" + def.name;
    }
    if (rec.kind == "enum") {
      ParseEnumBody(code, rec, &def.fields);
    } else {
      ParseRecordFields(code, rec, raw, &def.fields);
    }
    out.push_back(std::move(def));
  }
  return out;
}

// ------------------------------ Call graph ------------------------------

namespace {

// `[const] T[*|&] x` (the declarator text before the name) -> "T";
// empty for any other shape (templates, several type words, no type).
std::string PlainParamType(const std::string& decl) {
  std::string type;
  size_t i = 0;
  while (i < decl.size()) {
    const char c = decl[i];
    if (std::isspace(static_cast<unsigned char>(c)) || c == '*' || c == '&') {
      ++i;
      continue;
    }
    if (!IsIdentChar(c) && c != ':') return {};
    size_t e = i;
    while (e < decl.size() && (IsIdentChar(decl[e]) || decl[e] == ':')) ++e;
    const std::string word = decl.substr(i, e - i);
    if (word != "const") {
      if (!type.empty()) return {};
      type = word;
    }
    i = e;
  }
  return type;
}

// Parameter name -> plain type for `fn`'s parameter list.
std::map<std::string, std::string> ParamTypes(const std::string& code,
                                              const FunctionDef& fn) {
  std::map<std::string, std::string> out;
  size_t item = fn.params_open + 1;
  int depth = 0;
  for (size_t i = item; i <= fn.params_close; ++i) {
    const char c = code[i];
    if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
    if ((c != ',' || depth != 0) && i != fn.params_close) continue;
    std::string decl = code.substr(item, i - item);
    decl = decl.substr(0, decl.find('='));  // Drop a default argument.
    size_t end = decl.size();
    while (end > 0 && std::isspace(static_cast<unsigned char>(decl[end - 1]))) {
      --end;
    }
    const std::string name = IdentBefore(decl, end);
    if (!name.empty()) {
      const std::string type =
          PlainParamType(decl.substr(0, end - name.size()));
      if (!type.empty()) out[name] = type;
    }
    item = i + 1;
  }
  return out;
}

const std::vector<size_t> kNoFunctions;

}  // namespace

CallGraph::CallGraph(const std::vector<Source>& sources) : sources_(sources) {
  for (size_t s = 0; s < sources_.size(); ++s) {
    for (FunctionDef& def : ExtractFunctions(sources_[s])) {
      by_name_[def.name].push_back(fns_.size());
      by_last_[LastComponent(def.name)].push_back(fns_.size());
      fns_.push_back({std::move(def), s, {}});
    }
  }
  for (GraphFn& fn : fns_) {
    const Source& src = sources_[fn.src_index];
    const auto param_types = ParamTypes(src.code(), fn.def);
    for (const CallSite& call :
         ExtractCallSites(src, fn.def.body_open + 1, fn.def.body_close)) {
      for (size_t t : Resolve(fn, param_types, call)) {
        fn.edges.push_back({t, call.offset});
      }
    }
  }
}

const std::vector<size_t>& CallGraph::Resolve(
    const GraphFn& caller,
    const std::map<std::string, std::string>& param_types,
    const CallSite& call) const {
  if (call.callee.rfind("std::", 0) == 0) return kNoFunctions;
  if (call.callee.find("::") != std::string::npos) return Named(call.callee);
  auto typed = param_types.find(call.receiver);
  if (typed != param_types.end()) {
    const std::vector<size_t>& f = Named(typed->second + "::" + call.callee);
    if (!f.empty()) return f;
  }
  const std::string prefix = ClassPrefix(caller.def.name);
  if (!prefix.empty()) {
    const std::vector<size_t>& member = Named(prefix + "::" + call.callee);
    if (!member.empty()) return member;
  }
  auto it = by_last_.find(call.callee);
  return it == by_last_.end() ? kNoFunctions : it->second;
}

const std::vector<size_t>& CallGraph::Named(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoFunctions : it->second;
}

std::string CallGraph::Hop(size_t fn) const {
  const Source& src = SourceOf(fn);
  return fns_[fn].def.name + " (" + src.path() + ":" +
         std::to_string(src.LineOf(fns_[fn].def.name_pos)) + ")";
}

std::vector<size_t> CallGraph::Reachable(
    const std::vector<size_t>& starts,
    const std::function<bool(size_t)>& follow) const {
  std::vector<size_t> out;
  std::set<size_t> visited;
  for (size_t s : starts) {
    if (visited.insert(s).second) out.push_back(s);
  }
  for (size_t next = 0; next < out.size(); ++next) {
    for (const CallEdge& e : fns_[out[next]].edges) {
      if (follow(e.callee) && visited.insert(e.callee).second) {
        out.push_back(e.callee);
      }
    }
  }
  return out;
}

// -------------------- Nondeterminism-source table -----------------------

void MatchSources(
    const std::string& code, size_t begin, size_t end,
    const NondetSource* table, size_t rows,
    const std::function<void(const NondetSource&, size_t)>& on_match) {
  for (size_t r = 0; r < rows; ++r) {
    const std::string token = table[r].token;
    size_t pos = begin;
    while ((pos = FindIn(code, token, pos, end)) != std::string::npos) {
      const bool member = pos > 0 && code[pos - 1] == '.';
      if (TokenAt(code, pos, token) && !member) {
        const size_t after = SkipWs(code, pos + token.size());
        if (!table[r].needs_call ||
            (after < code.size() && code[after] == '(')) {
          on_match(table[r], pos);
        }
      }
      pos += token.size();
    }
  }
}

std::vector<size_t> PointerKeyedContainers(const std::string& code,
                                           size_t begin, size_t end) {
  std::vector<size_t> out;
  for (const std::string token : {"map", "set", "multimap", "multiset"}) {
    size_t pos = begin;
    while ((pos = FindIn(code, token, pos, end)) != std::string::npos) {
      const size_t open = pos + token.size();
      const size_t close = TokenAt(code, pos, token) &&
                                   code.find('<', pos) == open
                               ? MatchAngle(code, open)
                               : std::string::npos;
      if (close == std::string::npos) {
        pos += token.size();
        continue;
      }
      // Key type: the first template argument, up to a depth-1 comma.
      int depth = 0;
      size_t key_end = close;
      for (size_t i = open; i <= close; ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>') --depth;
        if (code[i] == ',' && depth == 1) {
          key_end = i;
          break;
        }
      }
      const size_t key_last = PrevNonWs(code, key_end);
      if (key_last > open && code[key_last] == '*') out.push_back(pos);
      pos = close;
    }
  }
  return out;
}

std::vector<ParallelCall> ParallelCalls(const std::string& code,
                                        size_t begin, size_t end) {
  std::vector<ParallelCall> out;
  for (const std::string name :
       {"ParallelChunks", "ParallelFor", "ParallelReduce"}) {
    size_t pos = begin;
    while ((pos = FindIn(code, name, pos, end)) != std::string::npos) {
      const size_t open = SkipWs(code, pos + name.size());
      if (TokenAt(code, pos, name) && open < code.size() &&
          code[open] == '(') {
        const size_t close = MatchParen(code, open);
        if (close != std::string::npos) {
          out.push_back({pos, open, close, name == "ParallelFor"});
        }
      }
      pos += name.size();
    }
  }
  return out;
}

// ------------------------- Checked-in artifacts -------------------------

namespace {

std::string JoinValues(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& v : values) out += (out.empty() ? "" : ", ") + v;
  return out;
}

}  // namespace

std::string FormatArtifact(const std::string& tool, const Artifact& artifact,
                           const ArtifactMap& map) {
  std::string out = "{\n  \"tool\": \"" + JsonEscape(tool) +
                    "\",\n  \"version\": 1,\n  \"" + artifact.list_key +
                    "\": [";
  size_t i = 0;
  for (const auto& [name, values] : map) {
    out += i++ == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + JsonEscape(name) + "\", \"" +
           artifact.values_key + "\": [";
    for (size_t j = 0; j < values.size(); ++j) {
      out += (j == 0 ? "\"" : ", \"") + JsonEscape(values[j]) + "\"";
    }
    out += "]}";
  }
  out += map.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool ParseArtifact(const std::string& text, const Artifact& artifact,
                   ArtifactMap* out) {
  const std::string values_key = std::string("\"") + artifact.values_key + "\"";
  size_t pos = 0;
  while ((pos = text.find("\"name\"", pos)) != std::string::npos) {
    const size_t q = text.find('"', text.find(':', pos) + 1);
    if (q == std::string::npos) return false;
    const size_t qe = text.find('"', q + 1);
    if (qe == std::string::npos) return false;
    const std::string name = text.substr(q + 1, qe - q - 1);
    const size_t key = text.find(values_key, qe);
    if (key == std::string::npos) return false;
    const size_t open = text.find('[', key);
    const size_t close = text.find(']', key);
    if (open == std::string::npos || close == std::string::npos) return false;
    std::vector<std::string> values;
    size_t t = open;
    while ((t = text.find('"', t + 1)) != std::string::npos && t < close) {
      const size_t te = text.find('"', t + 1);
      if (te == std::string::npos || te > close) return false;
      values.push_back(text.substr(t + 1, te - t - 1));
      t = te;
    }
    (*out)[name] = std::move(values);
    pos = close;
  }
  return true;
}

// Findings attribute to the artifact itself: there is no source line to
// waive on, and drift is never acceptable — the fix is always to
// regenerate and review the diff.
void CheckArtifactDrift(const std::string& path, const Artifact& artifact,
                        const ArtifactMap& computed,
                        std::vector<Finding>* out) {
  const std::string flag = artifact.flag;
  auto drift = [&](const std::string& message) {
    Finding f;
    f.file = path;
    f.line = 1;
    f.rule = artifact.drift_rule;
    f.snippet = message + "; regenerate with --write-" + flag;
    out->push_back(std::move(f));
  };
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  ArtifactMap recorded;
  if (!in || !ParseArtifact(buffer.str(), artifact, &recorded)) {
    drift(flag + " file missing or unparsable");
    return;
  }
  for (const auto& [name, values] : computed) {
    auto it = recorded.find(name);
    if (it == recorded.end()) {
      drift(flag + " file lacks \"" + name + "\" (computed: " +
            JoinValues(values) + ")");
    } else if (it->second != values) {
      drift(flag + " file lists [" + JoinValues(it->second) + "] for \"" +
            name + "\" but the analysis computes [" + JoinValues(values) +
            "]");
    }
  }
  for (const auto& [name, values] : recorded) {
    if (computed.count(name) == 0) {
      drift(flag + " file lists \"" + name +
            "\", which the analysis no longer computes");
    }
  }
}

// ------------------------------ Reports ---------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteReport(const std::string& path, const std::string& tool,
                 const std::vector<Finding>& findings, size_t files_scanned,
                 size_t unsuppressed) {
  std::ofstream out(path);
  out << "{\n  \"tool\": \"" << JsonEscape(tool) << "\",\n  \"version\": 1,\n";
  out << "  \"files_scanned\": " << files_scanned << ",\n";
  out << "  \"unsuppressed\": " << unsuppressed << ",\n";
  out << "  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": "
        << f.line << ", \"rule\": \"" << f.rule << "\", \"suppressed\": "
        << (f.suppressed ? "true" : "false") << ", \"snippet\": \""
        << JsonEscape(f.snippet) << "\"";
    if (!f.chain.empty()) {
      out << ", \"chain\": \"" << JsonEscape(f.chain) << "\"";
    }
    out << "}";
  }
  out << (findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
  out.flush();
  return out.good();
}

bool WriteSarif(const std::string& path, const Tool& tool,
                const std::vector<Finding>& findings) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"" << JsonEscape(tool.name) << "\",\n"
      << "          \"informationUri\": "
      << "\"tools/lint_rules.md\",\n"
      << "          \"rules\": [";
  for (size_t r = 0; r < tool.rule_count; ++r) {
    out << (r == 0 ? "\n" : ",\n");
    out << "            {\"id\": \"" << JsonEscape(tool.rules[r].name)
        << "\", \"shortDescription\": {\"text\": \""
        << JsonEscape(tool.rules[r].summary) << "\"}}";
  }
  out << (tool.rule_count == 0 ? "" : ",\n")
      << "            {\"id\": \"" << kStaleWaiverRule
      << "\", \"shortDescription\": {\"text\": \"an allow() entry that "
      << "suppresses zero findings; never itself waivable\"}}\n"
      << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::string message = f.snippet;
    if (!f.chain.empty()) message += "; chain: " + f.chain;
    out << (i == 0 ? "\n" : ",\n");
    out << "        {\n"
        << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(message)
        << "\"},\n"
        << "          \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": \"" << JsonEscape(f.file)
        << "\"}, \"region\": {\"startLine\": " << f.line << "}}}]";
    if (f.suppressed) {
      out << ",\n          \"suppressions\": [{\"kind\": \"inSource\"}]";
    }
    out << "\n        }";
  }
  out << (findings.empty() ? "]\n" : "\n      ]\n")
      << "    }\n"
      << "  ]\n"
      << "}\n";
  out.flush();
  return out.good();
}

// --------------------------- Waiver checking ----------------------------

void CheckWaivers(const Source& src, const std::vector<Finding>& file_findings,
                  std::vector<Finding>* out) {
  for (const auto& [line, rules] : src.waivers()) {
    for (const std::string& rule : rules) {
      bool used = false;
      for (const Finding& f : file_findings) {
        // A finding on line L consults waivers on L and L-1.
        if (f.line != line && f.line != line + 1) continue;
        if (rule == "*" || f.rule == rule) {
          used = true;
          break;
        }
      }
      if (!used) {
        Finding f;
        f.file = src.path();
        f.line = line;
        f.rule = kStaleWaiverRule;
        f.snippet = "allow(" + rule + ") suppresses no finding: " +
                    src.LineText(line);
        f.suppressed = false;  // Stale waivers are never waivable.
        out->push_back(std::move(f));
      }
    }
  }
}

// ------------------------------ Driver ----------------------------------

namespace {

constexpr char kRulesMdHeader[] =
    "# Lint rules\n"
    "\n"
    "Generated from each pack's `kRules` table — do not edit by hand.\n"
    "The `lint_rules_md_in_sync` ctest diffs this file against the\n"
    "generator; regenerate with:\n"
    "\n"
    "    build/tools/shardlint --rules-md > tools/lint_rules.md\n"
    "\n"
    "The four packs run in one binary, `shardlint <pack>`, over the\n"
    "liblint core (`tools/liblint/`): inline waivers are\n"
    "`// <pack>:allow(<rule>[,<rule>...]): reason` on the offending line\n"
    "or the line above, and `--check-waivers` reports any waiver that\n"
    "suppresses zero findings (DESIGN.md §11).\n"
    "\n";

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hh" || ext == ".hpp" || ext == ".cc" ||
         ext == ".cpp" || ext == ".cxx";
}

int Usage(const std::vector<Tool>& packs) {
  std::string names;
  for (const Tool& pack : packs) {
    names += (names.empty() ? "" : "|") + std::string(pack.name);
  }
  std::cerr << "usage: shardlint --rules-md\n"
            << "       shardlint <" << names << ">\n"
            << "         [--report <file.json>] [--sarif <file.sarif>]"
            << " [--root <dir>]\n"
            << "         [--list-rules] [--rules-md] [--check-waivers]"
            << " <dir-or-file>...\n";
  for (const Tool& pack : packs) {
    if (!pack.artifact) continue;
    const std::string flag = pack.artifact->flag;
    std::cerr << "       " << pack.name << " also takes: --" << flag
              << " <file.json> [--write-" << flag << "]\n";
  }
  return 1;
}

void PrintRulesMarkdown(const Tool& tool) {
  std::cout << "## " << tool.name << " — " << tool.tagline << "\n\n";
  std::cout << "| Rule | Summary |\n|------|---------|\n";
  for (size_t i = 0; i < tool.rule_count; ++i) {
    std::cout << "| `" << tool.rules[i].name << "` | "
              << tool.rules[i].summary << " |\n";
  }
  std::cout << "| `" << kStaleWaiverRule << "` | driver-level "
            << "(`--check-waivers`): a `" << tool.name
            << ":allow()` entry that suppresses zero findings; "
            << "delete the waiver — it is never itself waivable |\n";
  std::cout << "\n";
}

// One pack's run; argv[0] is the pack name.
int RunPack(const std::vector<Tool>& packs, const Tool& tool, int argc,
            char** argv) {
  const std::string flag = tool.artifact ? tool.artifact->flag : "";
  std::vector<std::string> targets;
  std::string report_path;
  std::string sarif_path;
  std::string artifact_path;
  std::string root;
  bool check_waivers = false;
  bool write_artifact = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--check-waivers") {
      check_waivers = true;
    } else if (!flag.empty() && arg == "--" + flag && i + 1 < argc) {
      artifact_path = argv[++i];
    } else if (!flag.empty() && arg == "--write-" + flag) {
      write_artifact = true;
    } else if (arg == "--list-rules") {
      for (size_t r = 0; r < tool.rule_count; ++r) {
        std::cout << tool.rules[r].name << "\t" << tool.rules[r].summary
                  << "\n";
      }
      return 0;
    } else if (arg == "--rules-md") {
      PrintRulesMarkdown(tool);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage(packs);
    } else {
      targets.push_back(arg);
    }
  }
  if (write_artifact && artifact_path.empty()) {
    std::cerr << tool.name << ": --write-" << flag << " requires --" << flag
              << " <file>\n";
    return 1;
  }
  if (targets.empty()) return Usage(packs);

  std::vector<fs::path> files;
  for (const std::string& t : targets) {
    const fs::path base = root.empty() ? fs::path(t) : fs::path(root) / t;
    std::error_code ec;
    if (fs::is_directory(base, ec)) {
      for (auto it = fs::recursive_directory_iterator(base, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_directory() && it->path().filename() == "testdata") {
          // Fixture inputs for the lint self-tests deliberately contain
          // hazards; they are scanned by passing the file explicitly.
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && HasSourceExtension(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(base, ec)) {
      files.push_back(base);
    } else {
      std::cerr << tool.name << ": cannot read " << base << "\n";
      return 1;
    }
  }
  std::sort(files.begin(), files.end());

  // Load every file up front: per-file scans see one Source at a time,
  // but the whole-program pass (tool.scan_program) needs all of them —
  // call graphs cross file boundaries.
  std::vector<Source> sources;
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << tool.name << ": cannot open " << file << "\n";
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string shown = file.string();
    if (!root.empty()) {
      const std::string prefix = (fs::path(root) / "").string();
      if (shown.rfind(prefix, 0) == 0) shown = shown.substr(prefix.size());
    }
    sources.emplace_back(shown, buffer.str(), tool.name);
  }

  std::vector<Finding> findings;
  if (tool.scan) {
    for (const Source& src : sources) tool.scan(src, &findings);
  }
  const ArtifactMap computed =
      tool.scan_program ? tool.scan_program(sources, &findings)
                        : ArtifactMap();
  if (!artifact_path.empty()) {
    if (write_artifact) {
      std::ofstream out(artifact_path);
      out << FormatArtifact(tool.name, *tool.artifact, computed);
      out.flush();
      if (!out.good()) {
        std::cerr << tool.name << ": cannot write " << flag << " to \""
                  << artifact_path << "\"\n";
        return 1;
      }
    } else {
      CheckArtifactDrift(artifact_path, *tool.artifact, computed, &findings);
    }
  }
  if (check_waivers) {
    // Stale-waiver pass: each file's waivers against each file's
    // findings (scan and scan_program alike — chains attribute to the
    // entry point's file, which is where the waiver must sit).
    for (const Source& src : sources) {
      std::vector<Finding> file_findings;
      for (const Finding& f : findings) {
        if (f.file == src.path()) file_findings.push_back(f);
      }
      CheckWaivers(src, file_findings, &findings);
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  size_t unsuppressed = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++unsuppressed;
  }
  if (!report_path.empty() &&
      !WriteReport(report_path, tool.name, findings, files.size(),
                   unsuppressed)) {
    std::cerr << tool.name << ": cannot write report to \"" << report_path
              << "\"\n";
    return 1;
  }
  if (!sarif_path.empty() && !WriteSarif(sarif_path, tool, findings)) {
    std::cerr << tool.name << ": cannot write SARIF to \"" << sarif_path
              << "\"\n";
    return 1;
  }

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": "
              << (f.suppressed ? "allowed" : "error") << " [" << f.rule
              << "] " << f.snippet << "\n";
    if (!f.chain.empty()) std::cout << "  chain: " << f.chain << "\n";
  }
  std::cout << tool.name << ": " << files.size() << " files, "
            << findings.size() << " findings, " << unsuppressed
            << " unsuppressed\n";
  return unsuppressed == 0 ? 0 : 2;
}

}  // namespace

int Main(const std::vector<Tool>& packs, int argc, char** argv) {
  const std::string first = argc > 1 ? argv[1] : "";
  if (first == "--rules-md" && argc == 2) {
    std::cout << kRulesMdHeader;
    for (const Tool& pack : packs) PrintRulesMarkdown(pack);
    return 0;
  }
  for (const Tool& pack : packs) {
    if (first == pack.name) return RunPack(packs, pack, argc - 1, argv + 1);
  }
  return Usage(packs);
}

}  // namespace liblint
