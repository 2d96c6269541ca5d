#ifndef SHARDCHAIN_TOOLS_LIBLINT_LIBLINT_H_
#define SHARDCHAIN_TOOLS_LIBLINT_LIBLINT_H_

// liblint — the analyzer core behind `shardlint`, the repo's one lint
// binary, and its four rule packs (tools/detlint, tools/parlint,
// tools/flowlint, tools/codeclint). Each pack is a rule table plus a
// scan callback (per-file, or whole-program for the interprocedural
// packs) and, optionally, a checked-in artifact; everything else —
// file walking, comment and string-literal stripping, inline
// `<pack>:allow(...)` waivers, function/call-site/record extraction,
// the call graph, the nondeterminism-source table, artifact
// write/parse/drift, JSON and SARIF reports, stale-waiver checking,
// findings/exit-code plumbing — lives here once, so a lexer fix or a
// driver feature lands in every pack at once (DESIGN.md §11).
//
// The scanners are heuristic, text-level checkers, not compiler
// plugins: they operate on a blanked copy of the source (comments and
// literals replaced by spaces, offsets preserved) and err on the side
// of flagging; intentional uses carry inline waivers of the form
//
//     // <tool>:allow(<rule>[,<rule>...]): optional justification
//
// on the offending line or the line directly above it.

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace liblint {

// ----------------------------- Findings ---------------------------------

struct Finding {
  std::string file;  // As given (relative to --root when provided).
  size_t line = 0;   // 1-based.
  std::string rule;
  std::string snippet;
  bool suppressed = false;
  // Interprocedural findings carry the full call chain from the
  // offending entry point to the seed ("BuildBlock (f.cc:10) →
  // PackCandidates (f.cc:5) → system_clock [nondet:wall-clock]
  // (f.cc:7)"). Empty for single-site findings; emitted into the JSON
  // and SARIF reports only when non-empty.
  std::string chain;
};

struct RuleInfo {
  const char* name;
  const char* summary;
};

// Driver-level rule emitted by --check-waivers: an allow() entry that
// suppresses zero findings. Never suppressible itself.
inline constexpr char kStaleWaiverRule[] = "stale-waiver";

// --------------------------- Text utilities -----------------------------

bool IsIdentChar(char c);

// True if s[pos..] starts with `token` on identifier boundaries.
bool TokenAt(const std::string& s, size_t pos, const std::string& token);

// Offset of the first `token` starting in [pos, end) of `s`, or npos.
// Unlike a bare find() it never reads past `end`, so scanning every
// function body of a file stays linear in the file.
size_t FindIn(const std::string& s, const std::string& token, size_t pos,
              size_t end);

// First non-whitespace position at or after `pos` (s.size() if none).
size_t SkipWs(const std::string& s, size_t pos);

// Last non-whitespace position strictly before `pos`, or npos.
size_t PrevNonWs(const std::string& s, size_t pos);

// The identifier starting at `pos` / ending at `end` (exclusive); empty
// if none.
std::string IdentAt(const std::string& s, size_t pos);
std::string IdentBefore(const std::string& s, size_t end);

// "Ledger::BuildBlock" -> "BuildBlock" / "Ledger"; an unqualified name
// is its own last component and has an empty prefix.
std::string LastComponent(const std::string& qualified);
std::string ClassPrefix(const std::string& qualified);

// Matches the closing delimiter of a balanced pair opened at `open`
// (which must index '<' / '(' / '{'). Returns npos when unbalanced.
// MatchAngle additionally bails at ';' or '{' since a stray less-than
// never closes.
size_t MatchAngle(const std::string& s, size_t open);
size_t MatchParen(const std::string& s, size_t open);
size_t MatchBrace(const std::string& s, size_t open);

// ------------------------- Preprocessed source --------------------------

// A file's content with comments and string/char literals blanked out
// (offsets preserved), plus per-line suppression info extracted from
// the comments before blanking. `tool` names the waiver tag scanned
// for: tool "detlint" recognises `detlint:allow(...)`.
class Source {
 public:
  Source(std::string path, std::string raw, std::string tool);

  const std::string& path() const { return path_; }
  const std::string& code() const { return code_; }
  const std::string& raw() const { return raw_; }

  size_t LineOf(size_t offset) const;       // 1-based.
  std::string LineText(size_t line) const;  // 1-based, trimmed.

  // True when `rule` is waived on `line` (same line or the one above).
  bool Suppressed(size_t line, const std::string& rule) const;

  // All allow() entries harvested from comments: line -> rule names
  // (may include "*"). Used by the --check-waivers pass.
  const std::map<size_t, std::set<std::string>>& waivers() const {
    return allow_;
  }

 private:
  void IndexLines();
  bool SuppressedOn(size_t line, const std::string& rule) const;
  void ParseAllow(const std::string& comment, size_t comment_start);
  void StripCommentsAndLiterals();
  void Blank(size_t begin, size_t end);

  std::string path_;
  std::string tag_;   // "<tool>:allow(".
  std::string code_;  // Blanked copy scanned by the rules.
  std::string raw_;   // Original text, for snippets.
  std::vector<size_t> line_starts_;
  std::map<size_t, std::set<std::string>> allow_;  // line -> rules.
};

// Appends a finding at `offset`, resolving line, snippet, and
// suppression against `src`. The chain overload attaches an
// interprocedural call chain to the finding.
void EmitFinding(const Source& src, size_t offset, const std::string& rule,
                 std::vector<Finding>* out);
void EmitFinding(const Source& src, size_t offset, const std::string& rule,
                 const std::string& chain, std::vector<Finding>* out);

// --------------------- Function & call extraction -----------------------
//
// The token-level function index the whole-program packs (flowlint,
// codeclint) build the call graph below from.

// A function definition: qualified name and the lexical extent of its
// body. Member functions defined inline inside a `class X { ... }`
// body are qualified with the enclosing class name(s); out-of-line
// definitions keep the qualifier as written ("Ledger::BuildBlock").
// Namespaces do not participate in qualification.
struct FunctionDef {
  std::string name;         // "Ledger::BuildBlock", "RunSelectionGame".
  size_t name_pos = 0;      // Offset of the name's first character.
  size_t params_open = 0;   // Offset of the parameter list '('.
  size_t params_close = 0;  // Offset of its matching ')'.
  size_t body_open = 0;     // Offset of the body '{'.
  size_t body_close = 0;    // Offset of the matching '}'.
};

// All function definitions in `src`, in offset order. Heuristic token
// scan over the blanked code: a '{' whose backward context reads
// `name(params) [specifiers...]` — ascending through constructor
// initializer lists — names a definition; control-flow headers
// (if/for/while/switch/catch), lambdas, and operator overloads are
// skipped.
std::vector<FunctionDef> ExtractFunctions(const Source& src);

// A call site: the callee as written, with tight `::` chains kept
// ("std::chrono::system_clock::now"); member calls record the bare
// member name ("Run") and, when the object is a plain identifier, that
// identifier as the receiver (`pool` in `pool->Run(`). `offset` indexes
// the first character of the (possibly qualified) name.
struct CallSite {
  std::string callee;
  size_t offset = 0;
  std::string receiver;  // Empty unless `x.f(` / `x->f(`.
};

// Call-shaped tokens inside [begin, end) of `src`'s blanked code: an
// identifier chain followed by '(' (template argument lists between
// name and paren are skipped), minus control/cast keywords. Variable
// initializations `T name(args)` surface `name` too — callers resolve
// against a function index, so unresolvable names are cheap noise in
// the over-approximating direction.
std::vector<CallSite> ExtractCallSites(const Source& src, size_t begin,
                                       size_t end);

// ------------------------- Record extraction ----------------------------
//
// The token-level struct/class/enum index the field-coverage pack
// (codeclint) pairs with the function index: which records exist, what
// members they declare, and where. Like ExtractFunctions this is a
// heuristic scan over the blanked code, not a compiler front end — it
// covers the declaration idioms this repo actually uses (plain members,
// default member initializers, arrays, templates, nested records,
// access specifiers) and skips what it cannot parse.

// One data member of a record.
struct RecordField {
  std::string name;     // "gas_limit", "digest_cache_".
  std::string type;     // Declaration text before the name, trimmed.
  std::string init;     // Default initializer text ("= 0", "{}"), or "".
  size_t name_pos = 0;  // Offset of the name's first character.
  bool is_static = false;
  bool is_mutable = false;
  bool is_private = false;  // Under `private:`/`protected:`.
};

// A record definition: struct, class, or enum. Nested records are
// qualified with the enclosing record name(s) ("Outer::Inner") and
// their members are attributed to the innermost record only. Enums
// list their enumerators as fields (type "", no initializer parsing
// beyond the `= value` text).
struct RecordDef {
  std::string name;       // "Transaction", "UnifiedParameters::Inner".
  std::string kind;       // "struct", "class", or "enum".
  size_t name_pos = 0;    // Offset of the name's first character.
  size_t body_open = 0;   // Offset of the body '{'.
  size_t body_close = 0;  // Offset of the matching '}'.
  std::vector<RecordField> fields;
};

// All record definitions in `src`, in offset order. Member functions,
// using/typedef/friend declarations, static_assert, and nested record
// declarations are not fields; `static` and `mutable` members are kept
// and flagged so callers can apply per-rule policy (codeclint's
// manifest and coverage rules both exempt statics, but keep mutables —
// a mutable member still travels on the wire unless waived).
std::vector<RecordDef> ExtractRecords(const Source& src);

// ------------------------------ Call graph ------------------------------
//
// One function index plus call edges over every loaded source, shared
// by the whole-program packs. Call resolution over-approximates by
// design:
//  - `std::`-qualified callees are leaves (the std library's taints are
//    modeled by the source table below, not by resolution);
//  - a qualified callee resolves only to exact name matches;
//  - a member call `x->f(` / `x.f(` whose receiver `x` is a parameter
//    of the enclosing function declared `[const] T[*|&] x` resolves to
//    `T::f` alone when `T::f` is indexed;
//  - otherwise an unqualified callee from inside class C prefers C's
//    member of that name, else resolves to EVERY function with that
//    last component.

struct CallEdge {
  size_t callee = 0;  // Index into CallGraph::fns().
  size_t offset = 0;  // Call-site offset in the caller's file.
};

struct GraphFn {
  FunctionDef def;
  size_t src_index = 0;          // Index into CallGraph::sources().
  std::vector<CallEdge> edges;   // In call-site offset order.
};

class CallGraph {
 public:
  // Keeps a reference to `sources`, which must outlive the graph.
  explicit CallGraph(const std::vector<Source>& sources);

  const std::vector<GraphFn>& fns() const { return fns_; }
  const Source& SourceOf(size_t fn) const {
    return sources_[fns_[fn].src_index];
  }

  // Definitions named exactly `name` (same-named overloads and
  // duplicate definitions all appear); empty when none is indexed.
  const std::vector<size_t>& Named(const std::string& name) const;

  // "name (file:line)": one hop of a printed call chain.
  std::string Hop(size_t fn) const;

  // Breadth-first from `starts` (duplicates dropped), entering a callee
  // only when `follow(callee)` holds; every function reached, in visit
  // order, starts first.
  std::vector<size_t> Reachable(
      const std::vector<size_t>& starts,
      const std::function<bool(size_t)>& follow) const;

 private:
  // `param_types`: the caller's parameter name -> plain type.
  const std::vector<size_t>& Resolve(
      const GraphFn& caller,
      const std::map<std::string, std::string>& param_types,
      const CallSite& call) const;

  const std::vector<Source>& sources_;
  std::vector<GraphFn> fns_;
  std::map<std::string, std::vector<size_t>> by_name_;
  std::map<std::string, std::vector<size_t>> by_last_;
};

// -------------------- Nondeterminism-source table -----------------------
//
// The tokens that read state outside the broadcast inputs. detlint
// reports the rows carrying a detlint rule wherever they appear; flowlint
// seeds every row's taint inside the function that contains it and
// propagates it to callers.

struct NondetSource {
  const char* token;
  bool needs_call;           // Must be followed by '('.
  const char* detlint_rule;  // nullptr: not a detlint finding.
  const char* taint;         // flowlint taint label.
};

// Order matters to flowlint only: a chain ends at the first seed of its
// taint in this order.
inline constexpr NondetSource kNondetSources[] = {
    {"system_clock", false, "wall-clock", "nondet:wall-clock"},
    {"steady_clock", false, "wall-clock", "nondet:wall-clock"},
    {"high_resolution_clock", false, "wall-clock", "nondet:wall-clock"},
    {"time", true, "wall-clock", "nondet:wall-clock"},
    {"gettimeofday", true, "wall-clock", "nondet:wall-clock"},
    {"clock", true, "wall-clock", "nondet:wall-clock"},
    {"__DATE__", false, "wall-clock", "nondet:wall-clock"},
    {"__TIME__", false, "wall-clock", "nondet:wall-clock"},
    {"__TIMESTAMP__", false, "wall-clock", "nondet:wall-clock"},
    {"random_device", false, "random-device", "nondet:entropy"},
    {"rand", true, "std-rand", "nondet:rand"},
    {"srand", true, "std-rand", "nondet:rand"},
    {"getenv", true, nullptr, "nondet:env"},
    {"hardware_concurrency", false, nullptr, "nondet:hw-threads"},
};

// Calls `on_match(row, offset)` for every occurrence of a row's token on
// identifier boundaries starting in [begin, end) of `code`, row by row
// in table order, each row in offset order. A token right after '.' is
// a member of some object (`obj.time`), not the libc symbol, and is
// skipped; a qualified `std::rand` still matches.
void MatchSources(
    const std::string& code, size_t begin, size_t end,
    const NondetSource* table, size_t rows,
    const std::function<void(const NondetSource&, size_t)>& on_match);

// Offsets of ordered containers keyed on a pointer (`map<T*, V>`,
// `set<T*>`, and the multi variants) whose name starts in [begin, end):
// their iteration order is decided by the allocator, not the data.
std::vector<size_t> PointerKeyedContainers(const std::string& code,
                                           size_t begin, size_t end);

// A call to one of the §9 parallel primitives (ParallelChunks,
// ParallelFor, ParallelReduce) and its argument list's extent — where
// an inline parallel body lives.
struct ParallelCall {
  size_t name_pos = 0;
  size_t open = 0;   // '('.
  size_t close = 0;  // Matching ')'.
  bool is_for = false;
};

// Every such call whose name starts in [begin, end) of `code`, nested
// ones included; grouped by primitive in the order above, each group
// in offset order.
std::vector<ParallelCall> ParallelCalls(const std::string& code,
                                        size_t begin, size_t end);

// ------------------------- Checked-in artifacts -------------------------
//
// A whole-program pack may pin what it computes in a checked-in JSON
// file (flowlint's taint summaries, codeclint's field manifest): its
// scan_program returns the map, so one analysis yields both the
// findings and the artifact. The driver handles `--<flag> <file>` (diff
// the computed map against the file; every difference is one finding
// of `drift_rule`, never waivable) and `--write-<flag>` (regenerate the
// file instead).

// Entry name -> values, in the order the file lists them.
using ArtifactMap = std::map<std::string, std::vector<std::string>>;

struct Artifact {
  const char* flag;        // "summaries" -> --summaries, --write-summaries.
  const char* list_key;    // JSON key of the entry list ("functions").
  const char* values_key;  // JSON key of each entry's values ("taints").
  const char* drift_rule;  // "taint-summary-drift".
};

// The file's exact bytes for `map`, headed by `"tool": <tool>`.
std::string FormatArtifact(const std::string& tool, const Artifact& artifact,
                           const ArtifactMap& map);

// Minimal reader for the shape FormatArtifact produces (plus whitespace
// tolerance): `"name": "<entry>"` followed by `"<values_key>": [...]`,
// repeated. False when the text does not have that shape.
bool ParseArtifact(const std::string& text, const Artifact& artifact,
                   ArtifactMap* out);

// Diffs `computed` against the file at `path`; each difference (or an
// unreadable file) appends one unsuppressed `drift_rule` finding
// attributed to `path`, line 1.
void CheckArtifactDrift(const std::string& path, const Artifact& artifact,
                        const ArtifactMap& computed,
                        std::vector<Finding>* out);

// ------------------------------ Reports ---------------------------------

std::string JsonEscape(const std::string& s);

bool WriteReport(const std::string& path, const std::string& tool,
                 const std::vector<Finding>& findings, size_t files_scanned,
                 size_t unsuppressed);

struct Tool;  // Defined below; WriteSarif needs the rule table.

// SARIF 2.1.0, one run per tool: the driver's rule table (plus the
// driver-level stale-waiver rule) becomes the reporting descriptors,
// each finding becomes a result with a physical location; suppressed
// findings carry an inSource suppression object so SARIF viewers show
// them as waived rather than open. Interprocedural chains ride in the
// result message.
bool WriteSarif(const std::string& path, const Tool& tool,
                const std::vector<Finding>& findings);

// --------------------------- Waiver checking ----------------------------

// Every (line, rule) allow() entry in `src` must have suppressed at
// least one of `file_findings` (findings for this file only); each
// entry that suppressed nothing yields a `stale-waiver` finding. A "*"
// entry is used when any finding sits on its lines.
void CheckWaivers(const Source& src, const std::vector<Finding>& file_findings,
                  std::vector<Finding>* out);

// ------------------------------ Driver ----------------------------------

struct Tool {
  const char* name;     // e.g. "detlint"; also the waiver tag.
  const char* tagline;  // One line for --rules-md's section heading.
  const RuleInfo* rules = nullptr;
  size_t rule_count = 0;
  // Scans one preprocessed file, appending findings.
  std::function<void(const Source&, std::vector<Finding>*)> scan;
  // Whole-program pass over every loaded file at once — the hook the
  // interprocedural packs use (call graphs cross file boundaries).
  // Runs after the per-file scan (either may be unset). Findings it
  // appends participate in per-file waiver checking like any other; it
  // returns the pack's artifact map (empty when there is no artifact).
  std::function<ArtifactMap(const std::vector<Source>&,
                            std::vector<Finding>*)>
      scan_program;
  // Checked-in artifact this pack computes, if any.
  std::optional<Artifact> artifact;
};

// The shardlint command line:
//   shardlint --rules-md
//   shardlint <pack> [--report <file.json>] [--sarif <file.sarif>]
//             [--root <dir>] [--list-rules] [--rules-md]
//             [--check-waivers] [--<flag> <file> [--write-<flag>]]
//             <dir-or-file>...
// `--rules-md` without a pack prints tools/lint_rules.md: its header,
// then every pack's section in `packs` order. `--<flag>` is the pack's
// artifact flag, if it has one.
//
// Directory targets are walked recursively for C++ sources; directories
// named "testdata" are skipped (lint fixtures are test inputs, not
// shipped code — pass a fixture file explicitly to scan it).
//
// Exit codes: 0 = clean (all findings suppressed or none), 1 = usage /
// IO error, 2 = unsuppressed findings present.
int Main(const std::vector<Tool>& packs, int argc, char** argv);

}  // namespace liblint

#endif  // SHARDCHAIN_TOOLS_LIBLINT_LIBLINT_H_
