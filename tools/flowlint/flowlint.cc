// flowlint — interprocedural taint analysis of the determinism and
// parallel contracts.
//
// detlint and parlint are lexical, per-file scanners: they cannot see a
// helper that reads the wall clock called three frames below
// Ledger::BuildBlock, or a function invoked from inside a ParallelFor
// body that mutates a local static. flowlint closes that gap: over
// liblint's call graph of everything it is given, it seeds taints at
// nondeterminism sources and contract-relevant effects, propagates them
// to callers with a worklist fixpoint, and reports violations with the
// full call chain (`BuildBlock (f.cc:10) → PackCandidates (f.cc:5)
// → system_clock [nondet:wall-clock] (f.cc:7)`).
//
// Taint labels:
//   nondet:wall-clock       system_clock/steady_clock/time()/clock()/
//                           __DATE__/__TIME__/__TIMESTAMP__
//   nondet:entropy          std::random_device
//   nondet:rand             rand()/srand() (global C RNG)
//   nondet:env              getenv()
//   nondet:hw-threads       hardware_concurrency()
//   nondet:ptr-order        std::map/set keyed on a pointer
//   effect:parallel         ParallelFor/ParallelReduce/ParallelChunks
//   effect:static-mutation  non-const local static state
//
// In-source annotations (comments, scanned from the raw text):
//   // flowlint: deterministic-root   — consensus entry point; rule 1
//       flags it when any nondet:* taint becomes reachable. The
//       required root set (DESIGN.md §7 entry points) is pinned in
//       kRequiredRoots; rule 3 flags a required root defined without
//       the annotation.
//   // flowlint: contract-barrier     — certified boundary (the §9
//       parallel primitives): taints inside it do NOT propagate to
//       callers. This is what keeps ThreadPool's hardware_concurrency
//       read from tainting every consensus root that fans out.
//
// The per-function taint summary is checked in at
// tools/flowlint/summaries.json and regenerated with
// `--summaries <file> --write-summaries`; rule 4 (taint-summary-drift)
// fails CI when the computed summary and the checked-in one diverge,
// so a review diff shows exactly which functions gained a taint.
//
// Like its siblings this is a heuristic token-level pack on the shared
// liblint driver, not a compiler plugin. The call graph is liblint's
// (shared with codeclint) and resolves over-approximately (an
// unqualified callee resolves to every function with that name unless
// a class or a typed receiver pins it), so it errs toward flagging and
// intentional uses carry `// flowlint:allow(<rule>): justification`
// waivers. The nondet:* seeds are the rows of liblint's
// nondeterminism-source table, the one detlint matches too.
//
// Usage: shardlint flowlint [flags] [--summaries <file.json>
//        [--write-summaries]] <dir-or-file>... (liblint::Main).

#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "packs.h"

namespace {

using liblint::CallEdge;
using liblint::CallGraph;
using liblint::EmitFinding;
using liblint::FindIn;
using liblint::Finding;
using liblint::RuleInfo;
using liblint::SkipWs;
using liblint::Source;
using liblint::TokenAt;

constexpr RuleInfo kRules[] = {
    {"consensus-reaches-nondet",
     "a declared deterministic root (// flowlint: deterministic-root) "
     "transitively reaches a nondeterminism source — wall clock, "
     "entropy, global RNG, getenv, hardware_concurrency, or "
     "pointer-keyed ordering; two honest miners would derive different "
     "bytes from the same broadcast (DESIGN.md §7)"},
    {"parallel-body-effects",
     "a function called (transitively) from inside a "
     "ParallelFor/ParallelReduce/ParallelChunks body performs nested "
     "parallelism or static mutation; the §9 contract requires parallel "
     "bodies to stay effect-free beyond their disjoint writes"},
    {"unannotated-root",
     "a consensus entry point (Ledger::BuildBlock, the codec "
     "encode/decode pairs, the games) defined without its "
     "`// flowlint: deterministic-root` annotation; the root set must "
     "be declared in-source so rule 1 audits every entry point"},
    {"taint-summary-drift",
     "the computed per-function taint summary differs from the "
     "checked-in tools/flowlint/summaries.json; not waivable — "
     "regenerate with `--summaries <file> --write-summaries` so the "
     "review diff shows exactly which functions changed"},
};

// The consensus entry points every miner must recompute bit-identically
// from the leader's unified parameters (Sec. IV-C; DESIGN.md §7). Each
// must carry `// flowlint: deterministic-root` at its definition.
constexpr const char* kRequiredRoots[] = {
    "Ledger::BuildBlock",
    "ShardingSystem::ComputeShardSelectionPlans",
    "EncodeUnifiedParameters",
    "DecodeUnifiedParameters",
    "EncodeSelectionPlan",
    "DecodeSelectionPlan",
    "EncodeMergePlan",
    "DecodeMergePlan",
    "RunSelectionGame",
    "RunOneTimeMerge",
    "RunIterativeMerge",
    "RunRandomizedMerge",
    // Churn and migration byte streams (DESIGN.md §12): epoch records,
    // account handoffs, and migration plans are consensus-compared
    // byte-for-byte across miners.
    "EncodeEpochRecord",
    "DecodeEpochRecord",
    "EncodeAccountState",
    "DecodeAccountState",
    "EncodeHandoffRecord",
    "DecodeHandoffRecord",
    "EncodeMigrationPlan",
    "DecodeMigrationPlan",
    // Mempool emission and pipelined block production (DESIGN.md §14):
    // TopByFee feeds every miner's packing decision and the pipeline
    // must emit serial-identical block bytes.
    "TxPool::TopByFee",
    "BlockPipeline::Run",
};

constexpr char kRootAnnotation[] = "flowlint: deterministic-root";
constexpr char kBarrierAnnotation[] = "flowlint: contract-barrier";

// An annotation comment binds to the function whose name starts within
// this many lines below it (covers a return type on its own line).
constexpr size_t kAnnotationMargin = 3;

// ------------------------------ Analysis --------------------------------

struct Seed {
  std::string taint;
  std::string token;  // What to print in the chain's last hop.
  size_t offset = 0;
};

// Taint state of one call-graph function.
struct Fn {
  bool is_root = false;
  bool is_barrier = false;
  std::vector<Seed> seeds;
  std::set<std::string> taints;  // Seeds ∪ non-barrier callees'.
};

// The §9 parallel entry points: calling one is the effect:parallel seed.
constexpr liblint::NondetSource kParallelSources[] = {
    {"ParallelFor", true, nullptr, "effect:parallel"},
    {"ParallelReduce", true, nullptr, "effect:parallel"},
    {"ParallelChunks", true, nullptr, "effect:parallel"},
};

class Analysis {
 public:
  explicit Analysis(const std::vector<Source>& sources)
      : graph_(sources), fns_(graph_.fns().size()) {
    HarvestAnnotations();
    for (size_t i = 0; i < fns_.size(); ++i) SeedTaints(i);
    Propagate();
  }

  void EmitRootFindings(std::vector<Finding>* out) const;
  void EmitParallelBodyFindings(std::vector<Finding>* out) const;
  void EmitUnannotatedRootFindings(std::vector<Finding>* out) const;

  // Final taints per function name (union over same-named definitions,
  // non-empty sets only) — the checked-in summary rule 4 diffs.
  liblint::ArtifactMap Summaries() const {
    std::map<std::string, std::set<std::string>> by_name;
    for (size_t i = 0; i < fns_.size(); ++i) {
      if (fns_[i].taints.empty()) continue;
      by_name[Def(i).name].insert(fns_[i].taints.begin(),
                                  fns_[i].taints.end());
    }
    liblint::ArtifactMap out;
    for (const auto& [name, taints] : by_name) {
      out[name].assign(taints.begin(), taints.end());
    }
    return out;
  }

 private:
  const liblint::FunctionDef& Def(size_t i) const {
    return graph_.fns()[i].def;
  }
  const std::vector<CallEdge>& Edges(size_t i) const {
    return graph_.fns()[i].edges;
  }

  // `// flowlint: deterministic-root` / `contract-barrier` comments,
  // read from the RAW text (they are comments, blanked in code()).
  void HarvestAnnotations() {
    for (size_t i = 0; i < fns_.size(); ++i) {
      const Source& src = graph_.SourceOf(i);
      const size_t name_line = src.LineOf(Def(i).name_pos);
      const size_t first =
          name_line > kAnnotationMargin ? name_line - kAnnotationMargin : 1;
      for (size_t line = first; line <= name_line; ++line) {
        const std::string text = src.LineText(line);
        if (text.find(kRootAnnotation) != std::string::npos) {
          fns_[i].is_root = true;
        }
        if (text.find(kBarrierAnnotation) != std::string::npos) {
          fns_[i].is_barrier = true;
        }
      }
    }
  }

  void AddSeed(Fn* fn, const char* taint, const std::string& token,
               size_t offset) {
    fn->seeds.push_back({taint, token, offset});
    fn->taints.insert(taint);
  }

  void SeedTaints(size_t i) {
    Fn* fn = &fns_[i];
    const std::string& code = graph_.SourceOf(i).code();
    const size_t begin = Def(i).body_open + 1;
    const size_t end = Def(i).body_close;
    auto seed_row = [&](const liblint::NondetSource& row, size_t pos) {
      AddSeed(fn, row.taint, row.token, pos);
    };
    liblint::MatchSources(code, begin, end, liblint::kNondetSources,
                          std::size(liblint::kNondetSources), seed_row);
    liblint::MatchSources(code, begin, end, kParallelSources,
                          std::size(kParallelSources), seed_row);
    SeedStaticMutation(fn, code, begin, end);
    for (size_t pos : liblint::PointerKeyedContainers(code, begin, end)) {
      AddSeed(fn, "nondet:ptr-order", liblint::IdentAt(code, pos), pos);
    }
  }

  // A non-const local `static` is mutable cross-call state: results
  // depend on invocation history, and under parallelism on the
  // schedule.
  void SeedStaticMutation(Fn* fn, const std::string& code, size_t begin,
                          size_t end) {
    size_t pos = begin;
    while ((pos = FindIn(code, "static", pos, end)) != std::string::npos) {
      if (!TokenAt(code, pos, "static")) {
        pos += 6;
        continue;
      }
      const size_t after = SkipWs(code, pos + 6);
      if (!TokenAt(code, after, "const") &&
          !TokenAt(code, after, "constexpr")) {
        AddSeed(fn, "effect:static-mutation", "static", pos);
      }
      pos += 6;
    }
  }

  // Worklist fixpoint: a caller carries every taint of its non-barrier
  // callees. Monotone over finite sets, so iterate to stability.
  void Propagate() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < fns_.size(); ++i) {
        for (const CallEdge& e : Edges(i)) {
          const Fn& callee = fns_[e.callee];
          if (callee.is_barrier) continue;
          for (const std::string& t : callee.taints) {
            if (fns_[i].taints.insert(t).second) changed = true;
          }
        }
      }
    }
  }

  // ------------------------------ Chains --------------------------------

  std::string SeedHop(size_t i, const Seed& seed) const {
    const Source& src = graph_.SourceOf(i);
    return seed.token + " [" + seed.taint + "] (" + src.path() + ":" +
           std::to_string(src.LineOf(seed.offset)) + ")";
  }

  const Seed* LocalSeed(const Fn& fn, const std::string& taint) const {
    for (const Seed& s : fn.seeds) {
      if (s.taint == taint) return &s;
    }
    return nullptr;
  }

  // Shortest call chain from function `start` to a local seed of
  // `taint`, BFS with edges in call-site order (deterministic across
  // runs).
  std::string ChainFor(size_t start, const std::string& taint) const {
    std::deque<size_t> queue{start};
    std::map<size_t, size_t> parent;  // child fn index -> parent.
    std::set<size_t> visited{start};
    while (!queue.empty()) {
      const size_t at = queue.front();
      queue.pop_front();
      if (const Seed* seed = LocalSeed(fns_[at], taint)) {
        std::vector<size_t> path{at};
        while (path.back() != start) path.push_back(parent[path.back()]);
        std::string chain;
        for (auto it = path.rbegin(); it != path.rend(); ++it) {
          chain += graph_.Hop(*it) + " → ";
        }
        return chain + SeedHop(at, *seed);
      }
      for (const CallEdge& e : Edges(at)) {
        const Fn& callee = fns_[e.callee];
        if (callee.is_barrier || callee.taints.count(taint) == 0 ||
            !visited.insert(e.callee).second) {
          continue;
        }
        parent[e.callee] = at;
        queue.push_back(e.callee);
      }
    }
    return graph_.Hop(start);  // Unreachable seed: degrade gracefully.
  }

  CallGraph graph_;
  std::vector<Fn> fns_;  // Parallel to graph_.fns().
};

// Rule 1: consensus-reaches-nondet.
void Analysis::EmitRootFindings(std::vector<Finding>* out) const {
  for (size_t i = 0; i < fns_.size(); ++i) {
    const Fn& fn = fns_[i];
    if (!fn.is_root) continue;
    std::string taint;
    for (const std::string& t : fn.taints) {
      if (t.rfind("nondet:", 0) == 0) {
        taint = t;
        break;  // Sets are ordered: first nondet:* is the smallest.
      }
    }
    if (taint.empty()) continue;
    EmitFinding(graph_.SourceOf(i), Def(i).name_pos,
                "consensus-reaches-nondet", ChainFor(i, taint), out);
  }
}

// Rule 2: parallel-body-effects. Scans each function's parallel-call
// argument extents: a direct static-mutation seed inside the extent,
// or a resolved callee carrying any effect:* taint, is an effect
// smuggled into a parallel region. (Lexically nested Parallel* calls
// are parlint's nested-parallel; here the nested case is caught when
// it hides behind a call — the callee then carries effect:parallel.)
void Analysis::EmitParallelBodyFindings(std::vector<Finding>* out) const {
  for (size_t i = 0; i < fns_.size(); ++i) {
    const Source& src = graph_.SourceOf(i);
    std::set<size_t> emitted;  // Nested extents: once per offset.
    for (const liblint::ParallelCall& call : liblint::ParallelCalls(
             src.code(), Def(i).body_open + 1, Def(i).body_close)) {
      auto inside = [&](size_t offset) {
        return offset > call.open && offset < call.close;
      };
      for (const Seed& s : fns_[i].seeds) {
        if (s.taint == "effect:static-mutation" && inside(s.offset) &&
            emitted.insert(s.offset).second) {
          EmitFinding(src, s.offset, "parallel-body-effects", SeedHop(i, s),
                      out);
        }
      }
      for (const CallEdge& e : Edges(i)) {
        const Fn& callee = fns_[e.callee];
        if (!inside(e.offset) || callee.is_barrier) continue;
        std::string taint;
        for (const std::string& t : callee.taints) {
          if (t.rfind("effect:", 0) == 0) {
            taint = t;
            break;
          }
        }
        if (taint.empty() || !emitted.insert(e.offset).second) continue;
        EmitFinding(src, e.offset, "parallel-body-effects",
                    ChainFor(e.callee, taint), out);
      }
    }
  }
}

// Rule 3: unannotated-root.
void Analysis::EmitUnannotatedRootFindings(std::vector<Finding>* out) const {
  for (const char* required : kRequiredRoots) {
    for (size_t i : graph_.Named(required)) {
      if (fns_[i].is_root) continue;
      EmitFinding(graph_.SourceOf(i), Def(i).name_pos, "unannotated-root",
                  out);
    }
  }
}

}  // namespace

liblint::Tool FlowlintPack() {
  liblint::Tool tool;
  tool.name = "flowlint";
  tool.tagline =
      "interprocedural taint analysis of the §7 determinism and §9 "
      "parallel contracts";
  tool.rules = kRules;
  tool.rule_count = std::size(kRules);
  tool.scan_program = [](const std::vector<Source>& sources,
                         std::vector<Finding>* out) {
    const Analysis analysis(sources);
    analysis.EmitRootFindings(out);
    analysis.EmitParallelBodyFindings(out);
    analysis.EmitUnannotatedRootFindings(out);
    return analysis.Summaries();
  };
  tool.artifact = liblint::Artifact{"summaries", "functions", "taints",
                                    "taint-summary-drift"};
  return tool;
}
