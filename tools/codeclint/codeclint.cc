// codeclint — whole-program field-coverage analysis for codecs,
// digests, and signatures.
//
// Every consensus guarantee in this repo bottoms out in byte-exact
// serialization: the unified-parameter/plan codec, block and state
// golden vectors, and the domain-separated Transaction::SigningDigest.
// A struct member added without a matching Encode/Decode/Digest update
// is a silent consensus split or a signature-malleability hole — an
// unsigned field an adversary can mutate in flight. detlint, parlint,
// and flowlint enforce HOW code computes; codeclint enforces WHAT the
// bytes cover.
//
// The analysis pairs each serialized record (liblint ExtractRecords)
// with its codec and digest functions (liblint ExtractFunctions):
//   encode set   method `R::Encode`, plus free `Encode*` functions
//                taking an `R` parameter (EncodeHeader(const
//                BlockHeader&), EncodeAccountState(const Account&));
//   decode set   method `R::Decode`, plus free `Decode*` functions
//                returning `R` / `Result<R>`;
//   digest set   methods of R named Id, SigningDigest, Hash, or
//                Digest — only consulted for codec-paired records, so
//                an internal class with a Hash() helper is not dragged
//                into coverage.
// Field references are token matches inside the paired bodies and, for
// delegation (EncodeBlock → header.Encode()), inside the R-restricted
// call closure: calls are followed only into other methods of R or
// paired functions of R, so coverage never leaks across records.
// Reference ORDER is judged by the LAST occurrence of each field — a
// size-prelude `reserve(96 + payload.size())` mentions fields early
// without affecting wire order.
//
// Nested expansion: a field whose type names another extracted record
// X that has no pairing of its own (MergingGameConfig inside
// UnifiedParameters) pulls X's members into the outer record's
// coverage obligation. Single-field wrapper types (Hash256, Address,
// ProofNode) are exempt — they serialize atomically.
//
// The per-record member manifest is checked in at
// tools/codeclint/fields.json and regenerated with `--manifest <file>
// --write-manifest`; rule 5 (field-manifest-drift) fails CI when the
// extracted members and the checked-in manifest diverge, so ADDING a
// member forces a conscious codec decision in the same diff.
//
// Like its siblings this is a heuristic token-level pack on the shared
// liblint driver and call graph (shared with flowlint), not a compiler
// plugin: it errs toward flagging, and deliberately unserialized fields
// (derived caches like Account::digest_valid_) carry
// `// codeclint:allow(<rule>): justification` waivers.
//
// Usage: shardlint codeclint [flags] [--manifest <file.json>
//        [--write-manifest]] <dir-or-file>... (liblint::Main).

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "packs.h"

namespace {

using liblint::CallGraph;
using liblint::ClassPrefix;
using liblint::EmitFinding;
using liblint::ExtractRecords;
using liblint::FindIn;
using liblint::Finding;
using liblint::LastComponent;
using liblint::RecordDef;
using liblint::RecordField;
using liblint::RuleInfo;
using liblint::SkipWs;
using liblint::Source;
using liblint::TokenAt;

constexpr RuleInfo kRules[] = {
    {"codec-missing-field",
     "a member of an Encode-bearing record is never referenced in its "
     "Encode set (including the R-restricted call closure and nested "
     "config expansion); the member silently falls out of the wire "
     "bytes, so two nodes can disagree while their codecs both "
     "\"succeed\""},
    {"encode-decode-drift",
     "a record's Encode and Decode reference different member sets, or "
     "reference the members in a different order (judged by last "
     "occurrence); round-trip identity is broken even though each side "
     "individually parses"},
    {"digest-missing-field",
     "a member of a codec-paired record is absent from every function "
     "reachable from its digest roots (Id/SigningDigest/Hash/Digest); "
     "objects differing only in that member collide under the digest — "
     "waivable ONLY for derived/cache fields (e.g. digest_valid_), "
     "each with a justification comment"},
    {"unsigned-mutable-field",
     "a member of a signed record (one bearing SigningDigest) is read "
     "by consensus execution but absent from the signing digest's "
     "closure; an adversary can mutate it in flight without "
     "invalidating the signature"},
    {"field-manifest-drift",
     "the extracted per-record member manifest differs from the "
     "checked-in tools/codeclint/fields.json; not waivable — "
     "regenerate with `--manifest <file> --write-manifest` so the "
     "review diff shows exactly which members changed"},
};

// Method names that make a codec-paired record's digest set.
constexpr const char* kDigestNames[] = {"Id", "SigningDigest", "Hash",
                                        "Digest"};

// Consensus execution entry points (matched by last name component):
// the readers whose field accesses define "read by execution" for
// rule 4.
constexpr const char* kExecutionRoots[] = {"ExecuteTransactions"};

// Nested expansion exempts single-field wrappers (Hash256, Address,
// ProofNode): a record used as a field type must have at least this
// many members before its members join the outer coverage obligation.
constexpr size_t kExpandMinFields = 2;

// True when `token` occurs on identifier boundaries anywhere in
// [begin, end) of `s` and names a type there. An occurrence followed
// by `::` is a QUALIFIER (`MerklePatriciaTrie::Proof` names Proof, not
// the trie class); one followed by `<` is a template wrapper
// (`Result<Block>` names Block, not Result). Neither counts.
bool TokenInRange(const std::string& s, size_t begin, size_t end,
                  const std::string& token) {
  size_t pos = begin;
  while ((pos = FindIn(s, token, pos, end)) != std::string::npos) {
    if (TokenAt(s, pos, token)) {
      const size_t after = SkipWs(s, pos + token.size());
      const bool qualifier = after + 1 < s.size() && s[after] == ':' &&
                             s[after + 1] == ':';
      const bool wrapper = after < s.size() && s[after] == '<';
      if (!qualifier && !wrapper) return true;
    }
    pos += token.size();
  }
  return false;
}

// ------------------------------ Analysis --------------------------------

// What codeclint reads of one call-graph function.
struct Fn {
  std::string last;    // Last name component.
  std::string prefix;  // Qualifier ("Transaction" for its methods).
  std::string params;  // Parameter-list text.
  std::string ret;     // Return-type text (before the name).
};

struct Rec {
  RecordDef def;
  size_t src_index = 0;
  std::vector<size_t> encode_fns;
  std::vector<size_t> decode_fns;
  std::vector<size_t> digest_fns;
  bool paired() const {
    return !encode_fns.empty() || !decode_fns.empty();
  }
};

// One nested-expansion obligation: paired record `outer` embeds
// unpaired record `inner` through field `via`.
struct Expansion {
  size_t outer = 0;  // Index into recs_.
  size_t inner = 0;
  std::string via;
};

class Analysis {
 public:
  explicit Analysis(const std::vector<Source>& sources)
      : sources_(sources), graph_(sources) {
    IndexFunctions();
    IndexRecords();
    PairRecords();
    FindExpansions();
  }

  void EmitCodecMissingField(std::vector<Finding>* out) const;
  void EmitEncodeDecodeDrift(std::vector<Finding>* out) const;
  void EmitDigestMissingField(std::vector<Finding>* out) const;
  void EmitUnsignedMutableField(std::vector<Finding>* out) const;

  // The per-record member manifest: paired records (declaration-order
  // member names), expanded nested configs, and enums used as field
  // types of paired records (enumerator names — adding an enumerator
  // changes the wire meaning of the stored byte).
  liblint::ArtifactMap Manifest() const;

 private:
  void IndexFunctions() {
    for (const liblint::GraphFn& g : graph_.fns()) {
      const std::string& code = sources_[g.src_index].code();
      Fn fn;
      fn.last = LastComponent(g.def.name);
      fn.prefix = ClassPrefix(g.def.name);
      fn.params = code.substr(g.def.params_open + 1,
                              g.def.params_close - g.def.params_open - 1);
      // Return type: the text between the previous declaration
      // boundary and the name.
      size_t rb = g.def.name_pos;
      while (rb > 0 && code[rb - 1] != ';' && code[rb - 1] != '{' &&
             code[rb - 1] != '}') {
        --rb;
      }
      fn.ret = code.substr(rb, g.def.name_pos - rb);
      fns_.push_back(std::move(fn));
    }
  }

  void IndexRecords() {
    for (size_t s = 0; s < sources_.size(); ++s) {
      for (RecordDef& def : ExtractRecords(sources_[s])) {
        Rec rec;
        rec.def = std::move(def);
        rec.src_index = s;
        rec_by_last_[LastComponent(rec.def.name)].push_back(recs_.size());
        recs_.push_back(std::move(rec));
      }
    }
  }

  void PairRecords() {
    for (size_t f = 0; f < fns_.size(); ++f) {
      const Fn& fn = fns_[f];
      // Methods pair by exact qualifier.
      if (!fn.prefix.empty()) {
        if (fn.last == "Encode" || fn.last == "Decode") {
          for (size_t r : RecordsNamed(fn.prefix)) {
            (fn.last == "Encode" ? recs_[r].encode_fns
                                 : recs_[r].decode_fns)
                .push_back(f);
          }
          continue;
        }
      }
      // Free `EncodeX(const R&)` pairs through the parameter list;
      // free `DecodeX() -> Result<R>` through the return type.
      if (fn.last.rfind("Encode", 0) == 0 && fn.last != "Encode") {
        for (size_t r = 0; r < recs_.size(); ++r) {
          if (recs_[r].def.kind == "enum") continue;
          const std::string token = LastComponent(recs_[r].def.name);
          if (TokenInRange(fn.params, 0, fn.params.size(), token)) {
            recs_[r].encode_fns.push_back(f);
          }
        }
      }
      if (fn.last.rfind("Decode", 0) == 0 && fn.last != "Decode") {
        for (size_t r = 0; r < recs_.size(); ++r) {
          if (recs_[r].def.kind == "enum") continue;
          const std::string token = LastComponent(recs_[r].def.name);
          if (TokenInRange(fn.ret, 0, fn.ret.size(), token)) {
            recs_[r].decode_fns.push_back(f);
          }
        }
      }
    }
    // Digest roots only join codec-paired records, so an internal
    // class with a Hash() helper stays out of coverage.
    for (size_t f = 0; f < fns_.size(); ++f) {
      const Fn& fn = fns_[f];
      if (fn.prefix.empty()) continue;
      bool digest_name = false;
      for (const char* name : kDigestNames) {
        if (fn.last == name) digest_name = true;
      }
      if (!digest_name) continue;
      for (size_t r : RecordsNamed(fn.prefix)) {
        if (recs_[r].paired()) recs_[r].digest_fns.push_back(f);
      }
    }
  }

  std::vector<size_t> RecordsNamed(const std::string& name) const {
    std::vector<size_t> out;
    auto it = rec_by_last_.find(LastComponent(name));
    if (it == rec_by_last_.end()) return out;
    for (size_t r : it->second) {
      // A bare prefix matches a record by last component ("Inner"
      // methods inside Outer) or by full qualified name.
      if (recs_[r].def.name == name ||
          LastComponent(recs_[r].def.name) == name) {
        out.push_back(r);
      }
    }
    return out;
  }

  // A field whose type names an UNPAIRED multi-field record pulls that
  // record's members into the outer coverage obligation.
  void FindExpansions() {
    for (size_t r = 0; r < recs_.size(); ++r) {
      const Rec& rec = recs_[r];
      if (!rec.paired() || rec.def.kind == "enum") continue;
      for (const RecordField& field : rec.def.fields) {
        if (field.is_static) continue;
        for (size_t x = 0; x < recs_.size(); ++x) {
          const Rec& inner = recs_[x];
          if (x == r || inner.paired() || inner.def.kind == "enum") {
            continue;
          }
          const std::string token = LastComponent(inner.def.name);
          if (!TokenInRange(field.type, 0, field.type.size(), token)) {
            continue;
          }
          size_t member_count = 0;
          for (const RecordField& g : inner.def.fields) {
            if (!g.is_static) ++member_count;
          }
          if (member_count < kExpandMinFields) continue;
          expansions_.push_back({r, x, field.name});
        }
      }
    }
  }

  // True when `fn` participates in `rec`'s coverage: a method of the
  // record, or one of its paired codec/digest functions.
  bool Related(const Rec& rec, size_t fn_index) const {
    const Fn& fn = fns_[fn_index];
    if (!fn.prefix.empty() &&
        (fn.prefix == rec.def.name ||
         fn.prefix == LastComponent(rec.def.name))) {
      return true;
    }
    for (const std::vector<size_t>* set :
         {&rec.encode_fns, &rec.decode_fns, &rec.digest_fns}) {
      for (size_t i : *set) {
        if (i == fn_index) return true;
      }
    }
    return false;
  }

  // Functions reachable from `starts` through calls into R-related
  // functions only — delegation like EncodeBlock → header.Encode() is
  // covered without leaking another record's references in.
  std::vector<size_t> Closure(const Rec& rec,
                              const std::vector<size_t>& starts) const {
    return graph_.Reachable(starts,
                            [&](size_t f) { return Related(rec, f); });
  }

  // Token references to `names` inside fn's body: name -> offset of
  // the LAST occurrence.
  std::map<std::string, size_t> DirectRefs(
      size_t fn_index, const std::vector<std::string>& names) const {
    const liblint::FunctionDef& def = graph_.fns()[fn_index].def;
    const std::string& code = graph_.SourceOf(fn_index).code();
    std::map<std::string, size_t> out;
    for (const std::string& name : names) {
      size_t pos = def.body_open + 1;
      while ((pos = FindIn(code, name, pos, def.body_close)) !=
             std::string::npos) {
        if (TokenAt(code, pos, name)) out[name] = pos;
        pos += name.size();
      }
    }
    return out;
  }

  // Union of DirectRefs over an R-restricted closure.
  std::set<std::string> ClosureRefs(
      const Rec& rec, const std::vector<size_t>& starts,
      const std::vector<std::string>& names) const {
    std::set<std::string> out;
    for (size_t f : Closure(rec, starts)) {
      for (const auto& [name, offset] : DirectRefs(f, names)) {
        out.insert(name);
      }
    }
    return out;
  }

  std::vector<std::string> OwnFieldNames(const Rec& rec) const {
    std::vector<std::string> names;
    for (const RecordField& f : rec.def.fields) {
      if (!f.is_static) names.push_back(f.name);
    }
    return names;
  }

  // Own field names plus every expanded inner member — the full
  // coverage obligation of a paired record.
  std::vector<std::string> ObligationNames(size_t rec_index) const {
    std::vector<std::string> names = OwnFieldNames(recs_[rec_index]);
    for (const Expansion& e : expansions_) {
      if (e.outer != rec_index) continue;
      for (const std::string& g : OwnFieldNames(recs_[e.inner])) {
        names.push_back(g);
      }
    }
    return names;
  }

  std::string SetHops(const std::vector<size_t>& set) const {
    std::string out;
    for (size_t f : set) out += (out.empty() ? "" : ", ") + graph_.Hop(f);
    return out;
  }

  const std::vector<Source>& sources_;
  CallGraph graph_;
  std::vector<Fn> fns_;  // Parallel to graph_.fns().
  std::vector<Rec> recs_;
  std::vector<Expansion> expansions_;
  std::map<std::string, std::vector<size_t>> rec_by_last_;
};

// Rule 1: codec-missing-field. Findings sit on the field declaration,
// so a waiver (with its justification) documents the field itself.
void Analysis::EmitCodecMissingField(std::vector<Finding>* out) const {
  for (size_t r = 0; r < recs_.size(); ++r) {
    const Rec& rec = recs_[r];
    if (rec.encode_fns.empty() || rec.def.kind == "enum") continue;
    const std::vector<std::string> names = ObligationNames(r);
    const std::set<std::string> covered =
        ClosureRefs(rec, rec.encode_fns, names);
    for (const RecordField& f : rec.def.fields) {
      if (f.is_static || covered.count(f.name) > 0) continue;
      EmitFinding(sources_[rec.src_index], f.name_pos,
                  "codec-missing-field",
                  rec.def.name + "." + f.name +
                      " never referenced from its Encode set: " +
                      SetHops(rec.encode_fns),
                  out);
    }
    for (const Expansion& e : expansions_) {
      if (e.outer != r) continue;
      const Rec& inner = recs_[e.inner];
      for (const RecordField& g : inner.def.fields) {
        if (g.is_static || covered.count(g.name) > 0) continue;
        EmitFinding(sources_[inner.src_index], g.name_pos,
                    "codec-missing-field",
                    inner.def.name + "." + g.name + " (embedded via " +
                        rec.def.name + "." + e.via +
                        ") never referenced from the Encode set: " +
                        SetHops(rec.encode_fns),
                    out);
      }
    }
  }
}

// Rule 2: encode-decode-drift — member-set differences attribute to
// the field declaration; order differences to the primary Decode.
void Analysis::EmitEncodeDecodeDrift(std::vector<Finding>* out) const {
  for (size_t r = 0; r < recs_.size(); ++r) {
    const Rec& rec = recs_[r];
    if (rec.encode_fns.empty() || rec.decode_fns.empty() ||
        rec.def.kind == "enum") {
      continue;
    }
    const std::vector<std::string> names = ObligationNames(r);
    const std::set<std::string> enc =
        ClosureRefs(rec, rec.encode_fns, names);
    const std::set<std::string> dec =
        ClosureRefs(rec, rec.decode_fns, names);
    auto emit_set_drift = [&](const Rec& holder, const RecordField& f,
                              const char* present, const char* absent) {
      EmitFinding(sources_[holder.src_index], f.name_pos,
                  "encode-decode-drift",
                  rec.def.name + "." + f.name + " referenced by " +
                      present + " but not by " + absent +
                      " — round-trip cannot be the identity",
                  out);
    };
    auto check_fields = [&](const Rec& holder) {
      for (const RecordField& f : holder.def.fields) {
        if (f.is_static) continue;
        const bool in_enc = enc.count(f.name) > 0;
        const bool in_dec = dec.count(f.name) > 0;
        // Absent from BOTH is rule 1's finding, not drift.
        if (in_enc && !in_dec) {
          emit_set_drift(holder, f, "Encode", "Decode");
        } else if (!in_enc && in_dec) {
          emit_set_drift(holder, f, "Decode", "Encode");
        }
      }
    };
    check_fields(rec);
    for (const Expansion& e : expansions_) {
      if (e.outer == r) check_fields(recs_[e.inner]);
    }

    // Order: compare the last-occurrence sequence of the record's own
    // members in the primary (most-referencing) Encode and Decode.
    const std::vector<std::string> own = OwnFieldNames(rec);
    auto primary = [&](const std::vector<size_t>& set) {
      size_t best = set.front();
      size_t best_count = 0;
      for (size_t f : set) {
        const size_t count = DirectRefs(f, own).size();
        if (count > best_count) {
          best = f;
          best_count = count;
        }
      }
      return best;
    };
    auto sequence = [&](size_t fn_index) {
      const std::map<std::string, size_t> refs = DirectRefs(fn_index, own);
      std::vector<std::pair<size_t, std::string>> ordered;
      for (const auto& [name, offset] : refs) {
        ordered.emplace_back(offset, name);
      }
      std::sort(ordered.begin(), ordered.end());
      std::vector<std::string> seq;
      for (const auto& [offset, name] : ordered) seq.push_back(name);
      return seq;
    };
    const size_t enc_primary = primary(rec.encode_fns);
    const size_t dec_primary = primary(rec.decode_fns);
    std::vector<std::string> enc_seq = sequence(enc_primary);
    std::vector<std::string> dec_seq = sequence(dec_primary);
    // Restrict to members both sides reference; set differences were
    // already reported above.
    auto restrict_to = [](const std::vector<std::string>& seq,
                          const std::vector<std::string>& other) {
      std::set<std::string> keep(other.begin(), other.end());
      std::vector<std::string> out_seq;
      for (const std::string& name : seq) {
        if (keep.count(name) > 0) out_seq.push_back(name);
      }
      return out_seq;
    };
    const std::vector<std::string> enc_common = restrict_to(enc_seq, dec_seq);
    const std::vector<std::string> dec_common = restrict_to(dec_seq, enc_seq);
    if (enc_common != dec_common) {
      auto join = [](const std::vector<std::string>& seq) {
        std::string s;
        for (const std::string& name : seq) {
          s += (s.empty() ? "" : ", ") + name;
        }
        return s;
      };
      EmitFinding(graph_.SourceOf(dec_primary),
                  graph_.fns()[dec_primary].def.name_pos,
                  "encode-decode-drift",
                  rec.def.name + ": " + graph_.Hop(enc_primary) +
                      " orders [" + join(enc_common) + "] but " +
                      graph_.Hop(dec_primary) + " orders [" + join(dec_common) +
                      "]",
                  out);
    }
  }
}

// Rule 3: digest-missing-field — a member absent from EVERY digest
// root's closure. Waivable only for derived/cache fields; the waiver's
// justification comment is the review surface for that policy.
void Analysis::EmitDigestMissingField(std::vector<Finding>* out) const {
  for (size_t r = 0; r < recs_.size(); ++r) {
    const Rec& rec = recs_[r];
    if (rec.digest_fns.empty() || rec.def.kind == "enum") continue;
    const std::vector<std::string> names = ObligationNames(r);
    const std::set<std::string> covered =
        ClosureRefs(rec, rec.digest_fns, names);
    auto check_fields = [&](const Rec& holder, const std::string& via) {
      for (const RecordField& f : holder.def.fields) {
        if (f.is_static || covered.count(f.name) > 0) continue;
        EmitFinding(sources_[holder.src_index], f.name_pos,
                    "digest-missing-field",
                    holder.def.name + "." + f.name + via +
                        " absent from every digest root: " +
                        SetHops(rec.digest_fns),
                    out);
      }
    };
    check_fields(rec, "");
    for (const Expansion& e : expansions_) {
      if (e.outer == r) {
        check_fields(recs_[e.inner],
                     " (embedded via " + rec.def.name + "." + e.via + ")");
      }
    }
  }
}

// Rule 4: unsigned-mutable-field — a member of a signed record read by
// consensus execution (member access reachable from the execution
// roots) but absent from the signing digest's closure.
void Analysis::EmitUnsignedMutableField(std::vector<Finding>* out) const {
  // The execution closure: everything reachable from the execution
  // roots.
  std::vector<size_t> roots;
  for (size_t f = 0; f < fns_.size(); ++f) {
    for (const char* root : kExecutionRoots) {
      if (fns_[f].last == root) roots.push_back(f);
    }
  }
  const std::vector<size_t> exec =
      graph_.Reachable(roots, [](size_t) { return true; });
  if (exec.empty()) return;

  for (size_t r = 0; r < recs_.size(); ++r) {
    const Rec& rec = recs_[r];
    std::vector<size_t> signing;
    for (size_t f : rec.digest_fns) {
      if (fns_[f].last == "SigningDigest") signing.push_back(f);
    }
    if (signing.empty()) continue;
    const std::vector<std::string> names = ObligationNames(r);
    const std::set<std::string> signed_refs =
        ClosureRefs(rec, signing, names);
    for (const RecordField& f : rec.def.fields) {
      if (f.is_static || signed_refs.count(f.name) > 0) continue;
      // Member access (`.name` / `->name`) inside the execution
      // closure counts as an execution read.
      size_t reader = fns_.size();
      size_t read_offset = 0;
      for (size_t e : exec) {
        const liblint::FunctionDef& def = graph_.fns()[e].def;
        const std::string& code = graph_.SourceOf(e).code();
        size_t pos = def.body_open + 1;
        while ((pos = FindIn(code, f.name, pos, def.body_close)) !=
               std::string::npos) {
          const bool dot = pos > 0 && code[pos - 1] == '.';
          const bool arrow = pos > 1 && code[pos - 2] == '-' &&
                             code[pos - 1] == '>';
          if (TokenAt(code, pos, f.name) && (dot || arrow)) {
            reader = e;
            read_offset = pos;
            break;
          }
          pos += f.name.size();
        }
        if (reader != fns_.size()) break;
      }
      if (reader == fns_.size()) continue;
      const Source& fn_src = graph_.SourceOf(reader);
      EmitFinding(sources_[rec.src_index], f.name_pos,
                  "unsigned-mutable-field",
                  rec.def.name + "." + f.name + " read by " +
                      graph_.Hop(reader) + " at " + fn_src.path() + ":" +
                      std::to_string(fn_src.LineOf(read_offset)) +
                      " but absent from the signing closure of " +
                      SetHops(signing),
                  out);
    }
  }
}

liblint::ArtifactMap Analysis::Manifest() const {
  liblint::ArtifactMap out;
  std::set<size_t> extra;  // Expanded records and field-type enums.
  for (size_t r = 0; r < recs_.size(); ++r) {
    const Rec& rec = recs_[r];
    if (!rec.paired() || rec.def.kind == "enum") continue;
    out[rec.def.name] = OwnFieldNames(rec);
    // Enums used as field types: their enumerator lists are part of
    // the wire contract (the stored byte's meaning).
    for (const RecordField& f : rec.def.fields) {
      for (size_t x = 0; x < recs_.size(); ++x) {
        if (recs_[x].def.kind != "enum") continue;
        const std::string token = LastComponent(recs_[x].def.name);
        if (TokenInRange(f.type, 0, f.type.size(), token)) {
          extra.insert(x);
        }
      }
    }
  }
  for (const Expansion& e : expansions_) extra.insert(e.inner);
  for (size_t x : extra) {
    std::vector<std::string> names;
    for (const RecordField& f : recs_[x].def.fields) {
      if (!f.is_static) names.push_back(f.name);
    }
    out[recs_[x].def.name] = std::move(names);
  }
  return out;
}

}  // namespace

liblint::Tool CodeclintPack() {
  liblint::Tool tool;
  tool.name = "codeclint";
  tool.tagline =
      "whole-program field-coverage analysis for codecs, digests, and "
      "signatures";
  tool.rules = kRules;
  tool.rule_count = std::size(kRules);
  tool.scan_program = [](const std::vector<Source>& sources,
                         std::vector<Finding>* out) {
    const Analysis analysis(sources);
    analysis.EmitCodecMissingField(out);
    analysis.EmitEncodeDecodeDrift(out);
    analysis.EmitDigestMissingField(out);
    analysis.EmitUnsignedMutableField(out);
    return analysis.Manifest();
  };
  tool.artifact = liblint::Artifact{"manifest", "records", "fields",
                                    "field-manifest-drift"};
  return tool;
}
