// Unit tests for the shared lint core. All four shardlint packs sit on
// this lexer and driver plumbing, so a regression here would blind
// every pack at once — these tests pin the comment/literal stripper,
// the waiver parser, the stale-waiver pass, the function/call-site
// extraction, the call graph's resolution policy, the
// nondeterminism-source table, the checked-in artifact format (against
// both checked-in files), and the JSON report schema (against a golden
// fixture) directly.

#include "liblint/liblint.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace liblint {
namespace {

// --------------------------- Token utilities ----------------------------

TEST(TokenAtTest, RespectsIdentifierBoundaries) {
  const std::string s = "thread_count threads thread";
  EXPECT_FALSE(TokenAt(s, 0, "thread"));   // thread_count.
  EXPECT_FALSE(TokenAt(s, 13, "thread"));  // threads.
  EXPECT_TRUE(TokenAt(s, 21, "thread"));
}

TEST(TokenAtTest, PunctuationDelimits) {
  const std::string s = "std::rand();";
  EXPECT_TRUE(TokenAt(s, 5, "rand"));
  EXPECT_FALSE(TokenAt(s, 5, "ran"));
}

TEST(MatchTest, AngleBracketsNest) {
  const std::string s = "map<vector<int>, set<long>> x;";
  EXPECT_EQ(MatchAngle(s, 3), 26u);
  EXPECT_EQ(MatchAngle(s, 10), 14u);
}

TEST(MatchTest, AngleBailsAtStatementEnd) {
  const std::string s = "if (a < b) { return; }";
  EXPECT_EQ(MatchAngle(s, 7), std::string::npos);
}

TEST(MatchTest, AdjacentAngleClosersResolveInnerAndOuter) {
  //                   0123456789012345678
  const std::string s = "vector<vector<int>> x;";
  EXPECT_EQ(MatchAngle(s, 6), 18u);   // Outer closes on the second '>'.
  EXPECT_EQ(MatchAngle(s, 13), 17u);  // Inner closes on the first.
  const std::string deep = "map<int, vector<pair<int, int>>> m;";
  EXPECT_EQ(MatchAngle(deep, 3), 31u);
}

TEST(MatchTest, ParensAndBracesNest) {
  const std::string s = "f(g(h(1)), [] { return 0; })";
  EXPECT_EQ(MatchParen(s, 1), 27u);
  EXPECT_EQ(MatchParen(s, 3), 8u);
  const std::string b = "{ if (x) { y(); } }";
  EXPECT_EQ(MatchBrace(b, 0), 18u);
  EXPECT_EQ(MatchBrace(b, 9), 16u);
}

// ----------------------------- Stripping --------------------------------

TEST(SourceTest, BlanksLineAndBlockComments) {
  Source src("t.cc", "int a; // std::rand()\nint b; /* time(0) */ int c;\n",
             "tool");
  EXPECT_EQ(src.code().find("rand"), std::string::npos);
  EXPECT_EQ(src.code().find("time"), std::string::npos);
  // Code outside comments survives, offsets preserved.
  EXPECT_NE(src.code().find("int a;"), std::string::npos);
  EXPECT_NE(src.code().find("int c;"), std::string::npos);
  EXPECT_EQ(src.code().size(), src.raw().size());
}

TEST(SourceTest, BlanksStringAndCharLiterals) {
  Source src("t.cc", "auto s = \"std::rand()\"; char c = 'r';\n", "tool");
  EXPECT_EQ(src.code().find("rand"), std::string::npos);
  EXPECT_EQ(src.code().find("'r'"), std::string::npos);
  // The quotes themselves survive so offsets line up.
  EXPECT_NE(src.code().find('"'), std::string::npos);
}

TEST(SourceTest, BlanksRawStrings) {
  Source src("t.cc", "auto s = R\"(srand(1) \" unbalanced)\";\nint x;\n",
             "tool");
  EXPECT_EQ(src.code().find("srand"), std::string::npos);
  EXPECT_NE(src.code().find("int x;"), std::string::npos);
}

TEST(SourceTest, BlanksRawStringsWithCustomDelimiters) {
  // A plain )" inside the literal must NOT close it — only )xy" does.
  Source src("t.cc",
             "auto s = R\"xy(rand() )\" still inside)xy\";\nint x;\n",
             "tool");
  EXPECT_EQ(src.code().find("rand"), std::string::npos);
  EXPECT_EQ(src.code().find("still inside"), std::string::npos);
  EXPECT_NE(src.code().find("int x;"), std::string::npos);
}

TEST(SourceTest, BackslashContinuedLineCommentKeepsBlanking) {
  // The comment logically continues onto the next physical line
  // ([lex.phases] splicing): the continuation is comment text, not
  // code, so the scanner must not see the rand() call.
  Source src("t.cc",
             "int a; // comment continues \\\n"
             "rand(); still comment\n"
             "int b;\n",
             "tool");
  EXPECT_EQ(src.code().find("rand"), std::string::npos);
  EXPECT_NE(src.code().find("int a;"), std::string::npos);
  EXPECT_NE(src.code().find("int b;"), std::string::npos);
}

TEST(SourceTest, CrLfBackslashContinuationAlsoContinues) {
  Source src("t.cc",
             "int a; // comment \\\r\n"
             "srand(1); still comment\r\n"
             "int b;\n",
             "tool");
  EXPECT_EQ(src.code().find("srand"), std::string::npos);
  EXPECT_NE(src.code().find("int b;"), std::string::npos);
}

TEST(SourceTest, DigitSeparatorIsNotACharLiteral) {
  Source src("t.cc", "int n = 1'000'000; rand();\n", "tool");
  // If 1'000'000 were lexed as char literals the call would vanish.
  EXPECT_NE(src.code().find("rand"), std::string::npos);
}

TEST(SourceTest, LineOfAndLineText) {
  Source src("t.cc", "first\n  second line  \nthird\n", "tool");
  EXPECT_EQ(src.LineOf(0), 1u);
  EXPECT_EQ(src.LineOf(6), 2u);
  EXPECT_EQ(src.LineText(2), "second line");
  EXPECT_EQ(src.LineText(99), "");
}

// --------------------------- Waiver parsing -----------------------------

TEST(SourceTest, ParsesWaiverLists) {
  Source src("t.cc",
             "// tool:allow(rule-a, rule-b): reason\n"
             "int x; // tool:allow(rule-c)\n"
             "/* tool:allow(*) */ int y;\n",
             "tool");
  ASSERT_EQ(src.waivers().size(), 3u);
  EXPECT_TRUE(src.waivers().at(1).count("rule-a"));
  EXPECT_TRUE(src.waivers().at(1).count("rule-b"));
  EXPECT_TRUE(src.waivers().at(2).count("rule-c"));
  EXPECT_TRUE(src.waivers().at(3).count("*"));
}

TEST(SourceTest, SuppressionCoversSameLineAndLineAbove) {
  Source src("t.cc",
             "// tool:allow(rule-a)\n"
             "int x;\n"
             "int y;\n",
             "tool");
  EXPECT_TRUE(src.Suppressed(1, "rule-a"));
  EXPECT_TRUE(src.Suppressed(2, "rule-a"));   // Line above carries it.
  EXPECT_FALSE(src.Suppressed(3, "rule-a"));
  EXPECT_FALSE(src.Suppressed(2, "rule-b"));  // Other rules unaffected.
}

TEST(SourceTest, WildcardSuppressesEverything) {
  Source src("t.cc", "int x; // tool:allow(*)\n", "tool");
  EXPECT_TRUE(src.Suppressed(1, "anything"));
}

TEST(SourceTest, OtherToolsTagIsIgnored) {
  Source src("t.cc", "int x; // othertool:allow(rule-a)\n", "tool");
  EXPECT_FALSE(src.Suppressed(1, "rule-a"));
}

TEST(SourceTest, WaiverOnContinuedCommentLineRegistersWhereItSits) {
  // The allow() tag sits on the CONTINUATION line of a backslash-
  // continued comment; it must register on line 2 (its own line), not
  // line 1 (where the comment began), so it suppresses findings on
  // lines 2 and 3.
  Source src("t.cc",
             "int a; // see below \\\n"
             "tool:allow(rule-a): waiver on a continued line\n"
             "int b;\n",
             "tool");
  ASSERT_EQ(src.waivers().size(), 1u);
  EXPECT_TRUE(src.waivers().count(2));
  EXPECT_TRUE(src.Suppressed(2, "rule-a"));
  EXPECT_TRUE(src.Suppressed(3, "rule-a"));
  EXPECT_FALSE(src.Suppressed(1, "rule-a"));
}

TEST(SourceTest, WaiverInMultiLineBlockCommentRegistersOnItsOwnLine) {
  Source src("t.cc",
             "/* prose\n"
             "   tool:allow(rule-a)\n"
             "   more prose */\n"
             "int x;\n",
             "tool");
  ASSERT_EQ(src.waivers().size(), 1u);
  EXPECT_TRUE(src.waivers().count(2));
  EXPECT_TRUE(src.Suppressed(3, "rule-a"));
}

// --------------------------- Stale waivers ------------------------------

TEST(CheckWaiversTest, UsedWaiversAreSilent) {
  Source src("t.cc",
             "// tool:allow(rule-a)\n"
             "int x;\n",
             "tool");
  std::vector<Finding> findings;
  EmitFinding(src, 22, "rule-a", &findings);  // Offset inside line 2.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
  std::vector<Finding> out;
  CheckWaivers(src, findings, &out);
  EXPECT_TRUE(out.empty());
}

TEST(CheckWaiversTest, UnusedWaiverBecomesStaleFinding) {
  Source src("t.cc",
             "// tool:allow(rule-a, rule-b)\n"
             "int x;\n",
             "tool");
  std::vector<Finding> findings;
  EmitFinding(src, 30, "rule-a", &findings);  // rule-b suppresses nothing.
  std::vector<Finding> out;
  CheckWaivers(src, findings, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, kStaleWaiverRule);
  EXPECT_EQ(out[0].line, 1u);
  EXPECT_FALSE(out[0].suppressed);
  EXPECT_NE(out[0].snippet.find("rule-b"), std::string::npos);
}

TEST(CheckWaiversTest, WaiverWithNoFindingsAtAllIsStale) {
  Source src("t.cc", "int x; // tool:allow(rule-a)\n", "tool");
  std::vector<Finding> out;
  CheckWaivers(src, {}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, kStaleWaiverRule);
}

TEST(CheckWaiversTest, WildcardUsedByAnyAdjacentFinding) {
  Source src("t.cc",
             "// tool:allow(*)\n"
             "int x;\n",
             "tool");
  std::vector<Finding> findings;
  EmitFinding(src, 17, "whatever", &findings);
  std::vector<Finding> out;
  CheckWaivers(src, findings, &out);
  EXPECT_TRUE(out.empty());
}

// --------------------- Function & call extraction -----------------------

std::vector<std::string> FunctionNames(const Source& src) {
  std::vector<std::string> names;
  for (const FunctionDef& fn : ExtractFunctions(src)) {
    names.push_back(fn.name);
  }
  return names;
}

TEST(ExtractFunctionsTest, FindsFreeAndQualifiedDefinitions) {
  Source src("t.cc",
             "uint64_t Mix(uint64_t h) { return h * 3; }\n"
             "Block Ledger::BuildBlock(const Address& a,\n"
             "                         uint64_t ts) const {\n"
             "  return Block{};\n"
             "}\n",
             "tool");
  const std::vector<FunctionDef> fns = ExtractFunctions(src);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].name, "Mix");
  EXPECT_EQ(fns[1].name, "Ledger::BuildBlock");
  EXPECT_EQ(src.LineOf(fns[1].name_pos), 2u);
  EXPECT_LT(fns[1].body_open, fns[1].body_close);
}

TEST(ExtractFunctionsTest, QualifiesInlineMembersWithClassScope) {
  Source src("t.cc",
             "class StateDB {\n"
             " public:\n"
             "  size_t Snapshot() { return 1; }\n"
             "  struct Cursor {\n"
             "    void Next() { ++i_; }\n"
             "    int i_ = 0;\n"
             "  };\n"
             "};\n",
             "tool");
  const std::vector<std::string> names = FunctionNames(src);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "StateDB::Snapshot");
  EXPECT_EQ(names[1], "StateDB::Cursor::Next");
}

TEST(ExtractFunctionsTest, AscendsThroughConstructorInitializerLists) {
  Source src("t.cc",
             "Pool::Pool(size_t n, Config c)\n"
             "    : threads_(n), config_{std::move(c)} {\n"
             "  Start();\n"
             "}\n",
             "tool");
  const std::vector<std::string> names = FunctionNames(src);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "Pool::Pool");
}

TEST(ExtractFunctionsTest, SkipsControlFlowLambdasAndClassBodies) {
  Source src("t.cc",
             "void Walk(int n) {\n"
             "  if (n > 0) { n = -n; }\n"
             "  for (int i = 0; i < n; ++i) { Touch(i); }\n"
             "  auto f = [n](int x) { return x + n; };\n"
             "  while (n < 0) { ++n; }\n"
             "}\n"
             "struct Tag {};\n",
             "tool");
  // Only Walk itself: control blocks and the lambda body are not
  // function definitions, and Tag{} has no parameter list.
  EXPECT_EQ(FunctionNames(src), std::vector<std::string>{"Walk"});
}

TEST(ExtractCallSitesTest, FindsCallsWithQualifiersAndTemplateArgs) {
  Source src("t.cc",
             "void F() {\n"
             "  PackCandidates(h);\n"
             "  std::chrono::system_clock::now();\n"
             "  obj.Snapshot();\n"
             "  Make<Block>(1);\n"
             "  if (x) { return; }\n"
             "  static_cast<uint64_t>(y);\n"
             "}\n",
             "tool");
  std::vector<std::string> callees;
  for (const CallSite& call :
       ExtractCallSites(src, 0, src.code().size())) {
    callees.push_back(call.callee);
  }
  // if/static_cast are filtered; member calls record the member name;
  // the template argument list between name and '(' is skipped. (`F`
  // itself is a declaration-followed-by-paren and shows up too — the
  // extraction over-approximates and resolution discards unknowns.)
  const std::vector<std::string> expected = {
      "F", "PackCandidates", "std::chrono::system_clock::now", "Snapshot",
      "Make"};
  EXPECT_EQ(callees, expected);
}

// ------------------------------ Call graph ------------------------------

// Callee names of `caller`'s edges, in edge order.
std::vector<std::string> Callees(const CallGraph& graph,
                                 const std::string& caller) {
  std::vector<std::string> out;
  for (size_t i : graph.Named(caller)) {
    for (const CallEdge& e : graph.fns()[i].edges) {
      out.push_back(graph.fns()[e.callee].def.name);
    }
  }
  return out;
}

using Names = std::vector<std::string>;

TEST(CallGraphTest, ResolutionPolicy) {
  const std::vector<Source> sources = {Source(
      "t.cc",
      "void sort(int* v) {}\n"
      "void A::Go() {}\n"
      "void B::Go() {}\n"
      "void Leaf() { std::sort(v); }\n"
      "void Qualified() { B::Go(); }\n"
      "void A::Member() { Go(); }\n"
      "void Free() { Go(); }\n",
      "tool")};
  const CallGraph graph(sources);
  EXPECT_EQ(Callees(graph, "Leaf"), Names{});  // std:: stays a leaf.
  EXPECT_EQ(Callees(graph, "Qualified"), Names{"B::Go"});
  EXPECT_EQ(Callees(graph, "A::Member"), Names{"A::Go"});  // Own class.
  EXPECT_EQ(Callees(graph, "Free"), (Names{"A::Go", "B::Go"}));
}

TEST(CallGraphTest, ReceiverTypedByParameterResolvesToItsType) {
  const std::vector<Source> sources = {Source(
      "t.cc",
      "void Pool::Run(int n) {}\n"
      "void Pipeline::Run() {}\n"
      "void Ptr(Pool* pool) { pool->Run(1); }\n"
      "void Ref(const Pool& pool, int n = 2) { pool.Run(n); }\n"
      "void Unindexed(Other* o) { o->Run(); }\n"
      "void Local() { Pool* p = Get(); p->Run(3); }\n"
      "void Pipeline::Step(Pool* pool) { pool->Run(4); Run(); }\n",
      "tool")};
  const CallGraph graph(sources);
  EXPECT_EQ(Callees(graph, "Ptr"), Names{"Pool::Run"});
  EXPECT_EQ(Callees(graph, "Ref"), Names{"Pool::Run"});
  // No indexed Other::Run, or a receiver that is not a parameter: the
  // last-component fallback still applies.
  EXPECT_EQ(Callees(graph, "Unindexed"),
            (Names{"Pool::Run", "Pipeline::Run"}));
  EXPECT_EQ(Callees(graph, "Local"), (Names{"Pool::Run", "Pipeline::Run"}));
  // The typed receiver beats the caller's own class; a bare call still
  // prefers it.
  EXPECT_EQ(Callees(graph, "Pipeline::Step"),
            (Names{"Pool::Run", "Pipeline::Run"}));
}

TEST(CallGraphTest, HopNamesFileAndLine) {
  const std::vector<Source> sources = {
      Source("f.cc", "\nvoid Mix() {}\n", "tool")};
  const CallGraph graph(sources);
  EXPECT_EQ(graph.Hop(graph.Named("Mix").front()), "Mix (f.cc:2)");
}

// -------------------- Nondeterminism-source table -----------------------

std::vector<const NondetSource*> Matches(const std::string& text) {
  const Source src("t.cc", text, "tool");
  std::vector<const NondetSource*> out;
  MatchSources(src.code(), 0, src.code().size(), kNondetSources,
               std::size(kNondetSources),
               [&](const NondetSource& row, size_t) { out.push_back(&row); });
  return out;
}

TEST(NondetSourcesTest, BuildStampsSeedFlowlintWallClock) {
  const auto rows = Matches("const char* built = __DATE__ \" \" __TIME__;\n");
  ASSERT_EQ(rows.size(), 2u);
  for (const NondetSource* row : rows) {
    EXPECT_STREQ(row->taint, "nondet:wall-clock");
    EXPECT_STREQ(row->detlint_rule, "wall-clock");
  }
}

TEST(NondetSourcesTest, EnvAndThreadCountAreFlowlintOnly) {
  const auto rows = Matches(
      "auto h = getenv(\"HOME\");\n"
      "auto n = std::thread::hardware_concurrency();\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_STREQ(rows[0]->taint, "nondet:env");
  EXPECT_STREQ(rows[1]->taint, "nondet:hw-threads");
  EXPECT_EQ(rows[0]->detlint_rule, nullptr);
  EXPECT_EQ(rows[1]->detlint_rule, nullptr);
}

TEST(NondetSourcesTest, CallRowsNeedAParenAndSkipMembers) {
  // `obj.time()` is a method; `time` without '(' is a name; std::rand()
  // is the libc call.
  const auto rows = Matches("obj.time(); int time = 0; std::rand();\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_STREQ(rows[0]->token, "rand");
}

TEST(PointerKeyedContainersTest, FlagsPointerKeysOnly) {
  const std::string code =
      "std::map<Node*, int> a; std::set<int> b; "
      "std::multiset<const T *> c; std::map<int, Node*> d;";
  const std::vector<size_t> offsets =
      PointerKeyedContainers(code, 0, code.size());
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(code.substr(offsets[0], 4), "map<");
  EXPECT_EQ(code.substr(offsets[1], 9), "multiset<");
}

// --------------------------- Record extraction ---------------------------

TEST(ExtractRecordsTest, FindsFieldsTypesAndDefaults) {
  Source src("t.cc",
             "struct Transaction {\n"
             "  Address sender;\n"
             "  uint64_t value = 0;\n"
             "  std::vector<uint8_t> payload;\n"
             "  std::map<Address, Account> touched{};\n"
             "  uint8_t bytes[32];\n"
             "  Hash256 Id() const;\n"
             "  bool operator==(const Transaction& o) const;\n"
             "};\n",
             "tool");
  const std::vector<RecordDef> recs = ExtractRecords(src);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "Transaction");
  EXPECT_EQ(recs[0].kind, "struct");
  ASSERT_EQ(recs[0].fields.size(), 5u);
  EXPECT_EQ(recs[0].fields[0].name, "sender");
  EXPECT_EQ(recs[0].fields[0].type, "Address");
  EXPECT_EQ(recs[0].fields[1].name, "value");
  EXPECT_EQ(recs[0].fields[1].init, "= 0");
  EXPECT_EQ(recs[0].fields[2].name, "payload");
  EXPECT_EQ(recs[0].fields[2].type, "std::vector<uint8_t>");
  EXPECT_EQ(recs[0].fields[3].name, "touched");
  EXPECT_EQ(recs[0].fields[3].type, "std::map<Address, Account>");
  EXPECT_EQ(recs[0].fields[4].name, "bytes");
}

TEST(ExtractRecordsTest, TracksAccessStaticAndMutable) {
  Source src("t.cc",
             "class Account {\n"
             " public:\n"
             "  uint64_t balance = 0;\n"
             "  static constexpr size_t kMax = 5;\n"
             " private:\n"
             "  mutable Hash256 digest_cache_;\n"
             "  mutable bool digest_valid_ = false;\n"
             "};\n",
             "tool");
  const std::vector<RecordDef> recs = ExtractRecords(src);
  ASSERT_EQ(recs.size(), 1u);
  ASSERT_EQ(recs[0].fields.size(), 4u);
  EXPECT_FALSE(recs[0].fields[0].is_private);
  EXPECT_TRUE(recs[0].fields[1].is_static);
  EXPECT_TRUE(recs[0].fields[2].is_mutable);
  EXPECT_TRUE(recs[0].fields[2].is_private);
  EXPECT_TRUE(recs[0].fields[3].is_mutable);
  EXPECT_EQ(recs[0].fields[3].init, "= false");
}

TEST(ExtractRecordsTest, QualifiesNestedRecordsAndSkipsTheirMembers) {
  Source src("t.cc",
             "struct Outer {\n"
             "  struct Inner {\n"
             "    int depth = 0;\n"
             "  };\n"
             "  Inner inner;\n"
             "  int top = 1;\n"
             "};\n",
             "tool");
  const std::vector<RecordDef> recs = ExtractRecords(src);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name, "Outer");
  ASSERT_EQ(recs[0].fields.size(), 2u);
  EXPECT_EQ(recs[0].fields[0].name, "inner");
  EXPECT_EQ(recs[0].fields[1].name, "top");
  EXPECT_EQ(recs[1].name, "Outer::Inner");
  ASSERT_EQ(recs[1].fields.size(), 1u);
  EXPECT_EQ(recs[1].fields[0].name, "depth");
}

TEST(ExtractRecordsTest, ExtractsScopedEnumsWithEnumerators) {
  Source src("t.cc",
             "enum class TxKind : uint8_t {\n"
             "  kTransfer = 0,\n"
             "  kDeploy = 1,\n"
             "  kCall,\n"
             "};\n",
             "tool");
  const std::vector<RecordDef> recs = ExtractRecords(src);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "TxKind");
  EXPECT_EQ(recs[0].kind, "enum");
  ASSERT_EQ(recs[0].fields.size(), 3u);
  EXPECT_EQ(recs[0].fields[0].name, "kTransfer");
  EXPECT_EQ(recs[0].fields[0].init, "= 0");
  EXPECT_EQ(recs[0].fields[2].name, "kCall");
  EXPECT_EQ(recs[0].fields[2].init, "");
}

TEST(ExtractRecordsTest, SkipsMethodsCtorsAndNonFieldDeclarations) {
  Source src("t.cc",
             "class Pool {\n"
             " public:\n"
             "  Pool(size_t n, Config c)\n"
             "      : threads_(n), config_{std::move(c)} {\n"
             "    Start();\n"
             "  }\n"
             "  ~Pool();\n"
             "  using Map = std::map<int, int>;\n"
             "  friend class Inspector;\n"
             "  Status Add(const Tx& tx);\n"
             "  int Size() const { return n_; }\n"
             " private:\n"
             "  size_t n_ = 0;\n"
             "  std::function<void(int)> on_drop_;\n"
             "};\n",
             "tool");
  const std::vector<RecordDef> recs = ExtractRecords(src);
  ASSERT_EQ(recs.size(), 1u);
  ASSERT_EQ(recs[0].fields.size(), 2u);
  EXPECT_EQ(recs[0].fields[0].name, "n_");
  EXPECT_EQ(recs[0].fields[1].name, "on_drop_");
  EXPECT_EQ(recs[0].fields[1].type, "std::function<void(int)>");
}

TEST(ExtractRecordsTest, ForwardDeclarationsAndTemplatesDoNotConfuse) {
  Source src("t.cc",
             "struct Fwd;\n"
             "template <class T>\n"
             "struct Holder {\n"
             "  T item;\n"
             "};\n",
             "tool");
  const std::vector<RecordDef> recs = ExtractRecords(src);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].name, "Holder");
  ASSERT_EQ(recs[0].fields.size(), 1u);
  EXPECT_EQ(recs[0].fields[0].name, "item");
}

// ------------------------------ Reports ---------------------------------

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The JSON schema is an interface to CI artifact consumers; pin the
// exact bytes against a golden fixture.
TEST(WriteReportTest, MatchesGoldenFixture) {
  std::vector<Finding> findings;
  Finding a;
  a.file = "src/core/example.cc";
  a.line = 12;
  a.rule = "wall-clock";
  a.snippet = "auto t = std::time(nullptr);";
  a.suppressed = false;
  Finding b;
  b.file = "src/net/\"quoted\".h";
  b.line = 3;
  b.rule = "stale-waiver";
  b.snippet = "allow(std-rand) suppresses no finding: int x;";
  b.suppressed = true;
  Finding c;
  c.file = "src/chain/ledger.cc";
  c.line = 140;
  c.rule = "consensus-reaches-nondet";
  c.snippet = "Block Ledger::BuildBlock(...) {";
  c.suppressed = false;
  c.chain =
      "Ledger::BuildBlock (src/chain/ledger.cc:140) → "
      "PackCandidates (src/chain/ledger.cc:95) → "
      "system_clock [nondet:wall-clock] (src/chain/ledger.cc:97)";
  findings.push_back(a);
  findings.push_back(b);
  findings.push_back(c);

  const std::string path = ::testing::TempDir() + "/liblint_report.json";
  ASSERT_TRUE(WriteReport(path, "testtool", findings, 7, 2));
  EXPECT_EQ(ReadFile(path),
            ReadFile(std::string(LIBLINT_TESTDATA_DIR) +
                     "/golden_report.json"));
  std::remove(path.c_str());
}

// ------------------------- Checked-in artifacts -------------------------

const Artifact kSummaries{"summaries", "functions", "taints",
                          "taint-summary-drift"};
const Artifact kManifest{"manifest", "records", "fields",
                         "field-manifest-drift"};

// Both checked-in artifacts parse and re-format to their exact bytes.
TEST(ArtifactTest, CheckedInFilesRoundTripByteForByte) {
  for (const auto& [tool, artifact, file] :
       {std::tuple{"flowlint", &kSummaries, "/flowlint/summaries.json"},
        std::tuple{"codeclint", &kManifest, "/codeclint/fields.json"}}) {
    const std::string text = ReadFile(std::string(LIBLINT_TOOLS_DIR) + file);
    ArtifactMap map;
    ASSERT_TRUE(ParseArtifact(text, *artifact, &map)) << file;
    EXPECT_GT(map.size(), 10u) << file;
    EXPECT_EQ(FormatArtifact(tool, *artifact, map), text) << file;
  }
}

TEST(ArtifactTest, DeletedEntryIsExactlyOneDriftFinding) {
  const ArtifactMap computed = {{"Block", {"header", "transactions"}},
                                {"Receipt", {"amount", "fee"}}};
  ArtifactMap recorded = computed;
  recorded.erase("Receipt");
  const std::string path = ::testing::TempDir() + "/liblint_fields.json";
  {
    std::ofstream out(path);
    out << FormatArtifact("codeclint", kManifest, recorded);
  }
  std::vector<Finding> findings;
  CheckArtifactDrift(path, kManifest, computed, &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "field-manifest-drift");
  EXPECT_EQ(findings[0].file, path);
  EXPECT_FALSE(findings[0].suppressed);
  EXPECT_NE(findings[0].snippet.find("\"Receipt\""), std::string::npos);

  findings.clear();
  CheckArtifactDrift(path, kManifest, recorded, &findings);
  EXPECT_TRUE(findings.empty());
  std::remove(path.c_str());
}

TEST(WriteReportTest, EmptyFindingsStillWellFormed) {
  const std::string path = ::testing::TempDir() + "/liblint_empty.json";
  ASSERT_TRUE(WriteReport(path, "testtool", {}, 0, 0));
  const std::string report = ReadFile(path);
  EXPECT_NE(report.find("\"findings\": []"), std::string::npos);
  EXPECT_NE(report.find("\"tool\": \"testtool\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace liblint
