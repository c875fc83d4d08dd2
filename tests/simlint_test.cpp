// Tests for the simlint static analyzer (tools/simlint): each rule on
// inline snippets, the suppression grammar, rule selection, and golden
// findings over the known-bad / known-good fixture corpora.
//
// SIMLINT_FIXTURE_DIR is injected by CMake and points at
// tests/simlint_fixtures in the source tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "simlint.hpp"

using simlint::Finding;
using simlint::Options;

namespace {

// Lint @p text as if it were a file at @p path (path decides scoping:
// no-wallclock fires only under a src/ component).
std::vector<Finding>
lint(const std::string &text, const std::string &path = "src/x.cpp",
     std::size_t *suppressed = nullptr)
{
    return simlint::lintText(path, text, "", Options{}, suppressed);
}

std::vector<std::string>
rulesOf(const std::vector<Finding> &fs)
{
    std::vector<std::string> out;
    for (const Finding &f : fs)
        out.push_back(f.rule);
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// no-wallclock
// ---------------------------------------------------------------------

TEST(SimlintWallclock, FlagsChronoClocksAndLibcTime)
{
    auto fs = lint("#include <chrono>\n"
                   "auto t = std::chrono::steady_clock::now();\n"
                   "long u = time(nullptr);\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "no-wallclock");
    EXPECT_EQ(fs[0].line, 2);
    EXPECT_EQ(fs[1].line, 3);
}

TEST(SimlintWallclock, OnlyAppliesUnderSrc)
{
    std::string text = "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_EQ(lint(text, "src/a.cpp").size(), 1u);
    EXPECT_EQ(lint(text, "bench/a.cpp").size(), 0u);
    EXPECT_EQ(lint(text, "tests/a.cpp").size(), 0u);
}

TEST(SimlintWallclock, MemberNamedClockIsNotLibcClock)
{
    // t.clock() / obj.time() are member accessors, not wallclock.
    auto fs = lint("void f(Tracer &t) { auto c = t.clock(); }\n"
                   "void g(Obj *o) { o->time(); }\n");
    EXPECT_TRUE(fs.empty());
}

TEST(SimlintWallclock, RandomnessIsFlagged)
{
    auto fs = lint("std::random_device rd;\n"
                   "int x = rand();\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(rulesOf(fs),
              (std::vector<std::string>{"no-wallclock", "no-wallclock"}));
}

// ---------------------------------------------------------------------
// no-unordered-iteration
// ---------------------------------------------------------------------

TEST(SimlintUnordered, FlagsRangeForOverDeclaredMember)
{
    auto fs = lint("#include <unordered_map>\n"
                   "std::unordered_map<int, int> m;\n"
                   "int sum() {\n"
                   "    int s = 0;\n"
                   "    for (const auto &[k, v] : m)\n"
                   "        s += v;\n"
                   "    return s;\n"
                   "}\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "no-unordered-iteration");
    EXPECT_EQ(fs[0].line, 5);
}

TEST(SimlintUnordered, FlagsBeginButNotFindEndIdiom)
{
    auto fs = lint("#include <unordered_set>\n"
                   "std::unordered_set<int> s;\n"
                   "bool has(int k) { return s.find(k) != s.end(); }\n"
                   "auto first() { return s.begin(); }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].line, 4);
}

TEST(SimlintUnordered, LearnsTypeFromSiblingHeader)
{
    std::string header = "#include <unordered_map>\n"
                         "struct T { std::unordered_map<int,int> m_; };\n";
    std::string source = "int f(T &t) {\n"
                         "    int s = 0;\n"
                         "    for (auto &kv : t.m_) s += kv.second;\n"
                         "    return s;\n"
                         "}\n";
    auto fs = simlint::lintText("src/t.cpp", source, header, Options{});
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "no-unordered-iteration");
}

// ---------------------------------------------------------------------
// explicit-capture
// ---------------------------------------------------------------------

TEST(SimlintCapture, FlagsDefaultCapturesPassedToScheduler)
{
    auto fs = lint("void f(Q &eq) {\n"
                   "    int x = 0;\n"
                   "    eq.scheduleAt(t, [&]() { ++x; });\n"
                   "    eq.scheduleIn(d, [=]() { (void)x; });\n"
                   "    eq.scheduleAt(t, [&, x]() { (void)x; });\n"
                   "}\n");
    ASSERT_EQ(fs.size(), 3u);
    for (const Finding &f : fs)
        EXPECT_EQ(f.rule, "explicit-capture");
}

TEST(SimlintCapture, ExplicitCapturesAndOtherCallsAreFine)
{
    auto fs = lint("void f(Q &eq) {\n"
                   "    int x = 0;\n"
                   "    eq.scheduleAt(t, [&x]() { ++x; });\n"
                   "    eq.scheduleAt(t, [this, x]() { use(x); });\n"
                   "    other.forEach([&]() { ++x; });\n"
                   "}\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------

TEST(SimlintHotAlloc, FlagsAllocOnlyInsideAnnotatedFunction)
{
    auto fs = lint("// simlint: hot\n"
                   "void hot(V &v) {\n"
                   "    v.push_back(1);\n"
                   "    auto *p = new int(2);\n"
                   "}\n"
                   "void cold(V &v) {\n"
                   "    v.push_back(3);\n"
                   "    auto q = std::make_unique<int>(4);\n"
                   "}\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "hot-path-alloc");
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_EQ(fs[1].line, 4);
}

TEST(SimlintHotAlloc, HotRegionEndsAtClosingBrace)
{
    auto fs = lint("// simlint: hot\n"
                   "void hot() { int x = 1; (void)x; }\n"
                   "void after(V &v) { v.resize(10); }\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// fluid-boundary
// ---------------------------------------------------------------------

TEST(SimlintFluidBoundary, FlagsLedgerMentionOutsideFluidCore)
{
    auto fs = lint("void f() {\n"
                   "    sim::FlowLedger *l = sim::fluidLedger();\n"
                   "    l->onSend(0, now);\n"
                   "}\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "fluid-boundary");
    EXPECT_EQ(fs[0].line, 2);
    EXPECT_EQ(fs[1].line, 2);
}

TEST(SimlintFluidBoundary, SettleAnnotationBlessesTheFunctionBody)
{
    auto fs = lint("// simlint: fluid-settle\n"
                   "void hook() {\n"
                   "    sim::FlowLedger *l = sim::fluidLedger();\n"
                   "    l->warpBy(dt);\n"
                   "}\n"
                   "void rogue() {\n"
                   "    sim::fluidLedger()->warpBy(dt);\n"
                   "}\n");
    ASSERT_EQ(fs.size(), 2u);
    EXPECT_EQ(fs[0].rule, "fluid-boundary");
    EXPECT_EQ(fs[0].line, 7);
    EXPECT_EQ(fs[1].line, 7);
}

TEST(SimlintFluidBoundary, FluidCoreAndNonSrcAreOutOfScope)
{
    std::string text = "void f() { sim::fluidLedger()->warpBy(dt); }\n";
    EXPECT_EQ(lint(text, "src/guest/x.cpp").size(), 2u);
    EXPECT_TRUE(lint(text, "src/sim/fluid.cpp").empty());
    EXPECT_TRUE(lint(text, "src/core/warp_coordinator.cpp").empty());
    EXPECT_TRUE(lint(text, "tests/fluid_test.cpp").empty());
}

TEST(SimlintFluidBoundary, TransitionReportsAreNotPoliced)
{
    // Forcing exact mode is always conservative — components may
    // report transitions freely.
    auto fs = lint(
        "void f() {\n"
        "    sim::fluidTransitionAll(sim::FluidTransition::Drop);\n"
        "}\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

TEST(SimlintSuppress, AllowOnSameOrPreviousLineSilences)
{
    std::size_t suppressed = 0;
    auto fs =
        lint("// simlint:allow(no-wallclock): host-side timing only\n"
             "auto a = std::chrono::steady_clock::now();\n"
             "auto b = std::chrono::steady_clock::now(); "
             "// simlint:allow(no-wallclock): host-side timing only\n",
             "src/x.cpp", &suppressed);
    EXPECT_TRUE(fs.empty());
    EXPECT_EQ(suppressed, 2u);
}

TEST(SimlintSuppress, TwoLinesAboveDoesNotReach)
{
    auto fs = lint("// simlint:allow(no-wallclock): too far away\n"
                   "int gap;\n"
                   "auto t = std::chrono::steady_clock::now();\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "no-wallclock");
}

TEST(SimlintSuppress, MissingReasonIsItselfAFinding)
{
    auto fs = lint("// simlint:allow(no-wallclock)\n"
                   "auto t = std::chrono::steady_clock::now();\n");
    auto rules = rulesOf(fs);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "bad-suppression"),
              rules.end());
    // The malformed directive does not silence the finding either.
    EXPECT_NE(std::find(rules.begin(), rules.end(), "no-wallclock"),
              rules.end());
}

TEST(SimlintSuppress, UnknownRuleNameIsAFinding)
{
    auto fs = lint("// simlint:allow(no-such-rule): reason\n"
                   "int x;\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "bad-suppression");
}

TEST(SimlintSuppress, AllowListCanNameSeveralRules)
{
    std::size_t suppressed = 0;
    auto fs = lint(
        "// simlint:allow(no-wallclock,no-unordered-iteration): both\n"
        "auto t = std::chrono::steady_clock::now();\n",
        "src/x.cpp", &suppressed);
    EXPECT_TRUE(fs.empty());
    EXPECT_EQ(suppressed, 1u);
}

// ---------------------------------------------------------------------
// Rule selection
// ---------------------------------------------------------------------

TEST(SimlintRules, AllRulesAreKnown)
{
    for (const std::string &r : simlint::allRules())
        EXPECT_TRUE(simlint::knownRule(r)) << r;
    EXPECT_FALSE(simlint::knownRule("no-such-rule"));
}

TEST(SimlintRules, SelectionRestrictsFindings)
{
    std::string text = "void f(Q &eq) {\n"
                       "    auto t = std::chrono::steady_clock::now();\n"
                       "    eq.scheduleAt(t, [&]() {});\n"
                       "}\n";
    Options only_capture;
    only_capture.rules = {"explicit-capture"};
    auto fs = simlint::lintText("src/x.cpp", text, "", only_capture);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "explicit-capture");

    Options only_wallclock;
    only_wallclock.rules = {"no-wallclock"};
    fs = simlint::lintText("src/x.cpp", text, "", only_wallclock);
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].rule, "no-wallclock");
}

// ---------------------------------------------------------------------
// Lexer robustness
// ---------------------------------------------------------------------

TEST(SimlintLexer, IgnoresCommentsStringsAndPreprocessor)
{
    auto fs = lint("// std::chrono::steady_clock::now() in a comment\n"
                   "/* rand() in a block comment */\n"
                   "const char *s = \"time(nullptr)\";\n"
                   "#define NOW std::chrono::steady_clock::now()\n"
                   "R\"(raw rand() string)\";\n");
    EXPECT_TRUE(fs.empty());
}

// ---------------------------------------------------------------------
// Fixture corpora (golden findings)
// ---------------------------------------------------------------------

TEST(SimlintFixtures, KnownBadFailsTheGate)
{
    Options opts;
    opts.default_excludes = false;    // the corpus lives under an
                                      // excluded dir by design
    auto r = simlint::runPaths(
        {std::string(SIMLINT_FIXTURE_DIR) + "/known_bad"}, opts);
    EXPECT_EQ(r.files_scanned, 7u);
    EXPECT_EQ(r.findings.size(), 26u);
    EXPECT_EQ(r.suppressed, 0u);

    // Every rule in the pack shows up at least once, so the corpus
    // keeps covering the whole rule pack as it evolves.
    auto rules = rulesOf(r.findings);
    for (const std::string &rule : simlint::allRules())
        EXPECT_NE(std::find(rules.begin(), rules.end(), rule),
                  rules.end())
            << "rule never fires on known_bad: " << rule;

    // Findings come out sorted by (file, line): deterministic output.
    auto sorted = r.findings;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.file != b.file ? a.file < b.file
                                                 : a.line < b.line;
                     });
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
        EXPECT_EQ(r.findings[i].file, sorted[i].file);
        EXPECT_EQ(r.findings[i].line, sorted[i].line);
    }
}

TEST(SimlintFixtures, KnownGoodIsCleanWithReasonedWaivers)
{
    Options opts;
    opts.default_excludes = false;
    auto r = simlint::runPaths(
        {std::string(SIMLINT_FIXTURE_DIR) + "/known_good"}, opts);
    EXPECT_EQ(r.files_scanned, 1u);
    EXPECT_TRUE(r.findings.empty())
        << (r.findings.empty() ? ""
                               : r.findings[0].file + ": "
                                     + r.findings[0].message);
    EXPECT_EQ(r.suppressed, 4u);
}

TEST(SimlintFixtures, DefaultExcludesSkipTheCorpus)
{
    // The same paths with default excludes on: the fixture dir is
    // skipped entirely, so the repo-wide gate never sees known-bad.
    auto r = simlint::runPaths({std::string(SIMLINT_FIXTURE_DIR)},
                               Options{});
    EXPECT_EQ(r.files_scanned, 0u);
    EXPECT_TRUE(r.findings.empty());
}

TEST(SimlintFixtures, JsonReportIsWellFormedish)
{
    Options opts;
    opts.default_excludes = false;
    auto r = simlint::runPaths(
        {std::string(SIMLINT_FIXTURE_DIR) + "/known_bad"}, opts);
    std::string json = simlint::toJson(r);
    EXPECT_NE(json.find("\"schema\": \"simlint/v1\""), std::string::npos);
    EXPECT_NE(json.find("\"findings\""), std::string::npos);
    EXPECT_NE(json.find("no-wallclock"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}
