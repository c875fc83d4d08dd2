/**
 * @file
 * simlint: a repo-specific determinism & hot-path static analyzer.
 *
 * The simulator's two load-bearing contracts — bit-for-bit determinism
 * (run-twice digests, thin-vs-exact byte-identical reports) and
 * zero-allocation hot paths (the operator-new bench gate) — are
 * enforced at runtime only where a test happens to exercise them.
 * simlint makes the bug *classes* behind both contracts visible at
 * lint time, before a change ships:
 *
 *   no-wallclock             host clocks / ambient randomness in src/
 *                            (sim time and sim::Random only)
 *   no-unordered-iteration   iterating std::unordered_map/set, whose
 *                            order can leak into digests and reports
 *   explicit-capture         [&]/[=] default captures in lambdas
 *                            passed to scheduleAt/scheduleIn (dangling
 *                            by fire time; slot map can't catch it)
 *   hot-path-alloc           new/make_unique/container-growth inside
 *                            functions annotated `// simlint: hot`
 *   fluid-boundary           naming the fluid settlement ledger
 *                            (FlowLedger / fluidLedger / warpBy)
 *                            outside sim/fluid.*,
 *                            core/warp_coordinator.* and functions
 *                            annotated
 *                            `// simlint: fluid-settle` — unwitnessed
 *                            ledger mutation can fabricate the
 *                            steadiness certificate fluid warps
 *                            rest on
 *
 * simlint is deliberately *not* a compiler: a hand-rolled lexer over
 * the token stream (comments, strings and preprocessor lines
 * stripped), plus a few shape-matching passes. That keeps it
 * dependency-free — it builds and runs wherever CI does, no libclang —
 * at the cost of being heuristic. The rules are tuned to this
 * codebase's idioms; anything a rule gets wrong is silenced in place
 * with a reasoned suppression:
 *
 *   // simlint:allow(rule-name): reason the rule is wrong here
 *
 * on the finding's line or the line directly above. A suppression
 * without a reason is itself an error, so waivers stay auditable.
 *
 * Hot functions are annotated with a comment line directly above the
 * definition:
 *
 *   // simlint: hot
 *   void NicPort::finishRx(...)  { ... }
 *
 * and the rule applies to the function's whole brace block.
 */

#ifndef SRIOV_TOOLS_SIMLINT_HPP
#define SRIOV_TOOLS_SIMLINT_HPP

#include <cstddef>
#include <string>
#include <vector>

namespace simlint {

struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
};

struct Options
{
    /** Rules to run; empty means every rule. Unknown names are errors. */
    std::vector<std::string> rules;
    /**
     * Skip directories named in kDefaultExcludes (build trees and the
     * known-bad fixture corpus). The fixture tests disable this.
     */
    bool default_excludes = true;
};

/** All rule names, in reporting order. */
const std::vector<std::string> &allRules();

/** True if @p rule is a known rule name. */
bool knownRule(const std::string &rule);

/**
 * Lint one file's text. @p path decides rule scoping — no-wallclock
 * only applies under a src/ directory. @p sibling_text is the paired
 * header/source contents ("" if none) and is consulted only to learn
 * which member names have unordered container types.
 *
 * Returns unsuppressed findings; @p suppressed (optional) counts the
 * findings silenced by simlint:allow directives.
 */
std::vector<Finding> lintText(const std::string &path,
                              const std::string &text,
                              const std::string &sibling_text,
                              const Options &opts,
                              std::size_t *suppressed = nullptr);

struct RunResult
{
    std::vector<Finding> findings;
    std::size_t files_scanned = 0;
    std::size_t suppressed = 0;
};

/**
 * Lint files and directories (recursing over .hpp and .cpp files).
 * Sibling header/source pairs are discovered automatically.
 */
RunResult runPaths(const std::vector<std::string> &paths,
                   const Options &opts);

/** Machine-readable result (schema "simlint/v1"). */
std::string toJson(const RunResult &r);

} // namespace simlint

#endif // SRIOV_TOOLS_SIMLINT_HPP
