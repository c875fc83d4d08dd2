#include "simlint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace simlint {

namespace {

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

enum class TokKind { Ident, Number, Punct };

struct Token
{
    TokKind kind;
    std::string text;
    int line;
};

struct Comment
{
    int line;              ///< line the comment starts on
    std::string text;      ///< body without the // or /* */ markers
};

struct Lexed
{
    std::vector<Token> toks;
    std::vector<Comment> comments;
};

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identCont(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Tokenize C++ source: identifiers, numbers and punctuation survive;
 * comments are collected separately; string/char literals and
 * preprocessor directives are dropped entirely so nothing inside them
 * can pattern-match a rule. "::" and "->" lex as single tokens (the
 * qualifier checks need them atomic); every other punctuation
 * character is its own token.
 */
Lexed
lex(const std::string &s)
{
    Lexed out;
    std::size_t i = 0, n = s.size();
    int line = 1;
    bool at_line_start = true;

    auto newline = [&]() { ++line; at_line_start = true; };

    while (i < n) {
        char c = s[i];
        if (c == '\n') {
            newline();
            ++i;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
            ++i;
            continue;
        }
        // Preprocessor directive: swallow the whole (continued) line.
        if (c == '#' && at_line_start) {
            while (i < n) {
                if (s[i] == '\\' && i + 1 < n && s[i + 1] == '\n') {
                    newline();
                    i += 2;
                    continue;
                }
                if (s[i] == '\n')
                    break;
                ++i;
            }
            continue;
        }
        at_line_start = false;
        // Comments.
        if (c == '/' && i + 1 < n && s[i + 1] == '/') {
            std::size_t j = i + 2;
            while (j < n && s[j] != '\n')
                ++j;
            out.comments.push_back({line, s.substr(i + 2, j - i - 2)});
            i = j;
            continue;
        }
        if (c == '/' && i + 1 < n && s[i + 1] == '*') {
            int start_line = line;
            std::size_t j = i + 2;
            std::string body;
            while (j + 1 < n && !(s[j] == '*' && s[j + 1] == '/')) {
                if (s[j] == '\n')
                    ++line;
                body += s[j];
                ++j;
            }
            out.comments.push_back({start_line, body});
            i = (j + 1 < n) ? j + 2 : n;
            continue;
        }
        // Raw string literal R"delim( ... )delim".
        if (c == 'R' && i + 1 < n && s[i + 1] == '"') {
            std::size_t j = i + 2;
            std::string delim;
            while (j < n && s[j] != '(')
                delim += s[j++];
            std::string close = ")" + delim + "\"";
            std::size_t end = s.find(close, j);
            if (end == std::string::npos)
                end = n;
            for (std::size_t k = i; k < end && k < n; ++k)
                if (s[k] == '\n')
                    ++line;
            i = std::min(n, end + close.size());
            continue;
        }
        // String / char literal (with escapes).
        if (c == '"' || c == '\'') {
            char q = c;
            std::size_t j = i + 1;
            while (j < n && s[j] != q) {
                if (s[j] == '\\' && j + 1 < n)
                    ++j;
                if (s[j] == '\n')
                    ++line;
                ++j;
            }
            i = (j < n) ? j + 1 : n;
            continue;
        }
        if (identStart(c)) {
            std::size_t j = i + 1;
            while (j < n && identCont(s[j]))
                ++j;
            out.toks.push_back({TokKind::Ident, s.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i + 1;
            while (j < n
                   && (identCont(s[j]) || s[j] == '.' || s[j] == '\''
                       || ((s[j] == '+' || s[j] == '-')
                           && (s[j - 1] == 'e' || s[j - 1] == 'E'
                               || s[j - 1] == 'p' || s[j - 1] == 'P'))))
                ++j;
            out.toks.push_back({TokKind::Number, s.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (c == ':' && i + 1 < n && s[i + 1] == ':') {
            out.toks.push_back({TokKind::Punct, "::", line});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && s[i + 1] == '>') {
            out.toks.push_back({TokKind::Punct, "->", line});
            i += 2;
            continue;
        }
        out.toks.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------
// Directives (suppressions, hot annotations)
// ---------------------------------------------------------------------

struct Directives
{
    /** line -> rules allowed on that line (and the line below). */
    std::map<int, std::set<std::string>> allows;
    std::vector<int> hot_lines;
    /** `simlint: fluid-settle` lines — each blesses the function body
     *  below it as a legitimate settlement-ledger touch point. */
    std::vector<int> settle_lines;
    std::vector<Finding> errors;    ///< malformed directives
};

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

Directives
parseDirectives(const std::string &file, const std::vector<Comment> &comments)
{
    Directives d;
    for (const Comment &c : comments) {
        // A directive comment *starts* with "simlint:" (so prose that
        // merely mentions simlint is not parsed as one).
        std::string body = trim(c.text);
        if (body.rfind("simlint:", 0) != 0)
            continue;
        std::string rest = trim(body.substr(8));
        if (rest == "hot" || rest.rfind("hot ", 0) == 0) {
            d.hot_lines.push_back(c.line);
            continue;
        }
        if (rest == "fluid-settle" || rest.rfind("fluid-settle ", 0) == 0) {
            d.settle_lines.push_back(c.line);
            continue;
        }
        if (rest.rfind("allow", 0) == 0) {
            std::size_t open = rest.find('(');
            std::size_t close = rest.find(')');
            if (open == std::string::npos || close == std::string::npos
                || close < open) {
                d.errors.push_back({file, c.line, "bad-suppression",
                                    "malformed simlint:allow directive "
                                    "(want simlint:allow(rule): reason)"});
                continue;
            }
            std::string rules = rest.substr(open + 1, close - open - 1);
            std::string tail = trim(rest.substr(close + 1));
            if (tail.empty() || tail[0] != ':'
                || trim(tail.substr(1)).empty()) {
                d.errors.push_back({file, c.line, "bad-suppression",
                                    "simlint:allow without a reason "
                                    "(append ': why this is legitimate')"});
                continue;
            }
            std::stringstream ss(rules);
            std::string r;
            while (std::getline(ss, r, ',')) {
                r = trim(r);
                if (r.empty())
                    continue;
                if (!knownRule(r)) {
                    d.errors.push_back({file, c.line, "bad-suppression",
                                        "simlint:allow names unknown rule '"
                                            + r + "'"});
                    continue;
                }
                d.allows[c.line].insert(r);
            }
            continue;
        }
        d.errors.push_back({file, c.line, "bad-suppression",
                            "unrecognized simlint directive '" + rest
                                + "'"});
    }
    return d;
}

// ---------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------

bool
isIdent(const Token &t, const char *s)
{
    return t.kind == TokKind::Ident && t.text == s;
}

bool
isPunct(const Token &t, const char *s)
{
    return t.kind == TokKind::Punct && t.text == s;
}

/** Index of the matching closer for the opener at @p i, or n. */
std::size_t
matchFrom(const std::vector<Token> &t, std::size_t i, const char *open,
          const char *close)
{
    int depth = 0;
    for (std::size_t j = i; j < t.size(); ++j) {
        if (isPunct(t[j], open))
            ++depth;
        else if (isPunct(t[j], close) && --depth == 0)
            return j;
    }
    return t.size();
}

/**
 * Names in this translation unit (and its sibling) whose type is an
 * unordered associative container: variables, members, and functions
 * returning one — plus names declared with a `using X = unordered_*`
 * alias.
 */
std::set<std::string>
collectUnorderedNames(const std::vector<Token> &t)
{
    static const std::set<std::string> kContainers = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    std::set<std::string> names;
    std::set<std::string> aliases;

    auto declNameAfterTemplate = [&](std::size_t i) -> std::size_t {
        // i points at the container ident; returns index of the
        // declared name token, or npos-equivalent t.size().
        std::size_t j = i + 1;
        if (j < t.size() && isPunct(t[j], "<")) {
            int depth = 0;
            for (; j < t.size(); ++j) {
                if (isPunct(t[j], "<"))
                    ++depth;
                else if (isPunct(t[j], ">") && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        while (j < t.size()
               && (isPunct(t[j], "*") || isPunct(t[j], "&")
                   || isIdent(t[j], "const")))
            ++j;
        if (j < t.size() && t[j].kind == TokKind::Ident)
            return j;
        return t.size();
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident
            || kContainers.count(t[i].text) == 0)
            continue;
        // using Alias = std::unordered_map<...>; — walk back to the
        // statement start looking for `using <name> =`.
        bool is_alias = false;
        for (std::size_t k = i; k > 0;) {
            --k;
            if (isPunct(t[k], ";") || isPunct(t[k], "{")
                || isPunct(t[k], "}"))
                break;
            if (isIdent(t[k], "using")) {
                if (k + 2 < t.size() && t[k + 1].kind == TokKind::Ident
                    && isPunct(t[k + 2], "=")) {
                    aliases.insert(t[k + 1].text);
                    is_alias = true;
                }
                break;
            }
        }
        if (is_alias)
            continue;
        std::size_t name = declNameAfterTemplate(i);
        if (name < t.size())
            names.insert(t[name].text);
    }
    // Declarations through an alias: `Alias x;` / `Alias &x = ...`.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident || aliases.count(t[i].text) == 0)
            continue;
        if (i > 0 && (isPunct(t[i - 1], "::") || isPunct(t[i - 1], ".")
                      || isPunct(t[i - 1], "->")))
            continue;
        std::size_t j = i + 1;
        while (j < t.size()
               && (isPunct(t[j], "*") || isPunct(t[j], "&")
                   || isIdent(t[j], "const")))
            ++j;
        if (j < t.size() && t[j].kind == TokKind::Ident)
            names.insert(t[j].text);
    }
    return names;
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

const char *const kNoWallclock = "no-wallclock";
const char *const kNoUnorderedIter = "no-unordered-iteration";
const char *const kExplicitCapture = "explicit-capture";
const char *const kHotPathAlloc = "hot-path-alloc";
const char *const kBadSuppression = "bad-suppression";
const char *const kShardChannel = "shard-channel";
const char *const kFluidBoundary = "fluid-boundary";

/** Qualifier of identifier at @p i: "" (unqualified), "std"/"chrono"
 *  (standard library), "member" (after . or ->), or another name. */
std::string
qualifierOf(const std::vector<Token> &t, std::size_t i)
{
    if (i == 0)
        return "";
    if (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->"))
        return "member";
    if (isPunct(t[i - 1], "::")) {
        if (i >= 2 && t[i - 2].kind == TokKind::Ident)
            return t[i - 2].text;
        return "::";    // global-namespace qualified
    }
    return "";
}

void
ruleNoWallclock(const std::string &file, const std::vector<Token> &t,
                std::vector<Finding> &out)
{
    // Types/objects whose mere mention means host time or ambient
    // entropy; and functions that read them when called.
    static const std::set<std::string> kBannedAlways = {
        "steady_clock",    "system_clock", "high_resolution_clock",
        "random_device",   "mt19937",      "mt19937_64",
        "default_random_engine"};
    // Unqualified-call bans. Bare `clock` is deliberately absent:
    // it would collide with accessor members named clock(), and the
    // chrono clock types above already cover host time.
    static const std::set<std::string> kBannedCalls = {
        "time",     "gettimeofday", "clock_gettime", "localtime",
        "gmtime",   "rand",         "srand",         "random",
        "drand48"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident)
            continue;
        std::string q = qualifierOf(t, i);
        if (q == "member")
            continue;    // someone's .time() accessor, not ::time()
        if (!q.empty() && q != "std" && q != "chrono" && q != "::")
            continue;    // qualified by a project namespace
        if (kBannedAlways.count(t[i].text) != 0) {
            out.push_back({file, t[i].line, kNoWallclock,
                           "'" + t[i].text
                               + "' is host wallclock/entropy; use sim "
                                 "time (sim::Time) or sim::Random"});
            continue;
        }
        if (kBannedCalls.count(t[i].text) != 0 && i + 1 < t.size()
            && isPunct(t[i + 1], "(")) {
            out.push_back({file, t[i].line, kNoWallclock,
                           "call to '" + t[i].text
                               + "()' reads host wallclock/entropy; "
                                 "simulations must be a pure function "
                                 "of the seed"});
        }
    }
}

void
ruleShardChannel(const std::string &file, const std::vector<Token> &t,
                 std::vector<Finding> &out)
{
    // Raw cross-island plumbing outside the engine/wire: a push into a
    // ShardChannel carries no lookahead contract, so the receiving
    // island may already have executed past its due time — silent
    // causality violation, not a crash. nic::Wire is the only legal
    // shard boundary (DESIGN.md §13): its send path asserts due >=
    // now + propagation on every message.
    static const std::set<std::string> kRawShardTypes = {"ShardChannel",
                                                         "ShardEdge"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident
            || kRawShardTypes.count(t[i].text) == 0)
            continue;
        if (qualifierOf(t, i) == "member")
            continue;
        out.push_back({file, t[i].line, kShardChannel,
                       "'" + t[i].text
                           + "' outside src/sim/shard_*/nic::Wire: "
                             "raw cross-island sends bypass the "
                             "lookahead contract; route cross-shard "
                             "traffic through nic::Wire (the only "
                             "legal shard boundary, DESIGN.md #13)"});
    }
}

void
ruleFluidBoundary(const std::string &file, const std::vector<Token> &t,
                  const std::vector<int> &settle_lines,
                  std::vector<Finding> &out)
{
    // The fluid equivalence contract (DESIGN.md §14) rests on the
    // settlement ledger seeing *every* send and every flow birth/death:
    // a component that holds the FlowLedger and mutates it from an
    // unannotated site can fabricate a steadiness certificate the probe
    // protocol never checked. Mere possession of the ledger is the
    // boundary — anything that can name it can mutate it — so any
    // mention outside src/sim/fluid.* and src/core/warp_coordinator.*
    // must sit inside a function blessed with `// simlint: fluid-settle`.
    // fluidTransition/fluidTransitionAll are deliberately NOT policed:
    // they only force exact mode, which is always conservative.
    static const std::set<std::string> kLedgerNames = {
        "FlowLedger", "fluidLedger", "warpBy"};

    // Settle regions: the first brace block after each annotation.
    std::vector<std::pair<int, int>> regions;
    for (int settle : settle_lines) {
        std::size_t open = t.size();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].line > settle && isPunct(t[i], "{")) {
                open = i;
                break;
            }
        }
        if (open == t.size()) {
            out.push_back({file, settle, kFluidBoundary,
                           "simlint: fluid-settle annotation with no "
                           "function body following it"});
            continue;
        }
        std::size_t close = matchFrom(t, open, "{", "}");
        regions.emplace_back(t[open].line,
                             close < t.size() ? t[close].line
                                              : t.back().line);
    }

    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident
            || kLedgerNames.count(t[i].text) == 0)
            continue;
        bool blessed = false;
        for (const auto &[lo, hi] : regions) {
            if (t[i].line >= lo && t[i].line <= hi) {
                blessed = true;
                break;
            }
        }
        if (blessed)
            continue;
        out.push_back({file, t[i].line, kFluidBoundary,
                       "'" + t[i].text
                           + "' touches the settlement ledger outside "
                             "sim/fluid.*: mutations the ledger does "
                             "not witness can fabricate a steadiness "
                             "certificate; move this into an annotated "
                             "settle site (`// simlint: fluid-settle` "
                             "above the function)"});
    }
}

void
ruleNoUnorderedIteration(const std::string &file,
                         const std::vector<Token> &t,
                         const std::set<std::string> &unordered,
                         std::vector<Finding> &out)
{
    if (unordered.empty())
        return;
    // Only the begin-family: `it != x.end()` after a find() is the
    // dominant non-iterating idiom and must not trip the rule.
    static const std::set<std::string> kIterFns = {"begin", "cbegin",
                                                   "rbegin", "crbegin"};
    for (std::size_t i = 0; i < t.size(); ++i) {
        // Range-for whose sequence expression mentions an unordered
        // container: for (... : expr).
        if (isIdent(t[i], "for") && i + 1 < t.size()
            && isPunct(t[i + 1], "(")) {
            std::size_t close = matchFrom(t, i + 1, "(", ")");
            int depth = 0;
            std::size_t colon = t.size();
            for (std::size_t j = i + 1; j < close; ++j) {
                if (isPunct(t[j], "(") || isPunct(t[j], "[")
                    || isPunct(t[j], "{"))
                    ++depth;
                else if (isPunct(t[j], ")") || isPunct(t[j], "]")
                         || isPunct(t[j], "}"))
                    --depth;
                else if (depth == 1 && isPunct(t[j], ":")) {
                    colon = j;
                    break;
                }
            }
            for (std::size_t j = colon; j < close; ++j) {
                if (t[j].kind == TokKind::Ident
                    && unordered.count(t[j].text) != 0) {
                    out.push_back(
                        {file, t[j].line, kNoUnorderedIter,
                         "iteration over unordered container '"
                             + t[j].text
                             + "': order is hash/address-dependent and "
                               "can leak into digests and reports; use "
                               "an ordered/index-keyed container or a "
                               "sorted snapshot"});
                    break;
                }
            }
            continue;
        }
        // Explicit iterator walk: x.begin() / x.cend() on an
        // unordered name.
        if (t[i].kind == TokKind::Ident && unordered.count(t[i].text) != 0
            && i + 3 < t.size()
            && (isPunct(t[i + 1], ".") || isPunct(t[i + 1], "->"))
            && t[i + 2].kind == TokKind::Ident
            && kIterFns.count(t[i + 2].text) != 0
            && isPunct(t[i + 3], "(")) {
            out.push_back({file, t[i].line, kNoUnorderedIter,
                           "'" + t[i].text + "." + t[i + 2].text
                               + "()' iterates an unordered container; "
                                 "order is hash/address-dependent"});
        }
    }
}

void
ruleExplicitCapture(const std::string &file, const std::vector<Token> &t,
                    std::vector<Finding> &out)
{
    static const std::set<std::string> kSchedulers = {"scheduleAt",
                                                      "scheduleIn"};
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::Ident
            || kSchedulers.count(t[i].text) == 0
            || !isPunct(t[i + 1], "("))
            continue;
        std::size_t close = matchFrom(t, i + 1, "(", ")");
        for (std::size_t j = i + 2; j + 2 < close; ++j) {
            if (!isPunct(t[j], "["))
                continue;
            bool deflt = (isPunct(t[j + 1], "&") || isPunct(t[j + 1], "="))
                && (isPunct(t[j + 2], ",") || isPunct(t[j + 2], "]"));
            if (deflt) {
                out.push_back(
                    {file, t[j].line, kExplicitCapture,
                     "default capture [" + t[j + 1].text
                         + "] in lambda passed to " + t[i].text
                         + "(): captures must be explicit — by fire "
                           "time a defaulted reference is a dangling "
                           "bug the slot map cannot catch"});
            }
        }
    }
}

void
ruleHotPathAlloc(const std::string &file, const std::vector<Token> &t,
                 const std::vector<int> &hot_lines,
                 std::vector<Finding> &out)
{
    if (hot_lines.empty())
        return;
    static const std::set<std::string> kAllocCalls = {
        "make_unique", "make_shared", "malloc",       "calloc",
        "realloc",     "strdup",      "aligned_alloc"};
    static const std::set<std::string> kGrowthCalls = {
        "push_back", "emplace_back", "push_front", "emplace_front",
        "resize",    "reserve",      "insert",     "emplace",
        "append"};
    for (int hot : hot_lines) {
        // The hot region is the first brace block opening after the
        // annotation line (the function body).
        std::size_t open = t.size();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].line > hot && isPunct(t[i], "{")) {
                open = i;
                break;
            }
        }
        if (open == t.size()) {
            out.push_back({file, hot, kHotPathAlloc,
                           "simlint: hot annotation with no function "
                           "body following it"});
            continue;
        }
        std::size_t close = matchFrom(t, open, "{", "}");
        for (std::size_t i = open + 1; i < close; ++i) {
            if (isIdent(t[i], "new")) {
                out.push_back({file, t[i].line, kHotPathAlloc,
                               "operator new in a `simlint: hot` "
                               "function; the wire->L2->ring->DMA->"
                               "MSI-X path must not allocate"});
                continue;
            }
            if (t[i].kind == TokKind::Ident
                && kAllocCalls.count(t[i].text) != 0 && i + 1 < t.size()
                && (isPunct(t[i + 1], "(") || isPunct(t[i + 1], "<"))) {
                out.push_back({file, t[i].line, kHotPathAlloc,
                               "'" + t[i].text
                                   + "' allocates in a `simlint: hot` "
                                     "function"});
                continue;
            }
            if (i > 0
                && (isPunct(t[i - 1], ".") || isPunct(t[i - 1], "->"))
                && t[i].kind == TokKind::Ident
                && kGrowthCalls.count(t[i].text) != 0 && i + 1 < t.size()
                && isPunct(t[i + 1], "(")) {
                out.push_back({file, t[i].line, kHotPathAlloc,
                               "container growth call '" + t[i].text
                                   + "' in a `simlint: hot` function; "
                                     "pre-size outside the hot path or "
                                     "suppress with the reason it "
                                     "cannot grow here"});
            }
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

bool
pathInSrc(const std::string &path)
{
    namespace fs = std::filesystem;
    for (const auto &part : fs::path(path))
        if (part == "src")
            return true;
    return false;
}

/** src/sim/shard_*: the shard engine is the one
 *  component whose business IS host threads, so the wallclock and
 *  unordered-iteration heuristics are scoped out of it — its worker
 *  loops name std::thread/atomics in patterns the token rules
 *  misread, and host-side backoff tuning may legitimately read a
 *  monotonic clock that never feeds simulated time. Everything else
 *  under src/ stays strict. */
bool
isShardEngineFile(const std::string &path)
{
    namespace fs = std::filesystem;
    fs::path p(path);
    return pathInSrc(path) && p.parent_path().filename() == "sim"
        && p.filename().string().rfind("shard", 0) == 0;
}

/** src/nic/wire.*: the lookahead-bearing shard boundary itself — the
 *  one legitimate ShardChannel user outside the engine. */
bool
isWireFile(const std::string &path)
{
    namespace fs = std::filesystem;
    fs::path p(path);
    return pathInSrc(path) && p.parent_path().filename() == "nic"
        && p.filename().string().rfind("wire", 0) == 0;
}

/** src/sim/fluid.* and src/core/warp_coordinator.*: the fluid engine
 *  itself, where ledger mutation is the whole job. */
bool
isFluidCoreFile(const std::string &path)
{
    namespace fs = std::filesystem;
    fs::path p(path);
    if (!pathInSrc(path))
        return false;
    std::string dir = p.parent_path().filename().string();
    std::string name = p.filename().string();
    return (dir == "sim" && name.rfind("fluid", 0) == 0)
        || (dir == "core" && name.rfind("warp_coordinator", 0) == 0);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xffu);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> kRules = {
        kNoWallclock,  kNoUnorderedIter, kExplicitCapture,
        kHotPathAlloc, kBadSuppression,  kShardChannel,
        kFluidBoundary};
    return kRules;
}

bool
knownRule(const std::string &rule)
{
    const auto &r = allRules();
    return std::find(r.begin(), r.end(), rule) != r.end();
}

std::vector<Finding>
lintText(const std::string &path, const std::string &text,
         const std::string &sibling_text, const Options &opts,
         std::size_t *suppressed)
{
    Lexed lx = lex(text);
    Directives dir = parseDirectives(path, lx.comments);

    std::set<std::string> unordered = collectUnorderedNames(lx.toks);
    if (!sibling_text.empty()) {
        Lexed sib = lex(sibling_text);
        std::set<std::string> more = collectUnorderedNames(sib.toks);
        unordered.insert(more.begin(), more.end());
    }

    auto enabled = [&](const char *rule) {
        return opts.rules.empty()
            || std::find(opts.rules.begin(), opts.rules.end(), rule)
                   != opts.rules.end();
    };

    std::vector<Finding> raw;
    if (enabled(kNoWallclock) && pathInSrc(path)
        && !isShardEngineFile(path))
        ruleNoWallclock(path, lx.toks, raw);
    if (enabled(kNoUnorderedIter) && !isShardEngineFile(path))
        ruleNoUnorderedIteration(path, lx.toks, unordered, raw);
    if (enabled(kShardChannel) && !isShardEngineFile(path)
        && !isWireFile(path))
        ruleShardChannel(path, lx.toks, raw);
    if (enabled(kFluidBoundary) && pathInSrc(path)
        && !isFluidCoreFile(path))
        ruleFluidBoundary(path, lx.toks, dir.settle_lines, raw);
    if (enabled(kExplicitCapture))
        ruleExplicitCapture(path, lx.toks, raw);
    if (enabled(kHotPathAlloc))
        ruleHotPathAlloc(path, lx.toks, dir.hot_lines, raw);

    std::vector<Finding> out;
    std::size_t nsupp = 0;
    for (Finding &f : raw) {
        bool allowed = false;
        for (int l : {f.line, f.line - 1}) {
            auto it = dir.allows.find(l);
            if (it != dir.allows.end() && it->second.count(f.rule) != 0) {
                allowed = true;
                break;
            }
        }
        if (allowed)
            ++nsupp;
        else
            out.push_back(std::move(f));
    }
    // Malformed directives are always errors: a waiver that cannot be
    // audited is worse than the finding it hides.
    out.insert(out.end(), dir.errors.begin(), dir.errors.end());

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    if (suppressed != nullptr)
        *suppressed += nsupp;
    return out;
}

RunResult
runPaths(const std::vector<std::string> &paths, const Options &opts)
{
    namespace fs = std::filesystem;
    static const std::set<std::string> kExts = {".hpp", ".cpp", ".h",
                                                ".cc", ".hh", ".cxx"};
    static const std::set<std::string> kExcludedDirs = {
        "build", ".git", "simlint_fixtures"};

    std::vector<std::string> files;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            // The excludes apply to an explicitly named root too, so
            // `simlint tests` and `simlint tests/simlint_fixtures`
            // agree; --no-default-excludes opts into the corpus.
            if (opts.default_excludes
                && kExcludedDirs.count(
                       fs::path(p).filename().string())
                    != 0)
                continue;
            auto it = fs::recursive_directory_iterator(
                p, fs::directory_options::skip_permission_denied, ec);
            for (auto end = fs::recursive_directory_iterator();
                 it != end; ++it) {
                if (it->is_directory()
                    && opts.default_excludes
                    && kExcludedDirs.count(
                           it->path().filename().string())
                        != 0) {
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file()
                    && kExts.count(it->path().extension().string()) != 0)
                    files.push_back(it->path().string());
            }
        } else {
            files.push_back(p);
        }
    }
    // Directory iteration order is filesystem-dependent; simlint's own
    // output must not be.
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    auto readAll = [](const std::string &p, std::string &out) {
        std::ifstream in(p, std::ios::binary);
        if (!in)
            return false;
        std::ostringstream ss;
        ss << in.rdbuf();
        out = ss.str();
        return true;
    };

    RunResult r;
    for (const std::string &f : files) {
        std::string text;
        if (!readAll(f, text)) {
            r.findings.push_back(
                {f, 0, "io-error", "cannot read file"});
            continue;
        }
        // The paired header/source contributes its unordered-type
        // declarations, so a .cpp iterating a member declared in its
        // .hpp is still caught.
        fs::path sib(f);
        sib.replace_extension(sib.extension() == ".cpp" ? ".hpp"
                                                        : ".cpp");
        std::string sibling_text;
        std::error_code ec;
        if (fs::is_regular_file(sib, ec))
            (void)readAll(sib.string(), sibling_text);

        auto fnd = lintText(f, text, sibling_text, opts, &r.suppressed);
        r.findings.insert(r.findings.end(), fnd.begin(), fnd.end());
        ++r.files_scanned;
    }
    return r;
}

std::string
toJson(const RunResult &r)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"simlint/v1\",\n";
    os << "  \"files_scanned\": " << r.files_scanned << ",\n";
    os << "  \"suppressed\": " << r.suppressed << ",\n";
    os << "  \"findings\": [";
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
        const Finding &f = r.findings[i];
        os << (i != 0 ? "," : "") << "\n    {\"file\": \""
           << jsonEscape(f.file) << "\", \"line\": " << f.line
           << ", \"rule\": \"" << jsonEscape(f.rule)
           << "\", \"message\": \"" << jsonEscape(f.message) << "\"}";
    }
    os << (r.findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
    return os.str();
}

} // namespace simlint
