#include "litmus/parser.hh"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

namespace wo {
namespace litmus_dsl {

namespace {

/** One lexical token with its source line. */
struct Token
{
    std::string text;
    int line = 0;
};

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Tokenize the whole source: identifiers/numbers, the two-character
 * operators == != && ||, and single-character punctuation. '#' starts a
 * comment to end of line.
 */
std::vector<Token>
tokenizeAll(const std::string &source, const std::string &file)
{
    std::vector<Token> toks;
    int line = 1;
    std::size_t i = 0;
    while (i < source.size()) {
        char c = source[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '#') {
            while (i < source.size() && source[i] != '\n')
                ++i;
            continue;
        }
        if (i + 1 < source.size()) {
            std::string two = source.substr(i, 2);
            if (two == "==" || two == "!=" || two == "&&" || two == "||") {
                toks.push_back({two, line});
                i += 2;
                continue;
            }
        }
        if (c == ',' || c == ':' || c == ';' || c == '(' || c == ')' ||
            c == '{' || c == '}' || c == '=' || c == '|' || c == '!') {
            toks.push_back({std::string(1, c), line});
            ++i;
            continue;
        }
        if (isIdentChar(c) || c == '-') {
            // '-' may both lead a negative number and appear inside a
            // hyphenated name ("racy-mp"); there is no infix arithmetic,
            // so greedy scanning is unambiguous.
            std::size_t j = i + 1;
            while (j < source.size() &&
                   (isIdentChar(source[j]) || source[j] == '-'))
                ++j;
            toks.push_back({source.substr(i, j - i), line});
            i = j;
            continue;
        }
        throw LitmusError(file, line,
                          std::string("unexpected character '") + c + "'");
    }
    return toks;
}

bool
isNumber(const std::string &s)
{
    std::size_t start = (!s.empty() && s[0] == '-') ? 1 : 0;
    if (start >= s.size())
        return false;
    for (std::size_t i = start; i < s.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(s[i])))
            return false;
    }
    return true;
}

bool
isRegToken(const std::string &s)
{
    if (s.size() < 2 || (s[0] != 'r' && s[0] != 'R'))
        return false;
    for (std::size_t i = 1; i < s.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(s[i])))
            return false;
    }
    return true;
}

/** All of @p s from offset @p from as a decimal T; false when it does
 * not fit (or is not a number). */
template <typename T>
bool
parseDecimal(const std::string &s, std::size_t from, T &out)
{
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data() + from, end, out);
    return ec == std::errc() && ptr == end;
}

/** Register number of an r<N> token; throws when N overflows an int. */
int
regNumber(const Token &t, const std::string &file)
{
    int n = 0;
    if (!parseDecimal(t.text, 1, n))
        throw LitmusError(file, t.line,
                          "register number out of range: '" + t.text +
                              "'");
    return n;
}

/** "P<n>" (either case) → n, or -1 when the token is something else;
 * throws when n overflows an int. */
int
procNumber(const Token &t, const std::string &file)
{
    const std::string &s = t.text;
    if (s.size() < 2 || (s[0] != 'P' && s[0] != 'p'))
        return -1;
    for (std::size_t i = 1; i < s.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(s[i])))
            return -1;
    }
    int n = 0;
    if (!parseDecimal(s, 1, n))
        throw LitmusError(file, t.line,
                          "processor number out of range: '" + s + "'");
    return n;
}

std::string
lower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Cursor over the token stream with file-carrying diagnostics. */
class Cur
{
  public:
    Cur(std::vector<Token> toks, std::string file)
        : toks_(std::move(toks)), file_(std::move(file))
    {}

    bool done() const { return pos_ >= toks_.size(); }

    /** Line of the current (or last) token. */
    int
    line() const
    {
        if (toks_.empty())
            return 1;
        return done() ? toks_.back().line : toks_[pos_].line;
    }

    const std::string &
    peek() const
    {
        static const std::string kEnd;
        return done() ? kEnd : toks_[pos_].text;
    }

    const Token &
    next(const char *what)
    {
        if (done())
            fail(std::string("expected ") + what + ", got end of file");
        return toks_[pos_++];
    }

    bool
    accept(const std::string &tok)
    {
        if (!done() && toks_[pos_].text == tok) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    expect(const std::string &tok, const char *context)
    {
        if (!accept(tok)) {
            fail("expected '" + tok + "' " + context + ", got " +
                 describeHere());
        }
    }

    Word
    number(const char *what)
    {
        const Token &t = next(what);
        if (!isNumber(t.text))
            fail("expected " + std::string(what) + ", got '" + t.text +
                 "'");
        // A negative value is stored two's complement, so it must fit
        // an int64; a non-negative one must fit the 64-bit word.
        bool neg = t.text[0] == '-';
        Word v = 0;
        std::int64_t sv = 0;
        if (neg ? !parseDecimal(t.text, 0, sv) : !parseDecimal(t.text, 0, v))
            throw LitmusError(file_, t.line,
                              std::string(what) + " out of range: '" +
                                  t.text + "'");
        return neg ? static_cast<Word>(sv) : v;
    }

    int
    reg(const char *what)
    {
        const Token &t = next(what);
        if (!isRegToken(t.text))
            fail("expected register (r<N>) for " + std::string(what) +
                 ", got '" + t.text + "'");
        return regNumber(t, file_);
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw LitmusError(file_, line(), msg);
    }

    std::string
    describeHere() const
    {
        return done() ? "end of file" : "'" + toks_[pos_].text + "'";
    }

    const std::string &file() const { return file_; }

  private:
    std::vector<Token> toks_;
    std::string file_;
    std::size_t pos_ = 0;
};

/** Parse one instruction (mnemonic already consumed into @p s). */
void
parseInsn(Cur &c, Stmt &s)
{
    const std::string &op = s.mnemonic;
    if (op == "load" || op == "test") {
        s.reg = c.reg("destination");
        c.expect(",", "after register");
        s.loc = c.next("location").text;
    } else if (op == "store" || op == "unset") {
        s.loc = c.next("location").text;
        bool has_operand = c.accept(",");
        if (!has_operand && op == "store")
            c.fail("store needs a value operand");
        if (has_operand) {
            const Token &v = c.next("value");
            if (isRegToken(v.text)) {
                s.reg2 = regNumber(v, c.file());
            } else if (isNumber(v.text)) {
                Cur tmp({{v.text, v.line}}, c.file());
                s.imm = tmp.number("value");
                s.hasImm = true;
            } else {
                c.fail("expected register or number, got '" + v.text +
                       "'");
            }
        } else {
            s.imm = 0; // unset's default release value
            s.hasImm = true;
        }
    } else if (op == "tas") {
        s.reg = c.reg("destination");
        c.expect(",", "after register");
        s.loc = c.next("location").text;
        s.imm = 1; // TestAndSet's default write value
        s.hasImm = true;
        if (c.accept(","))
            s.imm = c.number("write value");
    } else if (op == "movi") {
        s.reg = c.reg("destination");
        c.expect(",", "after register");
        s.imm = c.number("immediate");
        s.hasImm = true;
    } else if (op == "addi") {
        s.reg = c.reg("destination");
        c.expect(",", "after register");
        s.reg2 = c.reg("source");
        c.expect(",", "after register");
        s.imm = c.number("immediate");
        s.hasImm = true;
    } else if (op == "beq" || op == "bne") {
        s.reg = c.reg("source");
        c.expect(",", "after register");
        s.imm = c.number("comparison value");
        s.hasImm = true;
        c.expect(",", "after comparison value");
        s.target = c.next("branch target label").text;
    } else if (op == "nop") {
        if (isNumber(c.peek())) {
            Word n = c.number("repeat count");
            if (n == 0 || n > 1000)
                c.fail("nop repeat count must be in [1, 1000]");
            s.count = static_cast<int>(n);
        }
    } else if (op == "fence" || op == "halt") {
        // no operands
    } else {
        c.fail("unknown mnemonic '" + op + "'");
    }
}

Cond parseCond(Cur &c);

Cond
parseAtom(Cur &c)
{
    Cond n;
    n.line = c.line();
    if (c.accept("(")) {
        n = parseCond(c);
        c.expect(")", "to close the condition");
        return n;
    }
    if (c.accept("!")) {
        n.kind = Cond::Kind::Not;
        n.kids.push_back(parseAtom(c));
        return n;
    }
    const Token &t = c.next("condition term");
    int proc = procNumber(t, c.file());
    if (proc >= 0 && c.accept(":")) {
        n.kind = Cond::Kind::RegTerm;
        n.proc = proc;
        n.reg = c.reg("register");
    } else if (proc >= 0 && c.peek() != "==" && c.peek() != "!=") {
        c.fail("expected ':' after processor '" + t.text + "'");
    } else {
        n.kind = Cond::Kind::MemTerm;
        n.loc = t.text;
        if (isNumber(t.text))
            c.fail("expected a location or P<n>:r<m>, got '" + t.text +
                   "'");
    }
    const Token &cmp = c.next("'==' or '!='");
    if (cmp.text == "==")
        n.op = CmpOp::Eq;
    else if (cmp.text == "!=")
        n.op = CmpOp::Ne;
    else
        c.fail("expected '==' or '!=', got '" + cmp.text + "'");
    n.value = c.number("comparison value");
    return n;
}

Cond
parseConj(Cur &c)
{
    Cond first = parseAtom(c);
    if (c.peek() != "&&")
        return first;
    Cond n;
    n.kind = Cond::Kind::And;
    n.line = first.line;
    n.kids.push_back(std::move(first));
    while (c.accept("&&"))
        n.kids.push_back(parseAtom(c));
    return n;
}

Cond
parseCond(Cur &c)
{
    Cond first = parseConj(c);
    if (c.peek() != "||")
        return first;
    Cond n;
    n.kind = Cond::Kind::Or;
    n.line = first.line;
    n.kids.push_back(std::move(first));
    while (c.accept("||"))
        n.kids.push_back(parseConj(c));
    return n;
}

/** "some/dir/name.litmus" → "name". */
std::string
fileStem(const std::string &path)
{
    std::size_t slash = path.find_last_of("/\\");
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::size_t dot = base.find_last_of('.');
    return dot == std::string::npos || dot == 0 ? base
                                                : base.substr(0, dot);
}

} // namespace

LitmusTest
parseLitmus(const std::string &source, const std::string &file)
{
    LitmusTest t;
    t.file = file;
    t.name = fileStem(file);

    Cur c(tokenizeAll(source, file), file);

    // Optional name line.
    if (lower(c.peek()) == "name") {
        c.next("name");
        t.name = c.next("test name").text;
    }

    // Init section.
    if (lower(c.peek()) != "init")
        c.fail("expected 'init' section, got " + c.describeHere());
    c.next("init");
    c.expect("{", "after 'init'");
    while (!c.accept("}")) {
        InitEntry e;
        const Token &loc = c.next("location name (or '}')");
        e.loc = loc.text;
        e.line = loc.line;
        if (isNumber(e.loc) || isRegToken(e.loc))
            c.fail("bad location name '" + e.loc + "'");
        for (const InitEntry &prev : t.inits) {
            if (prev.loc == e.loc)
                c.fail("location '" + e.loc + "' already declared");
        }
        c.expect("=", "in init entry");
        e.value = c.number("initial value");
        if (lower(c.peek()) == "sync") {
            c.next("sync");
            e.sync = true;
        }
        c.expect(";", "to end the init entry");
        t.inits.push_back(std::move(e));
    }

    // Table header: P0 | P1 | ... ;
    std::vector<Token> header;
    {
        int expect_proc = 0;
        for (;;) {
            const Token &p = c.next("processor header 'P<n>'");
            if (procNumber(p, file) != expect_proc) {
                throw LitmusError(file, p.line,
                                  "expected processor header 'P" +
                                      std::to_string(expect_proc) +
                                      "', got '" + p.text + "'");
            }
            ++expect_proc;
            if (c.accept(";"))
                break;
            c.expect("|", "between processor headers");
        }
        t.procs.resize(static_cast<std::size_t>(expect_proc));
    }

    // Statement rows until the clause keyword.
    while (!c.done() && lower(c.peek()) != "exists" &&
           lower(c.peek()) != "forbidden") {
        std::size_t col = 0;
        for (;;) {
            if (col >= t.procs.size()) {
                c.fail("row has more cells than the " +
                       std::to_string(t.procs.size()) +
                       " declared processors");
            }
            // One cell: [label ':'] [insn], ending at '|' or ';'.
            if (c.peek() != "|" && c.peek() != ";") {
                Stmt s;
                const Token &first = c.next("label or mnemonic");
                s.line = first.line;
                std::string word = first.text;
                if (c.accept(":")) {
                    if (isNumber(word) || isRegToken(word))
                        c.fail("bad label name '" + word + "'");
                    s.label = word;
                    word.clear();
                    if (c.peek() != "|" && c.peek() != ";")
                        word = c.next("mnemonic").text;
                }
                if (!word.empty()) {
                    s.mnemonic = lower(word);
                    parseInsn(c, s);
                }
                if (c.peek() != "|" && c.peek() != ";") {
                    c.fail("trailing tokens in cell: " + c.describeHere() +
                           " (is a '|' or ';' missing?)");
                }
                t.procs[col].push_back(std::move(s));
            }
            if (c.accept(";"))
                break;
            c.expect("|", "between cells");
            ++col;
        }
    }

    // Clause.
    if (c.done())
        c.fail("missing final 'exists' or 'forbidden' clause");
    {
        const Token &kw = c.next("clause keyword");
        t.clause.line = kw.line;
        if (lower(kw.text) == "exists") {
            t.clause.kind = ClauseKind::Exists;
        } else {
            t.clause.kind = ClauseKind::Forbidden;
            if (lower(c.peek()) == "always") {
                c.next("always");
                t.clause.always = true;
            }
        }
        c.expect("(", "to open the clause condition");
        t.clause.cond = parseCond(c);
        c.expect(")", "to close the clause condition");
    }
    if (!c.done())
        c.fail("unexpected tokens after the final clause: " +
               c.describeHere());
    return t;
}

LitmusTest
parseLitmusFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw LitmusError(path, 0, "cannot open file");
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseLitmus(buf.str(), path);
}

std::string
toString(const Cond &c)
{
    std::ostringstream oss;
    switch (c.kind) {
      case Cond::Kind::And:
      case Cond::Kind::Or: {
        const char *sep = c.kind == Cond::Kind::And ? " && " : " || ";
        oss << "(";
        for (std::size_t i = 0; i < c.kids.size(); ++i) {
            if (i)
                oss << sep;
            oss << toString(c.kids[i]);
        }
        oss << ")";
        break;
      }
      case Cond::Kind::Not:
        oss << "!" << toString(c.kids.at(0));
        break;
      case Cond::Kind::RegTerm:
        oss << "P" << c.proc << ":r" << c.reg
            << (c.op == CmpOp::Eq ? " == " : " != ") << c.value;
        break;
      case Cond::Kind::MemTerm:
        oss << c.loc << (c.op == CmpOp::Eq ? " == " : " != ") << c.value;
        break;
    }
    return oss.str();
}

std::string
toString(const Clause &c)
{
    std::string head =
        c.kind == ClauseKind::Exists
            ? "exists"
            : (c.always ? "forbidden always" : "forbidden");
    std::string cond = toString(c.cond);
    if (cond.empty() || cond.front() != '(')
        cond = "(" + cond + ")";
    return head + " " + cond;
}

} // namespace litmus_dsl
} // namespace wo
