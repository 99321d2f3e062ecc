#include "sparse/io.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string_view>

#include "util/logging.hh"

namespace misam {

namespace {

/** Whitespace as std::isspace classifies it in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isExponentMark(char c)
{
    return c == 'e' || c == 'E';
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/**
 * Cursor over in-memory text. readIndex and readValue skip leading
 * whitespace and consume one number, accepting exactly the tokens
 * `std::istream >>` accepts in the "C" locale and producing the same
 * value; on a bad token they return false and the caller reports it.
 */
class Scanner
{
  public:
    explicit Scanner(std::string_view s)
        : p_(s.data()), end_(s.data() + s.size())
    {
    }

    std::size_t remaining() const { return end_ - p_; }

    /** strtoull semantics: optional sign, decimal digits, '-' wraps. */
    bool
    readIndex(std::uint64_t &v)
    {
        skipSpace();
        const char *s = p_;
        const bool negative = s != end_ && *s == '-';
        if (s != end_ && (*s == '+' || *s == '-'))
            ++s;
        const auto [ptr, ec] = std::from_chars(s, end_, v);
        if (ec != std::errc())
            return false;
        if (negative)
            v = 0 - v;
        p_ = ptr;
        return true;
    }

    /** strtod semantics over a decimal token; no inf, nan or hex. */
    bool
    readValue(double &v)
    {
        skipSpace();
        const char *first = p_;
        const char *mantissa = first;
        if (mantissa != end_ && (*mantissa == '+' || *mantissa == '-'))
            ++mantissa;
        if (mantissa == end_ || !(isDigit(*mantissa) || *mantissa == '.'))
            return false;
        if (*first == '+') // from_chars takes '-' but not '+'.
            first = mantissa;
        const auto [ptr, ec] = std::from_chars(first, end_, v);
        if (ec == std::errc::invalid_argument)
            return false;
        // from_chars stops before a malformed exponent ("1e", "1e+");
        // istream consumes it and rejects the token.
        if (ptr != end_ && isExponentMark(*ptr) &&
            std::none_of(first, ptr, isExponentMark))
            return false;
        if (ec == std::errc::result_out_of_range) {
            // Overflow and underflow share this code; istream rejects
            // the first and rounds the second to a signed zero, so let
            // strtod tell them apart on this one token.
            const double d = std::strtod(std::string(first, ptr).c_str(),
                                         nullptr);
            if (std::isinf(d))
                return false;
            v = d;
        }
        p_ = ptr;
        return true;
    }

    /** The next whitespace-delimited word (empty at end of input). */
    std::string_view
    readWord()
    {
        skipSpace();
        const char *start = p_;
        while (p_ != end_ && !isSpace(*p_))
            ++p_;
        return {start, static_cast<std::size_t>(p_ - start)};
    }

    /** Consume the next line without its '\n'; false at end of input. */
    bool
    readLine(std::string_view &line)
    {
        if (p_ == end_)
            return false;
        const char *eol = std::find(p_, end_, '\n');
        line = {p_, static_cast<std::size_t>(eol - p_)};
        p_ = eol == end_ ? end_ : eol + 1;
        return true;
    }

  private:
    void
    skipSpace()
    {
        while (p_ != end_ && isSpace(*p_))
            ++p_;
    }

    const char *p_;
    const char *end_;
};

/** The one Matrix Market parser: banner, size line, then entries. */
CooMatrix
parseMatrixMarket(std::string_view text)
{
    Scanner in(text);
    std::string_view line;
    if (!in.readLine(line))
        fatal("MatrixMarket: empty input");

    Scanner banner(line);
    const std::string_view tag = banner.readWord();
    const std::string object = toLower(banner.readWord());
    const std::string format = toLower(banner.readWord());
    const std::string field = toLower(banner.readWord());
    const std::string symmetry = toLower(banner.readWord());
    if (tag != "%%MatrixMarket")
        fatal("MatrixMarket: missing %%MatrixMarket banner");
    if (object != "matrix" || format != "coordinate")
        fatal("MatrixMarket: only 'matrix coordinate' supported, got '",
              object, " ", format, "'");
    const bool pattern = field == "pattern";
    if (!pattern && field != "real" && field != "integer")
        fatal("MatrixMarket: unsupported field '", field, "'");
    const bool symmetric = symmetry == "symmetric";
    if (!symmetric && symmetry != "general")
        fatal("MatrixMarket: unsupported symmetry '", symmetry, "'");

    // Skip blank and comment lines; the first other line is the size.
    bool found = false;
    while (!found && in.readLine(line))
        found = !line.empty() && line[0] != '%';
    if (!found)
        line = {};
    Scanner size_line(line);
    std::uint64_t rows = 0, cols = 0, nnz = 0;
    if (!size_line.readIndex(rows) || !size_line.readIndex(cols) ||
        !size_line.readIndex(nnz))
        fatal("MatrixMarket: bad size line '", line, "'");
    constexpr std::uint64_t max_dim = std::numeric_limits<Index>::max();
    if (rows > max_dim || cols > max_dim)
        fatal("MatrixMarket: dimension above the index limit ", max_dim,
              " in size line '", line, "'");

    CooMatrix coo(static_cast<Index>(rows), static_cast<Index>(cols));
    // Every entry takes at least 4 bytes ("1 1\n"), so a lying nnz
    // cannot reserve more than the text could hold.
    const std::uint64_t fits = in.remaining() / 4 + 1;
    coo.reserve((symmetric ? 2 : 1) * std::min(nnz, fits));
    std::vector<CooEntry> &entries = coo.entries();
    for (std::uint64_t i = 0; i < nnz; ++i) {
        std::uint64_t r = 0, c = 0;
        double v = 1.0;
        if (!in.readIndex(r) || !in.readIndex(c))
            fatal("MatrixMarket: truncated at entry ", i);
        if (!pattern && !in.readValue(v))
            fatal("MatrixMarket: missing value at entry ", i);
        if (r == 0 || c == 0 || r > rows || c > cols)
            fatal("MatrixMarket: 1-based index out of range at entry ", i);
        entries.push_back(
            {static_cast<Index>(r - 1), static_cast<Index>(c - 1), v});
        if (symmetric && r != c)
            entries.push_back(
                {static_cast<Index>(c - 1), static_cast<Index>(r - 1), v});
    }
    coo.sortAndCombine();
    return coo;
}

/**
 * Everything left in `in`, read straight into one buffer. in_avail()
 * gives the remaining size of a string or regular file, so those arrive
 * in a single read; a pipe reports nothing and the buffer grows.
 */
std::string
readAll(std::istream &in)
{
    const std::streamsize avail = in.rdbuf()->in_avail();
    std::string text(static_cast<std::size_t>(std::max<std::streamsize>(
                         avail + 1, 4096)),
                     '\0');
    std::size_t size = 0;
    for (;;) {
        const std::streamsize room =
            static_cast<std::streamsize>(text.size() - size);
        size += static_cast<std::size_t>(
            in.rdbuf()->sgetn(text.data() + size, room));
        if (size < text.size()) // A short read means end of input.
            break;
        text.resize(2 * text.size());
    }
    text.resize(size);
    return text;
}

} // namespace

CooMatrix
readMatrixMarket(std::istream &in)
{
    return parseMatrixMarket(readAll(in));
}

CooMatrix
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("MatrixMarket: cannot open '", path, "'");
    return parseMatrixMarket(readAll(in));
}

void
writeMatrixMarket(std::ostream &out, const CsrMatrix &m)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << m.rows() << ' ' << m.cols() << ' ' << m.nnz() << '\n';
    // Shortest form that parses back to the same double.
    char value[32];
    for (Index r = 0; r < m.rows(); ++r) {
        auto cols = m.rowCols(r);
        auto vals = m.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            const char *end =
                std::to_chars(value, value + sizeof(value), vals[k]).ptr;
            out << (r + 1) << ' ' << (cols[k] + 1) << ' ';
            out.write(value, end - value) << '\n';
        }
    }
}

void
writeMatrixMarketFile(const std::string &path, const CsrMatrix &m)
{
    std::ofstream out(path);
    if (!out)
        fatal("MatrixMarket: cannot create '", path, "'");
    writeMatrixMarket(out, m);
}

} // namespace misam
