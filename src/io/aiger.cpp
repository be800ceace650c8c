#include "io/aiger.hpp"

#include <fstream>
#include <sstream>

namespace bg::io {

using aig::Aig;
using aig::Lit;
using aig::lit_is_compl;
using aig::lit_not_cond;
using aig::lit_var;

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
    throw std::runtime_error("aiger: line " + std::to_string(line_no) + ": " +
                             why);
}

std::vector<std::uint64_t> parse_uints(const std::string& line,
                                       std::size_t line_no) {
    std::vector<std::uint64_t> out;
    std::istringstream ss(line);
    std::uint64_t v = 0;
    while (ss >> v) {
        out.push_back(v);
    }
    if (!ss.eof()) {
        fail(line_no, "expected unsigned integers: '" + line + "'");
    }
    return out;
}

}  // namespace

Aig read_aiger(std::istream& in) {
    std::string line;
    std::size_t line_no = 0;

    const auto next_line = [&]() -> bool {
        while (std::getline(in, line)) {
            ++line_no;
            if (!line.empty() && line.back() == '\r') {
                line.pop_back();
            }
            return true;
        }
        return false;
    };

    if (!next_line()) {
        fail(0, "empty document");
    }
    std::istringstream header(line);
    std::string magic;
    std::uint64_t m = 0;
    std::uint64_t i = 0;
    std::uint64_t l = 0;
    std::uint64_t o = 0;
    std::uint64_t a = 0;
    if (!(header >> magic >> m >> i >> l >> o >> a) || magic != "aag") {
        fail(line_no, "expected header 'aag M I L O A'");
    }
    if (l != 0) {
        fail(line_no, "latches are not supported (combinational AIGs only)");
    }
    if (m < i + a) {
        fail(line_no, "M must be at least I + A");
    }

    Aig g;
    g.reserve(static_cast<std::size_t>(m) + 1);
    // AIGER var k corresponds 1:1 to our var k as long as inputs come
    // first; the format guarantees input literals 2,4,...,2I.
    for (std::uint64_t k = 0; k < i; ++k) {
        if (!next_line()) {
            fail(line_no, "missing input line");
        }
        const auto vals = parse_uints(line, line_no);
        if (vals.size() != 1 || vals[0] != 2 * (k + 1)) {
            fail(line_no, "input literal must be " +
                              std::to_string(2 * (k + 1)));
        }
        g.add_pi();
    }

    std::vector<std::uint64_t> out_lits;
    out_lits.reserve(o);
    for (std::uint64_t k = 0; k < o; ++k) {
        if (!next_line()) {
            fail(line_no, "missing output line");
        }
        const auto vals = parse_uints(line, line_no);
        if (vals.size() != 1) {
            fail(line_no, "output line must hold one literal");
        }
        out_lits.push_back(vals[0]);
    }

    // AND definitions; map AIGER vars to our literals.
    std::vector<Lit> var_map(m + 1, aig::null_lit);
    var_map[0] = aig::lit_false;
    for (std::uint64_t k = 0; k < i; ++k) {
        var_map[k + 1] = aig::make_lit(static_cast<aig::Var>(k + 1));
    }
    for (std::uint64_t k = 0; k < a; ++k) {
        if (!next_line()) {
            fail(line_no, "missing AND line");
        }
        const auto vals = parse_uints(line, line_no);
        if (vals.size() != 3) {
            fail(line_no, "AND line must hold three literals");
        }
        const std::uint64_t lhs = vals[0];
        if (lhs % 2 != 0 || lhs / 2 > m) {
            fail(line_no, "invalid AND left-hand literal");
        }
        const auto resolve = [&](std::uint64_t aiger_lit) -> Lit {
            const std::uint64_t var = aiger_lit / 2;
            if (var > m || var_map[var] == aig::null_lit) {
                fail(line_no, "literal references an undefined variable");
            }
            return lit_not_cond(var_map[var], (aiger_lit & 1) != 0);
        };
        const Lit rhs0 = resolve(vals[1]);
        const Lit rhs1 = resolve(vals[2]);
        if (var_map[lhs / 2] != aig::null_lit) {
            fail(line_no, "AND variable defined twice");
        }
        var_map[lhs / 2] = g.and_(rhs0, rhs1);
    }

    for (const std::uint64_t ol : out_lits) {
        const std::uint64_t var = ol / 2;
        if (var > m || var_map[var] == aig::null_lit) {
            fail(line_no, "output references an undefined variable");
        }
        g.add_po(lit_not_cond(var_map[var], (ol & 1) != 0));
    }
    return g;
}

Aig read_aiger_string(const std::string& text) {
    std::istringstream ss(text);
    return read_aiger(ss);
}

Aig read_aiger_file(const std::filesystem::path& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("aiger: cannot open " + path.string());
    }
    return read_aiger(in);
}

void write_aiger(const Aig& g_in, std::ostream& out) {
    const Aig g = g_in.compact();
    // In a compacted AIG, vars are [0 | PIs | ANDs] with ANDs created in
    // topological order, so emitting vars in increasing index order yields
    // exactly the ordering AIGER consumers expect.
    const std::size_t i = g.num_pis();
    const std::size_t a = g.num_ands();
    const std::size_t m = i + a;
    out << "aag " << m << ' ' << i << " 0 " << g.num_pos() << ' ' << a
        << '\n';
    for (std::size_t k = 0; k < i; ++k) {
        out << 2 * (k + 1) << '\n';
    }
    for (const Lit po : g.pos()) {
        out << po << '\n';
    }
    for (aig::Var v = static_cast<aig::Var>(i + 1); v <= m; ++v) {
        BG_ASSERT(g.is_and(v), "compacted AIG must have dense AND indices");
        out << aig::make_lit(v) << ' ' << g.fanin0(v) << ' ' << g.fanin1(v)
            << '\n';
    }
}

std::string write_aiger_string(const Aig& g) {
    std::ostringstream ss;
    write_aiger(g, ss);
    return ss.str();
}

void write_aiger_file(const Aig& g, const std::filesystem::path& path) {
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("aiger: cannot write " + path.string());
    }
    write_aiger(g, out);
}

// ---------------------------------------------------------------------------
// Binary AIGER
// ---------------------------------------------------------------------------

namespace {

/// LEB128-style delta encoding used by the binary format.
void put_delta(std::ostream& out, std::uint64_t delta) {
    while (delta >= 0x80) {
        out.put(static_cast<char>(0x80 | (delta & 0x7F)));
        delta >>= 7;
    }
    out.put(static_cast<char>(delta));
}

std::uint64_t get_delta(std::istream& in) {
    std::uint64_t value = 0;
    unsigned shift = 0;
    while (true) {
        const int c = in.get();
        if (c == EOF) {
            throw std::runtime_error("aiger: truncated binary delta");
        }
        value |= static_cast<std::uint64_t>(c & 0x7F) << shift;
        if ((c & 0x80) == 0) {
            return value;
        }
        shift += 7;
        if (shift > 63) {
            throw std::runtime_error("aiger: oversized binary delta");
        }
    }
}

}  // namespace

Aig read_aiger_binary(std::istream& in) {
    std::string header;
    if (!std::getline(in, header)) {
        fail(1, "empty binary document");
    }
    std::istringstream hs(header);
    std::string magic;
    std::uint64_t m = 0;
    std::uint64_t i = 0;
    std::uint64_t l = 0;
    std::uint64_t o = 0;
    std::uint64_t a = 0;
    if (!(hs >> magic >> m >> i >> l >> o >> a) || magic != "aig") {
        fail(1, "expected binary header 'aig M I L O A'");
    }
    if (l != 0) {
        fail(1, "latches are not supported (combinational AIGs only)");
    }
    if (m != i + a) {
        fail(1, "binary AIGER requires M == I + A");
    }

    Aig g;
    g.reserve(static_cast<std::size_t>(m) + 1);
    std::vector<Lit> var_map(m + 1, aig::null_lit);
    var_map[0] = aig::lit_false;
    for (std::uint64_t k = 0; k < i; ++k) {
        g.add_pi();
        var_map[k + 1] = aig::make_lit(static_cast<aig::Var>(k + 1));
    }

    // Outputs come as ASCII literal lines before the delta block.
    std::vector<std::uint64_t> out_lits;
    out_lits.reserve(o);
    std::string line;
    std::size_t line_no = 1;  // the header
    for (std::uint64_t k = 0; k < o; ++k) {
        ++line_no;
        if (!std::getline(in, line)) {
            fail(line_no, "missing binary output line");
        }
        const auto vals = parse_uints(line, line_no);
        if (vals.size() != 1) {
            fail(line_no, "output line must hold one literal");
        }
        out_lits.push_back(vals[0]);
    }

    for (std::uint64_t k = 0; k < a; ++k) {
        const std::uint64_t lhs = 2 * (i + k + 1);
        const std::uint64_t delta0 = get_delta(in);
        const std::uint64_t delta1 = get_delta(in);
        if (delta0 == 0 || delta0 > lhs) {
            fail(0, "binary AND delta out of range");
        }
        const std::uint64_t rhs0 = lhs - delta0;
        if (delta1 > rhs0) {
            fail(0, "binary AND second delta out of range");
        }
        const std::uint64_t rhs1 = rhs0 - delta1;
        const auto resolve = [&](std::uint64_t alit) -> Lit {
            const std::uint64_t var = alit / 2;
            if (var > m || var_map[var] == aig::null_lit) {
                fail(0, "binary literal references an undefined variable");
            }
            return lit_not_cond(var_map[var], (alit & 1) != 0);
        };
        var_map[lhs / 2] = g.and_(resolve(rhs0), resolve(rhs1));
    }

    for (const std::uint64_t ol : out_lits) {
        const std::uint64_t var = ol / 2;
        if (var > m || var_map[var] == aig::null_lit) {
            fail(0, "binary output references an undefined variable");
        }
        g.add_po(lit_not_cond(var_map[var], (ol & 1) != 0));
    }
    return g;
}

Aig read_aiger_binary_string(const std::string& bytes) {
    std::istringstream ss(bytes);
    return read_aiger_binary(ss);
}

Aig read_aiger_binary_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("aiger: cannot open " + path.string());
    }
    return read_aiger_binary(in);
}

void write_aiger_binary(const Aig& g_in, std::ostream& out) {
    const Aig g = g_in.compact();
    const std::size_t i = g.num_pis();
    const std::size_t a = g.num_ands();
    const std::size_t m = i + a;
    out << "aig " << m << ' ' << i << " 0 " << g.num_pos() << ' ' << a
        << '\n';
    for (const Lit po : g.pos()) {
        out << po << '\n';
    }
    for (aig::Var v = static_cast<aig::Var>(i + 1); v <= m; ++v) {
        BG_ASSERT(g.is_and(v), "compacted AIG must have dense AND indices");
        const std::uint64_t lhs = aig::make_lit(v);
        // The format requires lhs > rhs0 >= rhs1; our fanins are
        // normalized as fanin0 <= fanin1.
        const std::uint64_t rhs0 = g.fanin1(v);
        const std::uint64_t rhs1 = g.fanin0(v);
        put_delta(out, lhs - rhs0);
        put_delta(out, rhs0 - rhs1);
    }
}

std::string write_aiger_binary_string(const Aig& g) {
    std::ostringstream ss;
    write_aiger_binary(g, ss);
    return ss.str();
}

void write_aiger_binary_file(const Aig& g,
                             const std::filesystem::path& path) {
    if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw std::runtime_error("aiger: cannot write " + path.string());
    }
    write_aiger_binary(g, out);
}

Aig read_aiger_auto_file(const std::filesystem::path& path) {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) {
        throw std::runtime_error("aiger: cannot open " + path.string());
    }
    std::string magic(3, '\0');
    probe.read(magic.data(), 3);
    probe.close();
    if (magic == "aag") {
        return read_aiger_file(path);
    }
    if (magic == "aig") {
        return read_aiger_binary_file(path);
    }
    throw std::runtime_error("aiger: unrecognized magic in " + path.string());
}

}  // namespace bg::io
