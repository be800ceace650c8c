#pragma once

/// \file truth_table.hpp
/// Word-parallel truth tables over up to 20 variables.  Used for cut
/// functions (rewriting), window functions (resubstitution) and collapsed
/// cone functions (refactoring).
///
/// Representation: 2^n bits packed into 64-bit words.  For n < 6 the
/// 2^n-bit pattern is *replicated* to fill the single word, which lets all
/// bitwise and cofactor operations work uniformly on whole words (the same
/// convention ABC's Kit/Tt packages use).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bg::tt {

/// Practical cap: refactoring and resubstitution windows have at most 16
/// leaves (OptParams::max_window_leaves) and equivalence checks enumerate
/// at most 2^20 patterns.
inline constexpr unsigned max_vars = 20;

/// Words of a table over `num_vars` variables (one below six variables).
constexpr std::size_t words_for(unsigned num_vars) {
    return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}

/// Word of the projection x_i for i < 6: bit m is bit i of m.  (For
/// i >= 6, word w of x_i is all ones exactly when bit i - 6 of w is set.)
inline constexpr std::uint64_t kProjectionWords[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL,
};

class TruthTable {
public:
    /// Constant-0 function of `num_vars` variables.
    explicit TruthTable(unsigned num_vars = 0);

    static TruthTable zeros(unsigned num_vars) { return TruthTable(num_vars); }
    static TruthTable ones(unsigned num_vars);
    /// Projection x_i as a function of `num_vars` variables.
    static TruthTable nth_var(unsigned num_vars, unsigned i);
    /// Lift a 16-bit 4-variable function to `num_vars` >= 4 variables.
    static TruthTable from_u16(std::uint16_t bits, unsigned num_vars = 4);
    /// Parse from hex string as produced by to_hex() (MSB first).
    static TruthTable from_hex(unsigned num_vars, const std::string& hex);

    unsigned num_vars() const { return num_vars_; }
    std::uint64_t num_bits() const { return 1ULL << num_vars_; }
    std::size_t num_words() const { return words_.size(); }

    bool get_bit(std::uint64_t minterm) const;
    void set_bit(std::uint64_t minterm, bool value);

    bool is_const0() const;
    bool is_const1() const;
    std::uint64_t count_ones() const;

    /// True iff the function changes when x_i flips.
    bool depends_on(unsigned i) const;
    /// Bitmask of variables the function depends on.
    std::uint32_t support_mask() const;
    unsigned support_size() const;

    TruthTable cofactor0(unsigned i) const;  ///< f with x_i = 0
    TruthTable cofactor1(unsigned i) const;  ///< f with x_i = 1

    /// Swap the roles of variables i and j.
    TruthTable swap_vars(unsigned i, unsigned j) const;
    /// Complement variable i (f(x_i <- !x_i)).
    TruthTable flip_var(unsigned i) const;

    /// Low 16 bits as a 4-variable function (requires num_vars <= 4).
    std::uint16_t to_u16() const;
    std::string to_hex() const;
    std::string to_binary() const;  ///< MSB(minterm 2^n-1) ... LSB(minterm 0)

    TruthTable operator~() const;
    TruthTable operator&(const TruthTable& o) const;
    TruthTable operator|(const TruthTable& o) const;
    TruthTable operator^(const TruthTable& o) const;
    TruthTable& operator&=(const TruthTable& o);
    TruthTable& operator|=(const TruthTable& o);
    TruthTable& operator^=(const TruthTable& o);
    bool operator==(const TruthTable& o) const;
    bool operator!=(const TruthTable& o) const { return !(*this == o); }

    /// True iff this implies `o` bitwise (this & ~o == 0).
    bool implies(const TruthTable& o) const;

    /// 64-bit mixing hash (for memo tables).
    std::uint64_t hash() const;

    /// Raw word access (word w holds minterms [64w, 64w+63]).
    const std::vector<std::uint64_t>& words() const { return words_; }
    std::vector<std::uint64_t>& words() { return words_; }

private:
    void normalize();  ///< re-establish the replication / masking invariant

    unsigned num_vars_;
    std::vector<std::uint64_t> words_;
};

}  // namespace bg::tt
