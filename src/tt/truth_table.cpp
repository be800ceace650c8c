#include "tt/truth_table.hpp"

#include <bit>

#include "util/contracts.hpp"

namespace bg::tt {

TruthTable::TruthTable(unsigned nv) : num_vars_(nv) {
    BG_EXPECTS(nv <= max_vars, "truth table too wide");
    words_.assign(words_for(nv), 0);
}

void TruthTable::normalize() {
    if (num_vars_ >= 6) {
        return;
    }
    // Replicate the low 2^n-bit pattern across the word.
    const unsigned bits = 1U << num_vars_;
    std::uint64_t w = words_[0] & ((bits == 64) ? ~0ULL : ((1ULL << bits) - 1));
    for (unsigned shift = bits; shift < 64; shift <<= 1) {
        w |= w << shift;
    }
    words_[0] = w;
}

TruthTable TruthTable::ones(unsigned nv) {
    TruthTable t(nv);
    for (auto& w : t.words_) {
        w = ~0ULL;
    }
    return t;
}

TruthTable TruthTable::nth_var(unsigned nv, unsigned i) {
    BG_EXPECTS(i < nv, "projection variable out of range");
    TruthTable t(nv);
    if (i < 6) {
        for (auto& w : t.words_) {
            w = kProjectionWords[i];
        }
        t.normalize();
    } else {
        const std::size_t block = std::size_t{1} << (i - 6);
        for (std::size_t w = 0; w < t.words_.size(); ++w) {
            if ((w / block) & 1U) {
                t.words_[w] = ~0ULL;
            }
        }
    }
    return t;
}

TruthTable TruthTable::from_u16(std::uint16_t bits, unsigned nv) {
    BG_EXPECTS(nv >= 4, "from_u16 needs at least 4 variables");
    TruthTable t(nv);
    std::uint64_t w = bits;
    w |= w << 16;
    w |= w << 32;
    for (auto& word : t.words_) {
        word = w;
    }
    return t;
}

bool TruthTable::get_bit(std::uint64_t m) const {
    BG_EXPECTS(m < num_bits(), "minterm out of range");
    return (words_[m >> 6] >> (m & 63)) & 1ULL;
}

void TruthTable::set_bit(std::uint64_t m, bool value) {
    BG_EXPECTS(m < num_bits(), "minterm out of range");
    if (value) {
        words_[m >> 6] |= 1ULL << (m & 63);
    } else {
        words_[m >> 6] &= ~(1ULL << (m & 63));
    }
    normalize();
}

bool TruthTable::is_const0() const {
    for (const auto w : words_) {
        if (w != 0) {
            return false;
        }
    }
    return true;
}

bool TruthTable::is_const1() const {
    for (const auto w : words_) {
        if (w != ~0ULL) {
            return false;
        }
    }
    return true;
}

std::uint64_t TruthTable::count_ones() const {
    if (num_vars_ < 6) {
        const unsigned bits = 1U << num_vars_;
        const std::uint64_t mask = (1ULL << bits) - 1;
        return static_cast<std::uint64_t>(std::popcount(words_[0] & mask));
    }
    std::uint64_t total = 0;
    for (const auto w : words_) {
        total += static_cast<std::uint64_t>(std::popcount(w));
    }
    return total;
}

bool TruthTable::depends_on(unsigned i) const {
    return cofactor0(i) != cofactor1(i);
}

std::uint32_t TruthTable::support_mask() const {
    std::uint32_t mask = 0;
    for (unsigned i = 0; i < num_vars_; ++i) {
        if (depends_on(i)) {
            mask |= 1U << i;
        }
    }
    return mask;
}

unsigned TruthTable::support_size() const {
    return static_cast<unsigned>(std::popcount(support_mask()));
}

TruthTable TruthTable::cofactor0(unsigned i) const {
    BG_EXPECTS(i < num_vars_, "cofactor variable out of range");
    TruthTable t(*this);
    if (i < 6) {
        const unsigned shift = 1U << i;
        for (auto& w : t.words_) {
            const std::uint64_t lo = w & ~kProjectionWords[i];
            w = lo | (lo << shift);
        }
    } else {
        const std::size_t block = std::size_t{1} << (i - 6);
        for (std::size_t w = 0; w < t.words_.size(); w += 2 * block) {
            for (std::size_t k = 0; k < block; ++k) {
                t.words_[w + block + k] = t.words_[w + k];
            }
        }
    }
    return t;
}

TruthTable TruthTable::cofactor1(unsigned i) const {
    BG_EXPECTS(i < num_vars_, "cofactor variable out of range");
    TruthTable t(*this);
    if (i < 6) {
        const unsigned shift = 1U << i;
        for (auto& w : t.words_) {
            const std::uint64_t hi = w & kProjectionWords[i];
            w = hi | (hi >> shift);
        }
    } else {
        const std::size_t block = std::size_t{1} << (i - 6);
        for (std::size_t w = 0; w < t.words_.size(); w += 2 * block) {
            for (std::size_t k = 0; k < block; ++k) {
                t.words_[w + k] = t.words_[w + block + k];
            }
        }
    }
    return t;
}

TruthTable TruthTable::swap_vars(unsigned i, unsigned j) const {
    BG_EXPECTS(i < num_vars_ && j < num_vars_, "swap variable out of range");
    if (i == j) {
        return *this;
    }
    // f = !xi!xj f00 + !xi xj f01 + xi !xj f10 + xi xj f11 ; swap exchanges
    // f01 and f10.
    const TruthTable xi = nth_var(num_vars_, i);
    const TruthTable xj = nth_var(num_vars_, j);
    const TruthTable f00 = cofactor0(i).cofactor0(j);
    const TruthTable f01 = cofactor0(i).cofactor1(j);
    const TruthTable f10 = cofactor1(i).cofactor0(j);
    const TruthTable f11 = cofactor1(i).cofactor1(j);
    return (~xi & ~xj & f00) | (~xi & xj & f10) | (xi & ~xj & f01) |
           (xi & xj & f11);
}

TruthTable TruthTable::flip_var(unsigned i) const {
    BG_EXPECTS(i < num_vars_, "flip variable out of range");
    const TruthTable xi = nth_var(num_vars_, i);
    return (~xi & cofactor1(i)) | (xi & cofactor0(i));
}

std::uint16_t TruthTable::to_u16() const {
    BG_EXPECTS(num_vars_ <= 4, "to_u16 requires at most 4 variables");
    return static_cast<std::uint16_t>(words_[0] & 0xFFFFULL);
}

std::string TruthTable::to_hex() const {
    static const char digits[] = "0123456789ABCDEF";
    const std::uint64_t nibbles = std::max<std::uint64_t>(num_bits() / 4, 1);
    std::string out;
    out.reserve(nibbles);
    for (std::uint64_t n = nibbles; n-- > 0;) {
        const std::uint64_t bit = n * 4;
        const unsigned nib =
            static_cast<unsigned>((words_[bit >> 6] >> (bit & 63)) & 0xF);
        out += digits[num_bits() >= 4 ? nib : (nib & ((1U << num_bits()) - 1))];
    }
    return out;
}

TruthTable TruthTable::from_hex(unsigned nv, const std::string& hex) {
    TruthTable t(nv);
    std::uint64_t bit = 0;
    for (auto it = hex.rbegin(); it != hex.rend(); ++it) {
        const char c = *it;
        unsigned nib = 0;
        if (c >= '0' && c <= '9') {
            nib = static_cast<unsigned>(c - '0');
        } else if (c >= 'A' && c <= 'F') {
            nib = static_cast<unsigned>(c - 'A') + 10;
        } else if (c >= 'a' && c <= 'f') {
            nib = static_cast<unsigned>(c - 'a') + 10;
        } else {
            throw std::runtime_error("invalid hex digit in truth table");
        }
        if (bit < t.num_bits()) {
            t.words_[bit >> 6] |= static_cast<std::uint64_t>(nib) << (bit & 63);
        }
        bit += 4;
    }
    t.normalize();
    return t;
}

std::string TruthTable::to_binary() const {
    std::string out;
    out.reserve(num_bits());
    for (std::uint64_t m = num_bits(); m-- > 0;) {
        out += get_bit(m) ? '1' : '0';
    }
    return out;
}

TruthTable TruthTable::operator~() const {
    TruthTable t(*this);
    for (auto& w : t.words_) {
        w = ~w;
    }
    return t;
}

TruthTable& TruthTable::operator&=(const TruthTable& o) {
    BG_EXPECTS(num_vars_ == o.num_vars_, "width mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i] &= o.words_[i];
    }
    return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& o) {
    BG_EXPECTS(num_vars_ == o.num_vars_, "width mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i] |= o.words_[i];
    }
    return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& o) {
    BG_EXPECTS(num_vars_ == o.num_vars_, "width mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i] ^= o.words_[i];
    }
    return *this;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
    TruthTable t(*this);
    t &= o;
    return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
    TruthTable t(*this);
    t |= o;
    return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
    TruthTable t(*this);
    t ^= o;
    return t;
}

bool TruthTable::operator==(const TruthTable& o) const {
    return num_vars_ == o.num_vars_ && words_ == o.words_;
}

bool TruthTable::implies(const TruthTable& o) const {
    BG_EXPECTS(num_vars_ == o.num_vars_, "width mismatch");
    for (std::size_t i = 0; i < words_.size(); ++i) {
        if ((words_[i] & ~o.words_[i]) != 0) {
            return false;
        }
    }
    return true;
}

std::uint64_t TruthTable::hash() const {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL + num_vars_;
    for (const auto w : words_) {
        std::uint64_t z = w + 0x9E3779B97F4A7C15ULL + h;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        h ^= z ^ (z >> 31);
    }
    return h;
}

}  // namespace bg::tt
