#include "base/truth_table.hpp"

#include <algorithm>

#include "base/check.hpp"

namespace turbosyn {
namespace {

std::size_t word_count_for(int num_vars) {
  return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}

// Bit positions of a word at which variable v (v < 6) is 1.
constexpr std::uint64_t kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

void check_arity(int num_vars) {
  TS_CHECK(num_vars >= 0 && num_vars <= TruthTable::kMaxVars,
           "truth table arity " << num_vars << " out of range [0, " << TruthTable::kMaxVars << "]");
}

}  // namespace

void TruthTable::mask_tail() {
  if (num_vars_ < 6) {
    words_[0] &= (std::uint64_t{1} << (std::size_t{1} << num_vars_)) - 1;
  }
}

TruthTable TruthTable::constant(int num_vars, bool value) {
  check_arity(num_vars);
  TruthTable t(num_vars, word_count_for(num_vars));
  if (value) {
    std::fill(t.words_.begin(), t.words_.end(), ~std::uint64_t{0});
    t.mask_tail();
  }
  return t;
}

TruthTable TruthTable::var(int num_vars, int index) {
  check_arity(num_vars);
  TS_CHECK(index >= 0 && index < num_vars, "variable index " << index << " out of range");
  TruthTable t(num_vars, word_count_for(num_vars));
  if (index < 6) {
    std::fill(t.words_.begin(), t.words_.end(), kVarMask[index]);
  } else {
    // Whole words alternate in blocks of 2^(index-6).
    const std::size_t block = std::size_t{1} << (index - 6);
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      if ((w / block) & 1) t.words_[w] = ~std::uint64_t{0};
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_words(int num_vars, std::span<const std::uint64_t> words) {
  check_arity(num_vars);
  TruthTable t(num_vars, word_count_for(num_vars));
  TS_CHECK(words.size() >= t.words_.size(),
           "need " << t.words_.size() << " words for " << num_vars << " variables");
  std::copy_n(words.begin(), t.words_.size(), t.words_.begin());
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_binary_string(int num_vars, const std::string& bits) {
  check_arity(num_vars);
  TruthTable t(num_vars, word_count_for(num_vars));
  TS_CHECK(bits.size() == t.num_bits(),
           "binary string length " << bits.size() << " != 2^" << num_vars);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    TS_CHECK(bits[i] == '0' || bits[i] == '1', "invalid character in binary string");
    if (bits[i] == '1') t.set_bit(static_cast<std::uint32_t>(i), true);
  }
  return t;
}

bool TruthTable::bit(std::uint32_t assignment) const {
  TS_ASSERT(assignment < num_bits());
  return (words_[assignment >> 6] >> (assignment & 63)) & 1;
}

void TruthTable::set_bit(std::uint32_t assignment, bool value) {
  TS_ASSERT(assignment < num_bits());
  const std::uint64_t mask = std::uint64_t{1} << (assignment & 63);
  if (value) {
    words_[assignment >> 6] |= mask;
  } else {
    words_[assignment >> 6] &= ~mask;
  }
}

bool TruthTable::is_const0() const {
  return std::all_of(words_.begin(), words_.end(), [](std::uint64_t w) { return w == 0; });
}

bool TruthTable::is_const1() const { return *this == constant(num_vars_, true); }

std::size_t TruthTable::count_ones() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

TruthTable TruthTable::operator~() const {
  TruthTable t(*this);
  for (auto& w : t.words_) w = ~w;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  TS_CHECK(num_vars_ == o.num_vars_, "arity mismatch in truth table AND");
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] &= o.words_[i];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  TS_CHECK(num_vars_ == o.num_vars_, "arity mismatch in truth table OR");
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] |= o.words_[i];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  TS_CHECK(num_vars_ == o.num_vars_, "arity mismatch in truth table XOR");
  TruthTable t(*this);
  for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] ^= o.words_[i];
  return t;
}

bool TruthTable::operator==(const TruthTable& o) const {
  return num_vars_ == o.num_vars_ && words_ == o.words_;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  TS_CHECK(var >= 0 && var < num_vars_, "cofactor variable out of range");
  TruthTable t(*this);
  if (var < 6) {
    const int shift = 1 << var;
    const std::uint64_t keep = value ? kVarMask[var] : ~kVarMask[var];
    for (auto& w : t.words_) {
      const std::uint64_t sel = w & keep;
      w = value ? (sel | (sel >> shift)) : (sel | (sel << shift));
    }
  } else {
    const std::size_t block = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      const std::size_t base = (w / (2 * block)) * 2 * block + (w % block);
      t.words_[w] = words_[base + (value ? block : 0)];
    }
  }
  return t;
}

bool TruthTable::depends_on(int var) const {
  return cofactor(var, false) != cofactor(var, true);
}

std::vector<int> TruthTable::support() const {
  std::vector<int> vars;
  for (int v = 0; v < num_vars_; ++v) {
    if (depends_on(v)) vars.push_back(v);
  }
  return vars;
}

void TruthTable::swap_vars(int i, int j) {
  TS_ASSERT(i < j && j < num_vars_);
  if (j < 6) {
    // Delta swap inside each word: bits with x_i=1, x_j=0 trade places with
    // bits with x_i=0, x_j=1.
    const int shift = (1 << j) - (1 << i);
    const std::uint64_t m = kVarMask[i] & ~kVarMask[j];
    for (auto& w : words_) {
      const std::uint64_t d = ((w >> shift) ^ w) & m;
      w ^= d | (d << shift);
    }
  } else if (i < 6) {
    // x_j selects between word pairs; swap the x_i=1 half of the low word
    // with the x_i=0 half of the high word.
    const std::size_t step = std::size_t{1} << (j - 6);
    const int shift = 1 << i;
    const std::uint64_t m = kVarMask[i];
    for (std::size_t w = 0; w < words_.size(); w += 2 * step) {
      for (std::size_t k = w; k < w + step; ++k) {
        const std::uint64_t lo = words_[k];
        const std::uint64_t hi = words_[k + step];
        words_[k] = (lo & ~m) | ((hi & ~m) << shift);
        words_[k + step] = (hi & m) | ((lo & m) >> shift);
      }
    }
  } else {
    // Both select words: exchange the words with x_i=1, x_j=0 and x_i=0, x_j=1.
    const std::size_t si = std::size_t{1} << (i - 6);
    const std::size_t sj = std::size_t{1} << (j - 6);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if ((w & si) != 0 && (w & sj) == 0) std::swap(words_[w], words_[w - si + sj]);
    }
  }
}

TruthTable TruthTable::remap(int new_num_vars, std::span<const int> var_map) const {
  check_arity(new_num_vars);
  TS_CHECK(static_cast<int>(var_map.size()) == num_vars_, "remap needs one entry per variable");
  // dest[p]: the position the variable now at p must end at. Positions
  // num_vars_.. are don't-cares after widening; they take the unused targets.
  int dest[kMaxVars];
  bool used[kMaxVars] = {};
  for (int v = 0; v < num_vars_; ++v) {
    const int nv = var_map[static_cast<std::size_t>(v)];
    TS_CHECK(nv >= 0 && nv < new_num_vars, "remap target out of range");
    TS_CHECK(!used[nv], "remap targets must be distinct");
    used[nv] = true;
    dest[v] = nv;
  }
  for (int nv = 0, p = num_vars_; nv < new_num_vars; ++nv) {
    if (!used[nv]) dest[p++] = nv;
  }

  // Widen by replication: the new variables num_vars_.. do not matter.
  TruthTable t(new_num_vars, word_count_for(new_num_vars));
  if (num_vars_ < 6) {
    std::uint64_t w = words_[0] & ((std::uint64_t{1} << (std::size_t{1} << num_vars_)) - 1);
    for (int v = num_vars_; v < 6; ++v) w |= w << (1 << v);
    std::fill(t.words_.begin(), t.words_.end(), w);
  } else {
    for (std::size_t w = 0; w < t.words_.size(); ++w) t.words_[w] = words_[w % words_.size()];
  }

  // Selection by swaps: settle positions in ascending order.
  for (int p = 0; p < new_num_vars; ++p) {
    int q = p;
    while (dest[q] != p) ++q;
    if (q != p) {
      t.swap_vars(p, q);
      std::swap(dest[p], dest[q]);
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::drop_var(int var) const {
  TS_CHECK(var >= 0 && var < num_vars_, "drop_var variable out of range");
  TS_CHECK(!depends_on(var), "cannot drop a variable in the support");
  TruthTable t(num_vars_ - 1, word_count_for(num_vars_ - 1));
  const std::uint32_t out_bits = static_cast<std::uint32_t>(t.num_bits());
  for (std::uint32_t out = 0; out < out_bits; ++out) {
    const std::uint32_t low = out & ((std::uint32_t{1} << var) - 1);
    const std::uint32_t high = (out >> var) << (var + 1);
    if (bit(high | low)) t.set_bit(out, true);
  }
  return t;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(num_vars_);
  for (std::uint64_t w : words_) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::string TruthTable::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string s;
  const std::size_t nibbles = std::max<std::size_t>(1, num_bits() / 4);
  for (std::size_t i = nibbles; i-- > 0;) {
    const std::uint64_t w = words_[(i * 4) >> 6];
    s.push_back(digits[(w >> ((i * 4) & 63)) & 0xf]);
  }
  return s;
}

TruthTable compose(const TruthTable& g, std::span<const TruthTable> inputs) {
  TS_CHECK(static_cast<int>(inputs.size()) == g.num_vars(),
           "compose needs one input function per variable of g");
  if (inputs.empty()) return g;  // g is a constant over 0 vars
  const int arity = inputs[0].num_vars();
  for (const auto& in : inputs) {
    TS_CHECK(in.num_vars() == arity, "compose inputs must share arity");
  }
  // Word-parallel minterm expansion: for every on-set row of g, AND the
  // (possibly complemented) input tables together and OR into the result.
  // g has at most K inputs, so this is <= 2^K word-sweeps — far cheaper than
  // per-bit evaluation for the wide tables used during cut extraction.
  TruthTable result = TruthTable::constant(arity, false);
  const std::size_t words = result.num_words();
  for (std::uint32_t row = 0; row < g.num_bits(); ++row) {
    if (!g.bit(row)) continue;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t acc = ~std::uint64_t{0};
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const std::uint64_t word = inputs[i].word(w);
        acc &= ((row >> i) & 1) ? word : ~word;
        if (acc == 0) break;
      }
      if (acc != 0) {
        result.words_[w] |= acc;
      }
    }
  }
  result.mask_tail();
  return result;
}

}  // namespace turbosyn
