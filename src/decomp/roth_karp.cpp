#include "decomp/roth_karp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <set>
#include <string>

#include "base/check.hpp"
#include "bdd/bdd.hpp"

namespace turbosyn {
namespace {

// ---- The ROBDD oracle and the legacy truth-table engine ----
//
// Both take f with its bound set already at variables 0..boundary-1 and
// return, per class, a representative over the full arity (classes do not
// depend on bound variables).
struct ClassInfo {
  std::size_t multiplicity = 0;
  std::vector<std::uint32_t> code_of;   // size 2^boundary
  std::vector<TruthTable> class_tt;     // size multiplicity
};

ClassInfo classify_bdd(const TruthTable& f, int boundary) {
  BddManager mgr(f.num_vars());
  const BddRef root = mgr.from_truth_table(f);
  const std::vector<BddRef> classes = mgr.boundary_cofactors(root, boundary);
  std::map<BddRef, std::uint32_t> index_of;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    index_of.emplace(classes[i], static_cast<std::uint32_t>(i));
  }
  ClassInfo info;
  info.multiplicity = classes.size();
  info.code_of.resize(std::size_t{1} << boundary);
  for (std::uint32_t a = 0; a < info.code_of.size(); ++a) {
    info.code_of[a] = index_of.at(mgr.cofactor_at(root, boundary, a));
  }
  info.class_tt.reserve(classes.size());
  for (const BddRef c : classes) {
    info.class_tt.push_back(mgr.to_truth_table(c, f.num_vars()));
  }
  return info;
}

ClassInfo classify_tt(const TruthTable& f, int boundary) {
  ClassInfo info;
  info.code_of.resize(std::size_t{1} << boundary);
  std::map<std::string, std::uint32_t> index_of;  // column signature -> class
  const int free_vars = f.num_vars() - boundary;
  const std::uint32_t free_count = std::uint32_t{1} << free_vars;
  for (std::uint32_t a = 0; a < info.code_of.size(); ++a) {
    std::string signature(free_count, '0');
    for (std::uint32_t y = 0; y < free_count; ++y) {
      if (f.bit(a | (y << boundary))) signature[y] = '1';
    }
    const auto [it, inserted] =
        index_of.emplace(std::move(signature), static_cast<std::uint32_t>(info.class_tt.size()));
    if (inserted) {
      // Representative: f with the bound variables fixed to this assignment.
      TruthTable rep = f;
      for (int v = 0; v < boundary; ++v) rep = rep.cofactor(v, (a >> v) & 1);
      info.class_tt.push_back(std::move(rep));
    }
    info.code_of[a] = it->second;
  }
  info.multiplicity = info.class_tt.size();
  return info;
}

// ---- The production kernel: classes by hashing truth-table runs ----
//
// The kernel reads f reordered so that its r free variables are 0..r-1 and
// bound variable j is r+j. The cofactor under bound assignment a is then one
// run of 2^r bits starting at bit a << r: a bit field inside one word when
// r < 6, whole words from word a << (r-6) otherwise.

/// `count` (<= 32) bits of run a of g from free assignment y on; count is a
/// power of two and y a multiple of it, so the bits lie in one word.
std::uint64_t run_bits(const TruthTable& g, int r, std::uint32_t a, std::uint32_t y, int count) {
  const std::size_t pos = (std::size_t{a} << r) + y;
  return (g.word(pos >> 6) >> (pos & 63)) & ((std::uint64_t{1} << count) - 1);
}

std::span<const std::uint64_t> run_words(const TruthTable& g, int r, std::uint32_t a) {
  const std::size_t n = std::size_t{1} << (r - 6);
  return g.words().subspan(a * n, n);
}

/// Exact for r < 6 (the run itself); a hash of the run's words otherwise.
std::uint64_t run_key(const TruthTable& g, int r, std::uint32_t a) {
  if (r < 6) return run_bits(g, r, a, 0, 1 << r);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t w : run_words(g, r, a)) {
    h = std::rotl((h ^ w) * 0xff51afd7ed558ccdULL, 29);
  }
  return h;
}

std::uint32_t bit_reverse(std::uint32_t x, int bits) {
  std::uint32_t y = 0;
  for (int i = 0; i < bits; ++i) y |= ((x >> i) & 1) << (bits - 1 - i);
  return y;
}

struct RunClasses {
  std::vector<std::uint32_t> code_of;  // class per bound assignment (bit j = bound var j)
  std::vector<std::uint32_t> rep;      // per class: a bound assignment whose run it is
};

/// Classes numbered by first occurrence in x0-major order — the low-first
/// DFS order in which BddManager::boundary_cofactors emits them on the OBDD
/// with the bound set first — so codes and encoders match the paper's OBDD
/// classification exactly.
RunClasses classify_runs(const TruthTable& g, int boundary) {
  const int r = g.num_vars() - boundary;
  RunClasses out;
  out.code_of.resize(std::size_t{1} << boundary);
  std::vector<std::uint64_t> key_of;  // per class
  for (std::uint32_t i = 0; i < out.code_of.size(); ++i) {
    const std::uint32_t a = bit_reverse(i, boundary);
    const std::uint64_t key = run_key(g, r, a);
    std::uint32_t c = 0;
    while (c < out.rep.size() &&
           !(key_of[c] == key &&
             (r < 6 || std::ranges::equal(run_words(g, r, out.rep[c]), run_words(g, r, a))))) {
      ++c;
    }
    if (c == out.rep.size()) {
      out.rep.push_back(a);
      key_of.push_back(key);
    }
    out.code_of[a] = c;
  }
  return out;
}

/// Moves bit i of x to bit i << t, for i < 64 >> t (1 <= t <= 5).
std::uint64_t spread_bits(std::uint64_t x, int t) {
  // After the step for bit k of i, the bits of i from k up have been scaled
  // by 2^t; kMask[t][k] holds the positions occupied at that point.
  static constexpr auto kMask = [] {
    std::array<std::array<std::uint64_t, 6>, 6> m{};
    for (int s = 1; s < 6; ++s) {
      for (int k = 0; k < 6 - s; ++k) {
        for (int i = 0; i < (64 >> s); ++i) {
          m[s][k] |= std::uint64_t{1} << (((i >> k) << (k + s)) | (i & ((1 << k) - 1)));
        }
      }
    }
    return m;
  }();
  for (int k = 5 - t; k >= 0; --k) {
    x = (x | (x << ((1 << k) * ((1 << t) - 1)))) & kMask[t][k];
  }
  return x;
}

/// The function left after one step, over (t code variables, r free
/// variables): under code c it is the run of class c. Codes >= mu are never
/// produced by the encoders; they read class 0.
TruthTable residue(const TruthTable& g, int r, std::span<const std::uint32_t> rep, int t) {
  const int arity = t + r;
  const auto run_of = [&](std::uint32_t code) { return rep[code < rep.size() ? code : 0]; };
  if (arity <= 6 || t >= 6) {
    TruthTable out = TruthTable::constant(arity, false);
    const std::uint32_t codes = (std::uint32_t{1} << t) - 1;
    for (std::uint32_t x = 0; x < out.num_bits(); ++x) {
      if (run_bits(g, r, run_of(x & codes), x >> t, 1) != 0) out.set_bit(x, true);
    }
    return out;
  }
  // Each output word interleaves 64 >> t consecutive free assignments of
  // every code's run.
  const int chunk = 64 >> t;
  std::vector<std::uint64_t> words(std::size_t{1} << (arity - 6), 0);
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint32_t c = 0; c < (std::uint32_t{1} << t); ++c) {
      const std::uint32_t y = static_cast<std::uint32_t>(w) * static_cast<std::uint32_t>(chunk);
      words[w] |= spread_bits(run_bits(g, r, run_of(c), y, chunk), t) << c;
    }
  }
  return TruthTable::from_words(arity, words);
}

/// Run a of g as a function of the r free variables.
TruthTable run_table(const TruthTable& g, int r, std::uint32_t a) {
  if (r < 6) {
    const std::uint64_t field = run_bits(g, r, a, 0, 1 << r);
    return TruthTable::from_words(r, std::span(&field, 1));
  }
  return TruthTable::from_words(r, run_words(g, r, a));
}

/// Variable map from the bound-first layout (bound set at 0..boundary-1) to
/// the kernel layout (free variables low, bound set high).
std::vector<int> kernel_layout(int num_vars, int boundary) {
  std::vector<int> var_map(static_cast<std::size_t>(num_vars));
  for (int v = 0; v < num_vars; ++v) {
    var_map[static_cast<std::size_t>(v)] = v < boundary ? num_vars - boundary + v : v - boundary;
  }
  return var_map;
}

/// One chunk of 2^width bits of t (chunk a), as words.
std::vector<std::uint64_t> chunk_of(const TruthTable& t, int width, std::uint32_t a) {
  if (width < 6) return {run_bits(t, width, a, 0, 1 << width)};
  const auto words = run_words(t, width, a);
  return {words.begin(), words.end()};
}

std::size_t robdd_node_count(const TruthTable& f) {
  // Reverse the variables so that fixing BDD levels 0..v-1 selects chunk a
  // of 2^(m-v) bits. A node at level v is a distinct such chunk whose two
  // halves (level v = 0 / 1) differ.
  const int m = f.num_vars();
  std::vector<int> reverse(static_cast<std::size_t>(m));
  for (int v = 0; v < m; ++v) reverse[static_cast<std::size_t>(v)] = m - 1 - v;
  const TruthTable rev = f.remap(m, reverse);
  std::size_t nodes = 0;
  for (int v = 0; v < m; ++v) {
    const int width = m - v;
    std::set<std::vector<std::uint64_t>> distinct;
    for (std::uint32_t a = 0; a < (std::uint32_t{1} << v); ++a) {
      if (chunk_of(rev, width - 1, 2 * a) != chunk_of(rev, width - 1, 2 * a + 1)) {
        distinct.insert(chunk_of(rev, width, a));
      }
    }
    nodes += distinct.size();
  }
  return nodes;
}

int ceil_log2(std::size_t x) {
  TS_ASSERT(x >= 1);
  return x == 1 ? 0 : std::bit_width(x - 1);
}

struct Signal {
  int eff;          // effective label as seen at the root
  DecompFanin ref;  // what drives this signal
};

}  // namespace

ColumnClasses column_classes(const TruthTable& f, int boundary) {
  TS_CHECK(boundary >= 0 && boundary <= f.num_vars(), "boundary out of range");
  const int r = f.num_vars() - boundary;
  const TruthTable g = f.remap(f.num_vars(), kernel_layout(f.num_vars(), boundary));
  RunClasses classes = classify_runs(g, boundary);
  ColumnClasses out;
  out.code_of = std::move(classes.code_of);
  for (const std::uint32_t a : classes.rep) out.functions.push_back(run_table(g, r, a));
  return out;
}

ColumnClasses column_classes_bdd(const TruthTable& f, int boundary) {
  TS_CHECK(boundary >= 0 && boundary <= f.num_vars(), "boundary out of range");
  ClassInfo info = classify_bdd(f, boundary);
  ColumnClasses out;
  out.code_of = std::move(info.code_of);
  for (TruthTable& c : info.class_tt) {
    for (int v = 0; v < boundary; ++v) c = c.drop_var(0);
    out.functions.push_back(std::move(c));
  }
  return out;
}

std::size_t column_multiplicity_bdd(const TruthTable& f, int boundary) {
  return classify_bdd(f, boundary).multiplicity;
}

std::size_t column_multiplicity_tt(const TruthTable& f, int boundary) {
  return classify_tt(f, boundary).multiplicity;
}

bool robdd_exceeds_budget(const TruthTable& f, std::size_t node_budget) {
  // make_node creates the n-th internal node while the manager holds n+1
  // nodes (two terminals), and saturates when that count reaches the budget.
  const std::size_t nodes = robdd_node_count(f);
  return nodes >= 1 && nodes + 1 >= node_budget;
}

namespace {

/// Backtracking driver for decompose_for_label. Each recursion level picks a
/// bound set, performs one Roth–Karp step, and recurses on the residue;
/// dead ends backtrack to the next bound-set choice under a global attempt
/// budget (the paper's Cmax <= 15 keeps these functions tiny, so the budget
/// is rarely consumed).
class DecompSearch {
 public:
  DecompSearch(int target_label, const DecompOptions& options)
      : target_(target_label), options_(options), attempts_left_(options.max_attempts) {}

  bool solve(const TruthTable& f, std::vector<Signal> signals, std::vector<DecompLut>& luts) {
    if (static_cast<int>(signals.size()) <= options_.k) {
      // Root LUT fits: success iff every remaining signal meets the target.
      DecompLut root;
      root.func = f;
      achieved_ = 0;
      for (const Signal& s : signals) {
        root.fanins.push_back(s.ref);
        achieved_ = std::max(achieved_, s.eff + 1);
      }
      if (achieved_ > target_) return false;
      luts.push_back(std::move(root));
      return true;
    }
    const int m = static_cast<int>(signals.size());
    // Candidates for the bound set: signals that can afford one more level,
    // least critical first.
    std::vector<int> candidates;
    for (int i = 0; i < m; ++i) {
      if (signals[static_cast<std::size_t>(i)].eff <= target_ - 2) candidates.push_back(i);
    }
    std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      return signals[static_cast<std::size_t>(a)].eff < signals[static_cast<std::size_t>(b)].eff;
    });

    for (int b = std::min<int>(options_.k, static_cast<int>(candidates.size())); b >= 2; --b) {
      for (std::size_t start = 0; start + static_cast<std::size_t>(b) <= candidates.size();
           ++start) {
        if (attempts_left_-- <= 0) return false;
        const std::span<const int> bound(candidates.data() + start, static_cast<std::size_t>(b));
        if (try_step(f, signals, bound, luts)) return true;
      }
    }
    return false;
  }

  int achieved() const { return achieved_; }
  bool budget_limited() const { return budget_limited_; }

 private:
  bool try_step(const TruthTable& f, const std::vector<Signal>& signals,
                std::span<const int> bound, std::vector<DecompLut>& luts) {
    const int m = static_cast<int>(signals.size());
    const int b = static_cast<int>(bound.size());
    const int r = m - b;
    // Kernel layout: kept signals become variables 0..r-1 in their order and
    // bound signal j becomes variable r+j. bound_first is the classic layout
    // (bound j at j, kept from b on) the BDD budget and the legacy engine use.
    std::vector<int> var_map(static_cast<std::size_t>(m), -1);
    std::vector<int> bound_first(static_cast<std::size_t>(m));
    for (int j = 0; j < b; ++j) {
      var_map[static_cast<std::size_t>(bound[static_cast<std::size_t>(j)])] = r + j;
      bound_first[static_cast<std::size_t>(bound[static_cast<std::size_t>(j)])] = j;
    }
    std::vector<int> kept;  // signal indices, in var order 0..r-1
    for (int i = 0; i < m; ++i) {
      if (var_map[static_cast<std::size_t>(i)] < 0) {
        var_map[static_cast<std::size_t>(i)] = static_cast<int>(kept.size());
        bound_first[static_cast<std::size_t>(i)] = b + static_cast<int>(kept.size());
        kept.push_back(i);
      }
    }

    // runs: run a is the cofactor under bound assignment a (for the legacy
    // engine, run c is class c); classes.rep names each class's run.
    TruthTable runs;
    RunClasses classes;
    if (options_.use_bdd) {
      if (options_.bdd_node_budget > 0 &&
          robdd_exceeds_budget(f.remap(m, bound_first), options_.bdd_node_budget)) {
        budget_limited_ = true;
        return false;  // could not even classify: treat as no compression
      }
      runs = f.remap(m, var_map);
      classes = classify_runs(runs, b);
    } else {
      ClassInfo info = classify_tt(f.remap(m, bound_first), b);
      runs = TruthTable::constant(m, false);
      for (std::uint32_t c = 0; c < info.multiplicity; ++c) {
        for (std::uint32_t y = 0; y < (std::uint32_t{1} << r); ++y) {
          if (info.class_tt[c].bit(y << b)) runs.set_bit((c << r) | y, true);
        }
        classes.rep.push_back(c);
      }
      classes.code_of = std::move(info.code_of);
    }
    const int t = std::max(1, ceil_log2(classes.rep.size()));
    if (t >= b) return false;  // no compression from this bound set

    // Encoder LUTs e_0..e_{t-1} over the bound signals.
    int eff_bound = 0;
    for (const int i : bound) {
      eff_bound = std::max(eff_bound, signals[static_cast<std::size_t>(i)].eff);
    }
    const std::size_t luts_mark = luts.size();
    std::vector<Signal> remaining;
    for (int j = 0; j < t; ++j) {
      DecompLut lut;
      lut.func = TruthTable::constant(b, false);
      for (std::uint32_t a = 0; a < classes.code_of.size(); ++a) {
        if ((classes.code_of[a] >> j) & 1) lut.func.set_bit(a, true);
      }
      for (const int i : bound) lut.fanins.push_back(signals[static_cast<std::size_t>(i)].ref);
      luts.push_back(std::move(lut));
      remaining.push_back(
          Signal{eff_bound + 1, DecompFanin::lut(static_cast<int>(luts.size() - 1))});
    }
    for (const int i : kept) remaining.push_back(signals[static_cast<std::size_t>(i)]);

    // New function over (code vars, kept vars).
    const TruthTable next_f = residue(runs, r, classes.rep, t);

    if (solve(next_f, std::move(remaining), luts)) return true;
    luts.resize(luts_mark);  // undo this step's encoders and backtrack
    return false;
  }

  int target_;
  const DecompOptions& options_;
  int attempts_left_;
  int achieved_ = 0;
  bool budget_limited_ = false;
};

}  // namespace

DecompResult decompose_for_label(const TruthTable& f, std::span<const int> eff_labels,
                                 int target_label, const DecompOptions& options) {
  TS_CHECK(options.k >= 2, "LUT size must be at least 2");
  TS_CHECK(static_cast<int>(eff_labels.size()) == f.num_vars(),
           "one effective label per input required");

  DecompResult result;

  // Restrict to the support: min-cuts can include inputs the cut function
  // does not actually depend on.
  TruthTable current = f;
  std::vector<Signal> signals;
  {
    const std::vector<int> support = current.support();
    for (const int v : support) {
      signals.push_back(Signal{eff_labels[static_cast<std::size_t>(v)], DecompFanin::input(v)});
    }
    for (int v = f.num_vars() - 1; v >= 0; --v) {
      if (!std::binary_search(support.begin(), support.end(), v)) {
        current = current.drop_var(v);
      }
    }
  }

  DecompSearch search(target_label, options);
  result.success = search.solve(current, std::move(signals), result.luts);
  result.achieved_label = search.achieved();
  result.budget_limited = search.budget_limited();
  if (!result.success) result.luts.clear();
  return result;
}

bool evaluate_decomposition(const DecompResult& result, std::uint32_t assignment) {
  TS_CHECK(!result.luts.empty(), "empty decomposition");
  std::vector<bool> lut_value(result.luts.size(), false);
  for (std::size_t i = 0; i < result.luts.size(); ++i) {
    const DecompLut& lut = result.luts[i];
    std::uint32_t local = 0;
    for (std::size_t j = 0; j < lut.fanins.size(); ++j) {
      const DecompFanin& fin = lut.fanins[j];
      const bool v = fin.kind == DecompFanin::Kind::kInput
                         ? ((assignment >> fin.index) & 1) != 0
                         : lut_value[static_cast<std::size_t>(fin.index)];
      if (v) local |= std::uint32_t{1} << j;
    }
    lut_value[i] = lut.func.bit(local);
  }
  return lut_value.back();
}

bool decomposition_matches(const DecompResult& result, const TruthTable& f) {
  const std::uint32_t total = static_cast<std::uint32_t>(f.num_bits());
  for (std::uint32_t x = 0; x < total; ++x) {
    if (evaluate_decomposition(result, x) != f.bit(x)) return false;
  }
  return true;
}

}  // namespace turbosyn
