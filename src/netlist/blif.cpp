#include "netlist/blif.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "base/check.hpp"
#include "base/failpoint.hpp"

namespace turbosyn {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

/// A named signal together with the line of the directive that mentioned it.
struct SignalRef {
  std::string name;
  int line = 0;
};

/// One .names block: output signal, input signals, cover rows.
struct CoverBlock {
  std::string output;
  std::vector<std::string> inputs;
  struct Row {
    std::string plane;  // input plane ('0'/'1'/'-')
    char bit = '1';     // output bit
    int line = 0;
  };
  std::vector<Row> rows;
  int line = 0;  // line of the .names directive
};

struct LatchDef {
  std::string input;
  std::string output;
  int line = 0;
};

/// Builds a truth table from an SOP cover. All rows must share the output
/// polarity (as SIS writes them); a '0' output plane complements the OR.
/// `src` names the input for "source:line:" diagnostics.
TruthTable cover_to_truth_table(const CoverBlock& block, const std::string& src) {
  const int arity = static_cast<int>(block.inputs.size());
  TS_CHECK(arity <= TruthTable::kMaxVars,
           src << ':' << block.line << ": .names '" << block.output << "' has " << arity
               << " inputs (max " << TruthTable::kMaxVars << ")");
  TruthTable sum = TruthTable::constant(arity, false);
  char polarity = '1';
  bool polarity_set = false;
  for (const auto& row : block.rows) {
    TS_CHECK(static_cast<int>(row.plane.size()) == arity,
             src << ':' << row.line << ": .names '" << block.output
                 << "': cover row width mismatch (" << row.plane.size() << " columns for "
                 << arity << " inputs)");
    TS_CHECK(row.bit == '0' || row.bit == '1',
             src << ':' << row.line << ": invalid cover output bit '" << row.bit << "'");
    if (!polarity_set) {
      polarity = row.bit;
      polarity_set = true;
    }
    TS_CHECK(row.bit == polarity, src << ':' << row.line << ": .names '" << block.output
                                      << "': mixed output polarities");
    TruthTable product = TruthTable::constant(arity, true);
    for (int i = 0; i < arity; ++i) {
      if (row.plane[static_cast<std::size_t>(i)] == '1') {
        product = product & TruthTable::var(arity, i);
      } else if (row.plane[static_cast<std::size_t>(i)] == '0') {
        product = product & ~TruthTable::var(arity, i);
      } else {
        TS_CHECK(row.plane[static_cast<std::size_t>(i)] == '-',
                 src << ':' << row.line << ": invalid cover input character '"
                     << row.plane[static_cast<std::size_t>(i)] << "'");
      }
    }
    sum = sum | product;
  }
  if (!polarity_set) return TruthTable::constant(arity, false);  // empty cover = const 0
  return polarity == '1' ? sum : ~sum;
}

class BlifParser {
 public:
  BlifParser(std::istream& in, std::string source) : in_(in), src_(std::move(source)) {}

  Circuit parse() {
    read_sections();
    return build();
  }

 private:
  /// "source:line: " prefix for diagnostics anchored at `line`.
  std::string at(int line) const { return src_ + ':' + std::to_string(line) + ": "; }

  void read_sections() {
    std::string line;
    std::string pending;
    int pending_start = 0;  // line where the current continuation began
    int line_no = 0;
    bool done = false;
    while (!done && std::getline(in_, line)) {
      ++line_no;
      // Strip comments and handle '\' continuations.
      if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
      if (!line.empty() && line.back() == '\\') {
        if (pending.empty()) pending_start = line_no;
        line.pop_back();
        pending += line + ' ';
        continue;
      }
      // A construct is reported at the line it started on.
      const int at_line = pending.empty() ? line_no : pending_start;
      line = pending + line;
      pending.clear();
      const auto tokens = tokenize(line);
      if (tokens.empty()) continue;
      const std::string& head = tokens[0];
      if (head[0] != '.') {
        TS_CHECK(current_cover_ != nullptr, at(at_line) << "cover row outside a .names block");
        if (tokens.size() == 1) {
          // Constant function: single output column.
          TS_CHECK(current_cover_->inputs.empty(),
                   at(at_line) << "cover row missing input plane");
          current_cover_->rows.push_back({"", tokens[0][0], at_line});
        } else {
          TS_CHECK(tokens.size() == 2, at(at_line) << "cover row must be '<plane> <bit>'");
          current_cover_->rows.push_back({tokens[0], tokens[1][0], at_line});
        }
        continue;
      }
      current_cover_ = nullptr;
      if (head == ".model") {
        // Model name ignored (single-model files only).
      } else if (head == ".inputs") {
        for (auto it = tokens.begin() + 1; it != tokens.end(); ++it) {
          inputs_.push_back({*it, at_line});
        }
      } else if (head == ".outputs") {
        for (auto it = tokens.begin() + 1; it != tokens.end(); ++it) {
          outputs_.push_back({*it, at_line});
        }
      } else if (head == ".names") {
        TS_CHECK(tokens.size() >= 2, at(at_line) << ".names requires at least an output");
        CoverBlock block;
        block.output = tokens.back();
        block.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
        block.line = at_line;
        covers_.push_back(std::move(block));
        current_cover_ = &covers_.back();
      } else if (head == ".latch") {
        // .latch <in> <out> [<type> <control>] [<init>]
        TS_CHECK(tokens.size() >= 3, at(at_line) << ".latch requires input and output");
        TS_CHECK(tokens.size() <= 4,
                 at(at_line) << ".latch type/control is not supported (only '.latch <in> <out> "
                                "[<init>]' clocked by the global clock)");
        if (tokens.size() == 4) {
          const std::string& init = tokens[3];
          TS_CHECK(init != "1", at(at_line) << ".latch initial value 1 is not supported: "
                                               "initial states are taken as all-zero");
          TS_CHECK(init == "0" || init == "2" || init == "3",
                   at(at_line) << "invalid .latch initial value '" << init
                               << "' (expected 0, 2 or 3; type/control is not supported)");
        }
        latches_.push_back(LatchDef{tokens[1], tokens[2], at_line});
      } else if (head == ".end") {
        done = true;
      } else {
        TS_CHECK(false, at(at_line) << "unsupported BLIF construct '" << head << "'");
      }
    }
    TS_CHECK(pending.empty(), at(pending_start) << "dangling line continuation at end of file");
    // Nothing but whitespace and comments may follow .end: silently ignoring
    // content there hides concatenated models and truncation artifacts.
    while (std::getline(in_, line)) {
      ++line_no;
      if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
      TS_CHECK(tokenize(line).empty(), at(line_no) << "trailing garbage after .end");
    }
  }

  /// Resolves a signal name to its combinational driver node plus the number
  /// of latches between driver and the named signal (latch chains collapse
  /// into the returned edge weight). `line` anchors diagnostics at the
  /// directive that referenced the signal.
  Circuit::FaninSpec resolve(const Circuit& c, const std::string& signal, int line) const {
    std::string target = signal;
    int weight = 0;
    while (true) {
      const auto it = latch_by_output_.find(target);
      if (it == latch_by_output_.end()) break;
      ++weight;
      TS_CHECK(weight <= static_cast<int>(latches_.size()),
               at(line) << "latch loop without combinational driver at '" << signal << "'");
      target = it->second->input;
    }
    const NodeId v = c.find(target);
    TS_CHECK(v != kNoNode, at(line) << "undriven signal '" << target << "'");
    return Circuit::FaninSpec{v, weight};
  }

  Circuit build() {
    Circuit c;
    std::unordered_set<std::string> driven;
    for (const auto& latch : latches_) {
      TS_CHECK(driven.insert(latch.output).second,
               at(latch.line) << "signal '" << latch.output << "' driven more than once");
      latch_by_output_.emplace(latch.output, &latch);
    }
    for (const SignalRef& in : inputs_) {
      TS_CHECK(driven.insert(in.name).second,
               at(in.line) << "signal '" << in.name << "' driven more than once");
      c.add_pi(in.name);
    }
    // Declare all gates first (sequential loops make any bottom-up order
    // impossible), then attach covers and finally the POs.
    std::vector<NodeId> gate_of(covers_.size());
    for (std::size_t i = 0; i < covers_.size(); ++i) {
      TS_CHECK(driven.insert(covers_[i].output).second,
               at(covers_[i].line)
                   << "signal '" << covers_[i].output << "' driven more than once");
      gate_of[i] = c.declare_gate(covers_[i].output);
    }
    for (std::size_t i = 0; i < covers_.size(); ++i) {
      std::vector<Circuit::FaninSpec> fanins;
      fanins.reserve(covers_[i].inputs.size());
      for (const std::string& in : covers_[i].inputs) {
        fanins.push_back(resolve(c, in, covers_[i].line));
      }
      c.finish_gate(gate_of[i], cover_to_truth_table(covers_[i], src_), fanins);
    }
    for (const SignalRef& out : outputs_) {
      c.add_po(std::string(kPoPrefix) + out.name, resolve(c, out.name, out.line));
    }
    c.validate();
    return c;
  }

  std::istream& in_;
  std::string src_;
  std::vector<SignalRef> inputs_;
  std::vector<SignalRef> outputs_;
  std::vector<CoverBlock> covers_;
  std::vector<LatchDef> latches_;
  CoverBlock* current_cover_ = nullptr;
  std::unordered_map<std::string, const LatchDef*> latch_by_output_;
};

}  // namespace

std::string po_display_name(const Circuit& c, NodeId po) {
  TS_CHECK(c.is_po(po), "po_display_name requires a PO node");
  const std::string& n = c.name(po);
  if (n.rfind(kPoPrefix, 0) == 0) return n.substr(std::string(kPoPrefix).size());
  return n;
}

Circuit read_blif(std::istream& in, const std::string& source_name) {
  return BlifParser(in, source_name).parse();
}

Circuit read_blif_string(const std::string& text, const std::string& source_name) {
  std::istringstream is(text);
  return read_blif(is, source_name);
}

Circuit read_blif_file(const std::string& path) {
  // Fault-injection site for ingest-path hardening tests: an armed
  // "blif.read" failpoint makes the read fail exactly as an unreadable file
  // would (the kThrow/kError policies both surface as turbosyn::Error here,
  // which batch supervision contains into a failed record).
  if (failpoint::enabled() &&
      failpoint::check("blif.read").action == failpoint::Action::kError) {
    throw Error("failpoint blif.read: cannot read BLIF file '" + path + "'");
  }
  std::ifstream f(path);
  TS_CHECK(f.good(), "cannot open BLIF file '" << path << "'");
  return read_blif(f, path);
}

void write_blif(const Circuit& c, std::ostream& out, const std::string& model_name) {
  out << ".model " << model_name << '\n';
  out << ".inputs";
  for (const NodeId pi : c.pis()) out << ' ' << c.name(pi);
  out << '\n';
  out << ".outputs";
  for (const NodeId po : c.pos()) out << ' ' << po_display_name(c, po);
  out << '\n';

  // Latch chains: signal name of `driver` delayed by `level` >= 1 latches.
  // All .latch lines are emitted up front (before any .names) so gate covers
  // can reference them.
  //
  // A PO fed through latches reserves its display name for the final latch
  // output of its chain (first PO wins), so `.latch n q 0` + `.outputs q`
  // round-trips without a buffer gate — the parser would otherwise turn the
  // writer's `.names n_ff1 q` alias into a real node.
  std::unordered_set<std::string> taken;
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_po(v)) taken.insert(c.name(v));
  }
  std::map<std::pair<NodeId, int>, std::string> reserved;
  for (const NodeId po : c.pos()) {
    const auto& e = c.edge(c.fanin_edges(po)[0]);
    if (e.weight == 0) continue;
    const std::string display = po_display_name(c, po);
    if (!taken.insert(display).second) continue;  // name already in use
    reserved.emplace(std::make_pair(e.from, e.weight), display);
  }
  std::map<std::pair<NodeId, int>, std::string> latch_signal;
  const auto declare_chain = [&](NodeId driver, int weight) {
    std::string prev = c.name(driver);
    for (int lvl = 1; lvl <= weight; ++lvl) {
      auto [it, inserted] = latch_signal.emplace(std::make_pair(driver, lvl), "");
      if (inserted) {
        const auto r = reserved.find(std::make_pair(driver, lvl));
        it->second =
            r != reserved.end() ? r->second : c.name(driver) + "_ff" + std::to_string(lvl);
        out << ".latch " << prev << ' ' << it->second << " 0\n";
      }
      prev = it->second;
    }
  };
  for (EdgeId e = 0; e < c.num_edges(); ++e) {
    declare_chain(c.edge(e).from, c.edge(e).weight);
  }
  const auto signal_at = [&](NodeId driver, int weight) -> std::string {
    if (weight == 0) return c.name(driver);
    return latch_signal.at(std::make_pair(driver, weight));
  };

  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    if (!c.is_gate(v)) continue;
    const auto fanins = c.fanin_edges(v);
    out << ".names";
    for (const EdgeId e : fanins) out << ' ' << signal_at(c.edge(e).from, c.edge(e).weight);
    out << ' ' << c.name(v) << '\n';
    const TruthTable& f = c.function(v);
    const int arity = f.num_vars();
    if (arity == 0) {
      if (f.bit(0)) out << "1\n";
      continue;
    }
    for (std::uint32_t m = 0; m < f.num_bits(); ++m) {
      if (!f.bit(m)) continue;
      std::string plane(static_cast<std::size_t>(arity), '0');
      for (int i = 0; i < arity; ++i) {
        if ((m >> i) & 1) plane[static_cast<std::size_t>(i)] = '1';
      }
      out << plane << " 1\n";
    }
  }

  for (const NodeId po : c.pos()) {
    const auto& e = c.edge(c.fanin_edges(po)[0]);
    const std::string sig = signal_at(e.from, e.weight);
    const std::string display = po_display_name(c, po);
    if (sig != display) out << ".names " << sig << ' ' << display << "\n1 1\n";
  }
  out << ".end\n";
}

std::string write_blif_string(const Circuit& c, const std::string& model_name) {
  std::ostringstream os;
  write_blif(c, os, model_name);
  return os.str();
}

void write_blif_file(const Circuit& c, const std::string& path, const std::string& model_name) {
  std::ofstream f(path);
  TS_CHECK(f.good(), "cannot open '" << path << "' for writing");
  write_blif(c, f, model_name);
}

}  // namespace turbosyn
