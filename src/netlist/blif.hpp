#pragma once
// BLIF reader/writer (the SIS subset used by the MCNC benchmark flows).
//
// Supported constructs: .model/.inputs/.outputs/.names/.latch/.end, comments
// and line continuations. Latches are absorbed into edge weights of the
// retiming graph (a chain of k latches becomes weight k). Circuits start from
// the all-zero state, consistent with the paper's retiming formulation, so a
// latch line is `.latch <in> <out> [<init>]` with init 0, 2 (don't care) or
// 3 (unknown), all read as 0. Init 1 and latch type/control fields are
// rejected with a file:line message rather than silently rewritten.
// PO nodes receive an internal "$po:" name prefix so that output names may
// coincide with internal signal names; the writer strips the prefix.

#include <iosfwd>
#include <string>

#include "netlist/circuit.hpp"

namespace turbosyn {

inline constexpr const char* kPoPrefix = "$po:";

/// The user-visible name of a PO node (strips the internal prefix).
std::string po_display_name(const Circuit& c, NodeId po);

/// Parses a BLIF model into a Circuit. Throws turbosyn::Error on malformed
/// input (unknown signals, duplicate drivers, combinational loops, trailing
/// garbage after .end, ...); diagnostics carry "source:line:" context, with
/// `source_name` (the file path for read_blif_file) naming the input.
Circuit read_blif(std::istream& in, const std::string& source_name = "<blif>");
Circuit read_blif_string(const std::string& text, const std::string& source_name = "<blif>");
Circuit read_blif_file(const std::string& path);

/// Serializes the circuit as BLIF; edge weights are expanded into latch
/// chains. Gates are emitted as minterm covers.
void write_blif(const Circuit& c, std::ostream& out, const std::string& model_name = "circuit");
std::string write_blif_string(const Circuit& c, const std::string& model_name = "circuit");
void write_blif_file(const Circuit& c, const std::string& path,
                     const std::string& model_name = "circuit");

}  // namespace turbosyn
